"""Table combination with origin indicators."""

from __future__ import annotations

import io
import random

import pytest

from conftest import entry, phrase_pool, random_table, table
from pivotsmith.tablecore import TableError
from pivotsmith.tables import combine_tables, parse_phrase_table, write_phrase_table


def pair_multiset(tbl):
    return sorted(((e.src, e.tgt, e.scores.core()) for e in tbl))


class TestCombine:
    def test_entry_count_is_additive(self):
        rng = random.Random(31)
        a = random_table(rng, phrase_pool(rng, "s", 10), phrase_pool(rng, "t", 8))
        b = random_table(rng, phrase_pool(rng, "s", 6), phrase_pool(rng, "t", 5))
        combined = combine_tables([(a, "direct"), (b, "pivoted")])
        assert len(combined) == len(a) + len(b)

    def test_shared_pair_keeps_one_entry_per_input(self):
        a = table([entry("a", "x", scores=(0.9, 0.9, 0.9, 0.9))])
        b = table([entry("a", "x", scores=(0.1, 0.1, 0.1, 0.1))])
        combined = combine_tables([(a, "one"), (b, "two")])
        assert len(combined) == 2
        first, second = combined.entries
        assert first.scores.extra("origin_one") == 1.0
        assert first.scores.extra("origin_two") == 0.0
        assert first.scores.phi_fwd == 0.9
        assert second.scores.extra("origin_two") == 1.0
        assert second.scores.phi_fwd == 0.1

    def test_origin_columns_follow_input_order(self):
        a = table([entry("a", "x")])
        b = table([entry("b", "y")])
        combined = combine_tables([(a, "one"), (b, "two")])
        assert combined.manifest[4:] == ("origin_one", "origin_two")

    def test_extras_unioned_with_zero_fill(self):
        a = table([entry("a", "x", extras=(("conn_s", 0.5), ("conn_t", 0.7)))],
                  ("conn_s", "conn_t"))
        b = table([entry("b", "y")])
        combined = combine_tables([(a, "one"), (b, "two")])
        assert combined.manifest[4:] == (
            "conn_s", "conn_t", "origin_one", "origin_two")
        by_src = {e.src: e for e in combined}
        assert by_src[("b",)].scores.extra("conn_s") == 0.0
        assert by_src[("a",)].scores.extra("conn_s") == 0.5

    def test_three_way_merge_keeps_every_entry(self):
        rng = random.Random(32)
        tables = [
            random_table(rng, phrase_pool(rng, "s", 6), phrase_pool(rng, "t", 6))
            for _ in range(3)
        ]
        named = [(tbl, f"in{i}") for i, tbl in enumerate(tables)]
        combined = combine_tables(named)
        expected = sorted(sum((pair_multiset(t) for t in tables), []))
        assert pair_multiset(combined) == expected

    def test_bad_names_rejected(self):
        a = table([entry("a", "x")])
        with pytest.raises(TableError, match="bad table name"):
            combine_tables([(a, "has space")])
        with pytest.raises(TableError, match="duplicate table names"):
            combine_tables([(a, "one"), (a, "one")])
        with pytest.raises(TableError, match="no tables"):
            combine_tables([])

    def test_origin_collision_rejected(self):
        a = table([entry("a", "x", extras=(("origin_two", 1.0),))], ("origin_two",))
        b = table([entry("b", "y")])
        with pytest.raises(TableError, match="collides with an origin column"):
            combine_tables([(a, "one"), (b, "two")])

    def test_recombining_a_combined_table(self):
        a = table([entry("a", "x", scores=(0.9, 0.9, 0.9, 0.9))])
        b = table([entry("a", "x", scores=(0.1, 0.1, 0.1, 0.1))])
        first = combine_tables([(a, "one"), (b, "two")])
        c = table([entry("a", "x", scores=(0.5, 0.5, 0.5, 0.5))])
        second = combine_tables([(first, "old"), (c, "new")])
        assert len(second) == 3
        assert second.manifest[4:] == (
            "origin_one", "origin_two", "origin_old", "origin_new")

    def test_round_trip_through_text(self):
        a = table([entry("a", "x", scores=(0.9, 0.9, 0.9, 0.9))])
        b = table([entry("a", "x", scores=(0.1, 0.1, 0.1, 0.1)),
                   entry("b", "y")])
        combined = combine_tables([(a, "one"), (b, "two")])
        out = io.StringIO()
        write_phrase_table(combined, out)
        again = parse_phrase_table(out.getvalue().splitlines())
        assert len(again) == 3
        assert again.manifest == combined.manifest
