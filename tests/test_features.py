"""Constraint feature scorers against literal formula transcriptions."""

from __future__ import annotations

import random
import threading

import pytest

from conftest import entry, table
from pivotsmith.features import (
    annotate_table,
    connectivity_scores,
    induced_morph_scores,
    rule_morph_scores,
)
from pivotsmith.morphmodel import FcModel, MorphLexicon, RuleMapping, build_lexicon
from pivotsmith.tablecore import TableError, ordered_map


# --- reference transcriptions -------------------------------------------------

def oracle_connectivity(e):
    if not e.alignment:
        return 0.0, 0.0
    return (len({i for i, _ in e.alignment}) / len(e.src),
            len({j for _, j in e.alignment}) / len(e.tgt))


def oracle_rule(e, src_lex, tgt_lex, rules, features):
    n, m = len(e.src), len(e.tgt)
    w_s = 0.0
    w_t = 0.0
    for f in features:
        for i, j in e.alignment:
            a = src_lex.mle(e.src[i], f)
            b = tgt_lex.mle(e.tgt[j], f)
            if a is not None and b is not None and rules.allows(f, a, b):
                w_s += 1.0 / n
                w_t += 1.0 / m
    return w_s / len(features), w_t / len(features)


def oracle_induced(e, src_lex, tgt_lex, model):
    n, m = len(e.src), len(e.tgt)
    w_s = sum(model.p_src_given_tgt(src_lex.fc_tag(e.src[i]),
                                    tgt_lex.fc_tag(e.tgt[j]))
              for i, j in e.alignment) / n
    w_t = sum(model.p_tgt_given_src(src_lex.fc_tag(e.src[i]),
                                    tgt_lex.fc_tag(e.tgt[j]))
              for i, j in e.alignment) / m
    return w_s, w_t


# --- random fixtures -----------------------------------------------------------

GENDERS = ("Masculine", "Feminine", "Both", "NA")
NUMBERS = ("Singular", "Dual", "Plural", "NA")
DETS = ("Determiner", "No Determiner", "NA")
POSES = ("NOUN", "VERB", "ADJ")


def random_lexicon(rng, prefix, count):
    rows = []
    for k in range(count):
        rows.append("\t".join((
            f"{prefix}{k}", rng.choice(POSES), rng.choice(GENDERS),
            rng.choice(NUMBERS), rng.choice(DETS))) + "\n")
    return build_lexicon([rows])


def random_rules(rng):
    pairs = {"gen": set(), "num": set(), "det": set(), "pos": set()}
    for feature, pool in (("gen", GENDERS), ("num", NUMBERS),
                          ("det", DETS), ("pos", POSES)):
        for a in pool:
            for b in pool:
                if rng.random() < 0.3:
                    pairs[feature].add((a, b))
    return RuleMapping(pairs)


def random_model(rng, src_lex, tgt_lex):
    tags_src = sorted({src_lex.fc_tag(w) for w in src_lex.words()})
    tags_tgt = sorted({tgt_lex.fc_tag(w) for w in tgt_lex.words()})
    probs = {}
    for a in tags_src:
        for b in tags_tgt:
            if rng.random() < 0.5:
                probs[(a, b)] = (rng.random(), rng.random())
    return FcModel(probs)


def random_entry(rng, src_vocab, tgt_vocab, max_len=4):
    n = rng.randint(1, max_len)
    m = rng.randint(1, max_len)
    src = tuple(rng.choice(src_vocab) for _ in range(n))
    tgt = tuple(rng.choice(tgt_vocab) for _ in range(m))
    links = sorted({(rng.randint(0, n - 1), rng.randint(0, m - 1))
                    for _ in range(rng.randint(0, n * m))})
    return entry(" ".join(src), " ".join(tgt), align=links)


class TestConnectivity:
    def test_handcrafted_coverage(self):
        e = entry("a b", "x y z", align=[(0, 0), (1, 0)])
        assert connectivity_scores(e) == (1.0, 1.0 / 3.0)

    def test_empty_alignment_scores_zero(self):
        assert connectivity_scores(entry("a b", "x")) == (0.0, 0.0)

    def test_matches_oracle_on_random_entries(self):
        rng = random.Random(21)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(300):
            e = random_entry(rng, vocab, vocab)
            assert connectivity_scores(e) == oracle_connectivity(e)


class TestRuleScores:
    def setup_method(self):
        self.rng = random.Random(22)
        self.src_lex = random_lexicon(self.rng, "s", 15)
        self.tgt_lex = random_lexicon(self.rng, "t", 15)
        self.src_vocab = [f"s{k}" for k in range(15)] + ["oov1", "oov2"]
        self.tgt_vocab = [f"t{k}" for k in range(15)] + ["oov3"]

    def test_matches_oracle_on_random_entries(self):
        for _ in range(400):
            rules = random_rules(self.rng)
            e = random_entry(self.rng, self.src_vocab, self.tgt_vocab)
            got = rule_morph_scores(e, self.src_lex, self.tgt_lex, rules)
            want = oracle_rule(e, self.src_lex, self.tgt_lex, rules,
                               ("gen", "num", "det", "pos"))
            assert got == pytest.approx(want, abs=1e-12)

    def test_feature_subset(self):
        rules = random_rules(self.rng)
        e = random_entry(self.rng, self.src_vocab, self.tgt_vocab)
        got = rule_morph_scores(e, self.src_lex, self.tgt_lex, rules,
                                features=("gen",))
        want = oracle_rule(e, self.src_lex, self.tgt_lex, rules, ("gen",))
        assert got == pytest.approx(want, abs=1e-12)

    def test_many_to_many_can_exceed_one(self):
        src_lex = build_lexicon([["w\tNOUN\tFeminine\tNA\tNA\n"]])
        tgt_lex = build_lexicon([["v\tNOUN\tFeminine\tNA\tNA\n"]])
        rules = RuleMapping({"gen": {("Feminine", "Feminine")}})
        e = entry("w", "v v", align=[(0, 0), (0, 1)])
        got = rule_morph_scores(e, src_lex, tgt_lex, rules, features=("gen",))
        assert got.w_s == pytest.approx(2.0)
        assert got.w_t == pytest.approx(1.0)

    def test_unknown_words_contribute_nothing(self):
        rules = RuleMapping({"gen": {("Feminine", "Feminine")}})
        e = entry("oov1", "oov3", align=[(0, 0)])
        got = rule_morph_scores(e, self.src_lex, self.tgt_lex, rules)
        assert got == (0.0, 0.0)

    def test_empty_feature_list_rejected(self):
        e = entry("a", "x")
        with pytest.raises(TableError, match="at least one feature"):
            rule_morph_scores(e, self.src_lex, self.tgt_lex,
                              random_rules(self.rng), features=())


class TestInducedScores:
    def test_matches_oracle_on_random_entries(self):
        rng = random.Random(23)
        src_lex = random_lexicon(rng, "s", 15)
        tgt_lex = random_lexicon(rng, "t", 15)
        src_vocab = [f"s{k}" for k in range(15)] + ["oov1"]
        tgt_vocab = [f"t{k}" for k in range(15)] + ["oov2"]
        for _ in range(400):
            model = random_model(rng, src_lex, tgt_lex)
            e = random_entry(rng, src_vocab, tgt_vocab)
            got = induced_morph_scores(e, src_lex, tgt_lex, model)
            want = oracle_induced(e, src_lex, tgt_lex, model)
            assert got == pytest.approx(want, abs=1e-12)

    def test_fixture_probabilities_pass_through(self):
        src_lex = build_lexicon([["hw\tNOUN\tFeminine\tDual\tDeterminer\n"]])
        tgt_lex = build_lexicon([["aw\tNOUN\tFeminine\tDual\tDeterminer\n"]])
        tag = "[Feminine+Dual+Determiner]"
        model = FcModel({(tag, tag): (0.0148, 0.3333)})
        e = entry("hw", "aw", align=[(0, 0)])
        got = induced_morph_scores(e, src_lex, tgt_lex, model)
        assert got.w_s == pytest.approx(0.3333, abs=1e-6)
        assert got.w_t == pytest.approx(0.0148, abs=1e-6)

    def test_absent_pairs_score_zero(self):
        src_lex = build_lexicon([["hw\tNOUN\tFeminine\tNA\tNA\n"]])
        tgt_lex = build_lexicon([["aw\tNOUN\tMasculine\tNA\tNA\n"]])
        model = FcModel({("[Feminine]", "[Feminine]"): (1.0, 1.0)})
        e = entry("hw", "aw", align=[(0, 0)])
        assert induced_morph_scores(e, src_lex, tgt_lex, model) == (0.0, 0.0)


class TestAnnotate:
    def test_appends_named_columns(self):
        tbl = table([entry("a b", "x", align=[(0, 0), (1, 0)]),
                     entry("c", "y")])
        out = annotate_table(tbl, connectivity_scores, ("conn_s", "conn_t"))
        assert out.manifest[-2:] == ("conn_s", "conn_t")
        by_pair = {(e.src, e.tgt): e for e in out}
        e = by_pair[(("a", "b"), ("x",))]
        assert e.scores.extra("conn_s") == 1.0
        assert e.scores.extra("conn_t") == 1.0
        assert by_pair[(("c",), ("y",))].scores.extra("conn_s") == 0.0

    def test_existing_extras_kept_in_front(self):
        tbl = table([entry("a", "x", extras=(("f", 0.5),))], ("f",))
        out = annotate_table(tbl, connectivity_scores, ("conn_s", "conn_t"))
        assert out.manifest[4:] == ("f", "conn_s", "conn_t")

    def test_name_collision_rejected(self):
        tbl = table([entry("a", "x")])
        with pytest.raises(TableError, match="already in table manifest"):
            annotate_table(tbl, connectivity_scores, ("phi_fwd", "conn_t"))
        out = annotate_table(tbl, connectivity_scores, ("conn_s", "conn_t"))
        with pytest.raises(TableError, match="already in table manifest"):
            annotate_table(out, connectivity_scores, ("conn_s", "conn_t"))

    def test_two_distinct_names_required(self):
        tbl = table([entry("a", "x")])
        with pytest.raises(TableError, match="two distinct"):
            annotate_table(tbl, connectivity_scores, ("same", "same"))

    def test_thread_count_does_not_change_output(self):
        rng = random.Random(24)
        vocab = [f"w{i}" for i in range(10)]
        entries = []
        seen = set()
        for _ in range(60):
            e = random_entry(rng, vocab, vocab, max_len=3)
            if (e.src, e.tgt) not in seen:
                seen.add((e.src, e.tgt))
                entries.append(e)
        tbl = table(entries, ())
        one = annotate_table(tbl, connectivity_scores, ("cs", "ct"), threads=1)
        eight = annotate_table(tbl, connectivity_scores, ("cs", "ct"), threads=8)
        assert one == eight

    def test_scorer_returning_negative_value_rejected(self):
        tbl = table([entry("a", "x")])
        with pytest.raises(TableError, match="bad value"):
            annotate_table(tbl, lambda e: (-1.0, 0.0), ("s", "t"))


class TestOrderedMap:
    def test_runs_in_the_calling_thread(self):
        idents = list(ordered_map(lambda _: threading.get_ident(), range(50), 8))
        assert idents == [threading.get_ident()] * 50

    def test_is_lazy(self):
        calls = []
        results = ordered_map(lambda x: calls.append(x) or 2 * x, range(5), 8)
        assert calls == []
        assert next(results) == 0
        assert calls == [0]
        assert list(results) == [2, 4, 6, 8]

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            list(ordered_map(str, [1], 0))
