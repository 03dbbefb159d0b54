"""Lexicon building, agreement rules, and FC model training."""

from __future__ import annotations

import io

import pytest

from pivotsmith.morphmodel import (
    EMPTY_TAG,
    FcModel,
    MorphLexicon,
    UNKNOWN_TAG,
    build_lexicon,
    default_rules,
    load_rules,
    parse_tagged_corpus,
    render_fc_tag,
    train_fc_model,
)
from pivotsmith import tablecore
from pivotsmith.tablecore import TableError, parse_row


def tagged(*rows):
    return [("\t".join(row) if row else "") + "\n" for row in rows]


CORPUS = tagged(
    ("chat", "NOUN", "Masculine", "Singular", "NA"),
    ("chats", "NOUN", "Masculine", "Plural", "NA"),
    (),
    ("chat", "NOUN", "Masculine", "Singular", "NA"),
    ("la", "DET", "Feminine", "Singular", "Determiner"),
)


class TestTaggedCorpus:
    def test_sentence_splitting(self):
        sentences = list(parse_tagged_corpus(CORPUS))
        assert [len(s) for s in sentences] == [2, 2]
        assert sentences[0][0] == ("chat", ("NOUN", "Masculine", "Singular", "NA"))

    def test_field_count_error(self):
        with pytest.raises(TableError, match="line 1.*5 tab-separated"):
            list(parse_tagged_corpus(["chat\tNOUN\n"]))

    def test_token_with_space_rejected(self):
        with pytest.raises(TableError, match="bad token"):
            list(parse_tagged_corpus(["a b\tN\tM\tS\tNA\n"]))


class TestLexicon:
    def test_mle_counts_majority(self):
        corpus = tagged(
            ("bank", "NOUN", "Masculine", "Singular", "NA"),
            ("bank", "NOUN", "Masculine", "Plural", "NA"),
            ("bank", "VERB", "Masculine", "Plural", "NA"),
        )
        lex = build_lexicon([corpus])
        assert lex.mle("bank", "pos") == "NOUN"
        assert lex.mle("bank", "num") == "Plural"
        assert lex.count("bank") == 3

    def test_tie_breaks_to_smallest_value(self):
        corpus = tagged(
            ("w", "NOUN", "Masculine", "Singular", "NA"),
            ("w", "VERB", "Feminine", "Singular", "NA"),
        )
        lex = build_lexicon([corpus])
        assert lex.mle("w", "pos") == "NOUN"
        assert lex.mle("w", "gen") == "Feminine"

    def test_unknown_word(self):
        lex = build_lexicon([CORPUS])
        assert lex.mle("missing", "pos") is None
        assert lex.fc_tag("missing") == UNKNOWN_TAG
        assert "missing" not in lex

    def test_counts_pool_across_corpora(self):
        a = tagged(("w", "X", "Masculine", "Singular", "NA"),
                   ("w", "X", "Masculine", "Singular", "NA"))
        b = tagged(("w", "Y", "Feminine", "Plural", "NA"),
                   ("w", "Y", "Feminine", "Plural", "NA"),
                   ("w", "Y", "Feminine", "Plural", "NA"))
        lex = build_lexicon([a, b])
        assert lex.mle("w", "pos") == "Y"
        assert lex.count("w") == 5

    def test_fc_tag_is_joint_argmax_not_marginal_concatenation(self):
        corpus = tagged(
            ("w", "N", "Feminine", "Dual", "NA"),
            ("w", "N", "Feminine", "Dual", "NA"),
            ("w", "N", "Feminine", "Dual", "NA"),
            ("w", "N", "Masculine", "Singular", "NA"),
            ("w", "N", "Masculine", "Singular", "NA"),
            ("w", "N", "Feminine", "Singular", "NA"),
            ("w", "N", "Feminine", "Singular", "NA"),
        )
        lex = build_lexicon([corpus])
        # Marginals favor Feminine (5) and Singular (4); the joint winner
        # is still the Dual combination with 3 occurrences.
        assert lex.mle("w", "gen") == "Feminine"
        assert lex.mle("w", "num") == "Singular"
        assert lex.fc_tag("w") == "[Feminine+Dual]"

    def test_na_components_dropped_from_tag(self):
        corpus = tagged(("w", "N", "NA", "Plural", "NA"))
        lex = build_lexicon([corpus])
        assert lex.fc_tag("w") == "[Plural]"

    def test_all_na_tag(self):
        corpus = tagged(("w", "N", "NA", "NA", "NA"))
        lex = build_lexicon([corpus])
        assert lex.fc_tag("w") == EMPTY_TAG

    def test_custom_fc_features_include_pos(self):
        corpus = tagged(("w", "NOUN", "Feminine", "NA", "NA"))
        lex = build_lexicon([corpus], fc_features=("gen", "num", "det", "pos"))
        assert lex.fc_tag("w") == "[Feminine+NOUN]"

    def test_save_load_round_trip(self):
        lex = build_lexicon([CORPUS])
        out = io.StringIO()
        lex.save(out)
        again = MorphLexicon.load(out.getvalue().splitlines())
        assert len(again) == len(lex)
        for word in lex.words():
            assert again.fc_tag(word) == lex.fc_tag(word)
            assert again.count(word) == lex.count(word)
            for feature in ("pos", "gen", "num", "det"):
                assert again.mle(word, feature) == lex.mle(word, feature)

    def test_load_validation(self):
        with pytest.raises(TableError, match="7 tab-separated"):
            MorphLexicon.load(["w\tN\tM\n"])
        with pytest.raises(TableError, match="duplicate lexicon entry"):
            MorphLexicon.load(["w\tN\tM\tS\tNA\t[M]\t1\n",
                               "w\tN\tM\tS\tNA\t[M]\t2\n"])
        with pytest.raises(TableError, match="bad count"):
            MorphLexicon.load(["w\tN\tM\tS\tNA\t[M]\t0\n"])

    def test_unknown_feature_name(self):
        lex = build_lexicon([CORPUS])
        with pytest.raises(TableError, match="unknown feature"):
            lex.mle("chat", "case")


class TestRenderTag:
    def test_order_follows_input(self):
        assert render_fc_tag(("Feminine", "Dual", "Determiner")) == \
            "[Feminine+Dual+Determiner]"

    def test_custom_na(self):
        assert render_fc_tag(("x", "none"), na_value="none") == "[x]"


class TestRules:
    def test_load_allows_and_rejects(self):
        rules = load_rules([
            "# comment\n",
            "\n",
            "gen\tFeminine\tBoth\n",
            "num\tDual\tDual-Plural\n",
        ])
        assert rules.allows("gen", "Feminine", "Both")
        assert rules.allows("GEN", "Feminine", "Both")
        assert not rules.allows("gen", "Both", "Feminine")
        assert not rules.allows("det", "Determiner", "Determiner")
        assert len(rules) == 2

    def test_unknown_feature_rejected(self):
        with pytest.raises(TableError, match="unknown feature"):
            load_rules(["case\tNom\tNom\n"])

    def test_duplicate_rule_rejected(self):
        with pytest.raises(TableError, match="duplicate rule"):
            load_rules(["gen\tA\tB\n", "gen\tA\tB\n"])

    def test_empty_mapping_rejects_everything(self):
        rules = load_rules([])
        assert not rules.allows("gen", "Feminine", "Feminine")

    def test_values_with_spaces(self):
        rules = load_rules(["det\tNo Determiner\tNo Determiner\n"])
        assert rules.allows("det", "No Determiner", "No Determiner")

    def test_bundled_rules(self):
        rules = default_rules()
        assert rules.allows("gen", "Feminine", "Both")
        assert rules.allows("num", "Plural", "Singular-Plural")
        assert not rules.allows("gen", "Masculine", "Feminine")
        assert len(rules.pairs("gen")) == 4
        assert len(rules.pairs("num")) == 7
        assert len(rules.pairs("det")) == 2


def lexicon_for(words):
    rows = []
    for word, (pos, gen, num, det) in words.items():
        rows.append((word, pos, gen, num, det))
    return build_lexicon([tagged(*rows)])


class TestFcTraining:
    def test_deterministic_corpus_gives_probability_one(self):
        src_lex = lexicon_for({"sa": ("N", "Feminine", "Singular", "NA")})
        tgt_lex = lexicon_for({"ta": ("N", "Feminine", "Singular", "NA")})
        model = train_fc_model(["sa\n"] * 4, ["ta\n"] * 4, ["0-0\n"] * 4,
                               src_lex, tgt_lex)
        tag = "[Feminine+Singular]"
        assert model.p_tgt_given_src(tag, tag) == 1.0
        assert model.p_src_given_tgt(tag, tag) == 1.0

    def test_three_to_one_split(self):
        src_lex = lexicon_for({"sa": ("N", "Feminine", "Singular", "NA")})
        tgt_lex = lexicon_for({"ta": ("N", "Feminine", "Singular", "NA"),
                               "tb": ("N", "Masculine", "Singular", "NA")})
        src = ["sa\n"] * 4
        tgt = ["ta\n"] * 3 + ["tb\n"]
        model = train_fc_model(src, tgt, ["0-0\n"] * 4, src_lex, tgt_lex)
        fem = "[Feminine+Singular]"
        masc = "[Masculine+Singular]"
        assert model.p_tgt_given_src(fem, fem) == pytest.approx(0.75, abs=1e-12)
        assert model.p_tgt_given_src(fem, masc) == pytest.approx(0.25, abs=1e-12)
        assert model.p_src_given_tgt(fem, fem) == 1.0
        assert model.p_src_given_tgt(fem, masc) == 1.0

    def test_conditionals_normalize_per_tag(self):
        src_lex = lexicon_for({
            "s1": ("N", "Feminine", "Singular", "NA"),
            "s2": ("N", "Masculine", "Plural", "NA"),
        })
        tgt_lex = lexicon_for({
            "t1": ("N", "Feminine", "Singular", "NA"),
            "t2": ("N", "Masculine", "Plural", "NA"),
            "t3": ("N", "Feminine", "Plural", "NA"),
        })
        src = ["s1 s2\n", "s1 s2\n", "s2 s1\n", "s1 s1\n"]
        tgt = ["t1 t2\n", "t3 t1\n", "t2 t3\n", "t1 t3\n"]
        align = ["0-0 1-1\n", "0-1 1-0\n", "0-0 1-1\n", "0-0 1-1\n"]
        model = train_fc_model(src, tgt, align, src_lex, tgt_lex)
        fwd_totals = {}
        rev_totals = {}
        for (src_fc, tgt_fc), (p_ts, p_st) in model.pairs():
            if p_ts:
                fwd_totals[src_fc] = fwd_totals.get(src_fc, 0.0) + p_ts
            if p_st:
                rev_totals[tgt_fc] = rev_totals.get(tgt_fc, 0.0) + p_st
        for total in list(fwd_totals.values()) + list(rev_totals.values()):
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_many_to_one_builds_joint_tags(self):
        src_lex = lexicon_for({"s1": ("N", "Feminine", "NA", "NA"),
                               "s2": ("N", "Masculine", "NA", "NA")})
        tgt_lex = lexicon_for({"t1": ("N", "Feminine", "NA", "NA")})
        model = train_fc_model(["s1 s2\n"], ["t1\n"], ["0-0 1-0\n"],
                               src_lex, tgt_lex)
        assert model.p_src_given_tgt("[Feminine] [Masculine]", "[Feminine]") == 1.0
        # Each source token also produced its own forward event.
        assert model.p_tgt_given_src("[Feminine]", "[Feminine]") == 1.0
        assert model.p_tgt_given_src("[Masculine]", "[Feminine]") == 1.0

    def test_unknown_words_tag_as_unk(self):
        src_lex = lexicon_for({"sa": ("N", "Feminine", "NA", "NA")})
        tgt_lex = lexicon_for({"ta": ("N", "Feminine", "NA", "NA")})
        model = train_fc_model(["zz\n"], ["ta\n"], ["0-0\n"], src_lex, tgt_lex)
        assert model.p_tgt_given_src(UNKNOWN_TAG, "[Feminine]") == 1.0

    def test_unaligned_tokens_produce_no_events(self):
        src_lex = lexicon_for({"sa": ("N", "Feminine", "NA", "NA"),
                               "sb": ("N", "Masculine", "NA", "NA")})
        tgt_lex = lexicon_for({"ta": ("N", "Feminine", "NA", "NA")})
        model = train_fc_model(["sa sb\n"], ["ta\n"], ["0-0\n"],
                               src_lex, tgt_lex)
        assert model.p_tgt_given_src("[Masculine]", "[Feminine]") == 0.0
        assert len(model) == 1

    def test_length_mismatch_error(self):
        src_lex = lexicon_for({"sa": ("N", "F", "NA", "NA")})
        with pytest.raises(TableError, match="differ in sentence count"):
            train_fc_model(["sa\n", "sa\n"], ["ta\n"], ["0-0\n", "0-0\n"],
                           src_lex, src_lex)

    @pytest.mark.parametrize("links, message", [
        ("0-1", "alignment point 0-1 outside phrase bounds 1x1"),
        ("0-0 0-0", "duplicate alignment point 0-0"),
        ("0:0", "malformed alignment point '0:0'"),
    ])
    def test_alignment_out_of_range_error(self, monkeypatch, links, message):
        # The table reader gives the same message for the same field.
        monkeypatch.setattr(tablecore, "_phrase_memo", {})
        monkeypatch.setattr(tablecore, "_alignment_memo", {})
        with pytest.raises(TableError) as from_table:
            parse_row(f"sa ||| ta ||| 1 1 1 1 ||| {links}\n", 1, 0)
        assert str(from_table.value) == f"line 1: {message}"
        src_lex = lexicon_for({"sa": ("N", "F", "NA", "NA")})
        with pytest.raises(TableError) as from_corpus:
            train_fc_model(["sa\n"], ["ta\n"], [links + "\n"], src_lex, src_lex)
        assert str(from_corpus.value) == f"line 1: {message}"

    def test_sentence_alignments_do_not_fill_the_table_memo(self, monkeypatch):
        monkeypatch.setattr(tablecore, "_alignment_memo", {})
        src_lex = lexicon_for({"sa": ("N", "F", "NA", "NA")})
        train_fc_model(["sa sa\n"], ["ta\n"], ["0-0 1-0\n"], src_lex, src_lex)
        assert tablecore._alignment_memo == {}


class TestFcModelIo:
    def test_save_load_round_trip_at_six_digits(self):
        model = FcModel({("[A]", "[B]"): (1.0 / 3.0, 0.25),
                         ("[A]", "[C]"): (2.0 / 3.0, 0.0)})
        out = io.StringIO()
        model.save(out)
        again = FcModel.load(out.getvalue().splitlines())
        assert again.p_tgt_given_src("[A]", "[B]") == pytest.approx(1 / 3, abs=1e-6)
        assert again.p_src_given_tgt("[A]", "[B]") == 0.25
        assert again.p_tgt_given_src("[A]", "[C]") == pytest.approx(2 / 3, abs=1e-6)

    def test_absent_pairs_score_zero(self):
        model = FcModel({})
        assert model.p_tgt_given_src("[A]", "[B]") == 0.0
        assert model.p_src_given_tgt("[A]", "[B]") == 0.0

    def test_load_validation(self):
        with pytest.raises(TableError, match="4 tab-separated"):
            FcModel.load(["[A]\t[B]\t0.5\n"])
        with pytest.raises(TableError, match="duplicate pair"):
            FcModel.load(["[A]\t[B]\t0.5\t0.5\n", "[A]\t[B]\t0.1\t0.1\n"])
        with pytest.raises(TableError, match="not in"):
            FcModel.load(["[A]\t[B]\t1.5\t0.5\n"])
