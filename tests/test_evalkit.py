"""Monotone decoding against exhaustive segmentation, and BLEU."""

from __future__ import annotations

import math
import random

import pytest

from conftest import entry, oracle_bleu4, oracle_decode, table
from pivotsmith.evalkit import (
    BleuResult,
    DecodeConfig,
    bleu4,
    bleu4_report,
    read_sentences,
)
from pivotsmith.tablecore import LogLinearWeights, TableError
from pivotsmith.tables import (
    build_phrase_index,
    decode_corpus,
    decode_monotone,
    decode_scored,
)


def all_segmentation_scores(sentence, index, cfg):
    """Total scores of every segmentation, enumerated recursively.

    Each position starts a table phrase of any matching length or, if the
    token is unknown, a penalized pass-through.  Left-to-right summation
    mirrors the decoder's accumulation order.
    """
    results = []

    def walk(pos, acc):
        if pos == len(sentence):
            results.append(acc)
            return
        for end in range(pos + 1, min(len(sentence), pos + cfg.max_phrase_len) + 1):
            span = tuple(sentence[pos:end])
            option = index.get(span)
            if option is not None:
                walk(end, acc + option[0])
            elif end - pos == 1:
                walk(end, acc + cfg.unknown_word_penalty)
    walk(0, 0.0)
    return results


def random_decode_table(rng, vocab, max_len=3, n_entries=40):
    entries = {}
    for _ in range(n_entries):
        n = rng.randint(1, max_len)
        src = tuple(rng.choice(vocab) for _ in range(n))
        tgt = tuple(rng.choice(vocab).upper() for _ in range(rng.randint(1, 3)))
        if (src, tgt) in entries:
            continue
        scores = tuple(rng.uniform(0.05, 1.0) for _ in range(4))
        entries[(src, tgt)] = entry(" ".join(src), " ".join(tgt), scores=scores)
    return table(entries.values())


class TestDecoder:
    def test_score_matches_exhaustive_enumeration(self):
        rng = random.Random(41)
        vocab = [f"w{i}" for i in range(8)]
        cfg = DecodeConfig()
        for _ in range(100):
            tbl = random_decode_table(rng, vocab)
            index = build_phrase_index(tbl, cfg)
            sentence = tuple(rng.choice(vocab + ["oov"])
                             for _ in range(rng.randint(1, 8)))
            _, got = decode_scored(sentence, tbl, cfg)
            want = max(all_segmentation_scores(sentence, index, cfg))
            assert abs(got - want) <= 1e-9

    def test_unknown_tokens_pass_through(self):
        tbl = table([entry("a", "A")])
        assert decode_monotone(("a", "zzz", "a"), tbl) == ("A", "zzz", "A")

    def test_unknown_penalty_applied(self):
        tbl = table([entry("a", "A")])
        _, score = decode_scored(("a", "zzz"), tbl)
        assert score == pytest.approx(-10.0)
        cfg = DecodeConfig(unknown_word_penalty=-2.5)
        _, score = decode_scored(("zzz",), tbl, cfg)
        assert score == pytest.approx(-2.5)

    def test_longer_span_wins_score_ties(self):
        tbl = table([
            entry("a", "ONE"),
            entry("b", "TWO"),
            entry("a b", "BOTH"),
        ])
        # All probabilities are 1 so every segmentation scores 0.
        assert decode_monotone(("a", "b"), tbl) == ("BOTH",)

    def test_equal_scores_prefer_smaller_target_span(self):
        # One-token and two-token segmentations tie on score and on span
        # layout; the smaller target string wins.
        tbl = table([entry("a", "zz"), entry("b", "zz"), entry("a b", "m")])
        assert decode_monotone(("a", "b"), tbl) == ("m",)

    def test_index_keeps_best_option_per_source(self):
        tbl = table([
            entry("a", "good", scores=(0.9, 0.9, 0.9, 0.9)),
            entry("a", "bad", scores=(0.1, 0.1, 0.1, 0.1)),
        ])
        index = build_phrase_index(tbl, DecodeConfig())
        assert index[("a",)][1] == ("good",)

    def test_index_target_tie_takes_smaller(self):
        tbl = table([
            entry("a", "zz", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("a", "mm", scores=(0.5, 0.5, 0.5, 0.5)),
        ])
        index = build_phrase_index(tbl, DecodeConfig())
        assert index[("a",)][1] == ("mm",)

    def test_weights_steer_decoding(self):
        tbl = table([
            entry("a", "HIGH_PHI", scores=(0.9, 0.1, 0.5, 0.5)),
            entry("a", "HIGH_LEX", scores=(0.1, 0.9, 0.5, 0.5)),
        ])
        cfg_phi = DecodeConfig(weights=LogLinearWeights({"phi_fwd": 5.0}))
        cfg_lex = DecodeConfig(weights=LogLinearWeights({"lex_fwd": 5.0}))
        assert decode_monotone(("a",), tbl, cfg_phi) == ("HIGH_PHI",)
        assert decode_monotone(("a",), tbl, cfg_lex) == ("HIGH_LEX",)

    def test_missing_weight_for_manifest_feature_errors(self):
        tbl = table([entry("a", "x", extras=(("f", 0.5),))], ("f",))
        cfg = DecodeConfig(weights=LogLinearWeights.from_config(
            ["phi_fwd = 1\n", "lex_fwd = 1\n", "phi_bwd = 1\n", "lex_bwd = 1\n"]))
        with pytest.raises(TableError, match="no weight configured"):
            decode_monotone(("a",), tbl, cfg)

    def test_empty_sentence(self):
        assert decode_monotone((), table([entry("a", "x")])) == ()

    def test_max_phrase_len_restricts_spans(self):
        tbl = table([entry("a b", "BOTH"), entry("a", "A"), entry("b", "B")])
        cfg = DecodeConfig(max_phrase_len=1)
        assert decode_monotone(("a", "b"), tbl, cfg) == ("A", "B")

    @pytest.mark.parametrize("max_phrase_len", [1, 2, 8])
    def test_matches_a_decoder_that_tries_every_span(self, max_phrase_len):
        rng = random.Random(43 + max_phrase_len)
        vocab = [f"w{i}" for i in range(6)]
        cfg = DecodeConfig(max_phrase_len=max_phrase_len)
        for _ in range(60):
            tbl = random_decode_table(rng, vocab, max_len=rng.randint(1, 4),
                                      n_entries=rng.randint(0, 40))
            index = build_phrase_index(tbl, cfg)
            for _ in range(10):
                sentence = tuple(rng.choice(vocab + ["oov"])
                                 for _ in range(rng.randint(0, 12)))
                assert decode_scored(sentence, tbl, cfg) == oracle_decode(
                    sentence, index, cfg)

    def test_corpus_decode_matches_single_and_any_thread_count(self):
        rng = random.Random(42)
        vocab = [f"w{i}" for i in range(8)]
        tbl = random_decode_table(rng, vocab)
        sentences = [tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
                     for _ in range(50)]
        single = [decode_monotone(s, tbl) for s in sentences]
        assert decode_corpus(sentences, tbl) == single
        assert decode_corpus(sentences, tbl, threads=8) == single


class TestBleu:
    def test_identity_scores_one(self):
        refs = [["the cat sat on the mat".split()]]
        hyps = ["the cat sat on the mat".split()]
        assert bleu4(hyps, refs) == pytest.approx(1.0)

    def test_brevity_penalty_worked_example(self):
        hyp = ["a b c d".split()]
        refs = [["a b c d e".split()]]
        result = bleu4_report(hyp, refs)
        assert result.precisions == (1.0, 1.0, 1.0, 1.0)
        assert result.brevity_penalty == pytest.approx(math.exp(1 - 5 / 4))
        assert result.bleu == pytest.approx(0.778801, abs=1e-6)

    def test_no_penalty_when_longer_than_reference(self):
        hyp = ["a b c d e f".split()]
        refs = [["a b c d e f".split()]]
        assert bleu4_report(hyp, refs).brevity_penalty == 1.0

    def test_sentence_order_does_not_matter(self):
        rng = random.Random(43)
        vocab = [f"w{i}" for i in range(12)]
        hyps = []
        refs = []
        for _ in range(50):
            ref = [rng.choice(vocab) for _ in range(rng.randint(5, 12))]
            hyp = list(ref)
            if rng.random() < 0.5 and len(hyp) > 5:
                hyp[rng.randrange(len(hyp))] = "wrong"
            hyps.append(hyp)
            refs.append([ref])
        base = bleu4(hyps, refs)
        order = list(range(len(hyps)))
        rng.shuffle(order)
        shuffled = bleu4([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled == pytest.approx(base, abs=1e-15)

    def test_clipping_counts_against_max_reference_occurrences(self):
        hyps = [["the", "the", "the"]]
        refs = [[["the", "cat"]]]
        result = bleu4_report(hyps, refs)
        assert result.precisions[0] == pytest.approx(1 / 3)

    def test_zero_ngram_match_gives_zero(self):
        hyps = [["a", "b", "c", "d"]]
        refs = [[["w", "x", "y", "z"]]]
        assert bleu4(hyps, refs) == 0.0

    def test_short_hypotheses_without_fourgrams_give_zero(self):
        hyps = [["a", "b"]]
        refs = [[["a", "b"]]]
        assert bleu4(hyps, refs) == 0.0

    def test_multiple_references_take_best_match(self):
        hyps = [["a", "b", "c", "d", "e"]]
        refs = [[["x", "y", "z", "w", "v"], ["a", "b", "c", "d", "e"]]]
        assert bleu4(hyps, refs) == pytest.approx(1.0)

    def test_closest_reference_length_tie_goes_short(self):
        hyps = [["a", "b", "c", "d"]]
        refs = [[["a", "b", "c"], ["a", "b", "c", "d", "e"]]]
        result = bleu4_report(hyps, refs)
        assert result.ref_length == 3
        assert result.brevity_penalty == 1.0

    def test_empty_hypothesis_is_safe(self):
        hyps = [[]]
        refs = [[["a", "b"]]]
        result = bleu4_report(hyps, refs)
        assert result.bleu == 0.0
        assert result.brevity_penalty == 0.0

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="empty corpus"):
            bleu4([], [])
        with pytest.raises(ValueError, match="hypotheses against"):
            bleu4([["a"]], [])
        with pytest.raises(ValueError, match="without references"):
            bleu4([["a"]], [[]])

    def test_multi_sentence_aggregation(self):
        # Counts pool over the corpus before dividing, so per-sentence
        # scores do not simply average.
        hyps = [["a", "b", "c", "d"], ["w", "x", "y", "z"]]
        refs = [[["a", "b", "c", "d"]], [["w", "x", "y", "q"]]]
        result = bleu4_report(hyps, refs)
        assert result.precisions[0] == pytest.approx(7 / 8)
        assert result.precisions[3] == pytest.approx(1 / 2)


def test_bleu_equals_a_naive_count_on_random_corpora():
    rng = random.Random(47)
    vocab = ["a", "b", "c", "d"]

    def sentence():
        return tuple(rng.choice(vocab) for _ in range(rng.choice((0, 1, 2, 3, 5, 9))))

    for _ in range(400):
        n = rng.randint(1, 5)
        hyps = [sentence() for _ in range(n)]
        refs = [[sentence() for _ in range(rng.randint(1, 3))] for _ in range(n)]
        assert bleu4_report(hyps, refs) == BleuResult(*oracle_bleu4(hyps, refs))


def test_read_sentences_keeps_empty_lines():
    got = read_sentences(["a b\n", "\n", "c\n"])
    assert got == [("a", "b"), (), ("c",)]
