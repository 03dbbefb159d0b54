"""Phrase-pivot translation toolkit.

Triangulates source-pivot and pivot-target phrase tables into a
source-target table, annotates entries with alignment connectivity and
morphological agreement features, combines tables with origin indicators,
and evaluates with a monotone decoder and corpus BLEU.
"""

import importlib

__version__ = "0.1.0"

# Public name -> submodule that defines it.  Submodules load on first use,
# so ``import pivotsmith`` (and every CLI command) pays only for what runs.
_EXPORTS = {
    "BleuResult": "evalkit",
    "DecodeConfig": "evalkit",
    "bleu4": "evalkit",
    "bleu4_report": "evalkit",
    "FeatureScores": "features",
    "connectivity_scores": "features",
    "induced_morph_scores": "features",
    "rule_morph_scores": "features",
    "FcModel": "morphmodel",
    "MorphLexicon": "morphmodel",
    "RuleMapping": "morphmodel",
    "build_lexicon": "morphmodel",
    "default_rules": "morphmodel",
    "load_rules": "morphmodel",
    "render_fc_tag": "morphmodel",
    "train_fc_model": "morphmodel",
    "AlignmentLink": "tablecore",
    "LogLinearWeights": "tablecore",
    "TableError": "tablecore",
    "PhraseEntry": "tables",
    "PhraseTable": "tables",
    "ReorderingEntry": "tables",
    "ScoreSet": "tables",
    "annotate_table": "tables",
    "combine_tables": "tables",
    "decode_corpus": "tables",
    "decode_monotone": "tables",
    "estimate_pivot_size": "tables",
    "filter_top_n": "tables",
    "parse_phrase_table": "tables",
    "parse_reordering_table": "tables",
    "pivot_compose": "tables",
    "pivot_reordering": "tables",
    "write_phrase_table": "tables",
    "write_reordering_table": "tables",
    "PivotConfig": "triangulate",
    "project_alignment": "triangulate",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
