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
    "combine_tables": "combine",
    "BleuResult": "evalkit",
    "DecodeConfig": "evalkit",
    "bleu4": "evalkit",
    "bleu4_report": "evalkit",
    "decode_corpus": "evalkit",
    "decode_monotone": "evalkit",
    "FeatureScores": "features",
    "annotate_table": "features",
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
    "PhraseEntry": "tablecore",
    "PhraseTable": "tablecore",
    "ReorderingEntry": "tablecore",
    "ScoreSet": "tablecore",
    "TableError": "tablecore",
    "parse_phrase_table": "tablecore",
    "parse_reordering_table": "tablecore",
    "write_phrase_table": "tablecore",
    "write_reordering_table": "tablecore",
    "PivotConfig": "triangulate",
    "estimate_pivot_size": "triangulate",
    "filter_top_n": "triangulate",
    "pivot_compose": "triangulate",
    "pivot_reordering": "triangulate",
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
