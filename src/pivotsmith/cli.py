"""Command line front end.

One subcommand per pipeline stage.  Commands read stdin and write stdout
when file flags are omitted, and ``-`` names either on any file flag.
They exit 2 on usage errors, and 1 on data errors with the offending line
number in the message.  The message also names the file (``stdin`` for
``-``), as in ``pivotsmith: error: pt.txt: line 3: ...``, except for the
corpora of ``lexicon`` and ``fc-train``.  Nothing here uses
randomness and every command runs its work in one thread, so reruns are
byte-identical.  ``--threads`` on ``annotate`` and ``decode`` is accepted
for compatibility and has no effect.  A command may read stdin for at
most one input, and ``pivot``'s two outputs must be different files.

Every command that reads a phrase table streams it as raw rows; none
builds a ``PhraseTable`` or loads ``pivotsmith.tables``, the object model
and its adapters, so no command imports ``dataclasses``.  ``annotate``,
``combine`` and ``decode`` sort rows through ``sort_table_rows``, which
also rejects duplicate pairs, and ``pivot`` passes every table it reads,
``--reordering-sp`` included, to ``compose_rows``.

Every command is a fresh process, so each one imports only the library
modules it runs (``_LIBRARY``), and only ``pivot`` sets up logging.  A
command whose output pipe is closed by its reader exits 141 quietly, and
one interrupted by Ctrl-C exits 130 quietly.  Run as a program
(``console_main`` or ``python -m``), SIGTERM and SIGHUP exit 128 plus the
signal number the same way; each case first removes the scratch files
and the unfinished output file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain
from typing import Iterable, Iterator, TextIO

from . import __version__
from .tablecore import (
    CORE_FEATURES,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_FC_FEATURES,
    DEFAULT_MAX_PHRASE_LEN,
    DEFAULT_RULE_FEATURES,
    DEFAULT_TOP_N,
    DEFAULT_UNKNOWN_PENALTY,
    NA_VALUE,
    LogLinearWeights,
    TableError,
    ordered_map,
    read_reordering_rows,
    read_rows,
    sort_table_rows,
    weight_vector,
    write_rows,
)

# Library names the commands call, by the module that defines them.  Each
# command binds only its own modules (``_bind``), so start-up compiles no
# other command's code.  perfbench/tracing.py reads and replaces these names
# on this module before a command runs, which is why a name already set
# here is kept.  It also reads the ``tables`` names, which no command
# calls; reading one loads the object model.
_LIBRARY = {
    "combine": ("combine_rows",),
    "evalkit": ("DecodeConfig", "bleu4_report", "phrase_index_rows",
                "read_sentences", "_decode_one"),
    "features": ("annotate_rows", "connectivity_scores", "induced_morph_scores",
                 "rule_morph_scores"),
    "morphmodel": ("FcModel", "MorphLexicon", "_feature_index", "build_lexicon",
                   "default_rules", "load_rules", "train_fc_model"),
    "tables": ("annotate_table", "build_phrase_index", "combine_tables",
               "parse_phrase_table", "parse_reordering_table", "reorder_rows",
               "write_phrase_table"),
    "triangulate": ("PivotConfig", "compose_rows", "estimate_pivot_size_rows",
                    "filter_rows", "write_reordering_rows"),
}
_MODULE_OF = {name: module for module, names in _LIBRARY.items() for name in names}


def _bind(*modules: str) -> None:
    """Import ``modules`` and set their ``_LIBRARY`` names here, unless set."""
    namespace = globals()
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _LIBRARY[module]:
            namespace.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


HIST_BINS = 10


def _name(path: str) -> str:
    """The file at ``path`` as messages name it."""
    return "stdin" if path == "-" else path


@contextmanager
def _open_in(path: str) -> Iterator[Iterable[str]]:
    """The lines of the file at ``path``, stdin for ``-``.

    A leading byte-order mark is a data error: read as UTF-8 it would
    stick to the first field.
    """
    with ExitStack() as stack:
        stream = (sys.stdin if path == "-"
                  else stack.enter_context(open(path, "r", encoding="utf-8")))
        first = stream.readline()
        if first.startswith("\ufeff"):
            raise TableError(f"{_name(path)}: line 1: starts with a byte-order mark")
        yield chain((first,), stream) if first else stream


@contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    """Write a file whole or not at all: a failed command leaves no output.

    A regular file is written under a temporary name in its directory and
    renamed over ``path`` on success.  A symlink, device or FIFO at
    ``path`` is written in place, since renaming would replace it.
    """
    if path == "-":
        yield sys.stdout
        sys.stdout.flush()
        return
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as stream:
            yield stream
        return
    tmp, fd = _create_sibling(path)
    try:
        with open(fd, "w", encoding="utf-8") as stream:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield stream
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _create_sibling(path: str) -> tuple[str, int]:
    """Create a new file beside ``path`` with the bits ``open(path, "w")`` gives."""
    head, tail = os.path.split(path)
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            # 0o666 under the umask, as open() creates files; not mkstemp's 0o600.
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = path  # report the output the user named
            raise


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _load(path: str, loader):
    """``loader`` run on the file at ``path``, stdin for ``-``; its data
    errors name the file."""
    with _open_in(path) as stream:
        try:
            return loader(stream)
        except TableError as exc:
            raise exc.in_file(_name(path)) from None


def _load_weights(path: str | None) -> LogLinearWeights | None:
    return None if path is None else _load(path, LogLinearWeights.from_config)


def _check_weights(flag: str, path: str | None, weights: LogLinearWeights | None,
                   extras: tuple[str, ...]) -> None:
    """Raise, naming ``flag`` and its file, when ``weights`` leaves out a
    column of the table it ranks."""
    try:
        weight_vector(CORE_FEATURES + tuple(extras), weights)
    except TableError as exc:
        raise TableError(f"{flag} {path}: {exc}") from None


def _feature_list(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError("empty feature list")
    _bind("morphmodel")
    try:
        indexes = [_feature_index(name) for name in names]
    except TableError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(set(indexes)) != len(indexes):
        raise argparse.ArgumentTypeError(f"repeated feature in {text!r}")
    return names


def _check_stdin(paths: list[str | None],
                 message: str = "only one input can read stdin") -> None:
    """Usage error when more than one of ``paths`` is ``-``.

    Two readers of stdin would leave the second one an empty stream.
    """
    if paths.count("-") > 1:
        raise UsageError(message)


def _name_pair(text: str) -> tuple[str, str]:
    names = tuple(name.strip() for name in text.split(","))
    if len(names) != 2 or not all(names):
        raise argparse.ArgumentTypeError("expected two comma-separated names")
    if names[0] == names[1]:
        raise argparse.ArgumentTypeError("the two names must differ")
    return names


# --- subcommands -------------------------------------------------------------

def cmd_pivot(args: argparse.Namespace) -> int:
    # Only the pivot path logs, so no other command loads logging.
    import logging
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    _bind("triangulate")
    reordering = args.reordering_out is not None
    if reordering and args.reordering_pt is None:
        raise UsageError("--reordering-out requires --reordering-pt")
    if not reordering:
        for flag, path in (("--reordering-pt", args.reordering_pt),
                           ("--reordering-sp", args.reordering_sp)):
            if path is not None:
                raise UsageError(f"{flag} requires --reordering-out")
    elif args.reordering_out == "-":
        if args.output == "-":
            raise UsageError("only one of -o and --reordering-out can write stdout")
    elif args.output != "-" and (
            os.path.realpath(args.output) == os.path.realpath(args.reordering_out)):
        raise UsageError("-o and --reordering-out must name different files")
    inputs = [args.sp, args.pt, args.reordering_sp, args.reordering_pt]
    _check_stdin(inputs, "only one input table can read stdin")
    _check_stdin(inputs + [args.weights_sp, args.weights_pt])
    cfg = PivotConfig(
        top_n=args.top_n,
        weights_sp=_load_weights(args.weights_sp),
        weights_pt=_load_weights(args.weights_pt),
        min_alignment_links=args.min_links,
        tmpdir=args.tmpdir,
        chunk_size=args.chunk_size)
    with ExitStack() as stack:
        pt_reo, sp_reo = (None if path is None else
                          read_reordering_rows(stack.enter_context(_open_in(path)),
                                               _name(path))
                          for path in (args.reordering_pt, args.reordering_sp))
        sp_extras, sp_rows = read_rows(stack.enter_context(_open_in(args.sp)),
                                       _name(args.sp))
        pt_extras, pt_rows = read_rows(stack.enter_context(_open_in(args.pt)),
                                       _name(args.pt))
        _check_weights("--weights-sp", args.weights_sp, cfg.weights_sp, sp_extras)
        _check_weights("--weights-pt", args.weights_pt, cfg.weights_pt, pt_extras)
        out = stack.enter_context(_open_out(args.output))
        rows = compose_rows(sp_rows, sp_extras, pt_rows, pt_extras, cfg,
                            pt_reo_rows=pt_reo, sp_reo_rows=sp_reo)
        if reordering:
            with _open_out(args.reordering_out) as reo_out:
                write_reordering_rows(rows, out, reo_out)
        else:
            write_rows(rows, out)
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    _bind("triangulate")
    _check_stdin([args.input, args.weights])
    weights = _load_weights(args.weights)
    with _open_in(args.input) as stream, _open_out(args.output) as out:
        extras, rows = read_rows(stream, _name(args.input))
        _check_weights("--weights", args.weights, weights, extras)
        kept = filter_rows(rows, extras, weights, args.top_n,
                           tmpdir=args.tmpdir, chunk_size=args.chunk_size)
        write_rows(kept, out, extras)
    return 0


# The ``annotate`` kinds that read each flag, and whether each requires it.
_ANNOTATE_FLAGS = {
    "--src-lex": {"rules": True, "induced": True},
    "--tgt-lex": {"rules": True, "induced": True},
    "--rules": {"rules": False},
    "--features": {"rules": False},
    "--fc-model": {"induced": True},
}


def _build_scorer(args: argparse.Namespace):
    if args.kind == "connectivity":
        return connectivity_scores, ("conn_s", "conn_t")
    # Looked up per call: perfbench/tracing.py wraps ``load`` on the class.
    src_lex = _load(args.src_lex, MorphLexicon.load)
    tgt_lex = _load(args.tgt_lex, MorphLexicon.load)
    if args.kind == "rules":
        rules = default_rules() if args.rules is None else _load(args.rules, load_rules)
        features = DEFAULT_RULE_FEATURES if args.features is None else args.features
        scorer = functools.partial(rule_morph_scores, src_lex=src_lex, tgt_lex=tgt_lex,
                                   rules=rules, features=features)
        return scorer, ("morph_rule_s", "morph_rule_t")
    scorer = functools.partial(induced_morph_scores, src_lex=src_lex, tgt_lex=tgt_lex,
                               model=_load(args.fc_model, FcModel.load))
    return scorer, ("morph_fc_s", "morph_fc_t")


def cmd_annotate(args: argparse.Namespace) -> int:
    _bind("features", "morphmodel")
    inputs = [args.input]
    for flag, kinds in _ANNOTATE_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if args.kind not in kinds:
            if value is not None:
                raise UsageError(f"--kind {args.kind} does not read {flag}")
        elif value is None and kinds[args.kind]:
            raise UsageError(f"--kind {args.kind} requires {flag}")
        elif flag != "--features":  # a list of features, not a file
            inputs.append(value)
    _check_stdin(inputs)
    scorer, default_names = _build_scorer(args)
    names = args.names if args.names is not None else default_names
    with _open_in(args.input) as stream, _open_out(args.output) as out:
        extras, rows = read_rows(stream, _name(args.input))
        extras, annotated = annotate_rows(rows, extras, scorer, names,
                                          threads=args.threads)
        write_rows(annotated, out, extras)
    return 0


def cmd_lexicon(args: argparse.Namespace) -> int:
    _bind("morphmodel")
    paths = args.input or ["-"]
    _check_stdin(paths)
    with ExitStack() as stack:
        streams = [stack.enter_context(_open_in(path)) for path in paths]
        lexicon = build_lexicon(streams, fc_features=args.fc_features,
                                na_value=args.na_value)
    with _open_out(args.output) as out:
        lexicon.save(out)
    return 0


def cmd_rules_check(args: argparse.Namespace) -> int:
    _bind("morphmodel")
    for feature, _, _ in args.pair or ():
        try:
            _feature_index(feature)
        except TableError as exc:
            raise UsageError(str(exc)) from None
    rules = default_rules() if args.rules is None else _load(args.rules, load_rules)
    with _open_out(args.output) as out:
        if not args.pair:
            for feature in rules.features():
                out.write(f"{feature}: {len(rules.pairs(feature))} pairs\n")
            out.write(f"total: {len(rules)} pairs\n")
            return 0
        for feature, src_value, tgt_value in args.pair:
            verdict = ("allowed" if rules.allows(feature, src_value, tgt_value)
                       else "rejected")
            out.write(f"{feature.lower()} {src_value} {tgt_value}: {verdict}\n")
    return 0


def cmd_fc_train(args: argparse.Namespace) -> int:
    _bind("morphmodel")
    _check_stdin([args.src_lex, args.tgt_lex, args.src, args.tgt, args.align])
    src_lex = _load(args.src_lex, MorphLexicon.load)
    tgt_lex = _load(args.tgt_lex, MorphLexicon.load)
    with _open_in(args.src) as src_f, _open_in(args.tgt) as tgt_f, \
            _open_in(args.align) as align_f:
        model = train_fc_model(src_f, tgt_f, align_f, src_lex, tgt_lex)
    with _open_out(args.output) as out:
        model.save(out)
    return 0


def cmd_combine(args: argparse.Namespace) -> int:
    if len(args.input) < 2:
        raise UsageError("combine needs at least two -i NAME=FILE inputs")
    names = [name for name, _ in args.input]
    if len(set(names)) < len(names):
        raise UsageError(f"the -i names must differ, got {', '.join(names)}")
    _bind("combine")
    _check_stdin([path for _, path in args.input])
    with ExitStack() as stack:
        inputs = []
        for name, path in args.input:
            extras, rows = read_rows(stack.enter_context(_open_in(path)), _name(path))
            inputs.append((extras, rows, name))
        extras, combined = combine_rows(inputs)
        with _open_out(args.output) as out:
            write_rows(combined, out, extras)
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    _bind("evalkit")
    _check_stdin([args.weights, args.table, args.input])
    cfg = DecodeConfig(
        weights=_load_weights(args.weights),
        max_phrase_len=args.max_phrase_len,
        unknown_word_penalty=args.unknown_penalty)
    with _open_in(args.table) as stream:
        extras, rows = read_rows(stream, _name(args.table))
        _check_weights("--weights", args.weights, cfg.weights, extras)
        # The index skips phrases longer than --max-phrase-len.
        index = phrase_index_rows(sort_table_rows(rows, extras), extras, cfg)
    sentences = _load(args.input, read_sentences)
    with _open_out(args.output) as out:
        for tokens in ordered_map(
                lambda sentence: _decode_one(sentence, index, cfg),
                sentences, args.threads):
            out.write(" ".join(tokens) + "\n")
    return 0


def cmd_bleu(args: argparse.Namespace) -> int:
    _bind("evalkit")
    _check_stdin([args.hyp, *args.ref])
    hypotheses = _load(args.hyp, read_sentences)
    columns = []
    for path in args.ref:
        columns.append(_load(path, read_sentences))
        if len(columns[-1]) != len(columns[0]):
            raise TableError(
                f"reference file {path!r} has {len(columns[-1])} sentences,"
                f" expected {len(columns[0])}")
    if len(hypotheses) != len(columns[0]):
        raise TableError(
            f"--hyp {_name(args.hyp)} has {len(hypotheses)} sentences,"
            f" --ref {_name(args.ref[0])} has {len(columns[0])}")
    result = bleu4_report(hypotheses, list(zip(*columns)))
    with _open_out(args.output) as out:
        out.write(f"BLEU = {result.bleu:.6f}\n")
        out.write(" ".join(f"p{i} = {p:.6f}"
                           for i, p in enumerate(result.precisions, 1)) + "\n")
        out.write(f"BP = {result.brevity_penalty:.6f}"
                  f" hyp_len = {result.hyp_length}"
                  f" ref_len = {result.ref_length}\n")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with _open_in(args.input) as stream:
        extras, rows = read_rows(stream, _name(args.input))
        manifest = CORE_FEATURES + extras
        bins = [[0] * HIST_BINS for _ in manifest]
        overflow = [0] * len(manifest)
        sources = set()
        entries = 0
        for src, _, scores, _ in rows:
            entries += 1
            sources.add(src)
            for k, value in enumerate(scores):
                if value > 1.0:
                    overflow[k] += 1
                else:
                    bins[k][min(int(value * HIST_BINS), HIST_BINS - 1)] += 1
    with _open_out(args.output) as out:
        out.write(f"entries\t{entries}\n")
        out.write(f"distinct_sources\t{len(sources)}\n")
        out.write("features\t" + " ".join(manifest) + "\n")
        for k, name in enumerate(manifest):
            counts = " ".join(str(c) for c in bins[k])
            out.write(f"hist\t{name}\t{counts}\t>1 {overflow[k]}\n")
    return 0


def cmd_estimate_size(args: argparse.Namespace) -> int:
    _bind("triangulate")
    _check_stdin([args.sp, args.pt], "only one of --sp and --pt can read stdin")
    with _open_in(args.sp) as sp_f, _open_in(args.pt) as pt_f:
        _, sp_rows = read_rows(sp_f, _name(args.sp))
        _, pt_rows = read_rows(pt_f, _name(args.pt))
        total = estimate_pivot_size_rows(sp_rows, pt_rows)
    with _open_out(args.output) as out:
        out.write(f"{total}\n")
    return 0


# --- parser ------------------------------------------------------------------

class UsageError(Exception):
    """Bad flag combinations that argparse cannot express."""


def _add_output(parser: argparse.ArgumentParser, what: str = "output file") -> None:
    parser.add_argument("-o", "--output", default="-", help=f"{what} (default stdout)")


def _add_io(parser: argparse.ArgumentParser, input_help: str) -> None:
    parser.add_argument("-i", "--input", default="-", help=input_help)
    _add_output(parser)


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted for compatibility; work runs on one"
                             " thread whatever the value (default 1)")


def _add_sort_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tmpdir", default=None,
                        help="scratch directory for sort spills (default:"
                             " PIVOTSMITH_TMPDIR or the system tmpdir)")
    parser.add_argument("--chunk-size", type=_positive_int, default=DEFAULT_CHUNK_SIZE,
                        help="rows sorted per in-memory chunk"
                             f" (default {DEFAULT_CHUNK_SIZE})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotsmith",
        description="Phrase table triangulation and evaluation toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details to stderr (only pivot logs)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pivot", help="triangulate two tables through a pivot")
    p.add_argument("--sp", required=True, help="source-pivot phrase table")
    p.add_argument("--pt", required=True, help="pivot-target phrase table")
    _add_output(p, "composed table")
    p.add_argument("--top-n", type=_positive_int, default=DEFAULT_TOP_N,
                   help=f"entries kept per source phrase (default {DEFAULT_TOP_N})")
    p.add_argument("--weights-sp", default=None,
                   help="log-linear weights config for ranking the sp table")
    p.add_argument("--weights-pt", default=None,
                   help="log-linear weights config for ranking the pt table")
    p.add_argument("--min-links", type=_nonnegative_int, default=0,
                   help="drop composed pairs with fewer projected alignment links")
    p.add_argument("--reordering-sp", default=None,
                   help="source-pivot reordering table (validated only)")
    p.add_argument("--reordering-pt", default=None,
                   help="pivot-target reordering table")
    p.add_argument("--reordering-out", default=None,
                   help="write a reordering table for the composed pairs")
    _add_sort_opts(p)
    p.set_defaults(func=cmd_pivot)

    p = sub.add_parser("filter", help="keep the top-n entries per source phrase")
    _add_io(p, "phrase table (default stdin)")
    p.add_argument("--top-n", type=_positive_int, default=DEFAULT_TOP_N,
                   help=f"entries kept per source phrase (default {DEFAULT_TOP_N})")
    p.add_argument("--weights", default=None, help="log-linear weights config")
    _add_sort_opts(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("annotate", help="append constraint feature columns")
    _add_io(p, "phrase table (default stdin)")
    p.add_argument("--kind", required=True,
                   choices=("connectivity", "rules", "induced"))
    p.add_argument("--src-lex", default=None, help="source morphological lexicon")
    p.add_argument("--tgt-lex", default=None, help="target morphological lexicon")
    p.add_argument("--rules", default=None,
                   help="agreement rules file (default: bundled rules)")
    p.add_argument("--features", type=_feature_list, default=None,
                   help="comma-separated features for --kind rules"
                        " (default gen,num,det,pos)")
    p.add_argument("--fc-model", default=None,
                   help="FC model file for --kind induced")
    p.add_argument("--names", type=_name_pair, default=None,
                   help="two comma-separated output column names")
    _add_threads(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("lexicon", help="build a morphological lexicon")
    p.add_argument("-i", "--input", action="append", default=None,
                   help="tagged corpus, repeatable (default stdin)")
    _add_output(p, "lexicon file")
    p.add_argument("--fc-features", type=_feature_list,
                   default=DEFAULT_FC_FEATURES,
                   help="features joined into the FC tag (default gen,num,det)")
    p.add_argument("--na-value", default=NA_VALUE,
                   help=f"value marking an absent feature (default {NA_VALUE})")
    p.set_defaults(func=cmd_lexicon)

    p = sub.add_parser("rules-check", help="query an agreement rules file")
    p.add_argument("--rules", default=None,
                   help="rules file (default: bundled rules)")
    p.add_argument("--pair", nargs=3, action="append", default=None,
                   metavar=("FEATURE", "SRC", "TGT"),
                   help="value pair to check, repeatable; without pairs a"
                        " summary is printed")
    _add_output(p)
    p.set_defaults(func=cmd_rules_check)

    p = sub.add_parser("fc-train", help="train an FC tag translation model")
    p.add_argument("--src", required=True, help="tokenized source sentences")
    p.add_argument("--tgt", required=True, help="tokenized target sentences")
    p.add_argument("--align", required=True,
                   help="word alignments, one i-j list per line")
    p.add_argument("--src-lex", required=True, help="source morphological lexicon")
    p.add_argument("--tgt-lex", required=True, help="target morphological lexicon")
    _add_output(p, "model file")
    p.set_defaults(func=cmd_fc_train)

    p = sub.add_parser("combine", help="merge tables with origin indicators")
    p.add_argument("-i", "--input", action="append", required=True,
                   type=_name_eq_path, metavar="NAME=FILE",
                   help="named input table, repeat at least twice")
    _add_output(p, "combined table")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("decode", help="monotone segment-and-translate decoding")
    p.add_argument("--table", required=True, help="phrase table")
    p.add_argument("--weights", default=None, help="log-linear weights config")
    p.add_argument("--input", default="-",
                   help="tokenized input sentences (default stdin)")
    _add_output(p, "translations")
    p.add_argument("--max-phrase-len", type=_positive_int, default=DEFAULT_MAX_PHRASE_LEN,
                   help=f"longest source span matched (default {DEFAULT_MAX_PHRASE_LEN})")
    p.add_argument("--unknown-penalty", type=float, default=DEFAULT_UNKNOWN_PENALTY,
                   help="log score for passing an unknown token through"
                        f" (default {DEFAULT_UNKNOWN_PENALTY})")
    _add_threads(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file")
    p.add_argument("--hyp", required=True, help="hypothesis sentences")
    p.add_argument("--ref", action="append", required=True,
                   help="reference sentences, repeatable for multiple references")
    _add_output(p)
    p.set_defaults(func=cmd_bleu)

    p = sub.add_parser("stats", help="entry counts and score histograms")
    _add_io(p, "phrase table (default stdin)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("estimate-size", help="pair combinations a pivot join"
                                             " would enumerate")
    p.add_argument("--sp", required=True, help="source-pivot phrase table")
    p.add_argument("--pt", required=True, help="pivot-target phrase table")
    _add_output(p)
    p.set_defaults(func=cmd_estimate_size)

    # A usage error that a command finds prints that command's usage.
    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def _name_eq_path(text: str) -> tuple[str, str]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError("expected NAME=FILE")
    return name, path


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader went away: stop quietly with the status SIGPIPE gives.
        # stdout now points at the null device, so that the interpreter's
        # last flush of its buffer does not fail on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except KeyboardInterrupt:
        # Ctrl-C: the clean-up has run on the way here, so stop quietly.
        return 130  # 128 + SIGINT
    except UsageError as exc:
        args.parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"pivotsmith: error: {exc}", file=sys.stderr)
        return 1


def _exit_on_signal(signum: int, frame) -> None:
    import signal

    # Ignoring the signal first keeps a second one from cutting short the
    # clean-up that the exit runs: scratch directories and .tmp outputs.
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def console_main() -> None:
    """The program's entry point: ``main`` with SIGTERM and SIGHUP handled.

    Each signal exits as Ctrl-C does, after removing the scratch files and
    the unfinished output file.  A signal ignored at start-up, as under
    ``nohup``, stays ignored.  ``main`` leaves signals to its caller, and
    so does not import ``signal``.
    """
    import signal

    for signum in (signal.SIGTERM, signal.SIGHUP):
        if signal.getsignal(signum) is not signal.SIG_IGN:
            signal.signal(signum, _exit_on_signal)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
