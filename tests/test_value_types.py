"""The commands' value types and the object model's import paths.

``LogLinearWeights``, ``DecodeConfig`` and ``PivotConfig`` are plain
classes that behave as the frozen dataclasses they replace: the expected
``repr`` strings and hashes below are what those dataclasses gave.

The object model and every ``PhraseTable`` adapter live in
``pivotsmith.tables`` alone, which imports the row modules.  No row module
imports it back, keeps a ``TYPE_CHECKING`` import or forwards names
through a module ``__getattr__``, and a bare ``pivotsmith.tablecore``
import loads no ``dataclasses``.  Every module of the package and of the
tests reads each name its top-level imports bind.
"""

from __future__ import annotations

import ast
import copy
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
import pivotsmith
from pivotsmith import tablecore, tables
from pivotsmith.evalkit import DecodeConfig
from pivotsmith.extsort import DEFAULT_CHUNK_SIZE
from pivotsmith.tablecore import LogLinearWeights
from pivotsmith.triangulate import PivotConfig

WEIGHTS = LogLinearWeights({"phi_fwd": 2.0}, default=None)

# (value, its fields in order, its repr)
VALUES = [
    (LogLinearWeights(), ({}, 1.0), "LogLinearWeights(values={}, default=1.0)"),
    (WEIGHTS, ({"phi_fwd": 2.0}, None),
     "LogLinearWeights(values={'phi_fwd': 2.0}, default=None)"),
    (DecodeConfig(), (None, 8, -10.0),
     "DecodeConfig(weights=None, max_phrase_len=8, unknown_word_penalty=-10.0)"),
    (DecodeConfig(WEIGHTS, 3, unknown_word_penalty=-1.5), (WEIGHTS, 3, -1.5),
     "DecodeConfig(weights=LogLinearWeights(values={'phi_fwd': 2.0},"
     " default=None), max_phrase_len=3, unknown_word_penalty=-1.5)"),
    (PivotConfig(), (1000, None, None, 0, None, 250000),
     "PivotConfig(top_n=1000, weights_sp=None, weights_pt=None,"
     " min_alignment_links=0, tmpdir=None, chunk_size=250000)"),
    (PivotConfig(5, weights_pt=WEIGHTS, min_alignment_links=2, tmpdir="/x",
                 chunk_size=7), (5, None, WEIGHTS, 2, "/x", 7),
     "PivotConfig(top_n=5, weights_sp=None, weights_pt=LogLinearWeights("
     "values={'phi_fwd': 2.0}, default=None), min_alignment_links=2,"
     " tmpdir='/x', chunk_size=7)"),
]
IDS = ["weights-default", "weights", "decode-default", "decode", "pivot-default",
       "pivot"]


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_fields_repr_and_equality(value, fields, text):
    assert repr(value) == text
    assert tuple(getattr(value, name) for name in value._fields) == fields
    twin = type(value)(*fields)
    assert twin == value and not twin != value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert value != fields and value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(value, fields, text):
    try:
        expected = hash(fields)
    except TypeError:
        # A weights dict makes the value unhashable, as it made the dataclass.
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == expected


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, fields, text):
    name = value._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        value.other = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert getattr(value, name) == fields[0]


def test_values_differing_in_one_field_differ():
    assert PivotConfig(chunk_size=7) != PivotConfig()
    assert DecodeConfig(max_phrase_len=3) != DecodeConfig()
    assert LogLinearWeights(default=None) != LogLinearWeights()
    assert LogLinearWeights() != DecodeConfig()


def test_class_level_defaults():
    # Callers read these off the class, for example as default arguments.
    assert PivotConfig.top_n == 1000
    assert PivotConfig.weights_sp is None and PivotConfig.weights_pt is None
    assert PivotConfig.min_alignment_links == 0
    assert PivotConfig.tmpdir is None
    assert PivotConfig.chunk_size == DEFAULT_CHUNK_SIZE
    assert DecodeConfig.weights is None
    assert DecodeConfig.max_phrase_len == 8
    assert DecodeConfig.unknown_word_penalty == -10.0
    assert LogLinearWeights.default == 1.0
    assert LogLinearWeights().values == {}
    assert LogLinearWeights().values is not LogLinearWeights().values


@pytest.mark.parametrize("build, message", [
    (lambda: PivotConfig(top_n=0), "top_n must be at least 1"),
    (lambda: PivotConfig(min_alignment_links=-1),
     "min_alignment_links must not be negative"),
    (lambda: PivotConfig(chunk_size=0), "chunk_size must be at least 1"),
    (lambda: DecodeConfig(max_phrase_len=0), "max_phrase_len must be at least 1"),
    (lambda: DecodeConfig(unknown_word_penalty=float("-inf")),
     "unknown_word_penalty must be finite"),
    (lambda: DecodeConfig(unknown_word_penalty=float("nan")),
     "unknown_word_penalty must be finite"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_tablecore_forwards_no_other_name():
    with pytest.raises(AttributeError, match="has no attribute 'dataclass'"):
        tablecore.dataclass
    with pytest.raises(ImportError):
        exec("from pivotsmith.tablecore import no_such_name", {})


def test_bare_tablecore_import_loads_no_dataclasses():
    code = ("import sys, pivotsmith.tablecore;"
            " print(sorted(m for m in ('dataclasses', 'inspect',"
            " 'pivotsmith.tables') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# The modules below ``tables``: it imports them, and none of them knows it.
ROW_MODULES = ["tablecore", "extsort", "triangulate", "features", "combine",
               "evalkit", "morphmodel"]
ADAPTERS = ["filter_top_n", "pivot_compose", "pivot_reordering",
            "estimate_pivot_size", "reorder_rows", "annotate_table",
            "combine_tables", "build_phrase_index", "decode_monotone",
            "decode_scored", "decode_corpus"]


def _imports_tables(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "pivotsmith.tables" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = "." * node.level + (node.module or "")
    return module in (".tables", "pivotsmith.tables") or (
        module in (".", "pivotsmith")
        and any(alias.name == "tables" for alias in node.names))


@pytest.mark.parametrize("module", ROW_MODULES)
def test_row_modules_do_not_know_the_object_model(module):
    path = Path(importlib.import_module(f"pivotsmith.{module}").__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if _imports_tables(node)]
    # Names, attributes, imported aliases and definitions alike.
    identifiers = {getattr(node, field, None) for node in ast.walk(tree)
                   for field in ("id", "attr", "name")}
    assert "TYPE_CHECKING" not in identifiers
    assert "__getattr__" not in {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}


def _unused_imports(path: Path) -> list[str]:
    """Names a top-level import of ``path`` binds that the module never
    reads, ``__future__`` imports aside, each with its line number."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    # Annotations are expressions in the tree, so the names they read count.
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {lineno})" for name, lineno in bound.items()
            if name not in read]


_PACKAGE_DIR = Path(pivotsmith.__file__).parent
_TESTS_DIR = Path(__file__).parent


@pytest.mark.parametrize("path", sorted(_PACKAGE_DIR.glob("*.py"))
                         + sorted(_TESTS_DIR.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_top_level_import_is_read(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("name", ADAPTERS)
def test_table_adapters_live_in_tables(name):
    adapter = getattr(tables, name)
    assert adapter.__module__ == "pivotsmith.tables"
    if name in pivotsmith.__all__:
        assert getattr(pivotsmith, name) is adapter
