"""Every subcommand's output bytes, pinned by sha256.

``GOLDEN_CASES`` in ``conftest.py`` runs each subcommand on small seeded
inputs, and ``golden_bytes.json`` holds the hash of every output.  A
change that moves any output byte fails here.  A change that means to
move them regenerates the manifest and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_bytes.py

rewrites the manifest and prints which hashes moved.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import pytest

from conftest import GOLDEN_SEEDS, run_golden_cases

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_bytes.json")


def _run_all(base) -> dict[str, str | int]:
    hashes = {}
    for seed in GOLDEN_SEEDS:
        directory = os.path.join(base, f"seed{seed}")
        os.mkdir(directory)
        for case, digest in run_golden_cases(directory, seed).items():
            hashes[f"{seed}/{case}"] = digest
    return hashes


def _load_manifest() -> dict[str, str]:
    """The checked-in hashes; none when the manifest is missing."""
    try:
        with open(MANIFEST, encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError:
        return {}


PINNED = _load_manifest()


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> dict[str, str | int]:
    return _run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("key", sorted(PINNED))
def test_output_bytes_match_the_manifest(golden, key):
    assert golden.get(key) == PINNED[key]


def test_every_output_is_in_the_manifest(golden):
    assert sorted(golden) == sorted(PINNED)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("case", ["pivot", "pivot_reo", "pivot_reo.reo"])
def test_sort_merge_join_writes_the_hash_join_bytes(golden, seed, case):
    # The chunk-3 reordering case leaves out --reordering-sp, which is
    # validated only, so it must not change the bytes either.
    name, dot, ext = case.partition(".")
    assert golden[f"{seed}/{name}_chunk3{dot}{ext}"] == golden[f"{seed}/{case}"]


def update_manifest() -> int:
    """Rewrite the manifest from this tree's outputs and report what moved.

    A case that fails is reported and left out of the manifest.  Returns 1
    when a case failed, else 0.
    """
    old = _load_manifest()
    with tempfile.TemporaryDirectory() as base:
        hashes = _run_all(base)
    failed = {key: code for key, code in hashes.items() if isinstance(code, int)}
    new = {key: digest for key, digest in hashes.items() if key not in failed}
    for key in sorted(set(old) | set(hashes)):
        if key in failed:
            print(f"failed  {key}: exit {failed[key]}")
        elif key not in old:
            print(f"added   {key}")
        elif key not in new:
            print(f"removed {key}")
        elif old[key] != new[key]:
            print(f"moved   {key}")
    with open(MANIFEST, "w", encoding="utf-8") as stream:
        json.dump(new, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"{len(new)} hashes written to {MANIFEST}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(update_manifest())
