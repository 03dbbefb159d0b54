"""Order-preserving map over per-item work.

Work runs lazily in the calling thread: the scorers and the decoder are
pure Python and hold the GIL, so worker threads would only add overhead.
``threads`` is checked and otherwise ignored, so output is identical for
any value of it.  ``features`` and ``cli`` call the work through this
function rather than the builtin ``map`` because the benchmark's tracer
(``perfbench/tracing.py``) wraps it there by name.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T],
                threads: int = 1) -> Iterator[R]:
    """``map(fn, items)`` in the calling thread; ``threads`` must be >= 1."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return map(fn, items)
