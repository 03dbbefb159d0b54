"""Order-preserving map over per-item work.

Work runs lazily in the calling thread: the scorers and the decoder are
pure Python and hold the GIL, so worker threads would only add overhead.
``threads`` is checked and otherwise ignored, so output is identical for
any value of it.  ``features.annotate_rows`` scores each row through this
function and ``cli`` decodes each sentence through it, rather than with
the builtin ``map``, because the benchmark's tracer
(``perfbench/tracing.py``) wraps it there by name.  Both pass it lazy
streams, so nothing is buffered here.
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
