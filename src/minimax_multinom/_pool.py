"""Deterministic work distribution.

ordered_map is the one place a command's job list is dispatched, and the
layer perfbench's tracer wraps to count jobs.  It runs them in order on the
calling thread (threads only lost time under the interpreter lock); a
process pool, if one ever pays, goes behind it.
"""

from __future__ import annotations

import os

from .errors import DomainError


def resolve_threads(threads: int | None) -> int:
    """Explicit argument wins, then MINIMAX_MULTINOM_THREADS, then CPU count.

    A count below 1, or an environment value that is not an integer, raises
    DomainError.  The CLI validates --threads with it; no command reads the count.
    """
    if threads is None:
        env = os.environ.get("MINIMAX_MULTINOM_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            threads = int(env)
        except ValueError:
            raise DomainError(
                f"MINIMAX_MULTINOM_THREADS must be an integer, got {env!r}"
            ) from None
    if threads < 1:
        raise DomainError(f"need at least one thread, got {threads}")
    return int(threads)


def ordered_map(fn, items) -> list:
    """Map fn over items in order on the calling thread."""
    return [fn(it) for it in items]
