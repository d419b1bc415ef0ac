"""Deterministic work distribution.

Every parallel site in the package maps a pure function over a fixed item
list and consumes the results in item order, so the output is identical for
any worker count (including 1).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def resolve_threads(threads: int | None) -> int:
    """Explicit argument wins, then MINIMAX_MULTINOM_THREADS, then CPU count.

    A count below 1, or an environment value that is not an integer, raises
    DomainError.
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


def ordered_map(fn, items, threads: int | None = None) -> list:
    """Map fn over items, merging results in item order."""
    items = list(items)
    n = resolve_threads(threads)
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
