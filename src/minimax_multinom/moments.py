"""Central moments of the binomial distribution as exact polynomials.

The m-th central moment mu_m(N, theta) of a binomial(N, theta) count admits
the representation

    mu_m(N, theta) = sum_i f_{m,i}(theta) * (N theta)^i,

where the f_{m,i} are polynomials with integer coefficients and i runs over
1..floor(m/2) for m >= 2 (mu_0 = 1, mu_1 = 0).  The representation is built
by the differential recurrence

    mu_{m+1} = theta (1 - theta) * (N m mu_{m-1} + d mu_m / d theta),

carried out exactly over the integers.  moment_closed_form writes orders
up to eight out explicitly, taking the lower (N theta)-powers of orders six
to eight from the recurrence.  The tests check the closed forms against the
recurrence, the recurrence against exact rational probability-mass
summation, and the scaled moments' boundedness along a floor schedule;
those oracles and scans live under tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

# --- integer polynomial helpers (coefficient tuples, ascending powers) -----


def _trim(c: tuple) -> tuple:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim(tuple(out))


def _pscale(a: tuple, s: int) -> tuple:
    return _trim(tuple(s * v for v in a))


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(tuple(out))


def _pder(a: tuple) -> tuple:
    return _trim(tuple(i * v for i, v in enumerate(a) if i >= 1))


_ONE_MINUS_T = (1, -1)          # 1 - theta
_T_ONE_MINUS_T = (0, 1, -1)     # theta (1 - theta)


def _mirror(c: tuple) -> tuple:
    """Exact coefficients of g(u) := f(1 - u) over the integers."""
    out = [0] * len(c)
    for p, cp in enumerate(c):
        for j in range(p + 1):
            out[j] += cp * math.comb(p, j) * (-1) ** j
    return _trim(tuple(out))


_MIRROR_CACHE: dict = {}


def _horner(c: tuple, t):
    acc = t * 0.0
    for v in reversed(c):
        acc = acc * t + v
    return acc


def _peval(c: tuple, t):
    """Well-conditioned polynomial evaluation; t a float or an ndarray.

    The coefficient tuples here carry (1-theta) factors, so plain Horner
    near theta = 1 cancels catastrophically.  Evaluating in powers of
    u = 1 - theta (exact integer coefficient transform) on that half keeps
    the relative error near machine level on all of [0, 1].
    """
    if c not in _MIRROR_CACHE:
        _MIRROR_CACHE[c] = _mirror(c)
    cm = _MIRROR_CACHE[c]
    if isinstance(t, np.ndarray):
        return np.where(t > 0.5, _horner(cm, 1.0 - t), _horner(c, t))
    if t > 0.5:
        return _horner(cm, 1.0 - t)
    return _horner(c, t)


@dataclass(frozen=True)
class MomentPoly:
    """mu_m in the (N theta)-power basis: coeffs maps i -> f_{m,i} tuple."""

    order: int
    coeffs: dict

    def evaluate(self, N, theta):
        """Evaluate at (N, theta); theta may be a float or an ndarray.

        The (N theta)-powers cancel heavily for small N theta (the basis is
        adapted to large counts), so the accumulation runs in extended
        precision and rounds once at the end.
        """
        t = np.asarray(theta, dtype=np.longdouble)
        nt = np.longdouble(N) * t
        total = t * 0.0
        for i, poly in sorted(self.coeffs.items()):
            total = total + _peval(poly, t) * nt**i
        if np.ndim(theta) == 0:
            return float(total)
        return np.asarray(total, dtype=float)

    def pretty(self) -> str:
        """Render in the (N theta)^i basis, ascending powers of theta inside."""
        if not self.coeffs:
            return f"mu_{self.order} = 0"
        parts = []
        for i, poly in sorted(self.coeffs.items(), reverse=True):
            terms = []
            for p, c in enumerate(poly):
                if c == 0:
                    continue
                if p == 0:
                    terms.append(f"{c}")
                elif p == 1:
                    terms.append(f"{c:+}*t")
                else:
                    terms.append(f"{c:+}*t^{p}")
            body = " ".join(terms) if terms else "0"
            if i == 0:
                parts.append(f"({body})")
            elif i == 1:
                parts.append(f"(N*t)*({body})")
            else:
                parts.append(f"(N*t)^{i}*({body})")
        return f"mu_{self.order} = " + " + ".join(parts)


@lru_cache(maxsize=None)
def _recurrence_upto(m_max: int) -> tuple:
    polys = [
        MomentPoly(0, {0: (1,)}),
        MomentPoly(1, {}),
        MomentPoly(2, {1: _ONE_MINUS_T}),
    ]
    for m in range(2, m_max):
        prev, cur = polys[m - 1], polys[m]
        nxt: dict = {}

        def add(j: int, poly: tuple):
            if poly:
                nxt[j] = _padd(nxt.get(j, ()), poly)

        # N m mu_{m-1} contributes m (1-theta) f_{m-1, j-1} at power j
        for j, poly in prev.coeffs.items():
            add(j + 1, _pmul(_pscale(poly, m), _ONE_MINUS_T))
        # theta (1-theta) d/dtheta [f (N theta)^j]
        #   = [theta (1-theta) f' + j (1-theta) f] (N theta)^j
        for j, poly in cur.coeffs.items():
            add(j, _pmul(_T_ONE_MINUS_T, _pder(poly)))
            if j >= 1:
                add(j, _pmul(_pscale(poly, j), _ONE_MINUS_T))
        nxt = {j: p for j, p in nxt.items() if p}
        polys.append(MomentPoly(m + 1, nxt))
    return tuple(polys[: m_max + 1])


def moment_recurrence(m_max: int) -> list:
    """MomentPoly objects for orders 0..m_max via the exact recurrence."""
    if m_max < 2:
        raise DomainError("m_max must be at least 2")
    return list(_recurrence_upto(m_max))


def moment_closed_form(m: int, N: float, theta: float) -> float:
    """Closed-form central moment for m <= 8.

    Orders up to five are fully explicit; orders six to eight combine the
    explicit leading (N theta)-powers with lower-order polynomials supplied
    by the recurrence.  Orders above eight delegate to the recurrence.
    """
    if m < 0:
        raise DomainError("order must be nonnegative")
    if not 0.0 < theta < 1.0:
        raise DomainError("theta must lie in (0, 1)")
    if not N >= 0:
        raise DomainError(f"sample size N must be nonnegative, got {N!r}")
    if m > 8:
        return float(_recurrence_upto(m)[m].evaluate(N, theta))
    t = theta
    v = N * t * (1 - t)
    if m == 0:
        return 1.0
    if m == 1:
        return 0.0
    if m == 2:
        return v
    if m == 3:
        return v * (1 - 2 * t)
    if m == 4:
        return 3 * v**2 + v * (1 - 6 * t + 6 * t**2)
    if m == 5:
        return 10 * v**2 * (1 - 2 * t) + v * (1 - 2 * t) * (1 - 12 * t + 12 * t**2)
    polys = _recurrence_upto(8)
    nt = N * t
    if m == 6:
        phi61 = _peval(polys[6].coeffs[1], t)
        return 15 * v**3 + 5 * v**2 * (5 - 26 * t + 26 * t**2) + nt * phi61
    if m == 7:
        phi71 = _peval(polys[7].coeffs[1], t)
        phi72 = _peval(polys[7].coeffs[2], t)
        return 105 * v**3 * (1 - 2 * t) + nt**2 * phi72 + nt * phi71
    phi81 = _peval(polys[8].coeffs[1], t)
    phi82 = _peval(polys[8].coeffs[2], t)
    phi83 = _peval(polys[8].coeffs[3], t)
    return 105 * v**4 + nt**3 * phi83 + nt**2 * phi82 + nt * phi81
