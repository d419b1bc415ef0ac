"""Reference checks and oracles that only the tests use.

- The moment engine's exact oracle: rational evaluation of a MomentPoly
  (evaluate_exact) and rational probability-mass summation
  (moment_pmf_oracle_exact), which criterion 5 compares digit for digit.
- The boundedness scans: |mu_{2l-1}|/(N theta)^(l-1), |mu_{2l}|/(N theta)^l
  and lemma 3's (N theta)^l E[-w^(2l+1)/(1+w)] along a floor schedule.
- Criterion 4's second entry: the symmetric-minimax expansion written from
  its closed-form constants, compared term by term against the general
  coefficient table of expansion.risk_expansion.

The module is imported by the test files the way conftest is; its name
does not match test_*.py, so pytest collects nothing from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from minimax_multinom import (
    ALPHA_MINIMAX,
    SQRT6,
    DomainError,
    EpsilonSchedule,
    ExpansionTerms,
    MomentPoly,
    ThetaPoint,
    moment_recurrence,
    stable_sum,
)
from minimax_multinom.numkernel import log_binomial_row

# --- exact moment oracle -----------------------------------------------------


def _peval_exact(c: tuple, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * t + v
    return acc


def evaluate_exact(poly: MomentPoly, N: int, theta: Fraction) -> Fraction:
    """poly's central moment at (N, theta) in exact rational arithmetic."""
    nt = N * theta
    total = Fraction(0)
    for i, coeffs in sorted(poly.coeffs.items()):
        total += _peval_exact(coeffs, theta) * nt**i
    return total


def moment_pmf_oracle_exact(m: int, N: int, theta: Fraction) -> Fraction:
    """Exact rational version of the brute-force moment."""
    total = Fraction(0)
    for x in range(N + 1):
        pmf = math.comb(N, x) * theta**x * (1 - theta) ** (N - x)
        total += pmf * (x - N * theta) ** m
    return total


# --- boundedness scans -------------------------------------------------------


@dataclass
class BoundReport:
    """Per-N suprema of a scaled moment quantity, with a no-growth verdict.

    passed means the last supremum does not exceed 1.05x the largest
    supremum seen over the first half of the sweep, i.e. no growth trend.
    """

    label: str
    rows: list
    passed: bool
    criterion: str = "final <= 1.05 * max(first half)"


def _theta_grid(eps: float, points: int) -> np.ndarray:
    """Log-spaced grid on [eps, 1]: dense near the floor where the extremal
    values of the moment ratios sit."""
    grid = eps * np.exp(np.linspace(0.0, math.log(1.0 / eps), points))
    return np.minimum(grid, 1.0)


def _trend_passed(sups: list) -> bool:
    half = max(1, len(sups) // 2)
    return sups[-1] <= 1.05 * max(sups[:half])


def moment_ratio_bound_check(
    l: int,
    eps_schedule: EpsilonSchedule,
    N_list,
    grid_points: int = 2048,
) -> tuple:
    """Empirical boundedness of |mu_{2l-1}|/(N theta)^(l-1) and
    |mu_{2l}|/(N theta)^l over theta in [eps_N, 1] across a sweep of N.

    Returns a pair of BoundReports (odd-order, even-order).
    """
    if l < 1:
        raise DomainError("l must be a positive integer")
    polys = moment_recurrence(2 * l)
    odd_rows, even_rows = [], []
    for N in N_list:
        eps = eps_schedule.eps(N)
        grid = _theta_grid(eps, grid_points)
        nt = N * grid
        odd = np.abs(polys[2 * l - 1].evaluate(N, grid)) / nt ** (l - 1)
        even = np.abs(polys[2 * l].evaluate(N, grid)) / nt**l
        odd_rows.append((N, eps, float(odd.max())))
        even_rows.append((N, eps, float(even.max())))
    return (
        BoundReport(f"|mu_{2*l-1}|/(N theta)^{l-1}", odd_rows,
                    _trend_passed([r[2] for r in odd_rows])),
        BoundReport(f"|mu_{2*l}|/(N theta)^{l}", even_rows,
                    _trend_passed([r[2] for r in even_rows])),
    )


def lemma3_bound_check(
    l: int,
    a: float,
    eps_schedule: EpsilonSchedule,
    N_list,
    grid_points: int = 2048,
) -> BoundReport:
    """Empirical boundedness of (N theta)^l * E[-w^(2l+1)/(1+w)] where
    w = (x - N theta)/(N theta + a), x binomial(N, theta).

    The expectation is computed by direct mass summation; the scan runs over
    theta in [eps_N, 1] for each N and asserts the same no-growth trend as
    the moment-ratio check.
    """
    if l < 0:
        raise DomainError("l must be nonnegative")
    if a <= 0:
        raise DomainError("a must be positive")
    rows = []
    for N in N_list:
        eps = eps_schedule.eps(N)
        grid = _theta_grid(eps, grid_points)
        x = np.arange(N + 1)
        lg = log_binomial_row(N)
        sup = -math.inf
        for th in grid:
            if th >= 1.0:
                # degenerate: x = N surely, w = 0, expectation 0
                val = 0.0
            else:
                logpmf = lg + x * math.log(th) + (N - x) * math.log1p(-th)
                w = (x - N * th) / (N * th + a)
                val = float(np.sum(np.exp(logpmf) * (-(w ** (2 * l + 1)) / (1 + w))))
                val *= (N * th) ** l
            sup = max(sup, val)
        rows.append((N, eps, sup))
    return BoundReport(
        f"(N theta)^{l} * E[-w^{2*l+1}/(1+w)], a={a:g}",
        rows, _trend_passed([r[2] for r in rows]),
    )


# --- criterion 4's second entry ----------------------------------------------


def minimax_prior_expansion(k: int, N: int, theta: ThetaPoint) -> ExpansionTerms:
    """Expansion terms for the symmetric prior with concentration
    1 + 1/sqrt(6), written from its closed-form constants.

    The per-coordinate numerator polynomials collapse at this concentration:
    the order-2 coefficient vanishes identically (so t2 is the pure constant
    -(k-1)(1 + (7 + 2 sqrt 6) k)/12 / N^2), the order-3 one equals
    -sqrt(6)/9, and the order-4 one equals -(20 sqrt 6 - 11)/6.  The (A, k)
    constant tails of orders three and four are kept so that the result
    agrees with risk_expansion term by term (they are o(N^-2)-irrelevant in
    every sup statement that uses these terms).
    """
    if theta.k != k:
        raise DomainError("theta and k disagree")
    if N < 1:
        raise DomainError("the expansion needs N >= 1")
    Nf = float(N)
    A_hat = k * ALPHA_MINIMAX
    inv2 = stable_sum(t**-2 for t in theta.theta)
    inv3 = stable_sum(t**-3 for t in theta.theta)
    t2 = -((k - 1) / 12.0) * (1.0 + (7.0 + 2.0 * SQRT6) * k) / Nf**2
    t3 = (
        (-SQRT6 / 9.0) / 12.0 * inv2
        + (A_hat**3 / 3.0 - A_hat + 0.5 * k)
    ) / Nf**3
    t4 = (
        -((20.0 * SQRT6 - 11.0) / 6.0) / 120.0 * inv3
        + (SQRT6 / 9.0) / 2.0 * inv2
        + (-0.25 * A_hat**4 + A_hat - 0.5 * k - 1.0 / 120.0)
    ) / Nf**4
    return ExpansionTerms((k - 1) / (2.0 * Nf), t2, t3, t4)
