"""Headline experiments: prior comparison, the minimax bracket, and the
finite-N optimal concentration.

The unobservable minimax value over the floored simplex is never reported as
a number.  What is computable is the bracket

    lower = Bayes risk of the truncated-prior predictive under the
            truncated prior weight,
    upper = sup over the floored simplex of the full-prior predictive risk,

whose interval provably holds the minimax value; the asymptotic theory
says the N^2-scaled bracket width vanishes for floor schedules in the
minimax window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._pool import ordered_map
from .errors import CheckFailure, DomainError
from .model import (
    ALPHA_JEFFREYS,
    ALPHA_MINIMAX,
    ALPHA_UNIFORM,
    DEFAULT_SEED,
    EpsilonSchedule,
    ModelSpec,
    ScheduleMode,
    SymmetricPrior,
)
from .risk import bayes_risk, sup_risk, truncation_bayes_gap


def prior_label(alpha: float) -> str:
    if alpha == ALPHA_JEFFREYS:
        return "jeffreys"
    if alpha == ALPHA_UNIFORM:
        return "uniform"
    if alpha == ALPHA_MINIMAX:
        return "minimax"
    return f"alpha-{alpha:g}"


@dataclass(frozen=True)
class PriorComparisonRow:
    prior_label: str
    alpha: float
    k: int
    N: int
    eps: float
    sup_risk: float
    excess_over_t1: float
    scaled_excess: float


def compare_priors(
    k: int,
    N_list,
    schedule: EpsilonSchedule,
    priors,
    grid_size: int = 512,
    seed: int = DEFAULT_SEED,
) -> list:
    """One row per (prior, N): sup risk over the floored simplex, its excess
    over the leading (k-1)/(2N), and the N^2-scaled excess.

    Diverging scaled excess (Jeffreys: growth like 1/(24 eps_N)) separates
    non-minimax priors from the bounded-excess minimax concentration.
    """
    priors = list(priors)
    if not priors:
        raise DomainError("need at least one prior")
    N_list = list(N_list)
    if not N_list:
        raise DomainError("need at least one N")
    jobs = [(p, N) for p in priors for N in N_list]

    def one(job) -> PriorComparisonRow:
        p, N = job
        model = ModelSpec(k, N)
        trunc = schedule.truncation(N, k)
        rep = sup_risk(
            p.expand(), model, trunc,
            grid_size=grid_size, seed=seed,
        )
        t1 = (k - 1) / (2.0 * N)
        excess = rep.sup_value - t1
        return PriorComparisonRow(
            prior_label(p.alpha), p.alpha, k, N, trunc.eps,
            rep.sup_value, excess, N * N * excess,
        )

    return ordered_map(one, jobs)


@dataclass(frozen=True)
class SandwichRow:
    k: int
    N: int
    eps: float
    upper: float
    lower: float
    gap_scaled: float


@dataclass(frozen=True)
class SandwichResult:
    rows: tuple
    #: N^2 * (Bayes risk of full predictive under truncated weight - upper),
    #: which the theory also sends to zero on minimax schedules
    crosscheck_scaled: tuple
    gap_trend_ok: bool
    crosscheck_trend_ok: bool


def _trend_collapses(values) -> bool:
    """Trend rule for o(N^-2)-style claims: across a >= 3-point sweep the
    last |value| must drop to at most 0.6x the first."""
    vals = [abs(v) for v in values]
    return len(vals) >= 3 and vals[-1] <= 0.6 * vals[0]


def minimax_sandwich(
    k: int,
    N_list,
    schedule: EpsilonSchedule,
    grid_size: int = 512,
    seed: int = DEFAULT_SEED,
) -> SandwichResult:
    """The computable bracket around the minimax risk, per N.

    Each N integrates one Bayes risk, the full predictive's (the
    cross-check); lower is that risk less truncation_bayes_gap, as
    bayes_risk computes the truncated predictive's.  Requires a schedule
    in the minimax window (1/alpha-hat < r < 3/4).
    Raises CheckFailure if any bracket is out of order (lower > upper beyond
    tolerance); trend verdicts are reported, not raised, since they are
    asymptotic statements evaluated at finite N.
    """
    if schedule.mode is not ScheduleMode.MINIMAX:
        raise DomainError("the sandwich needs a schedule in MINIMAX mode")
    N_list = list(N_list)
    if not N_list:
        raise DomainError("need at least one N")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise DomainError("N_list must be strictly increasing")
    prior = SymmetricPrior.minimax(k)

    def one(N: int):
        model = ModelSpec(k, N)
        trunc = schedule.truncation(N, k)
        upper = sup_risk(
            prior.expand(), model, trunc,
            grid_size=grid_size, seed=seed,
        ).sup_value
        bayes_full = bayes_risk(prior, model, trunc)
        lower = bayes_full - truncation_bayes_gap(prior, trunc, model)
        return upper, lower, bayes_full

    results = ordered_map(one, N_list)
    rows = []
    crosscheck = []
    for N, (upper, lower, bayes_full) in zip(N_list, results):
        eps = schedule.eps(N)
        if lower > upper + 1e-12:
            raise CheckFailure(
                f"bracket out of order at N={N}: lower={lower!r} > upper={upper!r}",
                witness={"N": N, "upper": upper, "lower": lower},
            )
        rows.append(
            SandwichRow(k, N, eps, upper, lower, N * N * (upper - lower))
        )
        crosscheck.append(N * N * (bayes_full - upper))
    return SandwichResult(
        tuple(rows),
        tuple(crosscheck),
        _trend_collapses([r.gap_scaled for r in rows]),
        _trend_collapses(crosscheck),
    )


def optimal_alpha_search(
    k: int,
    N: int,
    schedule: EpsilonSchedule,
    alpha_grid,
    grid_size: int = 256,
    seed: int = DEFAULT_SEED,
) -> tuple:
    """Grid minimizer of the sup risk among symmetric priors.

    The sweep is compare_priors at the one N.  Returns (alpha_star, curve)
    with the full (alpha, sup risk) curve for plotting.  Ties resolve to the smaller alpha.  The asymptotic optimum is
    1 + 1/sqrt(6); no finite-N claim is made, so callers treat alpha_star as
    descriptive.
    """
    alpha_grid = [float(a) for a in alpha_grid]
    if not alpha_grid:
        raise DomainError("need at least one alpha")
    if any(a <= 0 for a in alpha_grid):
        raise DomainError("alpha grid must be positive")
    rows = compare_priors(
        k, [N], schedule, [SymmetricPrior(a, k) for a in alpha_grid],
        grid_size=grid_size, seed=seed,
    )
    curve = [(row.alpha, row.sup_risk) for row in rows]
    alpha_star = min(curve, key=lambda av: (av[1], av[0]))[0]
    if any(not math.isfinite(v) for _, v in curve):
        raise CheckFailure("sup risk curve has non-finite values")
    return alpha_star, curve
