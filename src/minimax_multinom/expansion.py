"""Four-order asymptotic expansion of the prediction risk and its
specializations.

Uniformly over the floored simplex (floor eps_N = c N^(-r), r < 1) the risk
of the Dirichlet-prior predictive admits

    R(theta) = (k-1)/(2N) + T2/N^2 + T3/N^3 + T4/N^4 + O(N^-5 eps_N^-4),

where each T_o is a sum over coordinates of polynomial(a_i) / theta_i^p
terms plus a constant in (A, k).  All polynomial coefficients live in one
table below; the symmetric-minimax specialization re-derives the same
numbers from closed-form constants, giving double-entry protection against
transcription typos in either place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import ordered_map
from .errors import CheckFailure, DomainError
from .model import (
    ALPHA_MINIMAX,
    DEFAULT_SEED,
    SQRT6,
    EpsilonSchedule,
    ModelSpec,
    PriorSpec,
)
from .numkernel import stable_sum
from .risk import CoordinateRiskEvaluator, SeparableMaximizer, ThetaPoint

# Expansion coefficient table.  For order o (2..4) and inverse-theta power p,
# the per-coordinate numerator polynomial in a_i (ascending powers) and its
# integer denominator.  Constants depend only on (A, k).
EXPANSION_TABLE = {
    2: {
        "theta_pows": {1: ((5, -12, 6), 12)},
        "const": lambda A, k: -0.5 * A * A + A - 0.5 * k + 1.0 / 12.0,
    },
    3: {
        "theta_pows": {
            2: ((9, -24, 18, -4), 12),
            1: ((-5, 12, -6), 4),
        },
        "const": lambda A, k: A**3 / 3.0 - A + 0.5 * k,
    },
    4: {
        "theta_pows": {
            3: ((251, -720, 660, -240, 30), 120),
            2: ((-9, 24, -18, 4), 2),
            1: ((35, -84, 42), 12),
        },
        "const": lambda A, k: -0.25 * A**4 + A - 0.5 * k - 1.0 / 120.0,
    },
}


@dataclass(frozen=True)
class ExpansionTerms:
    """Per-order contributions; t_o already carries its 1/N^o factor."""

    t1: float
    t2: float
    t3: float
    t4: float

    def upto(self, order: int) -> float:
        if not 1 <= order <= 4:
            raise DomainError("order must lie in 1..4")
        return stable_sum((self.t1, self.t2, self.t3, self.t4)[:order])

    @property
    def total(self) -> float:
        return self.upto(4)


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _kept_terms(prior: PriorSpec, truncation_order: int, variant: str):
    """The tabulated terms kept at a truncation order and variant.

    Returns (coord_terms, consts): coord_terms[i] lists coordinate i's
    (order, p, poly(a_i), den) terms, each contributing
    poly(a_i) / (den theta_i^p N^order), in table order (the profile's
    residual adds them in this order, which fixes its last bits); consts
    maps each order whose (A, k) constant is kept to that constant.
    Variant "reduced" keeps, beyond order two, only the highest
    inverse-theta power of each order and drops its constant.
    """
    coord_terms = [[] for _ in prior.a]
    consts = {}
    for order in range(2, truncation_order + 1):
        pows = EXPANSION_TABLE[order]["theta_pows"]
        if variant == "reduced" and order > 2:
            pows = {max(pows): pows[max(pows)]}
        else:
            consts[order] = EXPANSION_TABLE[order]["const"](prior.A, prior.k)
        for p, (coeffs, den) in pows.items():
            for terms, a_i in zip(coord_terms, prior.a):
                terms.append((order, p, _poly(coeffs, a_i), den))
    return coord_terms, consts


def risk_expansion(
    prior: PriorSpec, model: ModelSpec, theta: ThetaPoint
) -> ExpansionTerms:
    """Evaluate the four-order expansion at an interior point."""
    if prior.k != model.k or theta.k != model.k:
        raise DomainError("prior, model and theta disagree on k")
    if model.N < 1:
        raise DomainError("the expansion needs N >= 1")
    k, N = model.k, float(model.N)
    coord_terms, consts = _kept_terms(prior, 4, "full")
    terms = [(k - 1) / (2.0 * N)]
    for order in (2, 3, 4):
        parts = [
            poly / (den * t_i**p)
            for coord, t_i in zip(coord_terms, theta.theta)
            for o, p, poly, den in coord
            if o == order
        ]
        parts.append(consts[order])
        terms.append(stable_sum(parts) / N**order)
    return ExpansionTerms(*terms)


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


def minimax_excess_coefficient(k: int) -> float:
    """The N^-2 coefficient -(k-1)(1 + (7 + 2 sqrt 6) k)/12 of the
    minimax-prior risk beyond the leading (k-1)/(2N)."""
    return -((k - 1) / 12.0) * (1.0 + (7.0 + 2.0 * SQRT6) * k)


def jeffreys_excess_lower_bound(k: int, N: int, eps: float) -> float:
    """Divergence witness for the Jeffreys prior.

    At the point with one coordinate at the floor and the rest equal, the
    risk exceeds (k-1)/(2N) by at least 1/(24 N^2 eps) up to lower-order
    terms, so the Jeffreys predictive cannot be asymptotically minimax.
    """
    if not (0.0 < eps < 1.0 / k):
        raise DomainError("need 0 < eps < 1/k")
    return 1.0 / (24.0 * N * N * eps)


def jeffreys_witness_theta(k: int, eps: float) -> ThetaPoint:
    """One coordinate at the floor, remaining mass split evenly."""
    rest = (1.0 - eps) / (k - 1)
    return ThetaPoint.complete([eps] + [rest] * (k - 2))


@dataclass(frozen=True)
class IdentityReport:
    rows: tuple  # (name, lhs, rhs, abs_diff)


def minimax_alpha_identities(rtol: float = 1e-13) -> IdentityReport:
    """The algebraic identities behind the minimax concentration.

    With ah = 1 + 1/sqrt(6): the quadratic 6a^2 - 12a + 5 vanishes at ah,
    the cubic and quartic expansion numerators collapse to -sqrt(6)/9 and
    -(20 sqrt 6 - 11)/6, and the order-2 constant equals
    -(k-1)(1 + (7 + 2 sqrt 6) k)/12 for every k.  Raises CheckFailure naming
    the first identity violated beyond rtol.
    """
    ah = ALPHA_MINIMAX
    rows = []

    def add(name: str, lhs: float, rhs: float):
        rows.append((name, lhs, rhs, abs(lhs - rhs)))

    add("quadratic(ah) = 0", 6 * ah**2 - 12 * ah + 5, 0.0)
    add("cubic(ah) = -sqrt6/9", -4 * ah**3 + 18 * ah**2 - 24 * ah + 9, -SQRT6 / 9.0)
    add(
        "quartic(ah) = -(20 sqrt6 - 11)/6",
        30 * ah**4 - 240 * ah**3 + 660 * ah**2 - 720 * ah + 251,
        -(20.0 * SQRT6 - 11.0) / 6.0,
    )
    for k in range(2, 9):
        A_hat = k * ah
        add(
            f"order-2 constant, k={k}",
            -0.5 * A_hat**2 + A_hat - 0.5 * k + 1.0 / 12.0,
            minimax_excess_coefficient(k),
        )
    for name, lhs, rhs, diff in rows:
        scale = max(1.0, abs(lhs), abs(rhs))
        if diff > rtol * scale:
            raise CheckFailure(
                f"identity violated: {name} (lhs={lhs!r}, rhs={rhs!r})",
                witness={"name": name, "lhs": lhs, "rhs": rhs},
            )
    return IdentityReport(tuple(rows))


@dataclass(frozen=True)
class ProfileRow:
    N: int
    eps: float
    sup_abs_residual: float
    scaled_residual: float
    argmax_theta: tuple


def expansion_error_profile(
    prior: PriorSpec,
    schedule: EpsilonSchedule,
    N_list,
    truncation_order: int = 4,
    variant: str = "full",
    grid_size: int = 128,
    seed: int = DEFAULT_SEED,
    ascent_starts: int = 8,
) -> list:
    """Sup over the floored simplex of |exact risk - truncated expansion|.

    variant "full" uses the expansion exactly as tabulated; variant
    "reduced" keeps, beyond order two, only the highest inverse-theta power
    of each order (the boundary-dominant part) - the form whose residual is
    o(N^-2) whenever N^(3/4) eps_N -> inf.

    The residual is scaled by N^5 eps^4 for the full order-4 profile
    (matching the remainder bound) and by N^2 otherwise.  The sup reuses the
    separable search heuristic on the residual itself, since its maximizer
    need not be the risk's.
    """
    if variant not in ("full", "reduced"):
        raise DomainError(f"unknown variant {variant!r}")
    if not 1 <= truncation_order <= 4:
        raise DomainError("truncation_order must lie in 1..4")
    N_list = list(N_list)
    if not N_list:
        raise DomainError("need at least one N")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise DomainError("N_list must be strictly increasing")
    k = prior.k
    coord_terms, consts = _kept_terms(prior, truncation_order, variant)
    # every coordinate keeps the same (order, p, den) terms; only poly(a_i)
    # differs, so polys[i, term] serves a per-point coordinate index
    shapes = [(order, p, den) for order, p, _, den in coord_terms[0]]
    polys = np.array([[poly for _, _, poly, _ in terms] for terms in coord_terms])

    def one_row(N: int) -> ProfileRow:
        model = ModelSpec(k, N)
        eps = schedule.eps(N)
        ev = CoordinateRiskEvaluator(prior, model)
        Nf = float(N)
        constant = (k - 1) / (2.0 * Nf) + stable_sum(
            c / Nf**order for order, c in consts.items()
        )

        def residual_coord(i, t) -> np.ndarray:
            t = np.atleast_1d(np.asarray(t, dtype=float))
            poly_of = polys[i]
            expansion = np.zeros_like(t)
            for term, (order, p, den) in enumerate(shapes):
                expansion += poly_of[..., term] / (den * t**p) / Nf**order
            return ev.coordinate(i, t) - expansion

        maximizer = SeparableMaximizer(
            residual_coord,
            k,
            eps,
            constant=-constant,
            transform=abs,
            symmetric=prior.is_symmetric,
            seed=seed,
            ascent_starts=ascent_starts,
        )
        sup_val, theta, _ = maximizer.maximize(grid_size)
        if truncation_order == 4 and variant == "full":
            scale = Nf**5 * eps**4
        else:
            scale = Nf**2
        return ProfileRow(N, eps, sup_val, sup_val * scale, theta.theta)

    return ordered_map(one_row, N_list)
