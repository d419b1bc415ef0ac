"""Truncated-simplex Dirichlet integrals and the auxiliary inequality checks.

The central objects are

    b_trunc(alphas, eps)  = integral of the Dirichlet kernel
                            prod theta_i^(alpha_i - 1) over the simplex with
                            every coordinate floored at eps, and
    log_i_trunc           = ln of that integral over the full multivariate
                            Beta value, i.e. of the retained mass fraction.

For k = 2 the integral is a Beta-kernel segment and is evaluated in closed
form.  For k = 3 it is one adaptive Gauss-Kronrod integral over theta_1
(numkernel.gauss_kronrod) of Beta segments, each level's nodes evaluated in
one array pass.  For larger k it is estimated by rejection sampling from
the untruncated Dirichlet with seeded counter-based streams; forced
quadrature there nests the same integral k - 2 deep, down to the k = 3 one.

The module also hosts the numbered inequality/identity checks (the "lemma"
suite exposed by the CLI); see the README for the catalogue of what each
number asserts.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibleRegionError, StatisticalPrecisionError
from .numkernel import (
    DEFAULT_SEED,
    MonteCarloSettings,
    compositions,
    dirichlet_batch,
    gauss_kronrod,
    log_beta_segment,
    log_beta_segments,
    log_multinomial,
    log_multivariate_beta,
    seeded_stream,
    special_functions,
    stable_sum,
)


class IntegrationMethod(enum.Enum):
    EXACT_1D = "exact-1d"
    RECURSIVE_QUAD = "recursive-quad"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class TruncatedDirichletIntegral:
    """Result of a floored-simplex Dirichlet integral, on the log scale.

    error_estimate is relative (3 standard errors for Monte Carlo, the
    integrator's own estimate otherwise).
    """

    alphas: tuple
    eps: float
    value_log: float
    method: IntegrationMethod
    error_estimate: float

    @property
    def value(self) -> float:
        return math.exp(self.value_log)


#: relative error credited to a Beta segment taken from betainc
_SEGMENT_REL_ERR = 1e-13


def _recursive_b_log(alphas, eps: float) -> tuple:
    """(log value, relative error estimate) by nested quadrature.

    Peels off the first coordinate: conditionally on theta_1, the remaining
    coordinates rescaled by 1/(1 - theta_1) fill a (k-1)-simplex floored at
    eps/(1 - theta_1), so the integral factorizes into a one-dimensional
    outer integral (numkernel.gauss_kronrod) against a recursively computed
    inner value.  At k = 3 the inner values are Beta segments, taken for
    all the nodes of a level at once (numkernel.log_beta_segments).
    """
    k = len(alphas)
    if k == 2:
        lv = log_beta_segment(alphas[0], alphas[1], eps, 1.0 - eps)
        return lv, _SEGMENT_REL_ERR
    rest = alphas[1:]
    rest_sum = stable_sum(rest)
    lo, hi = eps, 1.0 - (k - 1) * eps
    # scale by the integrand magnitude at the midpoint to keep the rule in
    # a comfortable floating range
    mid = 0.5 * (lo + hi)
    mid_inner, _ = _recursive_b_log(rest, eps / (1.0 - mid))
    scale = (alphas[0] - 1) * math.log(mid) + (rest_sum - 1) * math.log1p(-mid) + mid_inner

    inner_err = _SEGMENT_REL_ERR if k == 3 else 0.0

    def log_inner(inner_eps: np.ndarray) -> np.ndarray:
        nonlocal inner_err
        if k == 3:
            return log_beta_segments(rest[0], rest[1], inner_eps, 1.0 - inner_eps)
        out = []
        for e in inner_eps.tolist():
            inner, ierr = _recursive_b_log(rest, e)
            inner_err = max(inner_err, ierr)
            out.append(inner)
        return np.array(out)

    def integrand(t1: np.ndarray) -> np.ndarray:
        inner_eps = eps / (1.0 - t1)
        # the inner simplex is empty from inner_eps = 1/(k-1) on
        live = inner_eps < 1.0 / (k - 1)
        t1 = t1[live]
        out = np.zeros(live.size)
        out[live] = np.exp(
            (alphas[0] - 1) * np.log(t1)
            + (rest_sum - 1) * np.log1p(-t1)
            + log_inner(inner_eps[live])
            - scale
        )
        return out

    val, err = gauss_kronrod(integrand, lo, hi)
    if val <= 0:
        raise DomainError(f"truncated simplex integral degenerated at eps={eps!r}")
    return scale + math.log(val), err / val + inner_err


#: b_trunc's Monte Carlo budget when no settings are passed
_B_TRUNC_MC = MonteCarloSettings(n_draws=1_000_000, batch_size=65_536)


def b_trunc(
    alphas,
    eps: float,
    method: IntegrationMethod | None = None,
    mc: MonteCarloSettings | None = None,
) -> TruncatedDirichletIntegral:
    """Dirichlet-kernel integral over the simplex floored at eps.

    Method selection is automatic by dimension (closed form for k = 2, one
    vectorized Gauss-Kronrod integral of Beta segments for k = 3, Monte
    Carlo beyond) and can be forced for cross-validation: forced quadrature
    integrates the raw kernel at k = 2 and nests the k = 3 integral at
    k >= 4.  Quadrature that does not converge raises IntegrationError.
    mc sets the Monte Carlo draws (default 1,000,000 in
    batches of 65,536); passing it when the method is not Monte Carlo raises
    DomainError, and its stderr_ceiling bounds the standard error of the
    retained fraction.
    """
    alphas = tuple(float(v) for v in alphas)
    k = len(alphas)
    if k < 2:
        raise DomainError("need at least two categories")
    if any(v <= 0 for v in alphas):
        raise DomainError("Dirichlet parameters must be positive")
    if not (0.0 < eps < 1.0 / k):
        raise DomainError(f"need 0 < eps < 1/k, got eps={eps!r}, k={k}")

    if method is None:
        if k == 2:
            method = IntegrationMethod.EXACT_1D
        elif k == 3:
            method = IntegrationMethod.RECURSIVE_QUAD
        else:
            method = IntegrationMethod.MONTE_CARLO
    if mc is not None and method is not IntegrationMethod.MONTE_CARLO:
        raise DomainError(f"Monte Carlo settings given for method {method.value}")

    log_full = log_multivariate_beta(alphas)

    if method is IntegrationMethod.EXACT_1D:
        if k != 2:
            raise DomainError("EXACT_1D applies to k = 2 only")
        value_log = log_beta_segment(alphas[0], alphas[1], eps, 1.0 - eps)
        err = _SEGMENT_REL_ERR
    elif method is IntegrationMethod.RECURSIVE_QUAD:
        if k == 2:
            # forced path for cross-checks: integrate the raw kernel
            def integrand(t):
                return t ** (alphas[0] - 1) * (1 - t) ** (alphas[1] - 1)

            val, aerr = gauss_kronrod(integrand, eps, 1 - eps)
            value_log, err = math.log(val), aerr / val
        else:
            value_log, err = _recursive_b_log(alphas, eps)
    elif method is IntegrationMethod.MONTE_CARLO:
        mc = mc or _B_TRUNC_MC
        accepted = proposed = 0
        for b in range(mc.n_batches):
            rows, size = dirichlet_batch(alphas, eps, mc, b)
            accepted += len(rows)
            proposed += size
        frac = accepted / proposed
        if frac < 1e-6:
            raise InfeasibleRegionError(
                f"acceptance rate {frac:.2e} too low at eps={eps!r} "
                f"({accepted}/{proposed} draws)"
            )
        se = math.sqrt(frac * (1 - frac) / proposed)
        if mc.stderr_ceiling is not None and se > mc.stderr_ceiling:
            raise StatisticalPrecisionError(
                f"standard error {se:.3e} above ceiling {mc.stderr_ceiling:.3e}",
                frac, se,
            )
        value_log = math.log(frac) + log_full
        err = 3.0 * se / frac
    else:  # pragma: no cover
        raise DomainError(f"unknown method {method!r}")

    # truncation can only shrink the integral; clamp rounding overshoot
    value_log = min(value_log, log_full)
    return TruncatedDirichletIntegral(alphas, eps, value_log, method, err)


def log_i_trunc(
    alphas,
    eps: float,
    method: IntegrationMethod | None = None,
    mc: MonteCarloSettings | None = None,
) -> float:
    """ln of the retained mass fraction; always <= 0."""
    b = b_trunc(alphas, eps, method, mc)
    return b.value_log - log_multivariate_beta(b.alphas)


# ---------------------------------------------------------------------------
# numbered checks
# ---------------------------------------------------------------------------

#: integrator-noise multiplier applied before declaring an inequality violated
SLACK_FACTOR = 10.0

#: relative tolerance for the exact identities (checks 7 and 8)
IDENTITY_RTOL = 1e-10


@dataclass
class LemmaReport:
    """Outcome of one check (or one randomized suite of a check).

    max_violation <= 0 means every instance held within tolerance; the
    witness records the worst instance either way.
    """

    lemma: int
    trials: int
    max_violation: float
    witness: dict | None
    seed: int | None
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_violation <= 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def merge(self, other: "LemmaReport") -> "LemmaReport":
        if other.max_violation > self.max_violation:
            worst = other
        else:
            worst = self
        return LemmaReport(
            lemma=self.lemma,
            trials=self.trials + other.trials,
            max_violation=worst.max_violation,
            witness=worst.witness,
            seed=self.seed,
            tolerances=self.tolerances,
        )


def lemma1_check(m: int, x_grid) -> LemmaReport:
    """Alternating-series envelope of log(1+x).

    For every nonnegative integer m and x > -1 the partial sum of degree
    2m+1 overshoots log(1+x), while the degree-2m partial sum plus the
    closing term x^(2m+1)/((2m+1)(1+x)) undershoots it, with equality only
    at x = 0.
    """
    if m < 0:
        raise DomainError("m must be a nonnegative integer")
    xs = [float(x) for x in x_grid]
    worst = -math.inf
    witness = None
    for x in xs:
        if x <= -1.0:
            raise DomainError("grid points must satisfy x > -1")
        powers = [(-1) ** (i - 1) * x**i / i for i in range(1, 2 * m + 2)]
        upper = stable_sum(powers)
        lower = stable_sum(powers[:-1]) + x ** (2 * m + 1) / ((2 * m + 1) * (1 + x))
        ref = math.log1p(x)
        slack = 8 * math.ulp(1.0) * (abs(x) + abs(ref) + 1.0)
        violation = max(lower - ref, ref - upper) - slack
        if violation > worst:
            worst, witness = violation, {"m": m, "x": x, "lower": lower,
                                         "log1p": ref, "upper": upper}
    return LemmaReport(1, len(xs), worst, witness, None,
                       {"slack": "8*ulp*(|x|+|log1p(x)|+1)"})


def lemma4_check(alphas, eps: float) -> LemmaReport:
    """Increment bound for the retained-mass fraction.

    Raising the first shape parameter by one changes the retained fraction
    by at most Gamma(sum alpha) / (Gamma(alpha_1 + 1) Gamma(sum rest)) *
    eps^alpha_1 (1 - eps)^(sum rest).
    """
    alphas = tuple(float(v) for v in alphas)
    rest_sum = stable_sum(alphas[1:])
    b0 = b_trunc(alphas, eps)
    bumped = (alphas[0] + 1.0,) + alphas[1:]
    b1 = b_trunc(bumped, eps)
    i0 = math.exp(b0.value_log - log_multivariate_beta(alphas))
    i1 = math.exp(b1.value_log - log_multivariate_beta(bumped))
    lhs = i1 - i0
    rhs = math.exp(
        math.lgamma(stable_sum(alphas))
        - math.lgamma(alphas[0] + 1.0)
        - math.lgamma(rest_sum)
        + alphas[0] * math.log(eps)
        + rest_sum * math.log1p(-eps)
    )
    slack = SLACK_FACTOR * (b0.error_estimate * i0 + b1.error_estimate * i1)
    violation = lhs - rhs - slack
    return LemmaReport(
        4, 1, violation,
        {"alphas": list(alphas), "eps": eps, "lhs": lhs, "rhs": rhs, "slack": slack},
        None, {"slack_factor": SLACK_FACTOR},
    )


def lemma5_check(
    alpha: float, beta: float, s: float, t: float, u: float, v: float,
) -> LemmaReport:
    """Monotonicity of the Beta-segment mean ratio under interval shifts.

    If [s, t] and [u, v] are admissible with s <= u and t <= v, the ratio
    of the (alpha+1, beta) segment to the (alpha, beta) segment cannot
    decrease when moving from [s, t] to [u, v].
    """
    if not (0 <= s < t <= 1 and 0 <= u < v <= 1 and s <= u and t <= v):
        raise DomainError("need admissible ordered intervals")
    lhs = math.exp(
        log_beta_segment(alpha + 1, beta, s, t)
        - log_beta_segment(alpha, beta, s, t)
    )
    rhs = math.exp(
        log_beta_segment(alpha + 1, beta, u, v)
        - log_beta_segment(alpha, beta, u, v)
    )
    slack = SLACK_FACTOR * 1e-12 * (lhs + rhs)
    violation = lhs - rhs - slack
    return LemmaReport(
        5, 1, violation,
        {"alpha": alpha, "beta": beta, "s": s, "t": t, "u": u, "v": v,
         "lhs": lhs, "rhs": rhs},
        None, {"slack_factor": SLACK_FACTOR},
    )


def lemma6_check(alphas, eps: float) -> LemmaReport:
    """Simplex-to-interval domination of first-coordinate mean ratios.

    The ratio of floored-simplex integrals after bumping the first shape
    parameter is bounded by the corresponding one-dimensional segment ratio
    on [eps, 1] with the remaining parameters pooled.
    """
    alphas = tuple(float(v) for v in alphas)
    rest_sum = stable_sum(alphas[1:])
    b0 = b_trunc(alphas, eps)
    b1 = b_trunc((alphas[0] + 1.0,) + alphas[1:], eps)
    lhs = math.exp(b1.value_log - b0.value_log)
    rhs = math.exp(
        log_beta_segment(alphas[0] + 1.0, rest_sum, eps, 1.0)
        - log_beta_segment(alphas[0], rest_sum, eps, 1.0)
    )
    slack = SLACK_FACTOR * (b0.error_estimate + b1.error_estimate + 2e-12) * (lhs + rhs)
    violation = lhs - rhs - slack
    return LemmaReport(
        6, 1, violation,
        {"alphas": list(alphas), "eps": eps, "lhs": lhs, "rhs": rhs},
        None, {"slack_factor": SLACK_FACTOR},
    )


def lemma7_check(alphas, N: int, x1: int) -> LemmaReport:
    """Aggregation identity for Dirichlet-multinomial marginals.

    Summing the joint Dirichlet-multinomial mass over every split of the
    remaining N - x_1 counts equals the two-cell mass with the tail
    parameters pooled.  Both sides are assembled in the log domain and must
    agree to IDENTITY_RTOL.
    """
    alphas = tuple(float(v) for v in alphas)
    k = len(alphas)
    if not 0 <= x1 <= N:
        raise DomainError("x1 must lie in 0..N")
    gammaln = special_functions().gammaln
    rest = compositions(N - x1, k - 1)
    x = np.hstack([np.full((len(rest), 1), x1), rest])
    # ln B(x + alpha) - ln B(alpha) + ln N!/(x_1! ... x_k!) for every x:
    # x + alpha sums to N + A on each row, so only the per-cell log-gammas
    # vary, and one gammaln pass gives them all
    lg = gammaln(np.stack([x + np.array(alphas), x + 1.0]))
    const = (float(gammaln(N + 1.0)) - float(gammaln(N + stable_sum(alphas)))
             - log_multivariate_beta(alphas))
    lhs = stable_sum(np.exp((lg[0] - lg[1]).sum(axis=1) + const))
    rest_sum = stable_sum(alphas[1:])
    rhs = math.exp(
        log_multivariate_beta([x1 + alphas[0], N - x1 + rest_sum])
        - log_multivariate_beta([alphas[0], rest_sum])
        + log_multinomial(N, (x1, N - x1))
    )
    rel = abs(lhs - rhs) / abs(rhs)
    violation = rel - IDENTITY_RTOL
    return LemmaReport(
        7, 1, violation,
        {"alphas": list(alphas), "N": N, "x1": x1, "lhs": lhs, "rhs": rhs,
         "rel_diff": rel},
        None, {"identity_rtol": IDENTITY_RTOL},
    )


def lemma8_check(alpha: float, beta: float, eps: float) -> LemmaReport:
    """Exact mean-ratio identity on [eps, 1], plus its linear bound.

    The segment ratio equals alpha/(alpha+beta) plus an explicit boundary
    correction (an identity valid for all alpha, beta > 0), and is bounded
    by (1-eps) alpha/(alpha+beta) + eps.  The bound holds for alpha >= 1
    only: it needs theta^(alpha-1) >= eps^(alpha-1) on [eps, 1], and e.g.
    (alpha, beta, eps) = (0.05, 1, 1/2) violates it outright.
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError("need eps in [0, 1)")
    log_den = log_beta_segment(alpha, beta, eps, 1.0)
    ratio = math.exp(log_beta_segment(alpha + 1.0, beta, eps, 1.0) - log_den)
    if eps == 0.0:
        boundary = 0.0
    else:
        boundary = math.exp(
            alpha * math.log(eps) + beta * math.log1p(-eps) - log_den
        ) / (alpha + beta)
    identity_rhs = alpha / (alpha + beta) + boundary
    rel = abs(ratio - identity_rhs) / abs(identity_rhs)
    bound_rhs = (1.0 - eps) * alpha / (alpha + beta) + eps
    slack = SLACK_FACTOR * 1e-12 * (ratio + bound_rhs)
    violation = max(rel - IDENTITY_RTOL, ratio - bound_rhs - slack)
    return LemmaReport(
        8, 1, violation,
        {"alpha": alpha, "beta": beta, "eps": eps, "ratio": ratio,
         "identity_rhs": identity_rhs, "bound_rhs": bound_rhs, "rel_diff": rel},
        None, {"identity_rtol": IDENTITY_RTOL, "slack_factor": SLACK_FACTOR},
    )


def run_lemma_suite(
    lemma: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> LemmaReport:
    """Randomized stress suite for one numbered check.

    Draws are taken from a single counter-based stream keyed on
    (seed, lemma number), so reports are reproducible and independent of
    any parallelism in the caller.
    """
    if trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials}")
    rng = seeded_stream(seed, lemma)
    report: LemmaReport | None = None

    def fold(r: LemmaReport):
        nonlocal report
        report = r if report is None else report.merge(r)

    for _ in range(trials):
        if lemma == 1:
            m = int(rng.integers(0, 6))
            x = float(rng.uniform(-0.99, 10.0))
            fold(lemma1_check(m, [x]))
        elif lemma == 4:
            k = 2 if rng.random() < 0.7 else 3
            alphas = np.exp(rng.uniform(math.log(0.2), math.log(8.0), size=k))
            eps = float(rng.uniform(1e-3, 0.95 / k))
            fold(lemma4_check(tuple(alphas), eps))
        elif lemma == 5:
            alpha = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            beta = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            s = float(rng.uniform(0.0, 0.8))
            u = float(rng.uniform(s, 0.9))
            t = float(rng.uniform(s + 0.01, 1.0))
            v = float(rng.uniform(max(t, u + 0.01), 1.0))
            fold(lemma5_check(alpha, beta, s, t, u, v))
        elif lemma == 6:
            k = 2 if rng.random() < 0.7 else 3
            alphas = np.exp(rng.uniform(math.log(0.2), math.log(8.0), size=k))
            eps = float(rng.uniform(1e-3, 0.95 / k))
            fold(lemma6_check(tuple(alphas), eps))
        elif lemma == 7:
            k = int(rng.integers(2, 5))
            N = int(rng.integers(1, 21))
            alphas = np.exp(rng.uniform(math.log(0.2), math.log(8.0), size=k))
            x1 = int(rng.integers(0, N + 1))
            fold(lemma7_check(tuple(alphas), N, x1))
        elif lemma == 8:
            # the linear bound is provably false for alpha < 1 (see the
            # README and lemma8_check docstring), so the suite samples the
            # bound's domain of validity; the identity part is universal
            alpha = float(np.exp(rng.uniform(0.0, math.log(20.0))))
            beta = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            eps = float(rng.uniform(0.0, 0.95))
            fold(lemma8_check(alpha, beta, eps))
        else:
            raise DomainError(f"no randomized suite for lemma {lemma}")

    report.trials = trials
    report.seed = seed
    return report
