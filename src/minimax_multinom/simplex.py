"""Truncated-simplex Dirichlet integrals and the auxiliary inequality checks.

The central objects are

    b_trunc(alphas, eps)  = integral of the Dirichlet kernel
                            prod theta_i^(alpha_i - 1) over the simplex with
                            every coordinate floored at eps, and
    log_i_trunc           = ln of that integral over the full multivariate
                            Beta value, i.e. of the retained mass fraction.

Each k has one route.  For k = 2 the integral is a Beta-kernel segment and
is evaluated in closed form.  For k = 3 it is one adaptive Gauss-Kronrod
integral over theta_1 (numkernel.gauss_kronrod) of Beta segments, each
level's nodes evaluated in one array call of numkernel.log_beta_segment;
for larger k the same integral nests k - 2 deep, down to the k = 3 one,
each level one batch.  A batch of such integrals (_b_trunc_batch, which
the check suites and risk.TruncatedPredictiveTable call) runs in lockstep,
one array pass per level for all of them, and each gets the floats of its
run alone.  The same nested integral (_recursive_b_log) takes an optional
integrand factor g of the point, as risk.bayes_risk's numerator needs;
then it nests down to a k = 2 quadrature of the kernel times g.

The module also hosts the numbered inequality/identity checks (the "lemma"
suite exposed by the CLI); see the README for the catalogue of what each
number asserts.  Checks 4, 5, 6 and 8 are each a batch of one of the code
their randomized suite runs on every trial at once.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .numkernel import (
    DEFAULT_SEED,
    compositions,
    gauss_kronrod,
    log_beta_segment,
    log_binomial_row,
    log_multivariate_beta,
    seeded_stream,
    special_functions,
    stable_sum,
)


@dataclass(frozen=True)
class TruncatedDirichletIntegral:
    """Result of a floored-simplex Dirichlet integral, on the log scale.

    error_estimate is relative: the integrator's own estimate, or the
    credit of a Beta segment at k = 2.
    """

    alphas: tuple
    eps: float
    value_log: float
    error_estimate: float

    @property
    def value(self) -> float:
        return math.exp(self.value_log)


#: relative error credited to a Beta segment taken from betainc
_SEGMENT_REL_ERR = 1e-13


def _outer_integrand(alphas: np.ndarray, eps: np.ndarray, g=None) -> tuple:
    """(f, lo, hi, scale, inner_err) of the outer integrals of
    _recursive_b_log for a batch: row j of alphas (one row of k shape
    parameters per integral) floored at eps[j], times g if given.

    f(t1, idx) is the integrand of integral idx at theta_1 = t1, divided by
    exp(scale[idx]), the bare kernel's magnitude at the midpoint of
    [lo, hi], which keeps the rule in a comfortable floating range.  At
    k = 2 (with g only) the integrand is the kernel times g at
    (t1, 1 - t1).  At k = 3 without g the inner values are Beta segments,
    taken for every node (and every midpoint) at once by
    numkernel.log_beta_segment; otherwise they are one batch of
    _recursive_b_log over the nodes, with g composed with the node's
    theta_1, whose worst relative error estimate per integral f keeps in
    inner_err.
    """
    k = alphas.shape[1]
    rest = alphas[:, 1:]
    rows, lo = alphas.tolist(), eps.tolist()
    hi = [1.0 - (k - 1) * e for e in lo]
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
    mid_eps = np.array([e / (1.0 - m) for e, m in zip(lo, mid)])
    if k == 2:
        mid_inner = [0.0] * eps.size
    elif k == 3:
        mid_inner = log_beta_segment(rest[:, 0], rest[:, 1], mid_eps,
                                     1.0 - mid_eps).tolist()
    else:
        mid_inner = _recursive_b_log(rest, mid_eps)[0]
    e1, e2, scale = [], [], []
    for row, m, inner in zip(rows, mid, mid_inner):
        e1.append(row[0] - 1)
        e2.append(stable_sum(row[1:]) - 1)
        scale.append(e1[-1] * math.log(m) + e2[-1] * math.log1p(-m) + inner)
    # one array of per-integral rows, the last updated by f above k = 3
    # and with g
    segments = k == 3 and g is None
    e1, e2, scale_at, inner_err = np.array(
        e1 + e2 + scale + [_SEGMENT_REL_ERR if segments else 0.0] * eps.size
    ).reshape(4, eps.size)

    def f(t1: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # a batch of one broadcasts its parameters instead of gathering them
        at = idx if eps.size > 1 else slice(None)
        if k == 2:
            return (np.exp(e1[at] * np.log(t1) + e2[at] * np.log1p(-t1)
                           - scale_at[at])
                    * g(np.stack([t1, 1.0 - t1]), idx))
        inner_eps = eps[at] / (1.0 - t1)
        # the inner simplex is empty from inner_eps = 1/(k-1) on
        live = inner_eps < 1.0 / (k - 1)
        if np.count_nonzero(live) < live.size:
            out = np.zeros(t1.size)
            out[live] = f(t1[live], idx[live])
            return out
        if segments:
            inner = log_beta_segment(rest[at, 0], rest[at, 1], inner_eps,
                                     1.0 - inner_eps)
        else:
            # node j's inner points phi sit at theta = (t1, (1 - t1) phi)
            inner_g = None if g is None else (lambda phi, j: g(
                np.vstack([t1[j], (1.0 - t1[j]) * phi]), idx[j]))
            inner, ierr = _recursive_b_log(rest[idx], inner_eps, inner_g)
            np.maximum.at(inner_err, idx, ierr)
        return np.exp(e1[at] * np.log(t1) + e2[at] * np.log1p(-t1) + inner
                      - scale_at[at])

    return f, lo, hi, scale, inner_err


def _recursive_b_log(alphas: np.ndarray, eps: np.ndarray, g=None) -> tuple:
    """(log values, relative error estimates), as lists, of a batch of
    floored-simplex integrals by nested quadrature: row j of alphas floored
    at eps[j], all rows of one k, k >= 3 (k >= 2 with g).

    With g, each integrand is the Dirichlet kernel times g(thetas, idx),
    which maps a (k, n) array of points, and the index of the integral
    each column belongs to, to positive values elementwise (as
    risk.CoordinateRiskEvaluator.risk does), so the value is the log of
    the integral of kernel times g.

    Peels off the first coordinate: conditionally on theta_1, the remaining
    coordinates rescaled by 1/(1 - theta_1) fill a (k-1)-simplex floored at
    eps/(1 - theta_1), so the integral factorizes into a one-dimensional
    outer integral against a recursively computed inner value.  The outer
    integrals of the batch are one lockstep numkernel.gauss_kronrod batch,
    so each level is one integrand call for the whole batch, and every
    integral gets the floats of a batch of one.
    """
    f, lo, hi, scale, inner_err = _outer_integrand(alphas, eps, g)
    val, err = gauss_kronrod(f, lo, hi)
    logs, rel = [], []
    for s, v, e, ie, ep in zip(scale, val, err, inner_err.tolist(), lo):
        if v <= 0:
            raise DomainError(f"truncated simplex integral degenerated at eps={ep!r}")
        logs.append(s + math.log(v))
        rel.append(e / v + ie)
    return logs, rel


def _checked(alphas, eps: float) -> tuple:
    """alphas as a tuple of floats, once b_trunc's domain checks pass."""
    alphas = tuple(float(v) for v in alphas)
    k = len(alphas)
    if k < 2:
        raise DomainError("need at least two categories")
    if any(v <= 0 for v in alphas):
        raise DomainError("Dirichlet parameters must be positive")
    if not (0.0 < eps < 1.0 / k):
        raise DomainError(f"need 0 < eps < 1/k, got eps={eps!r}, k={k}")
    return alphas


def _b_trunc_batch(params: list) -> tuple:
    """(b_trunc(alphas, eps), ln B(alphas)) for each checked (alphas, eps)
    of params: every k = 2 integral, a Beta segment over [eps, 1 - eps],
    from one log_beta_segment call, and the integrals of each k >= 3 in one
    lockstep _recursive_b_log batch; b_trunc is a batch of one, and each
    result is the one it gives alone."""
    log_full = [log_multivariate_beta(alphas) for alphas, _ in params]
    out = [None] * len(params)
    for k in sorted({len(alphas) for alphas, _ in params}):
        rows = [j for j, (alphas, _) in enumerate(params) if len(alphas) == k]
        alphas = np.array([params[j][0] for j in rows])
        eps = np.array([params[j][1] for j in rows])
        if k == 2:
            logs = log_beta_segment(alphas[:, 0], alphas[:, 1], eps,
                                    1.0 - eps).tolist()
            errs = [_SEGMENT_REL_ERR] * eps.size
        else:
            logs, errs = _recursive_b_log(alphas, eps)
        for j, value_log, err in zip(rows, logs, errs):
            # truncation can only shrink the integral; clamp rounding
            # overshoot
            out[j] = TruncatedDirichletIntegral(
                *params[j], min(value_log, log_full[j]), err)
    return out, log_full


def b_trunc(alphas, eps: float) -> TruncatedDirichletIntegral:
    """Dirichlet-kernel integral over the simplex floored at eps.

    Closed form for k = 2, one vectorized Gauss-Kronrod integral of Beta
    segments for k = 3, and that integral nested k - 2 deep above.
    Quadrature that does not converge raises IntegrationError.
    """
    return _b_trunc_batch([(_checked(alphas, eps), eps)])[0][0]


def log_i_trunc(alphas, eps: float) -> float:
    """ln of the retained mass fraction; always <= 0."""
    (b,), (log_full,) = _b_trunc_batch([(_checked(alphas, eps), eps)])
    return b.value_log - log_full


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
    return _lemma4_reports([(alphas, eps)])[0]


def _bumped_integrals(draws: list) -> list:
    """(alphas, eps, b0, b1, ln B(alphas), ln B(bumped)) for each (alphas,
    eps) of draws, checked: b0 is b_trunc(alphas, eps) and b1 the same with
    the first shape parameter raised by one, all from one _b_trunc_batch."""
    draws = [(_checked(alphas, eps), eps) for alphas, eps in draws]
    bumped = [((alphas[0] + 1.0,) + alphas[1:], eps) for alphas, eps in draws]
    ints, log_full = _b_trunc_batch(draws + bumped)
    n = len(draws)
    return [(alphas, eps, ints[j], ints[n + j], log_full[j], log_full[n + j])
            for j, (alphas, eps) in enumerate(draws)]


def _lemma4_reports(draws: list) -> list:
    """lemma4_check for each (alphas, eps) of draws."""
    reports = []
    for alphas, eps, b0, b1, full0, full1 in _bumped_integrals(draws):
        rest_sum = stable_sum(alphas[1:])
        i0 = math.exp(b0.value_log - full0)
        i1 = math.exp(b1.value_log - full1)
        lhs = i1 - i0
        rhs = math.exp(
            math.lgamma(stable_sum(alphas))
            - math.lgamma(alphas[0] + 1.0)
            - math.lgamma(rest_sum)
            + alphas[0] * math.log(eps)
            + rest_sum * math.log1p(-eps)
        )
        slack = SLACK_FACTOR * (b0.error_estimate * i0 + b1.error_estimate * i1)
        reports.append(LemmaReport(
            4, 1, lhs - rhs - slack,
            {"alphas": list(alphas), "eps": eps, "lhs": lhs, "rhs": rhs,
             "slack": slack},
            None, {"slack_factor": SLACK_FACTOR},
        ))
    return reports


def lemma5_check(
    alpha: float, beta: float, s: float, t: float, u: float, v: float,
) -> LemmaReport:
    """Monotonicity of the Beta-segment mean ratio under interval shifts.

    If [s, t] and [u, v] are admissible with s <= u and t <= v, the ratio
    of the (alpha+1, beta) segment to the (alpha, beta) segment cannot
    decrease when moving from [s, t] to [u, v].
    """
    return _lemma5_reports([(alpha, beta, s, t, u, v)])[0]


def _lemma5_reports(draws: list) -> list:
    """lemma5_check for each (alpha, beta, s, t, u, v) of draws, with every
    Beta segment from one numkernel.log_beta_segment call."""
    segments = []
    for alpha, beta, s, t, u, v in draws:
        if not (0 <= s < t <= 1 and 0 <= u < v <= 1 and s <= u and t <= v):
            raise DomainError("need admissible ordered intervals")
        if not (alpha > 0 and beta > 0):
            raise DomainError("shape parameters must be positive")
        segments += [(alpha + 1, beta, s, t), (alpha, beta, s, t),
                     (alpha + 1, beta, u, v), (alpha, beta, u, v)]
    logs = log_beta_segment(*np.array(segments, dtype=float).T).tolist()
    reports = []
    for j, (alpha, beta, s, t, u, v) in enumerate(draws):
        lhs = math.exp(logs[4 * j] - logs[4 * j + 1])
        rhs = math.exp(logs[4 * j + 2] - logs[4 * j + 3])
        slack = SLACK_FACTOR * 1e-12 * (lhs + rhs)
        reports.append(LemmaReport(
            5, 1, lhs - rhs - slack,
            {"alpha": alpha, "beta": beta, "s": s, "t": t, "u": u, "v": v,
             "lhs": lhs, "rhs": rhs},
            None, {"slack_factor": SLACK_FACTOR},
        ))
    return reports


def lemma6_check(alphas, eps: float) -> LemmaReport:
    """Simplex-to-interval domination of first-coordinate mean ratios.

    The ratio of floored-simplex integrals after bumping the first shape
    parameter is bounded by the corresponding one-dimensional segment ratio
    on [eps, 1] with the remaining parameters pooled.
    """
    return _lemma6_reports([(alphas, eps)])[0]


def _lemma6_reports(draws: list) -> list:
    """lemma6_check for each (alphas, eps) of draws, with every upper-tail
    Beta segment from one numkernel.log_beta_segment call."""
    integrals = _bumped_integrals(draws)
    segments = []
    for alphas, eps, *_ in integrals:
        rest_sum = stable_sum(alphas[1:])
        segments += [(alphas[0] + 1.0, rest_sum, eps), (alphas[0], rest_sum, eps)]
    logs = log_beta_segment(*np.array(segments).T, 1.0).tolist()
    reports = []
    for j, (alphas, eps, b0, b1, _, _) in enumerate(integrals):
        lhs = math.exp(b1.value_log - b0.value_log)
        rhs = math.exp(logs[2 * j] - logs[2 * j + 1])
        slack = (SLACK_FACTOR * (b0.error_estimate + b1.error_estimate + 2e-12)
                 * (lhs + rhs))
        reports.append(LemmaReport(
            6, 1, lhs - rhs - slack,
            {"alphas": list(alphas), "eps": eps, "lhs": lhs, "rhs": rhs},
            None, {"slack_factor": SLACK_FACTOR},
        ))
    return reports


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
        + log_binomial_row(N)[x1]
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
    return _lemma8_reports([(alpha, beta, eps)])[0]


def _lemma8_reports(draws: list) -> list:
    """lemma8_check for each (alpha, beta, eps) of draws, with every
    upper-tail Beta segment from one numkernel.log_beta_segment call."""
    segments = []
    for alpha, beta, eps in draws:
        if not 0.0 <= eps < 1.0:
            raise DomainError("need eps in [0, 1)")
        segments += [(alpha, beta, eps), (alpha + 1.0, beta, eps)]
    logs = log_beta_segment(*np.array(segments, dtype=float).T, 1.0).tolist()
    reports = []
    for j, (alpha, beta, eps) in enumerate(draws):
        log_den = logs[2 * j]
        ratio = math.exp(logs[2 * j + 1] - log_den)
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
        reports.append(LemmaReport(
            8, 1, violation,
            {"alpha": alpha, "beta": beta, "eps": eps, "ratio": ratio,
             "identity_rhs": identity_rhs, "bound_rhs": bound_rhs,
             "rel_diff": rel},
            None, {"identity_rtol": IDENTITY_RTOL, "slack_factor": SLACK_FACTOR},
        ))
    return reports


def _draw_lemma1(rng) -> tuple:
    return int(rng.integers(0, 6)), [float(rng.uniform(-0.99, 10.0))]


def _draw_simplex(rng) -> tuple:
    # the lemma 4 and 6 suites: k = 2 or 3, shape parameters log-uniform
    k = 2 if rng.random() < 0.7 else 3
    alphas = np.exp(rng.uniform(math.log(0.2), math.log(8.0), size=k))
    return tuple(alphas), float(rng.uniform(1e-3, 0.95 / k))


def _draw_lemma5(rng) -> tuple:
    alpha = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
    beta = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
    s = float(rng.uniform(0.0, 0.8))
    u = float(rng.uniform(s, 0.9))
    t = float(rng.uniform(s + 0.01, 1.0))
    v = float(rng.uniform(max(t, u + 0.01), 1.0))
    return alpha, beta, s, t, u, v


def _draw_lemma7(rng) -> tuple:
    k = int(rng.integers(2, 5))
    N = int(rng.integers(1, 21))
    alphas = np.exp(rng.uniform(math.log(0.2), math.log(8.0), size=k))
    return tuple(alphas), N, int(rng.integers(0, N + 1))


def _draw_lemma8(rng) -> tuple:
    # the linear bound is provably false for alpha < 1 (see the README and
    # lemma8_check docstring), so the suite samples the bound's domain of
    # validity; the identity part is universal
    alpha = float(np.exp(rng.uniform(0.0, math.log(20.0))))
    beta = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
    return alpha, beta, float(rng.uniform(0.0, 0.95))


def _each(check):
    return lambda draws: [check(*d) for d in draws]


#: per suite: one trial's draw from the stream, and the checks of a list of
#: draws
_SUITES = {
    1: (_draw_lemma1, _each(lemma1_check)),
    4: (_draw_simplex, _lemma4_reports),
    5: (_draw_lemma5, _lemma5_reports),
    6: (_draw_simplex, _lemma6_reports),
    7: (_draw_lemma7, _each(lemma7_check)),
    8: (_draw_lemma8, _lemma8_reports),
}


def run_lemma_suite(
    lemma: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> LemmaReport:
    """Randomized stress suite for one numbered check.

    Draws are taken from a single counter-based stream keyed on
    (seed, lemma number), so reports are reproducible and independent of
    any parallelism in the caller.  Every trial is drawn first, in stream
    order; the checks then run on the whole list, so the lemma 4 and 6
    suites integrate all their k = 3 integrals in one lockstep batch and
    the lemma 5 suite takes its Beta segments from one array pass.  Every
    trial's report is the one its check gives alone, and the reports are
    merged in trial order.
    """
    if trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials}")
    rng = seeded_stream(seed, lemma)
    if lemma not in _SUITES:
        raise DomainError(f"no randomized suite for lemma {lemma}")
    draw, checks = _SUITES[lemma]
    reports = checks([draw(rng) for _ in range(trials)])
    report = reports[0]
    for r in reports[1:]:
        report = report.merge(r)
    report.trials = trials
    report.seed = seed
    return report
