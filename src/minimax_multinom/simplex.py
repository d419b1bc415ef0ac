"""Truncated-simplex Dirichlet integrals and the auxiliary inequality checks.

The central objects are

    B_eps(alphas)         = integral of the Dirichlet kernel
                            prod theta_i^(alpha_i - 1) over the simplex with
                            every coordinate floored at eps, and
    log_i_trunc           = ln of that integral over the full multivariate
                            Beta value B, i.e. of the retained mass fraction.

Each k has one route.  For k = 2 the integral is a Beta-kernel segment and
is evaluated in closed form.  For k = 3 it is one adaptive Gauss-Kronrod
integral over theta_1 (numkernel.gauss_kronrod) of Beta segments, each
level's nodes evaluated in one array call of numkernel.log_beta_segment;
for larger k the same integral nests k - 2 deep, down to the k = 3 one,
each level one batch.  One function takes B_eps: _b_trunc_batch, for a
list of (alphas, eps) pairs, which log_i_trunc, the check suites and
risk.TruncatedPredictiveTable call; its integrals run in lockstep, one
array pass per level for all of them, and each gets the floats of its run
alone.  The same nested integral (_recursive_b_log) takes an optional
integrand factor g of the point, as risk.bayes_risk's numerator needs;
then it nests down to a k = 2 quadrature of the kernel times g.

The module also hosts the numbered inequality/identity checks (the "lemma"
suite exposed by the CLI); see the README for the catalogue of what each
number asserts.  Each check is one batch function over a list of
instances; check_lemma reports any list, and a randomized suite is its
seeded draws plus one check_lemma call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import TruncatedSimplex
from .numkernel import (
    DEFAULT_SEED,
    check_shapes,
    compositions,
    gauss_kronrod,
    log_beta_segment,
    log_binomial_row,
    log_multivariate_beta,
    seeded_stream,
    special_functions,
    stable_sum,
)


#: relative error credited to a Beta segment taken from betainc
_SEGMENT_REL_ERR = 1e-13


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
    integrand of integral idx at theta_1 = t1 is divided by
    exp(scale[idx]), the bare kernel's magnitude at the midpoint of the
    outer interval, which keeps the rule in a comfortable floating range.
    At k = 2 (with g only) the integrand is the kernel times g at
    (t1, 1 - t1).  At k = 3 without g the inner values are Beta segments,
    taken for every node (and every midpoint) at once by
    numkernel.log_beta_segment; otherwise they are one batch of
    _recursive_b_log over the nodes, with g composed with the node's
    theta_1, whose worst relative error estimate per integral adds to that
    integral's own.  The outer integrals of the batch are one lockstep
    numkernel.gauss_kronrod batch, so each level is one integrand call for
    the whole batch, and every integral gets the floats of a batch of one.
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

    val, err = gauss_kronrod(f, lo, hi)
    logs, rel = [], []
    for s, v, e, ie, ep in zip(scale, val, err, inner_err.tolist(), lo):
        if v <= 0:
            raise DomainError(f"truncated simplex integral degenerated at eps={ep!r}")
        logs.append(s + math.log(v))
        rel.append(e / v + ie)
    return logs, rel


def _b_trunc_batch(params: list) -> tuple:
    """(ln B_eps, relative error estimate, ln B) as float arrays, one entry
    per (alphas, eps) of params, each the one its pair gets alone.

    Each alphas must pass check_shapes and each eps the floor rule of
    model.TruncatedSimplex, 0 < eps < 1/k, or it raises DomainError.  The
    k = 2 integrals are Beta segments over [eps, 1 - eps] from one
    log_beta_segment call, credited _SEGMENT_REL_ERR; those of each k >= 3
    are one _recursive_b_log batch.
    """
    shapes = []
    for alphas, eps in params:
        alphas = check_shapes(alphas)
        TruncatedSimplex(len(alphas), eps)
        shapes.append(alphas)
    log_full = np.array([log_multivariate_beta(alphas) for alphas in shapes])
    logs, errs = np.empty(len(params)), np.empty(len(params))
    for k in sorted({len(alphas) for alphas in shapes}):
        rows = [j for j, alphas in enumerate(shapes) if len(alphas) == k]
        alphas = np.array([shapes[j] for j in rows])
        eps = np.array([params[j][1] for j in rows])
        if k == 2:
            logs[rows] = log_beta_segment(*alphas.T, eps, 1.0 - eps)
            errs[rows] = _SEGMENT_REL_ERR
        else:
            logs[rows], errs[rows] = _recursive_b_log(alphas, eps)
    # truncation can only shrink the integral; clamp rounding overshoot
    return np.minimum(logs, log_full), errs, log_full


def log_i_trunc(alphas, eps: float) -> float:
    """ln B_eps/B, the retained mass fraction (see _b_trunc_batch); <= 0."""
    (log_b,), _, (log_full,) = _b_trunc_batch([(alphas, eps)])
    return float(log_b - log_full)


# ---------------------------------------------------------------------------
# numbered checks
# ---------------------------------------------------------------------------

#: integrator-noise multiplier applied before declaring an inequality violated
SLACK_FACTOR = 10.0

#: relative tolerance for the exact identities (checks 7 and 8)
IDENTITY_RTOL = 1e-10


@dataclass
class LemmaReport:
    """Outcome of one numbered check on a list of instances.

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


def _lemma1(instances: list) -> list:
    """Alternating-series envelope of log(1+x), at each (m, x).

    For every nonnegative integer m and x > -1 the partial sum of degree
    2m+1 overshoots log(1+x), while the degree-2m partial sum plus the
    closing term x^(2m+1)/((2m+1)(1+x)) undershoots it, with equality only
    at x = 0.
    """
    out = []
    for m, x in instances:
        if m < 0:
            raise DomainError("m must be a nonnegative integer")
        x = float(x)
        if not -1.0 < x < math.inf:
            raise DomainError("need a finite x > -1")
        powers = [(-1) ** (i - 1) * x**i / i for i in range(1, 2 * m + 2)]
        upper = stable_sum(powers)
        lower = stable_sum(powers[:-1]) + x ** (2 * m + 1) / ((2 * m + 1) * (1 + x))
        ref = math.log1p(x)
        slack = 8 * math.ulp(1.0) * (abs(x) + abs(ref) + 1.0)
        out.append((max(lower - ref, ref - upper) - slack,
                    {"m": m, "x": x, "lower": lower, "log1p": ref, "upper": upper}))
    return out


def _bumped_integrals(instances: list) -> tuple:
    """(instances with float shapes, ln B_eps, its relative error, ln B),
    the last three one (at alphas, at bumped) pair per (alphas, eps) of
    instances, where bumped is alphas with its first shape parameter raised
    by one: all from one _b_trunc_batch."""
    instances = [(tuple(float(v) for v in alphas), eps) for alphas, eps in instances]
    # no indexing, so a short alphas reaches the batch's DomainError
    bumped = [(tuple(v + 1.0 if i == 0 else v for i, v in enumerate(alphas)), eps)
              for alphas, eps in instances]
    return (instances, *(v.reshape(2, -1).T.tolist()
                         for v in _b_trunc_batch(instances + bumped)))


def _lemma4(instances: list) -> list:
    """Increment bound for the retained-mass fraction, at each (alphas, eps).

    Raising the first shape parameter by one changes the retained fraction
    by at most Gamma(sum alpha) / (Gamma(alpha_1 + 1) Gamma(sum rest)) *
    eps^alpha_1 (1 - eps)^(sum rest).
    """
    out = []
    instances, log_b, err, log_full = _bumped_integrals(instances)
    for (alphas, eps), (b0, b1), (err0, err1), (full0, full1) in zip(
            instances, log_b, err, log_full):
        rest_sum = stable_sum(alphas[1:])
        i0 = math.exp(b0 - full0)
        i1 = math.exp(b1 - full1)
        lhs = i1 - i0
        rhs = math.exp(
            math.lgamma(stable_sum(alphas))
            - math.lgamma(alphas[0] + 1.0)
            - math.lgamma(rest_sum)
            + alphas[0] * math.log(eps)
            + rest_sum * math.log1p(-eps)
        )
        slack = SLACK_FACTOR * (err0 * i0 + err1 * i1)
        out.append((lhs - rhs - slack,
                    {"alphas": list(alphas), "eps": eps, "lhs": lhs, "rhs": rhs,
                     "slack": slack}))
    return out


def _lemma5(instances: list) -> list:
    """Monotonicity of the Beta-segment mean ratio under interval shifts, at
    each (alpha, beta, s, t, u, v).

    If [s, t] and [u, v] are admissible with s <= u and t <= v, the ratio
    of the (alpha+1, beta) segment to the (alpha, beta) segment cannot
    decrease when moving from [s, t] to [u, v].  Every Beta segment comes
    from one numkernel.log_beta_segment call.
    """
    segments = []
    for alpha, beta, s, t, u, v in instances:
        if not (0 <= s < t <= 1 and 0 <= u < v <= 1 and s <= u and t <= v):
            raise DomainError("need admissible ordered intervals")
        check_shapes((alpha, beta))
        segments += [(alpha + 1, beta, s, t), (alpha, beta, s, t),
                     (alpha + 1, beta, u, v), (alpha, beta, u, v)]
    logs = log_beta_segment(*np.array(segments, dtype=float).T).tolist()
    out = []
    for j, (alpha, beta, s, t, u, v) in enumerate(instances):
        lhs = math.exp(logs[4 * j] - logs[4 * j + 1])
        rhs = math.exp(logs[4 * j + 2] - logs[4 * j + 3])
        slack = SLACK_FACTOR * 1e-12 * (lhs + rhs)
        out.append((lhs - rhs - slack,
                    {"alpha": alpha, "beta": beta, "s": s, "t": t, "u": u,
                     "v": v, "lhs": lhs, "rhs": rhs}))
    return out


def _lemma6(instances: list) -> list:
    """Simplex-to-interval domination of first-coordinate mean ratios, at
    each (alphas, eps).

    The ratio of floored-simplex integrals after bumping the first shape
    parameter is bounded by the corresponding one-dimensional segment ratio
    on [eps, 1] with the remaining parameters pooled.  Every upper-tail
    Beta segment comes from one numkernel.log_beta_segment call.
    """
    instances, log_b, err, _ = _bumped_integrals(instances)
    segments = []
    for alphas, eps in instances:
        rest_sum = stable_sum(alphas[1:])
        segments += [(alphas[0] + 1.0, rest_sum, eps), (alphas[0], rest_sum, eps)]
    logs = log_beta_segment(*np.array(segments).T, 1.0).tolist()
    out = []
    for j, ((alphas, eps), (b0, b1), (err0, err1)) in enumerate(
            zip(instances, log_b, err)):
        lhs = math.exp(b1 - b0)
        rhs = math.exp(logs[2 * j] - logs[2 * j + 1])
        slack = SLACK_FACTOR * (err0 + err1 + 2e-12) * (lhs + rhs)
        out.append((lhs - rhs - slack,
                    {"alphas": list(alphas), "eps": eps, "lhs": lhs, "rhs": rhs}))
    return out


def _lemma7(instances: list) -> list:
    """Aggregation identity for Dirichlet-multinomial marginals, at each
    (alphas, N, x1).

    Summing the joint Dirichlet-multinomial mass over every split of the
    remaining N - x_1 counts equals the two-cell mass with the tail
    parameters pooled.  Both sides are assembled in the log domain and must
    agree to IDENTITY_RTOL.
    """
    gammaln = special_functions().gammaln
    out = []
    for alphas, N, x1 in instances:
        alphas = check_shapes(alphas)
        if not 0 <= x1 <= N:
            raise DomainError("x1 must lie in 0..N")
        rest = compositions(N - x1, len(alphas) - 1)
        x = np.hstack([np.full((len(rest), 1), x1), rest])
        # ln B(x + alpha) - ln B(alpha) + ln N!/(x_1! ... x_k!) for every x:
        # x + alpha sums to N + A on each row, so only the per-cell
        # log-gammas vary, and one gammaln pass gives them all
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
        out.append((rel - IDENTITY_RTOL,
                    {"alphas": list(alphas), "N": N, "x1": x1, "lhs": lhs,
                     "rhs": rhs, "rel_diff": rel}))
    return out


def _lemma8(instances: list) -> list:
    """Exact mean-ratio identity on [eps, 1], plus its linear bound, at each
    (alpha, beta, eps).

    The segment ratio equals alpha/(alpha+beta) plus an explicit boundary
    correction (an identity valid for all alpha, beta > 0), and is bounded
    by (1-eps) alpha/(alpha+beta) + eps.  The bound holds for alpha >= 1
    only: it needs theta^(alpha-1) >= eps^(alpha-1) on [eps, 1], and e.g.
    (alpha, beta, eps) = (0.05, 1, 1/2) violates it outright.  Every
    upper-tail Beta segment comes from one numkernel.log_beta_segment call.
    """
    segments = []
    for alpha, beta, eps in instances:
        if not 0.0 <= eps < 1.0:
            raise DomainError("need eps in [0, 1)")
        check_shapes((alpha, beta))
        segments += [(alpha, beta, eps), (alpha + 1.0, beta, eps)]
    logs = log_beta_segment(*np.array(segments, dtype=float).T, 1.0).tolist()
    out = []
    for j, (alpha, beta, eps) in enumerate(instances):
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
        out.append((max(rel - IDENTITY_RTOL, ratio - bound_rhs - slack),
                    {"alpha": alpha, "beta": beta, "eps": eps, "ratio": ratio,
                     "identity_rhs": identity_rhs, "bound_rhs": bound_rhs,
                     "rel_diff": rel}))
    return out


def _draw_lemma1(rng) -> tuple:
    return int(rng.integers(0, 6)), float(rng.uniform(-0.99, 10.0))


def _draw_simplex(rng) -> tuple:
    # checks 4 and 6: k = 2 or 3, shape parameters log-uniform
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
    # _lemma8's docstring), so the suite samples the bound's domain of
    # validity; the identity part is universal
    alpha = float(np.exp(rng.uniform(0.0, math.log(20.0))))
    beta = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
    return alpha, beta, float(rng.uniform(0.0, 0.95))


#: per numbered check: one instance's draw from a suite's stream, the
#: (violation, witness) of each instance of a list, and the tolerances its
#: reports carry
_CHECKS = {
    1: (_draw_lemma1, _lemma1, {"slack": "8*ulp*(|x|+|log1p(x)|+1)"}),
    4: (_draw_simplex, _lemma4, {"slack_factor": SLACK_FACTOR}),
    5: (_draw_lemma5, _lemma5, {"slack_factor": SLACK_FACTOR}),
    6: (_draw_simplex, _lemma6, {"slack_factor": SLACK_FACTOR}),
    7: (_draw_lemma7, _lemma7, {"identity_rtol": IDENTITY_RTOL}),
    8: (_draw_lemma8, _lemma8,
        {"identity_rtol": IDENTITY_RTOL, "slack_factor": SLACK_FACTOR}),
}


def _check(lemma: int) -> tuple:
    if lemma not in _CHECKS:
        raise DomainError(f"no numbered check {lemma}")
    return _CHECKS[lemma]


def check_lemma(lemma: int, instances: list, seed: int | None = None) -> LemmaReport:
    """Numbered check `lemma` on every instance of a nonempty list (the
    instance tuples are in the README's check catalogue).

    The report carries the first instance with the largest violation as its
    witness, trials = len(instances), and seed as given.  Each instance's
    violation is the one it gets alone: checks 4 and 6 take all their
    floored-simplex integrals in one lockstep batch, and checks 5, 6 and 8
    their Beta segments in one array pass.
    """
    _, check, tolerances = _check(lemma)
    if not instances:
        raise DomainError("need at least one instance")
    violation, witness = max(check(instances), key=lambda pair: pair[0])
    return LemmaReport(lemma, len(instances), violation, witness, seed,
                       dict(tolerances))


def run_lemma_suite(
    lemma: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> LemmaReport:
    """Randomized stress suite for one numbered check.

    Draws are taken from a single counter-based stream keyed on
    (seed, lemma number), so reports are reproducible and independent of
    any parallelism in the caller.  Every trial is drawn first, in stream
    order; check_lemma then runs on the whole list.
    """
    if trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials}")
    rng = seeded_stream(seed, lemma)
    draw = _check(lemma)[0]
    return check_lemma(lemma, [draw(rng) for _ in range(trials)], seed)
