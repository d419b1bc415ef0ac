"""Exact Kullback-Leibler prediction risk, sup-risk search, and Bayes risks.

Risks are in nats.  Two independent routes compute the same risk:

  * risk_enumeration sums the defining double expectation over every count
    vector x and every outcome y;
  * risk_coordinatewise uses the separable form

        R(theta) = sum_i [ -theta_i log(1 + s_i)
                           - theta_i E_{Bin(N, theta_i)} log(1 + w_i) ],

    with s_i = (a_i - A theta_i)/((N + A) theta_i) and
    w_i = (x_i - N theta_i)/(N theta_i + a_i), which costs O(N k).  Each
    binomial expectation is summed only over the counts within a Bernstein
    tail window of N theta_i, O(sqrt(N theta_i (1 - theta_i)) + L) terms;
    the dropped mass is at most 2 e^-L with L = 75, which moves a
    coordinate's contribution by at most 2 e^-75 log1p(N / a_i).

The two must agree to high accuracy; the enumeration route serves as the
oracle for the fast one throughout the test suite.

Bayes risks average the separable risk under a Dirichlet weight floored at
eps, at k <= 3: the risk is the integrand factor of simplex._recursive_b_log,
the nested lockstep Gauss-Kronrod quadrature that also takes the weight's
own integral, and every level takes the risk at all its nodes from one
CoordinateRiskEvaluator.risk call.
The truncated-prior predictive's Bayes risk is that of the full predictive
less an exact finite sum over its table of truncated-integral ratios
(truncation_bayes_gap).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._pool import ordered_map
from .errors import DomainError, IntegrationError, SizeError
from .model import (
    ModelSpec,
    PriorSpec,
    SymmetricPrior,
    TruncatedSimplex,
)
from .numkernel import (
    DEFAULT_SEED,
    QUAD_REL_TOL,
    compositions,
    log_binomial_row,
    log_multinomial_rows,
    seeded_stream,
    special_functions,
    stable_sum,
    window_fsums,
)
from .simplex import _b_trunc_batch, _checked, _recursive_b_log, log_i_trunc

#: default cap on the number of count vectors risk_enumeration will visit
ENUMERATION_CAP = 2_000_000

#: caps on N for the truncated-predictive table, which holds a row of
#: truncated-integral ratios per count vector x
TRUNCATED_PREDICTIVE_CAPS = {2: 64, 3: 24}

_TIE_TOL = 1e-13

#: nats of binomial tail the risk kernel drops: its summation window holds
#: all but 2 e^-L of the mass (see CoordinateRiskEvaluator)
_WINDOW_NATS = 75.0

#: most binomial terms the risk kernel evaluates in one numpy pass; a point
#: whose window alone is longer gets a pass of its own
_PASS_TERMS = 4096

#: fewest terms a pass needs for its windows to be summed by the certified
#: numpy route (numkernel.window_fsums); a smaller pass, such as the two or
#: three points of a quadrature node or a golden-section step, cannot pay
#: that route's fixed numpy cost and sums each window with fsum alone
_CERTIFIED_SUM_TERMS = 1024


@dataclass(frozen=True)
class ThetaPoint:
    """A strictly interior point of the probability simplex."""

    theta: tuple

    def __post_init__(self):
        theta = tuple(float(v) for v in self.theta)
        if len(theta) < 2:
            raise DomainError("need at least two coordinates")
        if not all(0.0 < v < 1.0 for v in theta):  # False for NaN too
            raise DomainError("every theta coordinate must lie in (0, 1)")
        if abs(stable_sum(theta) - 1.0) > 1e-14:
            raise DomainError(f"theta must sum to 1, got {stable_sum(theta)!r}")
        object.__setattr__(self, "theta", theta)

    @property
    def k(self) -> int:
        return len(self.theta)

    @classmethod
    def uniform(cls, k: int) -> "ThetaPoint":
        return cls.complete([1.0 / k] * (k - 1))

    @classmethod
    def complete(cls, first_coords) -> "ThetaPoint":
        """Build from the first k-1 coordinates, inferring the last."""
        first = [float(v) for v in first_coords]
        return cls(tuple(first + [1.0 - stable_sum(first)]))


class RiskMethod(enum.Enum):
    ENUMERATION = "enumeration"
    COORDINATEWISE = "coordinatewise"


@dataclass(frozen=True)
class RiskReport:
    exact_risk: float
    per_coordinate: tuple
    theta: ThetaPoint
    method: RiskMethod


@dataclass(frozen=True)
class SupRiskReport:
    sup_value: float
    argmax_theta: ThetaPoint
    search_trace: tuple


def risk_enumeration(
    prior: PriorSpec,
    model: ModelSpec,
    theta: ThetaPoint,
    cap: int = ENUMERATION_CAP,
) -> RiskReport:
    """Risk by full enumeration over count vectors and outcomes.

    Exponential in k; guarded by a composition cap that points callers at
    risk_coordinatewise instead.
    """
    _check_kabc(prior, model, theta)
    n_comp = math.comb(model.N + model.k - 1, model.k - 1)
    if n_comp > cap:
        raise SizeError(
            f"{n_comp} count vectors exceed the cap {cap}; "
            "use risk_coordinatewise"
        )
    comps = compositions(model.N, model.k)
    th = np.asarray(theta.theta)
    a = np.asarray(prior.a)
    logpmf = log_multinomial_rows(model.N, comps) + comps @ np.log(th)
    pmf = np.exp(logpmf)
    log_na = math.log(model.N + prior.A)
    per = []
    for i in range(model.k):
        # sum_x p(x) * theta_i * log[ theta_i (N+A) / (x_i + a_i) ]
        vals = pmf * th[i] * (math.log(th[i]) + log_na - np.log(comps[:, i] + a[i]))
        per.append(stable_sum(vals))
    return RiskReport(_risk_total(per), tuple(per), theta, RiskMethod.ENUMERATION)


def _risk_total(per) -> float:
    """The compensated sum of k risk contributions, which must be finite and
    not negative beyond rounding."""
    total = stable_sum(per)
    if not math.isfinite(total):
        raise DomainError(f"risk at a point is not finite: {total!r}")
    if total < -1e-14:
        raise AssertionError(f"risk must be nonnegative, got {total!r}")
    return total


class CoordinateRiskEvaluator:
    """Vectorized per-coordinate risk contributions for one (prior, model).

    coordinate(i, t) returns h_i(t) = -t log(1+s_i) - t E log(1+w_i) for an
    array of candidate values t of theta_i, where i is one coordinate index
    or one index per value; the full risk at a point is the compensated sum
    of the k contributions, taken from one call, and risk(thetas) takes it
    at every column of a (k, n) array of points.  A call walks its points in
    order and gathers the summation windows of consecutive points into one
    flat array until the next window would push it past _PASS_TERMS = 4096
    terms (a longer window gets a pass of its own); every pass evaluates all
    its binomial mass terms in one numpy pass.  Each point's terms then get
    math.fsum's correctly rounded sum: a pass of at least
    _CERTIFIED_SUM_TERMS = 1024 terms sums all its windows at once with
    numkernel.window_fsums, which certifies fsum's bytes and falls back to
    fsum for any window it cannot, and a smaller pass calls fsum per
    window.  Either way every value is the float a call for that point
    alone returns.  The per-pass cap keeps the pass's temporaries in cache:
    one uncapped pass over a large-N grid is slower than a loop over its
    points.

    E log(1+w_i) is summed over x in [ceil(N t - d), floor(N t + d)] within
    [0, N] only, with d = L/3 + sqrt(L^2/9 + 2 L N t (1 - t)) and
    L = 75 nats.  By Bernstein's inequality P(|X - N t| >= d) <= 2 e^-L for
    X ~ Bin(N, t), and every dropped term has
    |log(1+w_i)| = |log((x + a_i)/(N t + a_i))| <= log1p(N / a_i), so h_i
    differs from the full-support sum by at most 2 e^-75 log1p(N / a_i)
    (about 1e-31 at N = 1e4, a_i = 1e-6).  The window depends on (N, t)
    alone; since d >= 2L/3 = 50, it is the whole support when N <= 50, and
    there coordinate takes it without computing d.

    The binomial masses take ln C(N, x) from numkernel.log_binomial_row,
    exact integers up to N = 10,000.  The x = 0 term's log is
    log(a_i) - log(N t + a_i), not log1p(w_i): there w_i = -N t/(N t + a_i)
    rounds toward -1 when a_i is far below N t, and to -1 itself (an
    infinite log, which log1p is not given) below about 1e-16 N t.  The
    head -t log(1 + s), s = (a_i - A t)/((N + A) t), takes 1 + s as the
    quotient (a_i + N t)/((N + A) t) where it is below 1/2: there s
    cancels toward -1 (at N = 0, 1 + s = a_i/(A t)), and log1p(s) loses
    the digits of a small a_i.
    """

    def __init__(self, prior: PriorSpec, model: ModelSpec):
        if prior.k != model.k:
            raise DomainError("prior and model disagree on k")
        self.prior = prior
        self.model = model
        self._lg = log_binomial_row(model.N)

    def coordinate(self, i, t) -> np.ndarray:
        """h_i(t) at every value of t; i is one coordinate index, or one
        index per value of t."""
        A = self.prior.A
        N = self.model.N
        L = _WINDOW_NATS
        ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
        # written so that NaN fails it
        if not all(0.0 < tj < 1.0 for tj in ts):
            raise DomainError("coordinate values must lie in (0, 1)")
        a = self.prior.a
        if isinstance(i, (int, np.integer)):
            a_of = [a[i]] * len(ts)
        else:
            a_of = [a[j] for j in i]
        if len(a_of) != len(ts):
            raise DomainError("need one coordinate index per value of t")
        heads, ews = [], []
        # per point of the current pass: where its window starts less where
        # its terms start in the pass, log t, log1p(-t), N t, N t + a_i; and
        # per window that starts at x = 0, its place in the pass and its
        # x = 0 log term
        rows, lengths, first_at, first_logs, terms = [], [], [], [], 0
        # d >= 2L/3, so at N <= 2L/3 every window is the whole support
        whole = N <= 2 * L / 3
        for tj, a_i in zip(ts, a_of):
            if whole:
                lo, n = 0, N + 1
            else:
                d = L / 3 + math.sqrt(L * L / 9 + 2 * L * N * tj * (1 - tj))
                lo = max(0, math.ceil(N * tj - d))
                n = min(N, math.floor(N * tj + d)) + 1 - lo
            if rows and terms + n > _PASS_TERMS:
                ews += self._window_sums(rows, lengths, first_at, first_logs)
                rows, lengths, first_at, first_logs, terms = [], [], [], [], 0
            s = (a_i - A * tj) / ((N + A) * tj)
            nt = N * tj
            if s < -0.5:
                # s cancels toward -1 here: take 1 + s as its quotient
                heads.append(-tj * math.log((nt + a_i) / ((N + A) * tj)))
            else:
                heads.append(-tj * math.log1p(s))
            if lo == 0:
                first_at.append(terms)
                first_logs.append(math.log(a_i) - math.log(nt + a_i))
            rows.append((lo - terms, math.log(tj), math.log1p(-tj), nt, nt + a_i))
            lengths.append(n)
            terms += n
        if rows:
            ews += self._window_sums(rows, lengths, first_at, first_logs)
        return np.array([h - tj * ew for h, tj, ew in zip(heads, ts, ews)])

    def _window_sums(
        self, rows: list, lengths: list, first_at: list, first_logs: list
    ) -> list:
        """E log(1+w_i) at each point of one pass: the terms of every window
        are evaluated together, with the x = 0 log terms first_logs put in
        at the places first_at, then each window gets fsum's sum."""
        shift, lt, l1t, nt, den = np.repeat(np.array(rows).T, lengths, axis=1)
        x = np.arange(shift.size) + shift
        logpmf = self._lg[x.astype(np.intp)] + x * lt + (self.model.N - x) * l1t
        w = (x - nt) / den
        # w can be -1 at x = 0, so log1p skips those places
        w[first_at] = 0.0
        log1p_w = np.log1p(w)
        log1p_w[first_at] = first_logs
        vals = np.exp(logpmf) * log1p_w
        if vals.size >= _CERTIFIED_SUM_TERMS:
            return window_fsums(vals, lengths)
        vals = vals.tolist()
        sums, start = [], 0
        for n in lengths:
            sums.append(stable_sum(vals[start:start + n]))
            start += n
        return sums

    def risk(self, thetas) -> np.ndarray:
        """The risk at each column of a (k, n) array of points, from one
        coordinate call.

        h is evaluated once per distinct (shape parameter, value) pair:
        the coordinates that share a shape parameter share their values'
        np.unique, so a symmetric prior's points cost one h per distinct
        value.  coordinate gives each point its own float whatever the
        batch holds, so every column's total is the float
        risk_coordinatewise gives its point, and each passes its finiteness
        and sign check.
        """
        thetas = np.asarray(thetas, dtype=float)
        k, n = thetas.shape
        if k != self.model.k:
            raise DomainError("points and model disagree on k")
        a = self.prior.a
        # per shape parameter: its coordinates and where each of their
        # values sits among the distinct values ts
        groups, idx, ts = [], [], []
        for a_i in dict.fromkeys(a):
            rows = [i for i in range(k) if a[i] == a_i]
            values, at = np.unique(thetas[rows], return_inverse=True)
            groups.append((rows, len(ts) + at.reshape(len(rows), n)))
            idx += [rows[0]] * values.size
            ts += values.tolist()
        h = self.coordinate(idx, ts)
        per = np.empty((k, n))
        for rows, at in groups:
            per[rows] = h[at]
        return np.array([_risk_total(col) for col in per.T.tolist()])


def risk_coordinatewise(
    prior: PriorSpec, model: ModelSpec, theta: ThetaPoint
) -> RiskReport:
    """Risk via the separable per-coordinate form; O(N k) time."""
    _check_kabc(prior, model, theta)
    ev = CoordinateRiskEvaluator(prior, model)
    per = tuple(ev.coordinate(range(model.k), theta.theta).tolist())
    return RiskReport(_risk_total(per), per, theta, RiskMethod.COORDINATEWISE)


def _check_kabc(prior: PriorSpec, model: ModelSpec, theta: ThetaPoint) -> None:
    if prior.k != model.k or theta.k != model.k:
        raise DomainError("prior, model and theta disagree on k")


# ---------------------------------------------------------------------------
# separable maximization
# ---------------------------------------------------------------------------


def _golden_max(f, lo, hi, iters: int = 60) -> tuple:
    """Golden-section local maximization over a batch of intervals.

    Row r searches [lo[r], hi[r]].  f(rows, t) returns the objective of each
    listed row at its point t, and a row may be listed twice, so the first
    two points of every row cost one call of f and each iteration one call
    for every row still running.  Returns the (argmax, max) arrays; each
    row's floats are those of a search on its interval alone.

    Each row stops at its own width tolerance, matched to the flatness of a
    smooth maximum: at width w the value error is O(w^2) times the
    curvature, so 1e-7 of the span leaves value errors far below summation
    noise.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    width_tol = 1e-7 * (b - a) + 1e-15
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    rows = np.arange(a.size)
    both = f(np.concatenate([rows, rows]), np.concatenate([c, d]))
    fc, fd = both[:a.size], both[a.size:]
    for _ in range(iters):
        rows = rows[~(b[rows] - a[rows] < width_tol[rows])]
        if rows.size == 0:
            break
        left = fc[rows] >= fd[rows]
        lr, rr = rows[left], rows[~left]
        b[lr], d[lr], fd[lr] = d[lr], c[lr], fc[lr]
        c[lr] = b[lr] - invphi * (b[lr] - a[lr])
        a[rr], c[rr], fc[rr] = c[rr], d[rr], fd[rr]
        d[rr] = a[rr] + invphi * (b[rr] - a[rr])
        new = f(rows, np.where(left, c[rows], d[rows]))
        fc[lr], fd[rr] = new[left], new[~left]
    best = fc >= fd
    return np.where(best, c, d), np.where(best, fc, fd)


@dataclass
class _Candidate:
    value: float
    theta: tuple
    label: str


class SeparableMaximizer:
    """Maximize transform(sum_i h_i(theta_i) + const) over a floored simplex.

    The search combines (a) configurations with j coordinates pinned at the
    floor and the remaining mass split evenly, (b) a one-dimensional
    tabulation-plus-refinement over the shared value of each pinned family,
    and (c) multi-start projected coordinate ascent, for k >= 3, exploiting
    that moving mass between two coordinates only changes two terms of the
    sum; at k = 2 the pinned family covers the whole segment.  The ascent
    runs its starts in lockstep: at each step every start moves mass between
    the same two coordinates, so one h call per stage of the step serves
    them all, and each start ends where it would have ended alone.

    h(i, t) takes one coordinate index or one per value of t, as
    CoordinateRiskEvaluator.coordinate does.
    """

    def __init__(
        self,
        h,                    # h(i, t_array) -> array of per-coordinate values
        k: int,
        eps: float,
        constant: float = 0.0,
        transform=None,       # applied to the separable sum (e.g. abs)
        symmetric: bool = True,
        seed: int = DEFAULT_SEED,
        ascent_starts: int = 32,
    ):
        if not (0.0 < eps < 1.0 / k):
            raise DomainError("floor must satisfy 0 < eps < 1/k")
        if ascent_starts < 0:
            raise DomainError("ascent_starts must be non-negative")
        self.h = h
        self.k = k
        self.eps = eps
        self.constant = constant
        self.transform = transform or (lambda v: v)
        self.symmetric = symmetric
        self.seed = seed
        self.ascent_starts = ascent_starts

    # -- plumbing ------------------------------------------------------

    def _objective(self, theta) -> float:
        return self._objectives(np.array(theta, dtype=float)[:, None])[0]

    def _objectives(self, thetas: np.ndarray) -> list:
        """The objective at each column of a (k, n) array, from one h call
        with a per-point coordinate index."""
        k, n = thetas.shape
        vals = self.h(np.repeat(np.arange(k), n), thetas.ravel()).reshape(k, n)
        return [self.transform(stable_sum(col) + self.constant)
                for col in vals.T.tolist()]

    def _normalize(self, theta) -> tuple:
        theta = [max(float(v), self.eps) for v in theta]
        total = stable_sum(theta)
        return tuple(v / total for v in theta)

    def _family_theta(self, subset, u: float) -> tuple:
        j = len(subset)
        free = (1.0 - j * u) / (self.k - j)
        theta = [free] * self.k
        for i in subset:
            theta[i] = u
        return tuple(theta)

    # -- search pieces --------------------------------------------------

    def _subsets(self):
        if self.symmetric:
            for j in range(1, self.k):
                yield tuple(range(j))
        else:
            for j in range(1, self.k):
                yield from itertools.combinations(range(self.k), j)

    def _family_candidates(self, subset, grid_size: int) -> list:
        j = len(subset)
        u_max = (1.0 - (self.k - j) * self.eps) / j
        # log-spaced from the floor, plus the uniform point and the corner
        grid = self.eps * np.exp(
            np.linspace(0.0, math.log(u_max / self.eps), grid_size)
        )
        grid = np.unique(np.concatenate([grid, [self.eps, 1.0 / self.k, u_max]]))
        grid = grid[(grid >= self.eps) & (grid <= u_max)]

        h_pin = self.h
        if self.symmetric:
            pinned = h_pin(0, grid)
            free_vals = (1.0 - j * grid) / (self.k - j)
            free = h_pin(0, free_vals)
            sums = j * pinned + (self.k - j) * free + self.constant
            values = np.array([self.transform(v) for v in sums])
        else:
            free_idx = [i for i in range(self.k) if i not in subset]
            free_vals = (1.0 - j * grid) / (self.k - j)
            sums = self.constant * np.ones_like(grid)
            for i in subset:
                sums = sums + h_pin(i, grid)
            for i in free_idx:
                sums = sums + h_pin(i, free_vals)
            values = np.array([self.transform(v) for v in sums])

        out = []
        best_idx = int(np.argmax(values))
        out.append(
            _Candidate(
                float(values[best_idx]),
                self._family_theta(subset, float(grid[best_idx])),
                f"pin{list(subset)}@grid",
            )
        )

        # local refinement around the best tabulated value
        lo = float(grid[max(0, best_idx - 1)])
        hi = float(grid[min(len(grid) - 1, best_idx + 1)])
        if hi > lo:
            def f(rows, u) -> np.ndarray:
                return np.array([self._objective(self._family_theta(subset, v))
                                 for v in u.tolist()])

            u_star, v_star = _golden_max(f, [lo], [hi])
            out.append(
                _Candidate(
                    float(v_star[0]), self._family_theta(subset, float(u_star[0])),
                    f"pin{list(subset)}@refine",
                )
            )
        return out

    def _ascent(self, starts, sweeps: int = 60) -> list:
        """Projected coordinate ascent from every listed start, in lockstep.

        Start s draws its point from seeded_stream(seed, 1000 + s).  Each
        sweep visits the coordinate pairs (i, j) in order; every running
        start moves mass between the same two coordinates, so each step
        makes one h call, with a per-point coordinate index, for all of
        them at each stage: the sums of the other coordinates, a 33-point
        probe of each start's segment on both coordinates, and each
        iteration of the golden refine.  A start whose pair holds no
        mass above the floors sits that pair out; a start whose sweep does
        not improve its value stops.  Each start's floats are those of an
        ascent run alone.  Returns one candidate per start, in start order.
        """
        starts = list(starts)
        k, eps, n = self.k, self.eps, len(starts)
        # theta[i] holds coordinate i of every start
        theta = np.empty((k, n))
        for r, s in enumerate(starts):
            raw = seeded_stream(self.seed, 1000 + s).dirichlet(np.ones(k))
            theta[:, r] = eps + (1.0 - k * eps) * raw
        value = np.array(self._objectives(theta))
        running = np.ones(n, dtype=bool)
        for _ in range(sweeps):
            if not running.any():
                break
            improved = np.zeros(n, dtype=bool)
            for i in range(k):
                for j in range(i + 1, k):
                    m = theta[i] + theta[j]
                    rows = np.flatnonzero(running & ~(m <= 2 * eps))
                    if rows.size == 0:
                        continue
                    m = m[rows]
                    rest = [q for q in range(k) if q not in (i, j)]
                    others = np.zeros(rows.size)
                    if rest:
                        h_rest = self.h(np.repeat(rest, rows.size),
                                        theta[rest][:, rows].ravel())
                        others[:] = [
                            stable_sum(col)
                            for col in h_rest.reshape(len(rest), -1).T.tolist()
                        ]
                    others += self.constant

                    def pair(t, u) -> tuple:
                        # h_i at t and h_j at u, from one call
                        both = self.h(np.repeat([i, j], t.size),
                                      np.concatenate([t.ravel(), u.ravel()]))
                        return both[:t.size].reshape(t.shape), both[t.size:].reshape(t.shape)

                    def g(sub, t) -> np.ndarray:
                        h_i, h_j = pair(t, m[sub] - t)
                        sums = others[sub] + h_i + h_j
                        return np.array([self.transform(v) for v in sums.tolist()])

                    probe = np.array([np.linspace(eps, mr - eps, 33) for mr in m])
                    h_i, h_j = pair(probe, m[:, None] - probe)
                    sums = others[:, None] + h_i + h_j
                    pv = np.array([self.transform(v) for v in sums.ravel().tolist()])
                    b = np.argmax(pv.reshape(probe.shape), axis=1)
                    at = np.arange(rows.size)
                    t_star, v_star = _golden_max(
                        g, probe[at, np.maximum(b - 1, 0)],
                        probe[at, np.minimum(b + 1, 32)],
                    )
                    better = v_star > value[rows] + 1e-15
                    won = rows[better]
                    theta[i, won] = t_star[better]
                    theta[j, won] = m[better] - t_star[better]
                    value[won] = v_star[better]
                    improved[won] = True
            rows = np.flatnonzero(running)
            for r in rows:
                theta[:, r] = self._normalize(theta[:, r])
            value[rows] = self._objectives(theta[:, rows])
            running &= improved
        return [
            _Candidate(float(value[r]), tuple(theta[:, r].tolist()), f"ascent[{s}]")
            for r, s in enumerate(starts)
        ]

    # -- driver ----------------------------------------------------------

    def maximize(self, grid_size: int = 256) -> tuple:
        """Returns (value, ThetaPoint, trace).

        Raises DomainError, naming the candidate, if a candidate's value or
        the value recomputed at the winner is not finite.
        """
        if grid_size < 16:
            raise DomainError("grid_size must be at least 16")
        candidates: list[_Candidate] = []

        uniform = tuple([1.0 / self.k] * self.k)
        candidates.append(_Candidate(self._objective(uniform), uniform, "uniform"))

        for j in range(1, self.k):
            subset = tuple(range(j))
            candidates.append(
                _Candidate(
                    self._objective(self._family_theta(subset, self.eps)),
                    self._family_theta(subset, self.eps),
                    f"floor[j={j}]",
                )
            )

        family_results = ordered_map(
            lambda s: self._family_candidates(s, grid_size),
            self._subsets(),
        )
        for res in family_results:
            candidates.extend(res)

        if self.k >= 3:
            candidates.extend(self._ascent(range(self.ascent_starts)))

        best = None
        for cand in candidates:
            if not math.isfinite(cand.value):
                raise DomainError(
                    f"search candidate {cand.label} has non-finite value "
                    f"{cand.value!r}"
                )
            theta = _round_theta(cand.theta)
            if min(theta) < self.eps - 1e-12:
                continue
            value = cand.value
            if (
                best is None
                or value > best[0] + _TIE_TOL
                or (abs(value - best[0]) <= _TIE_TOL and theta < best[1])
            ):
                best = (value, theta, cand.label)

        assert best is not None
        theta_pt = ThetaPoint(best[1])
        final_value = self._objective(theta_pt.theta)
        if not math.isfinite(final_value):
            raise DomainError(
                f"non-finite value {final_value!r} at the winning candidate "
                f"{best[2]}"
            )
        trace = tuple((c.label, c.value) for c in candidates)
        return final_value, theta_pt, trace


def _round_theta(theta) -> tuple:
    """Force an exact unit sum by recomputing the largest coordinate."""
    theta = list(float(v) for v in theta)
    imax = max(range(len(theta)), key=lambda i: theta[i])
    rest = stable_sum(v for i, v in enumerate(theta) if i != imax)
    theta[imax] = 1.0 - rest
    return tuple(theta)


def sup_risk(
    prior: PriorSpec,
    model: ModelSpec,
    trunc: TruncatedSimplex,
    grid_size: int = 256,
    seed: int = DEFAULT_SEED,
    ascent_starts: int = 32,
) -> SupRiskReport:
    """Maximize the prediction risk over the floored simplex.

    The risk is separable across coordinates, which the search exploits; for
    k >= 3 its multi-start ascent advances all ascent_starts starts together,
    one kernel call per stage of a step.  The returned trace lists every
    configuration family and, for k >= 3, every ascent start with the value
    it achieved, so a suspect supremum can be diagnosed.
    """
    if prior.k != model.k or trunc.k != model.k:
        raise DomainError("prior, model and truncation disagree on k")
    ev = CoordinateRiskEvaluator(prior, model)
    maximizer = SeparableMaximizer(
        ev.coordinate,
        model.k,
        trunc.eps,
        symmetric=prior.is_symmetric,
        seed=seed,
        ascent_starts=ascent_starts,
    )
    value, theta, trace = maximizer.maximize(grid_size)
    return SupRiskReport(value, theta, trace)


# ---------------------------------------------------------------------------
# truncated-predictive machinery and Bayes risks
# ---------------------------------------------------------------------------


def _truncated_caps_check(model: ModelSpec) -> None:
    cap = TRUNCATED_PREDICTIVE_CAPS.get(model.k)
    if cap is None:
        raise SizeError(
            f"truncated-predictive risks support k in "
            f"{sorted(TRUNCATED_PREDICTIVE_CAPS)}, got k={model.k}"
        )
    if model.N > cap:
        raise SizeError(
            f"truncated-predictive risks cap N at {cap} for k={model.k}, "
            f"got N={model.N}"
        )


class TruncatedPredictiveTable:
    """Log ratios log[I(x + e_i + alpha) / I(x + alpha)] per count vector
    x, shared by every theta during risk integration.

    Truncated integrals are permutation-symmetric in their parameters, so
    the table takes each distinct sorted parameter vector of its rows and
    their bumps once, all from one simplex._b_trunc_batch call; each value
    is the one log_i_trunc gives alone.
    """

    def __init__(
        self,
        alpha: SymmetricPrior,
        trunc: TruncatedSimplex,
        model: ModelSpec,
    ):
        if alpha.k != model.k or trunc.k != model.k:
            raise DomainError("prior, truncation and model disagree on k")
        _truncated_caps_check(model)
        self.model = model
        self.alpha = alpha.alpha
        self.eps = trunc.eps
        self.comps = compositions(model.N, model.k)
        self._log_coef = log_multinomial_rows(model.N, self.comps)
        n, k = self.comps.shape
        # per row: x + alpha, then x + alpha + e_i for each i, sorted
        post = self.comps + self.alpha
        keys = np.sort(np.concatenate(
            [post[:, None, :], post[:, None, :] + np.eye(k)], axis=1), axis=2)
        distinct, where = np.unique(keys.reshape(-1, k), axis=0,
                                    return_inverse=True)
        ints, log_full = _b_trunc_batch(
            [(_checked(key, self.eps), self.eps) for key in distinct.tolist()])
        log_i = np.array([b.value_log - full for b, full in zip(ints, log_full)])
        log_i = log_i[where].reshape(n, k + 1)
        # log I(x + alpha) per row, the base of that row's ratios
        self._log_i_post = log_i[:, 0]
        self.log_ratio = log_i[:, 1:] - log_i[:, :1]

    def bayes_gap(self) -> float:
        """The full predictive's Bayes risk less the truncated one's under
        the floored prior weight, exactly: sum_x m(x) sum_i q_full(i|x)
        (r e^r - e^r + 1), with r the log ratio,
        m(x) = C(N, x) B_eps(alpha + x)/B_eps(alpha) (B_eps the Dirichlet
        integral over the floored simplex) and q_full(i|x) = (x_i + alpha)/
        (N + k alpha): the weight-averaged KL divergence between the two
        predictives (Aitchison, Biometrika 62(3), 1975), in terms >= 0 of
        second order in r, free of the cancellation in sum_i q(i|x) r."""
        gammaln = special_functions().gammaln
        k, N, alpha = self.model.k, self.model.N, self.alpha
        post = self.comps + alpha
        # log m(x), from B_eps = I B with I the retained fraction
        log_m = (self._log_coef + self._log_i_post
                 - log_i_trunc((alpha,) * k, self.eps)
                 + (gammaln(post) - gammaln(alpha)).sum(axis=1)
                 - gammaln(N + k * alpha) + gammaln(k * alpha))
        m_q_full = np.exp(log_m[:, None] + np.log(post / (N + k * alpha)))
        r = self.log_ratio
        return stable_sum((m_q_full * (r * np.exp(r) - np.expm1(r))).ravel())


def bayes_risk(
    weight: SymmetricPrior,
    model: ModelSpec,
    trunc: TruncatedSimplex,
) -> float:
    """Bayes risk of the weight's own predictive: its risk averaged under
    the weight renormalized over the floored simplex.

    A ratio of two floored-simplex integrals of the weight's kernel, both
    by simplex._recursive_b_log's nested lockstep Gauss-Kronrod quadrature:
    the numerator carries the risk as the integrand factor, every level
    taking it at all its nodes from one CoordinateRiskEvaluator.risk call,
    and the denominator the factor 1.  Both logs carry the same midpoint
    scale, and the ratio is taken from them, so a tiny kernel cannot
    underflow.  At k >= 4 it raises SizeError.  Integrals that do not
    converge, or whose summed relative error estimate exceeds
    1e3 QUAD_REL_TOL, raise IntegrationError.  The truncated-prior
    predictive's Bayes risk is this one's less truncation_bayes_gap.
    """
    if not isinstance(weight, SymmetricPrior):
        raise DomainError(f"unsupported weight {weight!r}")
    if not weight.k == trunc.k == model.k:
        raise DomainError("weight, truncation and model disagree on k")
    if model.k > 3:
        raise SizeError(f"floored Bayes risks support k <= 3, got k={model.k}")

    prior = weight.expand()
    risk = CoordinateRiskEvaluator(prior, model).risk
    a, eps = np.array([prior.a]), np.array([trunc.eps])
    (log_num,), (rel_num,) = _recursive_b_log(
        a, eps, lambda thetas, idx: risk(thetas))
    # the weight's own integral by the same rule, not b_trunc: b_trunc's
    # closed form carries scipy's betaln error, 1.5e-12 in the log at
    # alpha = 700
    (log_den,), (rel_den,) = _recursive_b_log(
        a, eps, lambda thetas, idx: np.ones(idx.size))
    rel = rel_num + rel_den
    if rel > 1e3 * QUAD_REL_TOL:
        raise IntegrationError(
            "Bayes-risk quadrature did not converge", achieved=rel
        )
    return math.exp(log_num - log_den)


def truncation_bayes_gap(
    alpha: SymmetricPrior,
    trunc: TruncatedSimplex,
    model: ModelSpec,
) -> float:
    """Bayes-risk penalty for predicting with the untruncated prior.

    Under the truncated prior weight, the truncated-prior predictive is the
    Bayes rule, so the gap

        R(weight, full predictive) - R(weight, truncated predictive)

    is nonnegative; it measures how little is lost by ignoring the
    truncation when building the predictive.  It is an exact finite sum
    over the table (TruncatedPredictiveTable.bayes_gap), and the truncated
    predictive's Bayes risk is bayes_risk's less it.
    """
    if trunc is None or not isinstance(alpha, SymmetricPrior):
        raise DomainError(
            "the truncated predictive needs a SymmetricPrior weight and "
            "a truncation region"
        )
    return TruncatedPredictiveTable(alpha, trunc, model).bayes_gap()
