"""Stable special functions, count-vector enumeration and deterministic
summation primitives, plus the package-wide default seed and seeded
streams, quadrature tolerances and vectorized Gauss-Kronrod quadrature.

Everything downstream (risk evaluation, simplex integrals, expansions) is
built on the handful of functions in this module, so their contracts are
deliberately narrow: plain numbers in, plain numbers (or one array) out,
errors raised for out-of-domain input instead of NaN propagation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, IntegrationError

# scipy.special's functions, bound by special_functions on first use:
# importing scipy.special takes about 0.25 s, and the k = 2 risk commands
# never call it
_gammaln = _betaln = _betainc = _betaincc = None


def special_functions():
    """The scipy.special module, imported on first use.

    No module of the package imports scipy.special at its top; the
    functions that need it call this, which also binds gammaln, betaln,
    betainc and betaincc into this module's globals for its hot functions.
    """
    global _gammaln, _betaln, _betainc, _betaincc
    from scipy import special

    _gammaln, _betaln = special.gammaln, special.betaln
    _betainc, _betaincc = special.betainc, special.betaincc
    return special


#: Shared default seed for every randomized suite in the package.
DEFAULT_SEED = 0x5EED

# Largest N for which binomial coefficients are taken exactly over the
# integers before falling back to log-gamma differences.
_EXACT_COMB_LIMIT = 10_000


#: Tolerances of every adaptive quadrature in the package: one to two
#: orders tighter than the 1e-10 the check suites assert at, so integrator
#: noise never decides an inequality check.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
QUAD_MAX_SUBDIVISIONS = 60

# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al. 1983, dqk21) on
# [-1, 1]: the Kronrod nodes x_1 > ... > x_11 = 0, their weights, and the
# weights of the 10-point Gauss rule on x_2, x_4, ..., x_10
_KRONROD_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208977372734, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# the 21 nodes in ascending order, and both rules' weights at them
_GK21_X = np.concatenate([-_KRONROD_NODES[:10], _KRONROD_NODES[::-1]])
_GK21_K = np.concatenate([_KRONROD_WEIGHTS[:10], _KRONROD_WEIGHTS[::-1]])
_GK21_G = np.zeros(21)
_GK21_G[1:10:2] = _GAUSS_WEIGHTS
_GK21_G[11:] = _GK21_G[9::-1]
# qk21's floor on a panel's error estimate, in units of its resabs
_EPS50 = 50.0 * np.finfo(float).eps


def gauss_kronrod(f, lo, hi) -> tuple:
    """(integrals, absolute error estimates), as lists, of a batch of integrals by
    adaptive 21-point Gauss-Kronrod quadrature, bisecting a level at a time
    in lockstep.

    Integral j runs over [lo[j], hi[j]] (lo and hi are arrays, or scalars
    for a batch of one).  f(x, idx) maps a 1-D array of nodes, and the index
    of the integral each node belongs to, to the integrand there, the way
    risk.CoordinateRiskEvaluator.coordinate takes a coordinate index per
    point; each level makes one call of f for the 21 nodes of every panel
    any integral opens at it.  A panel's error is QUADPACK's qk21
    estimate: |Kronrod - Gauss| scaled as
    resasc min(1, (200 |Kronrod - Gauss| / resasc)^1.5) and at least
    50 macheps resabs.  The first level opens both halves of
    [lo, hi]: one panel can meet the tolerance while its value is still
    3.7e-13 off in the log (the one-panel trap of tests/test_simplex.py),
    and its halves are not.

    Each integral converges, bisects and fails on its own.  Its panels'
    values and errors are summed with fsum; once the error sum is at most
    max(QUAD_ABS_TOL, QUAD_REL_TOL |integral|) (or no panel exceeds its
    share of that bound, which only rounding of the shares allows) the
    integral is done, and until then every panel whose error exceeds its
    length's share of the bound is bisected.  An integral needing more than
    QUAD_MAX_SUBDIVISIONS panels, or with a non-finite sum, fails; once
    every other integral is done the failure of the first failing one is
    raised as IntegrationError.  A panel's sums over its nodes are taken
    row by row (np.vecdot), not as one matrix product, whose rounding of a
    row changes with the batch size; so, given an f that is elementwise in
    its nodes, every integral gets the floats of a run alone.
    """
    los = np.asarray(lo, dtype=float).ravel().tolist()
    his = np.asarray(hi, dtype=float).ravel().tolist()
    values, errors, failed = [0.0] * len(los), [0.0] * len(los), {}
    # each integral's panels (a, b, value, error estimate), and the ends and
    # integrals of the panels opened at this level: both halves of each
    # [lo, hi] at the first
    panels = [[] for _ in los]
    centres = [0.5 * (x + y) for x, y in zip(los, his)]
    a, b, own = los + centres, centres + his, list(range(len(los))) * 2
    while own:
        left, right = np.array(a), np.array(b)
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        fx = np.asarray(f((mid[:, None] + half[:, None] * _GK21_X).ravel(),
                          np.array(own).repeat(21)), dtype=float).reshape(len(own), 21)
        kron = np.vecdot(fx, _GK21_K)
        # per panel: its ends, value, Kronrod - Gauss, resasc and resabs
        rule = zip(
            a, b, (kron * half).tolist(),
            ((kron - np.vecdot(fx, _GK21_G)) * half).tolist(),
            (np.vecdot(np.abs(fx - 0.5 * kron[:, None]), _GK21_K) * half).tolist(),
            (np.vecdot(np.abs(fx), _GK21_K) * half).tolist(),
            own,
        )
        for x, y, value, diff, resasc, resabs, j in rule:
            err = abs(diff)
            if resasc != 0.0 and err != 0.0:
                err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
            panels[j].append((x, y, value, max(err, _EPS50 * resabs)))
        opened, a, b, own = dict.fromkeys(own), [], [], []
        for j in opened:
            kept = panels[j]
            total = stable_sum([p[2] for p in kept])
            err_sum = stable_sum([p[3] for p in kept])
            if not (math.isfinite(total) and math.isfinite(err_sum)):
                failed[j] = IntegrationError(
                    f"quadrature on [{los[j]}, {his[j]}] met a non-finite value",
                    achieved=math.nan,
                )
                continue
            tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total))
            width = his[j] - los[j]
            split = [p[3] > tol * (p[1] - p[0]) / width for p in kept]
            if err_sum <= tol or not any(split):
                values[j], errors[j] = total, err_sum
                continue
            if len(kept) + sum(split) > QUAD_MAX_SUBDIVISIONS:
                failed[j] = IntegrationError(
                    f"quadrature on [{los[j]}, {his[j]}] did not converge in "
                    f"{QUAD_MAX_SUBDIVISIONS} panels",
                    achieved=err_sum / abs(total) if total else math.inf,
                )
                continue
            panels[j] = [p for p, s in zip(kept, split) if not s]
            for (x, y, _, _), s in zip(kept, split):
                if s:
                    c = 0.5 * (x + y)
                    a += [x, c]
                    b += [c, y]
                    own += [j, j]
    if failed:
        raise failed[min(failed)]
    return values, errors


def check_seed(seed: int) -> int:
    """seed itself if it is a Philox key word, an integer in [0, 2**64);
    DomainError otherwise, so no two seeds name the same stream."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed!r}")
    return seed


def seeded_stream(seed: int, index: int) -> np.random.Generator:
    """The counter-based Philox stream keyed on (seed, index)."""
    key = np.array([check_seed(seed), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def log_multivariate_beta(a) -> float:
    """ln B(a_1, ..., a_k) = ln[Gamma(a_1)...Gamma(a_k) / Gamma(sum a_i)].

    Requires k >= 2 and every a_i > 0.
    """
    a = tuple(float(v) for v in a)
    if len(a) < 2:
        raise DomainError("log_multivariate_beta needs at least two parameters")
    if any(v <= 0 for v in a):
        raise DomainError("all parameters must be positive")
    if _gammaln is None:
        special_functions()
    return stable_sum([_gammaln(v) for v in a]) - float(_gammaln(stable_sum(a)))


def compositions(N: int, k: int) -> np.ndarray:
    """All count vectors of length k summing to N, lexicographically ordered,
    as an (n, k) integer array.

    Stars and bars: the counts are the gaps between k - 1 bars placed among
    N + k - 1 slots, and bar positions taken in lexicographic order give the
    count vectors in lexicographic order.
    """
    n = math.comb(N + k - 1, k - 1)
    bars = np.array(
        list(itertools.combinations(range(N + k - 1), k - 1)), dtype=np.int64
    ).reshape(n, k - 1)
    edges = np.hstack([np.full((n, 1), -1), bars, np.full((n, 1), N + k - 1)])
    return np.diff(edges, axis=1) - 1


def log_binomial_row(N: int) -> np.ndarray:
    """ln C(N, x) for x = 0, ..., N.

    Up to N = _EXACT_COMB_LIMIT each entry is math.log of the exact integer
    C(N, x), built by C(N, x + 1) = C(N, x) (N - x) / (x + 1) over half the
    row and mirrored; above it, where the integers cost about 60 ms a row at
    N = 20,000, the entries are log-gamma differences.  Each call builds
    its row afresh (about 0.4 ms at N = 1040); the kernel and the moment
    checks call this once or a few times per N.
    """
    N = int(N)
    if N > _EXACT_COMB_LIMIT:
        if _gammaln is None:
            special_functions()
        x = np.arange(N + 1, dtype=float)
        return _gammaln(N + 1) - _gammaln(x + 1) - _gammaln(N - x + 1)
    half, c = [0.0], 1
    for x in range(N // 2):
        c = c * (N - x) // (x + 1)
        half.append(math.log(c))
    return np.array(half + half[:N + 1 - len(half)][::-1])


def log_multinomial_rows(N: int, comps: np.ndarray) -> np.ndarray:
    """ln N! / (x_1! ... x_k!) for every row x of an (n, k) count array,
    from log-gamma differences."""
    if _gammaln is None:
        special_functions()
    return _gammaln(N + 1) - _gammaln(comps + 1.0).sum(axis=1)


def _log_beta_integrand_max(alpha: float, beta: float, s: float, t: float) -> float:
    """Max over [s, t] of (alpha-1) ln th + (beta-1) ln(1-th), used for scaling."""

    def logf(th: float) -> float:
        if th <= 0.0:
            return math.inf if alpha < 1 else (0.0 if alpha == 1 else -math.inf)
        if th >= 1.0:
            return math.inf if beta < 1 else (0.0 if beta == 1 else -math.inf)
        return (alpha - 1) * math.log(th) + (beta - 1) * math.log1p(-th)

    candidates = [s, t]
    if alpha + beta != 2.0:
        mode = (alpha - 1) / (alpha + beta - 2)
        if s < mode < t and alpha >= 1 and beta >= 1:
            candidates.append(mode)
    best = max(logf(c) for c in candidates)
    if not math.isfinite(best):
        # endpoint singularity: clamp the scale to an interior value
        mid = 0.5 * (s + t)
        best = logf(mid)
    return best


#: cancellation guard of the Beta segments: a difference of regularized
#: incomplete beta values must clear this share of the larger one (its
#: rounding floor, with room), or the segment is redone by quadrature
_SEGMENT_GUARD = 1e-5


def log_beta_segment(alpha, beta, s, t):
    """ln of int_s^t th^(alpha-1) (1-th)^(beta-1) dth, elementwise over
    broadcastable arrays; a float for scalar input.

    The primary route is a difference of regularized incomplete beta
    values, or for an upper end of 1 the complemented function, which
    carries full relative precision even when the tail mass is tiny.  The
    segments where that fails (a difference that loses too many
    significant digits, i.e. a thin slice in a region of negligible mass,
    or a tail past betaincc's underflow) are redone together by one
    gauss_kronrod batch (_log_segments_by_quadrature), so each gets the
    float it gets alone.  Any element with a shape parameter <= 0 or
    outside 0 <= s < t <= 1 raises DomainError.
    """
    alpha, beta, s, t = (np.asarray(v, dtype=float) for v in (alpha, beta, s, t))
    shape = np.broadcast_shapes(alpha.shape, beta.shape, s.shape, t.shape)
    alpha, beta, s, t = (np.broadcast_to(v, shape).ravel()
                         for v in (alpha, beta, s, t))
    if not ((alpha > 0) & (beta > 0)).all():
        raise DomainError("shape parameters must be positive")
    bad = np.flatnonzero(~((0.0 <= s) & (s < t) & (t <= 1.0)))
    if bad.size:
        j = bad[0]
        raise DomainError(f"need 0 <= s < t <= 1, got s={float(s[j])!r}, "
                          f"t={float(t[j])!r}")
    if _betaln is None:
        special_functions()
    upper = _betainc(alpha, beta, t)
    diff = upper - _betainc(alpha, beta, s)
    ok = diff > _SEGMENT_GUARD * np.maximum(upper, 1e-300)
    tail = np.flatnonzero(t == 1.0)
    if tail.size:
        diff[tail] = _betaincc(alpha[tail], beta[tail], s[tail])
        ok[tail] = diff[tail] > 0.0
    if ok.all():
        out = _betaln(alpha, beta) + np.log(diff)
    else:
        out = np.empty(diff.shape)
        out[ok] = _betaln(alpha[ok], beta[ok]) + np.log(diff[ok])
        thin = ~ok
        out[thin] = _log_segments_by_quadrature(alpha[thin], beta[thin],
                                                s[thin], t[thin])
    return float(out[0]) if shape == () else out.reshape(shape)


def _log_segments_by_quadrature(alpha, beta, s, t) -> np.ndarray:
    """ln int_s^t th^(alpha-1) (1-th)^(beta-1) dth for arrays of segments,
    by one gauss_kronrod batch of the integrands rescaled by their maxima
    on [s, t].

    A segment whose integral underflows to 0, or whose error estimate
    exceeds max(QUAD_ABS_TOL, 100 QUAD_REL_TOL value), raises
    IntegrationError.
    """
    scale = np.array([_log_beta_integrand_max(*p) for p in zip(
        alpha.tolist(), beta.tolist(), s.tolist(), t.tolist())])
    am1, bm1 = alpha - 1.0, beta - 1.0

    def scaled(th: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.exp(am1[j] * np.log(th) + bm1[j] * np.log1p(-th) - scale[j])

    val, err = gauss_kronrod(scaled, s, t)
    for j in range(len(val)):
        if val[j] <= 0.0:
            raise IntegrationError(
                f"beta segment integral underflowed on [{s[j]}, {t[j]}]",
                achieved=float(err[j]),
            )
        if err[j] > max(QUAD_ABS_TOL, 100 * QUAD_REL_TOL * abs(val[j])):
            raise IntegrationError(
                f"beta segment quadrature did not converge on [{s[j]}, {t[j]}]",
                achieved=float(err[j] / abs(val[j])),
            )
    return scale + np.log(val)


def stable_sum(terms) -> float:
    """Compensated summation of a float sequence.

    Uses Shewchuk error-free transforms (math.fsum), so the result is the
    correctly rounded sum of the inputs: independent of any internal
    chunking, and reproducible for a fixed input order.
    """
    if hasattr(terms, "tolist"):
        # fsum iterates ndarrays slowly (boxed float64); a C-level tolist
        # conversion first is ~3x faster on the hot paths
        terms = terms.tolist()
    return math.fsum(terms)


# unit roundoff of IEEE double, and the window range the certified sums
# take: below _CERTIFIED_FLOOR some split points would be subnormal; at
# _CERTIFIED_CEIL the first split point could exceed 2**1022
_U = 2.0 ** -53
_CERTIFIED_FLOOR = 2.0 ** -900
_CERTIFIED_CEIL = 2.0 ** 960


def window_fsums(terms: np.ndarray, lengths) -> list:
    """math.fsum of every consecutive window of a flat float64 array, bit
    for bit, in a fixed number of numpy passes.

    Window w holds the next lengths[w] >= 1 terms.  Its sum is found by
    two error-free extractions (Rump, Ogita and Oishi 2008, "Accurate
    floating-point summation, part I: faithful rounding", SIAM J. Sci.
    Comput. 31(1), Section 3: ExtractVector; the split-point sequence is
    AccSum's).  With u = 2**-53, n the window's length, 2**(M-1) <= n + 2 <
    2**M and 2**(E-1) <= max|p| < 2**E:

    1. sigma1 = 2**(E + M), q = fl(fl(sigma1 + p) - sigma1), r = fl(p - q).
       Since max|p| <= 2**-M sigma1 and n < 2**M, the lemma gives
       p = q + r exactly, |r| <= u sigma1, and every q on the grid
       u sigma1 Z with |sum q| < sigma1, so tau1 = fl(sum q) is exact in
       any order, np.add.reduceat's included.
    2. The same with sigma2 = 2**M u sigma1 on the r: max|r| <= 2**-M
       sigma2, so r = q' + r' exactly, tau2 = fl(sum q') exactly and
       |r'| <= u sigma2.
    3. rho = fl(sum r').  Any order of n - 1 additions errs by at most
       gamma_{n-1} sum|r'| (Higham, "Accuracy and Stability of Numerical
       Algorithms", 2nd ed., eq. 4.4), and gamma_{n-1} = (n-1)u/(1-(n-1)u)
       <= 2 n u while n u <= 1/4, so |sum r' - rho| <= 2 n u * n u sigma2.
       bound is the next double above the rounded product, so it is at
       least that.  (Addition that underflows is exact, so the error model
       holds without a floor.  The extraction lemma assumes no underflow:
       max|p| >= 2**-900 gives E >= -899 and, with M >= 2, u sigma2 >=
       2**-1001, so every split point, grid step and n u sigma2 is a
       normal double, and the last is exact.  max|p| < 2**960 keeps
       sigma1 <= 2**1022 for any n < 2**61, so nothing overflows.)
    4. TwoSum (Knuth) splits tau1 + tau2 into hi + lo exactly, so the true
       sum lies in hi + lo + [rho - bound, rho + bound].  Every rounded
       step that builds the ends lo + rho -/+ bound is pushed one double
       outward with np.nextafter, which makes each a true lower (upper)
       bound: a real x always lies between the neighbours of fl(x).
    5. Round to nearest is monotone, so if fl(hi + lower) == fl(hi +
       upper), that double is the correctly rounded sum, which is fsum's.

    A window goes to math.fsum (through stable_sum) instead when the two
    ends round apart, when its largest |term| is below 2**-900 or at least
    2**960 or not finite, or when its sum is 0, whose sign fsum fixes by
    rules of its own.
    """
    p = terms = np.asarray(terms, dtype=float)
    n = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(n) - n
    big = np.maximum.reduceat(np.abs(p), starts)
    _, e = np.frexp(big)
    _, m = np.frexp(n + 2.0)
    ok = (big >= _CERTIFIED_FLOOR) & (big < _CERTIFIED_CEIL)  # NaN fails
    if not ok.all():
        # keep inf, NaN and overflowing split points out of the passes;
        # these windows go to fsum below
        p = np.where(np.repeat(ok, n), p, 0.0)
        e = np.where(ok, e, 0)
    sigma = np.ldexp(1.0, e + m)
    split = np.repeat(sigma, n)
    q = (split + p) - split
    r = p - q
    tau1 = np.add.reduceat(q, starts)
    sigma = np.ldexp(sigma, m - 53)
    split = np.repeat(sigma, n)
    q = (split + r) - split
    r -= q
    tau2 = np.add.reduceat(q, starts)
    rho = np.add.reduceat(r, starts)
    nu = n * _U
    bound = np.nextafter((nu + nu) * (nu * sigma), np.inf)
    hi = tau1 + tau2
    z = hi - tau1
    lo = (tau1 - (hi - z)) + (tau2 - z)
    down = hi + np.nextafter(lo + np.nextafter(rho - bound, -np.inf), -np.inf)
    up = hi + np.nextafter(lo + np.nextafter(rho + bound, np.inf), np.inf)
    ok &= (down == up) & (down != 0.0)
    sums = down.tolist()
    if not ok.all():
        for w in np.flatnonzero(~ok).tolist():
            sums[w] = stable_sum(terms[starts[w]:starts[w] + n[w]])
    return sums
