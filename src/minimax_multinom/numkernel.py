"""Stable special functions, count-vector enumeration and deterministic
summation primitives, plus the package-wide default seed, quadrature
tolerances and Monte Carlo sampler.

Everything downstream (risk evaluation, simplex integrals, expansions) is
built on the handful of functions in this module, so their contracts are
deliberately narrow: plain numbers in, plain numbers (or one array) out,
errors raised for out-of-domain input instead of NaN propagation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MonteCarloSettings:
    """Draw budget and stream seed for Monte Carlo integration.

    n_draws counts proposals; batches are fixed-size and each owns a
    counter-based stream keyed on (seed, batch index), so these settings
    alone fix every draw and the estimate.  If stderr_ceiling is set,
    estimates whose standard error exceeds it raise
    StatisticalPrecisionError.
    """

    n_draws: int = 200_000
    batch_size: int = 16_384
    seed: int = DEFAULT_SEED
    stderr_ceiling: float | None = None

    def __post_init__(self):
        if self.n_draws < 1 or self.batch_size < 1:
            raise DomainError("draw counts must be positive")

    @property
    def n_batches(self) -> int:
        return (self.n_draws + self.batch_size - 1) // self.batch_size


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


def dirichlet_batch(a, eps: float, mc: MonteCarloSettings, b: int) -> tuple:
    """(accepted rows, proposal count) of batch b of rejection sampling
    from Dirichlet(a) onto the simplex floored at eps.

    A row is accepted when its smallest coordinate is >= eps, or > 0 when
    eps = 0 (a draw can underflow to an exact zero).
    """
    size = min(mc.batch_size, mc.n_draws - b * mc.batch_size)
    rng = seeded_stream(mc.seed, b)
    draws = rng.dirichlet(np.asarray(a, dtype=float), size=size)
    low = draws.min(axis=1)
    return draws[low >= eps if eps > 0.0 else low > 0.0], size


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


def log_multinomial(N: int, x) -> float:
    """ln of the multinomial coefficient N! / (x_1! ... x_k!)."""
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x) or sum(x) != N:
        raise DomainError("counts must be nonnegative and sum to N")
    if N <= _EXACT_COMB_LIMIT:
        num = math.factorial(N)
        for v in x:
            num //= math.factorial(v)
        return math.log(num)
    if _gammaln is None:
        special_functions()
    return float(_gammaln(N + 1)) - stable_sum([_gammaln(v + 1) for v in x])


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


def log_beta_segment(
    alpha: float,
    beta: float,
    s: float,
    t: float,
) -> float:
    """ln of the Beta-density-kernel integral over a subinterval of [0, 1].

    Computes ln of int_s^t th^(alpha-1) (1-th)^(beta-1) dth.  The primary
    route is a difference of regularized incomplete beta values; when that
    difference loses too many significant digits (a thin slice in a region
    of negligible mass) the integral is redone by adaptive quadrature with
    the integrand rescaled by its interior maximum.
    """
    if not (alpha > 0 and beta > 0):
        raise DomainError("shape parameters must be positive")
    if not (0.0 <= s < t <= 1.0):
        raise DomainError(f"need 0 <= s < t <= 1, got s={s!r}, t={t!r}")
    if _betaln is None:
        special_functions()

    if t == 1.0:
        # upper-tail segment: the complemented function carries full
        # relative precision even when the tail mass is tiny
        diff = 1.0 if s == 0.0 else float(_betaincc(alpha, beta, s))
        if diff > 0.0:
            return float(_betaln(alpha, beta)) + math.log(diff)
    else:
        upper = float(_betainc(alpha, beta, t))
        lower = 0.0 if s == 0.0 else float(_betainc(alpha, beta, s))
        diff = upper - lower
        # cancellation guard: the difference must clear the rounding floor
        # of the larger regularized value, or be redone by quadrature
        if diff > 1e-5 * max(upper, 1e-300):
            return float(_betaln(alpha, beta)) + math.log(diff)

    # imported on first use: most commands never integrate
    from scipy.integrate import quad

    scale = _log_beta_integrand_max(alpha, beta, s, t)

    def scaled(th: float) -> float:
        return math.exp(
            (alpha - 1) * math.log(th) + (beta - 1) * math.log1p(-th) - scale
        )

    val, err = quad(
        scaled, s, t, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
        limit=QUAD_MAX_SUBDIVISIONS,
    )
    if val <= 0.0:
        raise IntegrationError(
            f"beta segment integral underflowed on [{s}, {t}]", achieved=err
        )
    if err > max(QUAD_ABS_TOL, 100 * QUAD_REL_TOL * abs(val)):
        raise IntegrationError(
            f"beta segment quadrature did not converge on [{s}, {t}]",
            achieved=err / abs(val),
        )
    return scale + math.log(val)


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
