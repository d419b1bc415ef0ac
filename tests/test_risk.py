"""Exact risk engines, sup-risk search, Bayes risks, and the truncation gap.

The enumeration route is the oracle for the separable route; the separable
route in turn feeds every downstream experiment, so the identity between
them is this suite's backbone.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import minimax_multinom.risk as risk_module
from minimax_multinom import (
    ALPHA_MINIMAX,
    DomainError,
    EpsilonSchedule,
    ModelSpec,
    MonteCarloSettings,
    Observation,
    OutcomeLabel,
    Predictive,
    PriorSpec,
    RiskMethod,
    SizeError,
    StatisticalPrecisionError,
    SymmetricPrior,
    ThetaPoint,
    TruncatedPredictiveTable,
    TruncatedSimplex,
    bayes_risk,
    compositions,
    risk_coordinatewise,
    risk_enumeration,
    risk_truncated_predictive,
    sup_risk,
    truncated_predictive_density,
    truncation_bayes_gap,
)
from minimax_multinom.numkernel import dirichlet_batch, seeded_stream, stable_sum

HAND_RISK = 0.5 * math.log(9.0 / 8.0)  # k=2, N=1, uniform prior, theta=(1/2,1/2)


def _random_case(rng, k, N):
    a = tuple(np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=k)))
    th = rng.dirichlet(np.ones(k))
    while th.min() < 1e-3:
        th = rng.dirichlet(np.ones(k))
    return PriorSpec(a), ModelSpec(k, N), ThetaPoint(tuple(th))


class TestThetaPoint:
    def test_validation(self):
        with pytest.raises(DomainError):
            ThetaPoint((0.5, 0.6))
        with pytest.raises(DomainError):
            ThetaPoint((1.0, 0.0))
        with pytest.raises(DomainError):
            ThetaPoint((math.nan, 0.5))  # NaN makes every comparison false
        with pytest.raises(DomainError):
            # sums to 1 in double, but one coordinate has rounded up to 1
            ThetaPoint((1.0, 8.5e-17, 1.15e-17))
        ThetaPoint((0.25, 0.75))

    def test_complete_and_uniform(self):
        t = ThetaPoint.complete([0.2, 0.3])
        assert t.theta == (0.2, 0.3, 0.5)
        u = ThetaPoint.uniform(4)
        assert math.fsum(u.theta) == 1.0


class TestCompositions:
    def test_count_and_order(self):
        comps = compositions(3, 2)
        assert comps.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
        assert len(compositions(8, 4)) == math.comb(11, 3)
        for N, k in ((0, 1), (5, 1), (0, 3), (7, 4)):
            ref = [list(c) for c in itertools.product(range(N + 1), repeat=k)
                   if sum(c) == N]
            assert compositions(N, k).tolist() == ref

    def test_rows_sum_to_n(self):
        comps = compositions(6, 3)
        assert (comps.sum(axis=1) == 6).all()


class TestRiskEngines:
    def test_hand_enumeration_value(self):
        """Each x gives KL(Ber(1/2) || Ber(2/3 or 1/3)) = 0.5 log(9/8)."""
        prior = SymmetricPrior.uniform(2).expand()
        model = ModelSpec(2, 1)
        theta = ThetaPoint.complete([0.5])
        for fn in (risk_enumeration, risk_coordinatewise):
            rep = fn(prior, model, theta)
            assert rep.exact_risk == pytest.approx(HAND_RISK, rel=1e-12, abs=0)
        assert HAND_RISK == pytest.approx(0.05889151782, abs=1e-11)

    def test_methods_agree_k3_minimax(self):
        prior = SymmetricPrior.minimax(3).expand()
        model = ModelSpec(3, 2)
        theta = ThetaPoint.uniform(3)
        a = risk_enumeration(prior, model, theta).exact_risk
        b = risk_coordinatewise(prior, model, theta).exact_risk
        assert abs(a - b) <= 1e-12

    def test_methods_agree_random(self):
        rng = np.random.default_rng(0x5EED)
        for _ in range(60):
            k = int(rng.integers(2, 4))
            N = int(rng.integers(0, 6))
            prior, model, theta = _random_case(rng, k, N)
            a = risk_enumeration(prior, model, theta).exact_risk
            b = risk_coordinatewise(prior, model, theta).exact_risk
            assert abs(a - b) <= 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            prior, model, theta = _random_case(rng, int(rng.integers(2, 5)),
                                               int(rng.integers(0, 9)))
            assert risk_coordinatewise(prior, model, theta).exact_risk >= -1e-14

    def test_report_structure(self):
        prior, model, theta = (SymmetricPrior.uniform(2).expand(),
                               ModelSpec(2, 3), ThetaPoint.complete([0.4]))
        rep = risk_coordinatewise(prior, model, theta)
        assert rep.method is RiskMethod.COORDINATEWISE
        assert rep.exact_risk == pytest.approx(math.fsum(rep.per_coordinate),
                                               abs=1e-16)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(41)
        prior, model, theta = _random_case(rng, 3, 5)
        perm = (2, 0, 1)
        base = risk_coordinatewise(prior, model, theta)
        permuted = risk_coordinatewise(prior.permuted(perm), model,
                                       theta.permuted(perm))
        for i, p in enumerate(perm):
            assert permuted.per_coordinate[i] == pytest.approx(
                base.per_coordinate[p], rel=1e-12, abs=1e-15
            )

    def test_risk_vanishes_for_large_n(self):
        prior = SymmetricPrior.minimax(2).expand()
        rep = risk_coordinatewise(prior, ModelSpec(2, 10_000),
                                  ThetaPoint.complete([0.5]))
        assert 0.0 < rep.exact_risk < 1e-4

    def test_enumeration_cap(self):
        with pytest.raises(SizeError, match="coordinatewise"):
            risk_enumeration(SymmetricPrior.uniform(6).expand(),
                             ModelSpec(6, 200), ThetaPoint.uniform(6))


@st.composite
def _k34_cases(draw):
    """(prior, model, theta) with k in {3, 4}, N in [0, 5000], Dirichlet
    parameters log-uniform over [1e-6, 1e6] and theta coordinates down to
    about 1e-300 (log weights in [-690, 0], largest pinned at 0).  theta is
    a plain tuple: a draw whose largest coordinate rounds to 1 is not a
    ThetaPoint, so the point is built where typed errors are compared."""
    k = draw(st.sampled_from([3, 4]))
    N = draw(st.integers(min_value=0, max_value=5000))
    log10_a = draw(st.lists(st.floats(min_value=-6.0, max_value=6.0),
                            min_size=k, max_size=k))
    log_w = draw(st.lists(st.floats(min_value=-690.0, max_value=0.0),
                          min_size=k, max_size=k))
    w = [math.exp(v - max(log_w)) for v in log_w]
    total = math.fsum(w)
    theta = tuple(v / total for v in w)
    return PriorSpec(tuple(10.0**v for v in log10_a)), ModelSpec(k, N), theta


def _risk_or_typed_error(prior, model, theta):
    try:
        return risk_coordinatewise(prior, model, ThetaPoint(theta)).exact_risk
    except (DomainError, SizeError) as exc:
        return type(exc)


class TestRiskProperties:
    @given(_k34_cases(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_invariant_under_joint_permutation(self, case, data):
        """Same risk to 1e-12 relative, or the same typed error (a
        coordinate rounded to 1.0 is not a ThetaPoint)."""
        prior, model, theta = case
        perm = data.draw(st.permutations(range(model.k)))
        base = _risk_or_typed_error(prior, model, theta)
        permuted = _risk_or_typed_error(prior.permuted(perm), model,
                                        tuple(theta[p] for p in perm))
        if isinstance(base, type):
            assert permuted is base
        else:
            assert permuted == pytest.approx(base, rel=1e-12, abs=0.0)

    @given(_k34_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_finite_nonnegative_or_typed_error(self, case):
        risk = _risk_or_typed_error(*case)
        if not isinstance(risk, type):
            assert math.isfinite(risk) and risk >= 0.0, (case, risk)


def _log1p_w(x, N, tj, a_i):
    """log(1 + w_i) at the counts x, with the kernel's x = 0 expression."""
    log1p_w = np.log1p((x - N * tj) / (N * tj + a_i))
    if x.size and x[0] == 0:
        log1p_w[0] = math.log(a_i) - math.log(N * tj + a_i)
    return log1p_w


def _full_support_coordinate(ev, i, t):
    """h_i(t) summed over the whole binomial support: the kernel before
    windowing, kept as the reference for the windowed one."""
    a_i, A, N = ev.prior.a[i], ev.prior.A, ev.model.N
    x = np.arange(N + 1, dtype=float)
    out = []
    for tj in np.atleast_1d(np.asarray(t, dtype=float)).tolist():
        s = (a_i - A * tj) / ((N + A) * tj)
        logpmf = ev._lg + x * math.log(tj) + (N - x) * math.log1p(-tj)
        ew = math.fsum(np.exp(logpmf) * _log1p_w(x, N, tj, a_i))
        out.append(-tj * math.log1p(s) - tj * ew)
    return np.array(out)


def _window(N, t):
    """The kernel's summation window [lo, hi] for Bin(N, t), as documented."""
    L = risk_module._WINDOW_NATS
    d = L / 3 + math.sqrt(L * L / 9 + 2 * L * N * t * (1 - t))
    return max(0, math.ceil(N * t - d)), min(N, math.floor(N * t + d))


def _assert_window_agrees(N, t, a_i):
    """|windowed - full| <= 2 e^-75 log1p(N / a_i) + 1 ulp(full)."""
    ev = risk_module.CoordinateRiskEvaluator(PriorSpec((a_i, 1.0)), ModelSpec(2, N))
    windowed = ev.coordinate(0, t)
    full = _full_support_coordinate(ev, 0, t)
    bound = 2 * math.exp(-75.0) * math.log1p(N / a_i) + np.spacing(np.abs(full))
    assert np.isfinite(windowed).all()
    assert (np.abs(windowed - full) <= bound).all(), (N, t, a_i, windowed, full)


class TestWindowedKernel:
    @pytest.mark.parametrize("a_i", [1e-6, 0.5, 1.4082, 1e6])
    @pytest.mark.parametrize("N", [0, 1, 2, 24, 64, 1024, 4096, 20000])
    def test_agrees_with_full_support(self, N, a_i):
        ts = [1e-300, 0.5, 1 - 1e-12]
        if N > 1:
            ts.insert(1, N**-0.73)
        _assert_window_agrees(N, np.array(ts), a_i)

    @given(
        st.integers(min_value=0, max_value=20000),
        st.floats(min_value=1e-300, max_value=1 - 1e-12),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_agrees_with_full_support_property(self, N, t, a_i):
        _assert_window_agrees(N, t, a_i)

    @pytest.mark.parametrize("N, t", [
        (64, 0.5), (1024, 0.5), (1040, 1040**-0.73), (4096, 0.3),
        (20000, 1e-3), (20000, 1 - 1e-6),
    ])
    def test_dropped_mass_within_bernstein_bound(self, N, t):
        lo, hi = _window(N, t)
        outside = binom.cdf(lo - 1, N, t) + binom.sf(hi, N, t)
        assert outside <= 2 * math.exp(-risk_module._WINDOW_NATS)

    def test_window_is_what_gets_summed(self, monkeypatch):
        """Small supports are summed whole; large ones only over the window,
        from N = 51 on, where a window can leave out x = 0."""
        lengths = []

        def counting_sum(terms):
            lengths.append(len(terms))
            return math.fsum(terms)

        monkeypatch.setattr(risk_module, "stable_sum", counting_sum)
        prior = SymmetricPrior.minimax(2).expand()
        for N, t in ((24, 0.3), (50, 0.999), (51, 0.999), (4096, 0.3), (4096, 1e-4)):
            lengths.clear()
            risk_module.CoordinateRiskEvaluator(prior, ModelSpec(2, N)).coordinate(0, t)
            lo, hi = _window(N, t)
            assert lengths == [hi - lo + 1]
        assert _window(24, 0.3) == (0, 24)
        assert _window(50, 0.999) == (0, 50) and _window(51, 0.999) == (1, 51)
        assert _window(4096, 0.3)[1] - _window(4096, 0.3)[0] + 1 < 4097 // 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_domain(self, bad):
        ev = risk_module.CoordinateRiskEvaluator(
            SymmetricPrior.minimax(2).expand(), ModelSpec(2, 10))
        for t in (bad, [0.3, bad]):
            with pytest.raises(DomainError):
                ev.coordinate(0, t)


def _per_point_coordinate(ev, i, t):
    """The kernel as a loop over points, one numpy evaluation per window:
    kept as the reference for the one-pass kernel."""
    a_i, A, N = ev.prior.a[i], ev.prior.A, ev.model.N
    L = risk_module._WINDOW_NATS
    x_all = np.arange(N + 1, dtype=float)
    out = []
    for tj in np.atleast_1d(np.asarray(t, dtype=float)).tolist():
        d = L / 3 + math.sqrt(L * L / 9 + 2 * L * N * tj * (1 - tj))
        lo = max(0, math.ceil(N * tj - d))
        hi = min(N, math.floor(N * tj + d)) + 1
        x = x_all[lo:hi]
        s = (a_i - A * tj) / ((N + A) * tj)
        logpmf = ev._lg[lo:hi] + x * math.log(tj) + (N - x) * math.log1p(-tj)
        ew = stable_sum(np.exp(logpmf) * _log1p_w(x, N, tj, a_i))
        out.append(-tj * math.log1p(s) - tj * ew)
    return np.array(out)


def _mp_coordinate(a_i, A, N, t):
    """h_i(t) summed over the whole binomial support at 40 digits."""
    with mpmath.workdps(40):
        t, a_i, A = mpmath.mpf(t), mpmath.mpf(a_i), mpmath.mpf(A)
        s = (a_i - A * t) / ((N + A) * t)
        den = N * t + a_i
        pmf, odds, ew = (1 - t) ** N, t / (1 - t), mpmath.mpf(0)
        for x in range(N + 1):
            ew += pmf * mpmath.log1p((x - N * t) / den)
            pmf = pmf * (N - x) / (x + 1) * odds
        return float(-t * mpmath.log1p(s) - t * ew)


class TestOnePassKernel:
    """coordinate evaluates the windows of consecutive points together, in
    numpy passes of at most _PASS_TERMS terms, and returns exactly the
    floats of the per-point loop."""

    PRIOR = PriorSpec((0.3, 2.5, 1e-6))

    @staticmethod
    def _points(N):
        rng = seeded_stream(9, N)
        return np.concatenate([
            rng.uniform(1e-12, 1 - 1e-12, size=200),
            10.0 ** rng.uniform(-300, 0, size=100),
            [1e-300, 0.5, 1 - 1e-12],
        ]), rng.integers(0, 3, size=303)

    @pytest.fixture
    def passes(self, monkeypatch):
        """The window lengths of every numpy pass the kernel makes."""
        passes = []
        window_sums = risk_module.CoordinateRiskEvaluator._window_sums

        def recording(ev, rows, lengths, *firsts):
            passes.append(lengths)
            return window_sums(ev, rows, lengths, *firsts)

        monkeypatch.setattr(risk_module.CoordinateRiskEvaluator, "_window_sums",
                            recording)
        return passes

    @pytest.mark.parametrize("N", [0, 1, 24, 64, 1024, 4096])
    def test_equals_per_point_loop(self, N, passes):
        ev = risk_module.CoordinateRiskEvaluator(self.PRIOR, ModelSpec(3, N))
        t, i = self._points(N)
        for j in range(3):
            assert np.array_equal(ev.coordinate(j, t), _per_point_coordinate(ev, j, t))
        passes.clear()
        want = [_per_point_coordinate(ev, j, [tj])[0] for j, tj in zip(i.tolist(), t)]
        assert np.array_equal(ev.coordinate(i, t), want)
        assert sum(map(len, passes)) == t.size
        assert all(sum(p) <= risk_module._PASS_TERMS for p in passes)
        if N >= 24:
            assert len(passes) > 1

    @pytest.mark.parametrize("N", [64, 1040])
    def test_value_does_not_depend_on_the_pass(self, N, passes):
        """A point gets the same float alone, in a pass below the
        certified-sum switch, as inside a batch whose passes reach it."""
        ev = risk_module.CoordinateRiskEvaluator(self.PRIOR, ModelSpec(3, N))
        t, i = self._points(N)
        batch = ev.coordinate(i, t)
        batch_passes = [sum(p) for p in passes]
        passes.clear()
        alone = [ev.coordinate(j, [tj])[0] for j, tj in zip(i.tolist(), t)]
        assert max(batch_passes) >= risk_module._CERTIFIED_SUM_TERMS
        assert max(sum(p) for p in passes) < risk_module._CERTIFIED_SUM_TERMS
        assert np.array_equal(batch, alone)

    def test_long_window_gets_its_own_pass(self, passes):
        N = 200_000
        lo, hi = _window(N, 0.5)
        assert hi - lo + 1 > risk_module._PASS_TERMS
        ev = risk_module.CoordinateRiskEvaluator(self.PRIOR, ModelSpec(3, N))
        t = [1e-5, 0.5, 0.3]
        assert np.array_equal(ev.coordinate(1, t), _per_point_coordinate(ev, 1, t))
        assert [len(p) for p in passes] == [1, 1, 1]

    def test_empty(self):
        ev = risk_module.CoordinateRiskEvaluator(self.PRIOR, ModelSpec(3, 24))
        for i in (0, []):
            out = ev.coordinate(i, [])
            assert out.shape == (0,) and out.dtype == np.float64

    def test_index_per_point_must_match_t(self):
        ev = risk_module.CoordinateRiskEvaluator(self.PRIOR, ModelSpec(3, 24))
        with pytest.raises(DomainError):
            ev.coordinate([0, 1], [0.3])

    @pytest.mark.parametrize("N", [0, 1, 24, 1024])
    def test_risk_is_the_single_coordinate_values(self, N):
        ev = risk_module.CoordinateRiskEvaluator(self.PRIOR, ModelSpec(3, N))
        theta = ThetaPoint((0.2, 0.7, 0.1))
        per = ev.risk(theta).per_coordinate
        assert per == tuple(float(ev.coordinate(i, theta.theta[i])[0])
                            for i in range(3))
        assert per == tuple(float(_per_point_coordinate(ev, i, theta.theta[i])[0])
                            for i in range(3))

    @pytest.mark.parametrize("N, alpha, t", [
        pytest.param(N, alpha, t, id=f"N={N}-{name}-t={label}")
        for N in (1040, 4096)
        for name, alpha in (("jeffreys", 0.5), ("minimax", ALPHA_MINIMAX))
        for label, t in (("floor", EpsilonSchedule().eps(N)), ("0.05", 0.05),
                         ("0.5", 0.5))
    ])
    def test_against_mpmath_full_support(self, N, alpha, t):
        """The first accuracy check at large N: relative error at most 2e-11
        against the exact full-support sum."""
        prior = SymmetricPrior(alpha, 2).expand()
        ev = risk_module.CoordinateRiskEvaluator(prior, ModelSpec(2, N))
        got = float(ev.coordinate(0, t)[0])
        ref = _mp_coordinate(prior.a[0], prior.A, N, t)
        assert abs(got - ref) <= 2e-11 * abs(ref), (got, ref)

    @pytest.mark.parametrize("a_i", [1e-12, 1e-15])
    def test_tiny_prior_weight_against_mpmath(self, a_i):
        """The 2e-11 bound at prior weights the CLI accepts."""
        N, t = 64, 0.05
        prior = PriorSpec((a_i, 1.0))
        ev = risk_module.CoordinateRiskEvaluator(prior, ModelSpec(2, N))
        got = float(ev.coordinate(0, t)[0])
        ref = _mp_coordinate(a_i, prior.A, N, t)
        assert abs(got - ref) <= 2e-11 * abs(ref), (got, ref)

    def test_tiny_prior_weight_raises_no_numpy_warning(self):
        """Below about 1e-16 N t the weight makes w = -1 at x = 0; a direct
        call still runs without a numpy warning or floating-point error."""
        ev = risk_module.CoordinateRiskEvaluator(PriorSpec((1e-17, 1.0)),
                                                 ModelSpec(2, 64))
        with warnings.catch_warnings(), np.errstate(divide="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            got = float(ev.coordinate(0, 0.05)[0])
        assert math.isfinite(got)


_K2_PRIORS = {
    "jeffreys": SymmetricPrior.jeffreys(2).expand(),
    "uniform": SymmetricPrior.uniform(2).expand(),
    "minimax": SymmetricPrior.minimax(2).expand(),
    "a=1e-3": SymmetricPrior(1e-3, 2).expand(),
    "a=50": SymmetricPrior(50.0, 2).expand(),
    "a=(0.3,2.5)": PriorSpec((0.3, 2.5)),
    "a=(3,0.7)": PriorSpec((3.0, 0.7)),
}


class TestK2SearchCoversAscent:
    """At k = 2 the floored simplex is a segment that the pinned-family
    grid and golden refine search whole, so maximize() runs no ascent.  Its
    value must still reach every candidate of 32 multi-start ascent starts,
    to the search's tie tolerance."""

    @pytest.mark.parametrize("eps_rule", ["1e-4", "schedule", "0.2", "0.49"])
    @pytest.mark.parametrize("N", [1, 2, 5, 16, 64, 257, 1024])
    @pytest.mark.parametrize("prior", list(_K2_PRIORS))
    def test_value_dominates_ascent_candidates(self, prior, N, eps_rule):
        eps = {"1e-4": 1e-4, "schedule": min(N**-0.73, 0.45),
               "0.2": 0.2, "0.49": 0.49}[eps_rule]
        spec = _K2_PRIORS[prior]
        h = risk_module.CoordinateRiskEvaluator(spec, ModelSpec(2, N)).coordinate
        objectives = [{}]
        if prior in ("minimax", "a=(0.3,2.5)"):
            # |risk - 1/(2N)|: expansion_error_profile's order-1 residual
            objectives.append({"constant": -0.5 / N, "transform": abs})
        for kwargs in objectives:
            m = risk_module.SeparableMaximizer(
                h, 2, eps, symmetric=spec.is_symmetric, **kwargs)
            best_ascent = max(c.value for c in m._ascent(range(32)))
            for grid_size in (16, 128, 512):
                value = m.maximize(grid_size)[0]
                assert value >= best_ascent - risk_module._TIE_TOL, (
                    grid_size, kwargs, value, best_ascent)


def _scalar_golden_max(f, lo, hi, iters=60):
    """Golden-section maximization of a scalar function on one interval."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    width_tol = 1e-7 * (b - a) + 1e-15
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < width_tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _one_start_ascent(m, start_index, sweeps=60):
    """The multi-start ascent for one start alone, with scalar h calls."""
    def objective(theta):
        vals = [float(m.h(i, theta[i])[0]) for i in range(m.k)]
        return m.transform(stable_sum(vals) + m.constant)

    rng = seeded_stream(m.seed, 1000 + start_index)
    raw = rng.dirichlet(np.ones(m.k))
    theta = tuple(m.eps + (1.0 - m.k * m.eps) * raw)
    value = objective(theta)
    for _ in range(sweeps):
        improved = False
        for i in range(m.k):
            for j in range(i + 1, m.k):
                mass = theta[i] + theta[j]
                if mass <= 2 * m.eps:
                    continue
                others = stable_sum(
                    float(m.h(q, theta[q])[0])
                    for q in range(m.k) if q not in (i, j)
                ) + m.constant

                def g(t):
                    return m.transform(
                        others + float(m.h(i, t)[0]) + float(m.h(j, mass - t)[0]))

                probe = np.linspace(m.eps, mass - m.eps, 33)
                sums = others + m.h(i, probe) + m.h(j, mass - probe)
                b = int(np.argmax([m.transform(v) for v in sums]))
                t_star, v_star = _scalar_golden_max(
                    g, probe[max(0, b - 1)], probe[min(32, b + 1)])
                if v_star > value + 1e-15:
                    lst = list(theta)
                    lst[i], lst[j] = t_star, mass - t_star
                    theta = tuple(lst)
                    value = v_star
                    improved = True
        theta = m._normalize(theta)
        value = objective(theta)
        if not improved:
            break
    return (value, theta, f"ascent[{start_index}]")


_ASCENT_PRIORS = {
    "jeffreys": lambda k: SymmetricPrior.jeffreys(k).expand(),
    "minimax": lambda k: SymmetricPrior.minimax(k).expand(),
    "asymmetric": lambda k: PriorSpec(tuple(0.3 + j for j in range(k))),
}


def _memoized(h):
    """h with every value it returned kept, per (coordinate, point); i is one
    coordinate index or one per point, as for the kernel."""
    memo = {}

    def cached(i, t):
        t = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
        if isinstance(i, (int, np.integer)):
            keys = [(i, v) for v in t]
        else:
            keys = list(zip(np.asarray(i).tolist(), t))
        missing = [key for key in keys if key not in memo]
        if missing:
            memo.update(zip(missing, h([j for j, _ in missing],
                                       [v for _, v in missing]).tolist()))
        return np.array([memo[key] for key in keys])

    return cached


class TestLockstepAscent:
    """The lockstep ascent runs every start's arithmetic as a start run
    alone would, so each candidate equals the one-start reference exactly.
    h is a function of (coordinate, point) alone, so both sides read one
    memo of its values; a point only one side asks for is computed fresh."""

    @pytest.mark.parametrize("prior", list(_ASCENT_PRIORS))
    @pytest.mark.parametrize("eps", [1e-4, 0.03, 0.2])
    @pytest.mark.parametrize("N", [1, 7, 23, 130, 505])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_one_start_reference(self, k, N, eps, prior):
        ev = risk_module.CoordinateRiskEvaluator(
            _ASCENT_PRIORS[prior](k), ModelSpec(k, N))
        for kwargs in ({}, {"constant": -(k - 1) / (2.0 * N), "transform": abs}):
            m = risk_module.SeparableMaximizer(_memoized(ev.coordinate), k, eps,
                                               **kwargs)
            got = {n: [(c.value, c.theta, c.label) for c in m._ascent(range(n))]
                   for n in (8, 1, 0)}
            reference = [_one_start_ascent(m, s) for s in range(8)]
            for n, candidates in got.items():
                assert candidates == reference[:n], (kwargs, n)


class TestSupRisk:
    def test_dense_scan_oracle_k2(self):
        """The search must dominate a dense one-dimensional scan."""
        prior = SymmetricPrior.jeffreys(2).expand()
        model = ModelSpec(2, 128)
        eps = 128.0**-0.73
        trunc = TruncatedSimplex(2, eps)
        rep = sup_risk(prior, model, trunc, grid_size=128)
        grid = np.unique(np.concatenate([
            np.linspace(eps, 0.5, 3000),
            eps * np.exp(np.linspace(0, math.log(0.5 / eps), 3000)),
        ]))
        dense = max(
            risk_coordinatewise(prior, model, ThetaPoint.complete([t])).exact_risk
            for t in grid
        )
        assert rep.sup_value >= dense - 1e-12
        assert rep.sup_value <= dense + 1e-6  # dense grid undersamples mildly

    def test_recompute_at_argmax(self):
        prior = SymmetricPrior.minimax(2).expand()
        model = ModelSpec(2, 64)
        rep = sup_risk(prior, model, TruncatedSimplex(2, 0.05), grid_size=64)
        again = risk_coordinatewise(prior, model, rep.argmax_theta).exact_risk
        assert abs(again - rep.sup_value) <= 1e-12
        assert min(rep.argmax_theta.theta) >= 0.05 - 1e-12

    def test_nested_grid_monotone(self):
        prior = SymmetricPrior.jeffreys(3).expand()
        model = ModelSpec(3, 32)
        trunc = TruncatedSimplex(3, 0.03)
        coarse = sup_risk(prior, model, trunc, grid_size=64).sup_value
        fine = sup_risk(prior, model, trunc, grid_size=127).sup_value
        assert fine >= coarse - 1e-13

    def test_jeffreys_boundary_witness(self):
        """At N = 1024 with the usual schedule the maximizer sits on the
        floor (the 1/theta divergence dominates)."""
        model = ModelSpec(2, 1024)
        eps = 1024.0**-0.73
        rep = sup_risk(SymmetricPrior.jeffreys(2).expand(), model,
                       TruncatedSimplex(2, eps), grid_size=256)
        assert rep.argmax_theta.theta[0] == pytest.approx(eps, rel=1e-9, abs=0)

    def test_minimax_prior_negative_excess(self):
        """For the minimax concentration the sup sits at the center and the
        second-order excess is negative."""
        N = 256
        model = ModelSpec(2, N)
        rep = sup_risk(SymmetricPrior.minimax(2).expand(), model,
                       TruncatedSimplex(2, N**-0.73), grid_size=128)
        assert rep.sup_value - 0.5 / N < 0
        assert rep.argmax_theta.theta[0] == pytest.approx(0.5, abs=1e-3)

    def test_trace_and_determinism(self):
        """At k = 2 the pinned family searches the whole segment, so no
        ascent start runs or is traced."""
        labels = self._deterministic_labels(2, 0.1)
        assert not any("ascent[" in lab for lab in labels)

    def test_trace_and_determinism_k3(self):
        labels = self._deterministic_labels(3, 0.05)
        assert any("ascent[" in lab for lab in labels)

    @staticmethod
    def _deterministic_labels(k, eps):
        prior = SymmetricPrior.uniform(k).expand()
        model = ModelSpec(k, 16)
        trunc = TruncatedSimplex(k, eps)
        a = sup_risk(prior, model, trunc, grid_size=64, seed=7, ascent_starts=4)
        b = sup_risk(prior, model, trunc, grid_size=64, seed=7, ascent_starts=4)
        assert a.sup_value == b.sup_value
        assert a.argmax_theta.theta == b.argmax_theta.theta
        assert a.search_trace == b.search_trace
        assert len(a.search_trace) >= 3
        labels = [lab for lab, _ in a.search_trace]
        assert any("pin" in lab for lab in labels)
        return labels

    def test_objectives_make_one_h_call(self):
        """The objective at a batch of points takes one h call with a
        per-point coordinate index, and each column sums as it would alone."""
        ev = risk_module.CoordinateRiskEvaluator(PriorSpec((0.3, 1.2, 2.5)),
                                                 ModelSpec(3, 40))
        calls = []

        def h(i, t):
            calls.append(i)
            return ev.coordinate(i, t)

        m = risk_module.SeparableMaximizer(h, 3, 0.05, constant=-0.01,
                                           transform=abs)
        thetas = seeded_stream(4, 0).dirichlet(np.ones(3), size=9).T
        got = m._objectives(thetas)
        assert len(calls) == 1
        assert got == [abs(stable_sum(float(ev.coordinate(i, col[i])[0])
                                      for i in range(3)) - 0.01)
                       for col in thetas.T]

    def test_negative_ascent_starts_rejected(self):
        def h(i, t):
            return np.zeros_like(np.atleast_1d(t), dtype=float)

        with pytest.raises(DomainError, match="ascent_starts"):
            risk_module.SeparableMaximizer(h, 3, 0.05, ascent_starts=-1)
        risk_module.SeparableMaximizer(h, 3, 0.05, ascent_starts=0).maximize(32)

    def test_grid_size_validation(self):
        with pytest.raises(DomainError):
            sup_risk(SymmetricPrior.uniform(2).expand(), ModelSpec(2, 4),
                     TruncatedSimplex(2, 0.1), grid_size=8)

    def test_non_finite_candidates_raise(self):
        """A NaN from h is reported with the candidate it spoiled, not
        passed over in favour of a finite candidate."""
        def nan_near_03(i, t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return np.where(np.abs(t - 0.3) < 0.02, np.nan, -(t - 0.4) ** 2)

        def nan_everywhere(i, t):
            return np.full(np.atleast_1d(t).shape, np.nan)

        with pytest.raises(DomainError, match=r"candidate pin\[0\]@grid"):
            risk_module.SeparableMaximizer(nan_near_03, 2, 0.05).maximize(64)
        with pytest.raises(DomainError, match="candidate uniform"):
            risk_module.SeparableMaximizer(nan_everywhere, 2, 0.05).maximize(64)


class TestFloorNearCenter:
    """The sup search as the floor approaches 1/k, where the floored simplex
    shrinks to the uniform point."""

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-15])
    @pytest.mark.parametrize("N", [1, 50])
    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["minimax", "asymmetric"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sup_at_floor_edge(self, k, symmetric, N, delta):
        prior = (SymmetricPrior.minimax(k).expand() if symmetric
                 else PriorSpec(tuple(0.3 + j for j in range(k))))
        model = ModelSpec(k, N)
        eps = 1.0 / k - delta
        rep = sup_risk(prior, model, TruncatedSimplex(k, eps), grid_size=16,
                       ascent_starts=2)
        assert math.isfinite(rep.sup_value)
        assert min(rep.argmax_theta.theta) >= eps - 1e-12
        center = risk_coordinatewise(prior, model, ThetaPoint.uniform(k))
        assert rep.sup_value >= center.exact_risk - risk_module._TIE_TOL


class TestBayesRisk:
    def test_quadrature_vs_monte_carlo(self):
        """k=2, N=8, uniform prior, floored weight: the two integration
        routes agree (the Monte Carlo run is seeded, so the difference is a
        fixed number well inside three standard errors)."""
        w = SymmetricPrior.uniform(2)
        model = ModelSpec(2, 8)
        trunc = TruncatedSimplex(2, 0.05)
        q = bayes_risk(w, model, Predictive.FULL, trunc)
        m = bayes_risk(w, model, Predictive.FULL, trunc,
                       mc=MonteCarloSettings(n_draws=200_000))
        assert abs(q - m) <= 2e-5

    def test_mc_pinned_value(self):
        w = SymmetricPrior.uniform(2)
        model = ModelSpec(2, 6)
        trunc = TruncatedSimplex(2, 0.05)
        mc = MonteCarloSettings(n_draws=60_000, seed=11)
        a = bayes_risk(w, model, Predictive.FULL, trunc, mc=mc)
        assert a == 0.05263575811803261  # pinned to the last bit

    def test_stderr_ceiling(self):
        w = SymmetricPrior.uniform(2)
        with pytest.raises(StatisticalPrecisionError):
            bayes_risk(w, ModelSpec(2, 6), Predictive.FULL,
                       TruncatedSimplex(2, 0.05),
                       mc=MonteCarloSettings(n_draws=5_000,
                                             stderr_ceiling=1e-12))

    @pytest.mark.parametrize("mc", [None, MonteCarloSettings(n_draws=5_000)],
                             ids=["quadrature", "monte-carlo"])
    def test_prior_spec_weight_honours_truncation(self, mc):
        """The same weight as a PriorSpec or a SymmetricPrior gives the
        same floored Bayes risk, on both integration routes."""
        w = SymmetricPrior.uniform(2)
        model = ModelSpec(2, 8)
        trunc = TruncatedSimplex(2, 0.2)
        spec = bayes_risk(w.expand(), model, Predictive.FULL, trunc, mc=mc)
        assert spec == bayes_risk(w, model, Predictive.FULL, trunc, mc=mc)
        assert spec != bayes_risk(w.expand(), model, Predictive.FULL, mc=mc)

    def test_aitchison_optimality(self):
        """Under the floored weight, the floored-prior predictive is the
        Bayes rule, so its Bayes risk cannot exceed the full one's."""
        for k, N in ((2, 4), (2, 8), (3, 5)):
            for alpha in (0.5, 1.0, ALPHA_MINIMAX):
                for eps in (0.05, 0.2):
                    w = SymmetricPrior(alpha, k)
                    trunc = TruncatedSimplex(k, eps)
                    model = ModelSpec(k, N)
                    full = bayes_risk(w, model, Predictive.FULL, trunc)
                    restricted = bayes_risk(w, model, Predictive.TRUNCATED, trunc)
                    assert restricted <= full + 1e-12

    def test_bayes_below_sup_over_support(self):
        w = SymmetricPrior.uniform(2)
        model = ModelSpec(2, 8)
        trunc = TruncatedSimplex(2, 0.05)
        bayes = bayes_risk(w, model, Predictive.FULL, trunc)
        sup = sup_risk(w.expand(), model, trunc, grid_size=64).sup_value
        assert bayes <= sup + 1e-10

    def test_weight_concentrated_near_center(self):
        """As the floor approaches 1/k the weight pins the central point."""
        w = SymmetricPrior.uniform(2)
        model = ModelSpec(2, 8)
        bayes = bayes_risk(w, model, Predictive.FULL, TruncatedSimplex(2, 0.49))
        center = risk_coordinatewise(w.expand(), model,
                                     ThetaPoint.complete([0.5])).exact_risk
        spread = abs(
            risk_coordinatewise(w.expand(), model,
                                ThetaPoint.complete([0.49])).exact_risk - center
        )
        assert abs(bayes - center) <= spread + 1e-12

    def test_full_simplex_weight_with_singular_kernel(self):
        # Jeffreys weight has integrable endpoint singularities
        w = SymmetricPrior.jeffreys(2)
        val = bayes_risk(w, ModelSpec(2, 4), Predictive.FULL)
        assert 0.0 < val < 1.0

    def test_k3_quadrature(self):
        w = SymmetricPrior.uniform(3)
        trunc = TruncatedSimplex(3, 0.08)
        val = bayes_risk(w, ModelSpec(3, 4), Predictive.FULL, trunc)
        mc = bayes_risk(w, ModelSpec(3, 4), Predictive.FULL, trunc,
                        mc=MonteCarloSettings(n_draws=150_000))
        assert val == pytest.approx(mc, abs=3e-4)

    @pytest.mark.parametrize("alpha, k, N, floored, predictive, expected", [
        (ALPHA_MINIMAX, 2, 14, True, "full", 0.026862818372937986),
        (ALPHA_MINIMAX, 2, 14, True, "truncated", 0.023650372263742926),
        (ALPHA_MINIMAX, 3, 22, True, "full", 0.03458902401221635),
        (ALPHA_MINIMAX, 3, 22, True, "truncated", 0.029786137628711032),
        (0.5, 2, 4, False, "full", 0.07985430661283156),  # singular kernel
        (1.0, 2, 4, False, "full", 0.07345958697643606),
    ])
    def test_pinned_quadrature_values(self, alpha, k, N, floored, predictive,
                                      expected):
        """Regression pins: minimax weight floored at eps = N^-0.73 (the
        sandwich's lower end), and the whole simplex (eps = 0)."""
        trunc = TruncatedSimplex(k, N ** -0.73) if floored else None
        val = bayes_risk(SymmetricPrior(alpha, k), ModelSpec(k, N),
                         Predictive(predictive), trunc)
        assert val == pytest.approx(expected, rel=1e-12 if floored else 1e-9,
                                    abs=0)

    @pytest.mark.parametrize("weight, N, expected", [
        (SymmetricPrior.uniform(3), 4, 0.12485588733277497),
        (PriorSpec((1.2, 1.5, 2.0)), 3, 0.11647457536402676),
    ], ids=["uniform", "asymmetric"])
    def test_whole_simplex_closed_form_matches_quadrature(self, weight, N,
                                                          expected):
        """k = 3 over the whole simplex: the closed form against values the
        nested quadrature it replaced gave."""
        val = bayes_risk(weight, ModelSpec(3, N), Predictive.FULL)
        assert val == pytest.approx(expected, rel=1e-12, abs=0)

    def test_whole_simplex_jeffreys_k3_is_fast_and_matches_mc(self):
        """The Jeffreys weight's boundary singularities once cost nested
        quadrature about a minute here; the closed form must agree with a
        seeded Monte Carlo run within 4 of its standard errors, bounded by
        the run's stderr_ceiling."""
        w, model = SymmetricPrior.jeffreys(3), ModelSpec(3, 1)
        start = time.perf_counter()
        exact = bayes_risk(w, model, Predictive.FULL)
        assert time.perf_counter() - start < 1.0
        ceiling = 2.7e-4
        mc = bayes_risk(w, model, Predictive.FULL,
                        mc=MonteCarloSettings(n_draws=100_000,
                                              stderr_ceiling=ceiling))
        assert abs(exact - mc) <= 4 * ceiling

    def test_truncated_predictive_needs_truncation(self):
        with pytest.raises(DomainError):
            bayes_risk(SymmetricPrior.uniform(2), ModelSpec(2, 4),
                       Predictive.TRUNCATED)

    def test_caps(self):
        w = SymmetricPrior.uniform(2)
        with pytest.raises(SizeError):
            bayes_risk(w, ModelSpec(2, 65), Predictive.TRUNCATED,
                       TruncatedSimplex(2, 0.05))
        with pytest.raises(SizeError):
            bayes_risk(SymmetricPrior.uniform(4), ModelSpec(4, 4),
                       Predictive.TRUNCATED, TruncatedSimplex(4, 0.05))


def _per_draw_bayes_mc(weight, model, trunc, mc):
    """Monte Carlo Bayes risk of the full predictive as a loop over draws,
    one risk() call each: kept as the reference for the batched
    estimator."""
    prior = weight.expand() if isinstance(weight, SymmetricPrior) else weight
    ev = risk_module.CoordinateRiskEvaluator(prior, model)
    eps = trunc.eps if trunc else 0.0
    sums, n = [], 0
    for b in range(mc.n_batches):
        draws, _ = dirichlet_batch(prior.a, eps, mc, b)
        vals = [ev.risk(ThetaPoint(tuple(row))).exact_risk for row in draws]
        sums.append(stable_sum(vals))
        n += len(vals)
    return stable_sum(sums) / n


class TestBatchedMonteCarlo:
    """Monte Carlo Bayes risk scores each batch in one kernel call and
    equals the per-draw loop exactly."""

    @pytest.mark.parametrize("weight, N, eps", [
        (SymmetricPrior.uniform(2), 6, 0.05),
        (SymmetricPrior.jeffreys(2), 9, 0.0),
        (PriorSpec((0.4, 1.3, 2.2)), 5, 0.0),
        (SymmetricPrior.minimax(4), 12, 0.02),
        (PriorSpec((0.5, 0.9, 1.6, 3.0)), 8, 0.0),
    ], ids=["weight0-6-full-0.05", "weight1-9-full-0.0", "weight3-5-full-0.0",
            "weight5-12-full-0.02", "weight6-8-full-0.0"])
    def test_equals_per_draw_loop(self, monkeypatch, weight, N, eps):
        model = ModelSpec(weight.k, N)
        trunc = TruncatedSimplex(weight.k, eps) if eps else None
        mc = MonteCarloSettings(n_draws=3_000, batch_size=700, seed=N)
        want = _per_draw_bayes_mc(weight, model, trunc, mc)
        calls = []
        coordinate = risk_module.CoordinateRiskEvaluator.coordinate

        def counting(ev, i, t):
            calls.append(np.size(t))
            return coordinate(ev, i, t)

        monkeypatch.setattr(risk_module.CoordinateRiskEvaluator, "coordinate",
                            counting)
        got = bayes_risk(weight, model, Predictive.FULL, trunc, mc=mc)
        assert got == want
        assert len(calls) == mc.n_batches == 5
        assert sum(calls) > 0 and sum(calls) % weight.k == 0


class TestTruncatedPredictiveRisk:
    def test_pointwise_against_direct_definition(self):
        """risk of the floored predictive recomputed from its definition
        via the model-level truncated predictive density."""
        alpha = SymmetricPrior.uniform(2)
        trunc = TruncatedSimplex(2, 0.1)
        model = ModelSpec(2, 5)
        theta = ThetaPoint.complete([0.35])
        fast = risk_truncated_predictive(alpha, trunc, model, theta)

        direct = 0.0
        th = theta.theta
        for x1 in range(6):
            x = (x1, 5 - x1)
            px = math.comb(5, x1) * th[0] ** x1 * th[1] ** (5 - x1)
            for i in range(2):
                q = truncated_predictive_density(alpha, trunc, model,
                                                 Observation(x), OutcomeLabel(i))
                direct += px * th[i] * math.log(th[i] / q)
        assert fast == pytest.approx(direct, rel=1e-9, abs=0)

    def test_table_reuse_matches(self):
        alpha = SymmetricPrior.minimax(2)
        trunc = TruncatedSimplex(2, 0.08)
        model = ModelSpec(2, 6)
        table = TruncatedPredictiveTable(alpha, trunc, model)
        theta = ThetaPoint.complete([0.25])
        a = risk_truncated_predictive(alpha, trunc, model, theta, table)
        b = risk_truncated_predictive(alpha, trunc, model, theta)
        assert a == b


class TestTruncationBayesGap:
    def test_exact_rational_oracle(self):
        """k=2, alpha=1, N=8, eps=1/10 against a fully independent assembly:
        exact rational segment integrals, the symmetry-reduced sum over the
        first-cell count, and float logs only at the end."""

        def bseg(a, b, s, t):
            total = Fraction(0)
            for j in range(b):
                total += Fraction(math.comb(b - 1, j) * (-1) ** j, a + j) * (
                    t ** (a + j) - s ** (a + j)
                )
            return total

        def bfull(a, b):
            return Fraction(math.factorial(a - 1) * math.factorial(b - 1),
                            math.factorial(a + b - 1))

        N = 8
        s, t = Fraction(1, 10), Fraction(9, 10)
        base = bseg(1, 1, s, t)
        oracle = 0.0
        for x1 in range(N + 1):
            x2 = N - x1
            b_bumped = bseg(x1 + 2, x2 + 1, s, t)
            b_plain = bseg(x1 + 1, x2 + 1, s, t)
            i_ratio = (b_bumped / bfull(x1 + 2, x2 + 1)) / (
                b_plain / bfull(x1 + 1, x2 + 1)
            )
            oracle += (
                2.0 * float(b_bumped / base) * math.comb(N, x1)
                * math.log(float(i_ratio))
            )

        gap = truncation_bayes_gap(SymmetricPrior.uniform(2),
                                   TruncatedSimplex(2, 0.1), ModelSpec(2, 8))
        assert gap == pytest.approx(oracle, rel=1e-9, abs=0)

    @pytest.mark.parametrize("weight, N, expected", [
        (SymmetricPrior(0.5, 2), 16, 0.0083064977117393357908),
        (SymmetricPrior.minimax(2), 64, 0.00013988106983360403892),
        (SymmetricPrior(0.5, 3), 24, 0.012031593234612687066),
        (SymmetricPrior.minimax(3), 24, 0.0039980703772647156009),
    ], ids=["jeffreys-k2", "minimax-k2", "jeffreys-k3", "minimax-k3"])
    def test_pinned_against_mpmath(self, weight, N, expected):
        """The gap with the weight floored at eps = N^-0.73 against its
        defining sum, sum_x m(x) KL(q(.|x) || q_full(.|x)), evaluated by
        mpmath at 30 digits (k = 2) and 25 digits (k = 3, nested quad over
        incomplete beta functions).  The difference of the two predictives'
        Bayes risks by nested quadrature, which the gap once was, misses
        these by up to 1.45e-10 relative (minimax-k2)."""
        gap = truncation_bayes_gap(weight, TruncatedSimplex(weight.k, N ** -0.73),
                                   ModelSpec(weight.k, N))
        assert gap == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha, N, eps", [
        (ALPHA_MINIMAX, 31, 0.07983781766389819),
        (0.5, 64, 64 ** -0.73),
    ])
    def test_k2_against_mpmath_sum(self, alpha, N, eps):
        """k = 2: the gap against its defining sum at 30 digits, with the
        floored Beta integrals from mpmath's incomplete beta function."""
        with mpmath.workdps(30):
            a, e = mpmath.mpf(alpha), mpmath.mpf(eps)

            def seg(p, q):
                return mpmath.betainc(p, q, e, 1 - e)

            want = mpmath.mpf(0)
            for x in range(N + 1):
                p, q = a + x, a + N - x
                for bumped, q_full in (((p + 1, q), p / (N + 2 * a)),
                                       ((p, q + 1), q / (N + 2 * a))):
                    q_trunc = seg(*bumped) / seg(p, q)
                    want += (math.comb(N, x) * seg(*bumped) / seg(a, a)
                             * mpmath.log(q_trunc / q_full))
        gap = truncation_bayes_gap(SymmetricPrior(alpha, 2),
                                   TruncatedSimplex(2, eps), ModelSpec(2, N))
        assert gap == pytest.approx(float(want), rel=1e-12, abs=0)

    def test_integrates_nothing(self, monkeypatch):
        """The gap is a finite sum over the table: it never scores the risk
        kernel."""
        def refuse(ev, i, t):
            raise AssertionError("the gap must not call the risk kernel")

        monkeypatch.setattr(risk_module.CoordinateRiskEvaluator, "coordinate",
                            refuse)
        gap = truncation_bayes_gap(SymmetricPrior.minimax(3),
                                   TruncatedSimplex(3, 0.05), ModelSpec(3, 6))
        assert gap > 0.0

    @pytest.mark.parametrize("k, N, eps, mc", [
        (2, 7, 0.04, None),
        (3, 6, 0.05, None),
        (2, 7, 0.04, MonteCarloSettings(n_draws=3_000, batch_size=700, seed=7)),
        (3, 6, 0.05, MonteCarloSettings(n_draws=3_000, batch_size=700, seed=6)),
    ], ids=["quadrature-k2", "quadrature-k3", "monte-carlo-k2",
            "monte-carlo-k3"])
    def test_truncated_bayes_risk_is_full_less_gap(self, k, N, eps, mc):
        """The truncated predictive's Bayes risk is the full one's less the
        gap, to the last bit, on both integration routes."""
        w, model = SymmetricPrior.minimax(k), ModelSpec(k, N)
        trunc = TruncatedSimplex(k, eps)
        full = bayes_risk(w, model, Predictive.FULL, trunc, mc=mc)
        gap = truncation_bayes_gap(w, trunc, model)
        got = bayes_risk(w, model, Predictive.TRUNCATED, trunc, mc=mc)
        assert got == full - gap

    @pytest.mark.parametrize("weight, trunc", [
        (PriorSpec((1.0, 1.0)), TruncatedSimplex(2, 0.1)),
        (SymmetricPrior.uniform(2), None),
    ], ids=["prior-spec", "no-truncation"])
    def test_needs_symmetric_weight_and_truncation(self, weight, trunc):
        with pytest.raises(DomainError):
            truncation_bayes_gap(weight, trunc, ModelSpec(2, 8))

    def test_nonnegative(self):
        gap = truncation_bayes_gap(SymmetricPrior.minimax(2),
                                   TruncatedSimplex(2, 0.15), ModelSpec(2, 12))
        assert gap >= -1e-12

    def test_vanishing_floor(self):
        tiny = truncation_bayes_gap(SymmetricPrior.uniform(2),
                                    TruncatedSimplex(2, 1e-5), ModelSpec(2, 4))
        moderate = truncation_bayes_gap(SymmetricPrior.uniform(2),
                                        TruncatedSimplex(2, 0.05), ModelSpec(2, 4))
        assert abs(tiny) < 1e-4
        assert abs(tiny) < moderate
