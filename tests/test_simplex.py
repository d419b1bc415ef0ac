"""Truncated Dirichlet integrals and the numbered check suites."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import minimax_multinom.simplex as simplex_module
from minimax_multinom import (
    ALPHA_MINIMAX,
    DEFAULT_SEED,
    DomainError,
    LemmaReport,
    b_trunc,
    lemma1_check,
    lemma4_check,
    lemma5_check,
    lemma6_check,
    lemma7_check,
    lemma8_check,
    log_i_trunc,
    log_multivariate_beta,
    run_lemma_suite,
)
from minimax_multinom.numkernel import gauss_kronrod


def _beta_seg_exact(a: int, b: int, s: Fraction, t: Fraction) -> Fraction:
    """Exact segment integral for integer shapes via binomial expansion."""
    total = Fraction(0)
    for j in range(b):
        total += Fraction(math.comb(b - 1, j) * (-1) ** j, a + j) * (
            t ** (a + j) - s ** (a + j)
        )
    return total


class TestTruncatedIntegrals:
    def test_uniform_k2(self):
        for eps in (0.05, 0.2, 0.4):
            res = b_trunc((1.0, 1.0), eps)
            assert res.value == pytest.approx(1 - 2 * eps, rel=1e-12, abs=0)
            frac = math.exp(log_i_trunc((1.0, 1.0), eps))
            assert frac == pytest.approx(1 - 2 * eps, rel=1e-12, abs=0)

    def test_uniform_k3_similar_simplex(self):
        """Flooring the uniform 3-simplex shrinks it by (1 - 3 eps)^2."""
        res = b_trunc((1.0, 1.0, 1.0), 0.1)
        assert res.value == pytest.approx(0.7**2 * 0.5, rel=1e-9, abs=0)

    def test_full_simplex_limit(self):
        """At eps = 1e-9 the floor cuts off the mass where some theta_i <
        eps.  To first order in eps its share of the full Beta value is
        cut = sum_i eps^a_i / (a_i B(a_i, A - a_i)): 1.07e-13 for
        (1.5, 2.5), and 1.47e-6 for (0.7, 1.2, 3.0), where a 30-digit value
        of the integral agrees."""
        eps = 1e-9
        for alphas in ((1.5, 2.5), (0.7, 1.2, 3.0)):
            full = math.exp(log_multivariate_beta(alphas))
            res = b_trunc(alphas, eps)
            A = sum(alphas)
            cut = sum(eps**a / (a * math.exp(log_multivariate_beta((a, A - a))))
                      for a in alphas)
            assert abs(1.0 - res.value / full - cut) <= 1e-12

    def test_retained_fraction_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            alphas = tuple(np.exp(rng.uniform(-1, 1.5, size=k)))
            eps = float(rng.uniform(1e-4, 0.9 / k))
            frac = math.exp(log_i_trunc(alphas, eps))
            assert 0.0 < frac <= 1.0
            if eps > 1e-3:
                assert frac < 1.0

    def test_monotone_in_floor(self):
        alphas = (1.3, 0.8)
        vals = [math.exp(log_i_trunc(alphas, e))
                for e in (0.01, 0.05, 0.1, 0.2, 0.3)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_k2_against_exact_rationals(self):
        """k = 2 at integer shapes against the segment integral as an exact
        rational over the floats' own ends [eps, 1 - eps]: within 1.8e-15
        in the log on these draws, under the 1e-13 a segment is credited."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            a, b = (int(v) for v in rng.integers(1, 13, size=2))
            eps = float(rng.uniform(1e-3, 0.45))
            exact = _beta_seg_exact(a, b, Fraction(eps), Fraction(1.0 - eps))
            got = b_trunc((a, b), eps).value_log
            assert abs(got - math.log(exact)) <= 1e-14, (a, b, eps)

    @pytest.mark.parametrize("k", [4, 5])
    def test_uniform_similar_simplex_nested(self, k):
        """The nested quadrature at k >= 4: flooring the uniform simplex
        shrinks it by (1 - k eps)^(k - 1)."""
        for eps in (0.01, 0.05, 0.1, 0.15):
            if eps < 1.0 / k:
                want = (k - 1) * math.log1p(-k * eps)
                assert abs(log_i_trunc((1.0,) * k, eps) - want) <= 1e-12
                assert abs(b_trunc((1.0,) * k, eps).value_log
                           - (want - math.lgamma(k))) <= 1e-12

    @pytest.mark.parametrize("cases", [
        [((0.8, 5.2), 1e-3), ((4.34177325, 1.03935045), 1.0091448500285252e-3),
         ((5.20427487, 6.54403426), 6.240211916556266e-3), ((2.5, 2.5), 0.3)],
        [((0.8, 2.0, 5.0), 1e-3), ((ALPHA_MINIMAX,) * 3, 0.2),
         ((3.0, 1.1, 7.5), 0.05)],
        [((ALPHA_MINIMAX,) * 4, 0.05), ((0.9, 2.0, 3.0, 6.0), 0.1)],
    ], ids=["k2", "k3", "k4"])
    def test_unit_factor_equals_b_trunc(self, cases):
        """With g = 1 the integrals are b_trunc's, within 1e-13 in the log:
        at k = 2 a quadrature of the Beta kernel that no b_trunc call takes
        (b_trunc has the closed form), above it the inner integrals nested
        down to k = 2 in place of Beta segments.  The worst case measured
        is 7.7e-14, the second k = 2 one."""
        alphas = np.array([a for a, _ in cases])
        eps = np.array([e for _, e in cases])
        logs, _ = simplex_module._recursive_b_log(
            alphas, eps, lambda thetas, idx: np.ones(idx.size))
        for value_log, (a, e) in zip(logs, cases):
            assert abs(value_log - b_trunc(a, e).value_log) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            b_trunc((1.0, 1.0), 0.5)
        with pytest.raises(DomainError):
            b_trunc((1.0, -1.0), 0.1)
        with pytest.raises(DomainError):
            b_trunc((1.0, 1.0, 1.0, 1.0), 0.25)


def _k3_suite_draws():
    """40 draws made like the lemma 4 and 6 suites' k = 3 ones."""
    rng = np.random.default_rng(20261020)
    for _ in range(40):
        alphas = np.exp(rng.uniform(math.log(0.2), math.log(8.0), size=3))
        yield tuple(alphas.tolist()), float(rng.uniform(1e-3, 0.95 / 3))


# ln b_trunc at 30 digits for each of _k3_suite_draws, in order
_K3_SUITE_REFS = [
    -8.618283196120792, -10.776320074080095, -8.949012504531153,
    -2.6838013036227597, -6.809793304701471, -4.279099837354609,
    -0.17830640639784356, -9.939484748499096, -6.199662868261166,
    -8.812174004940895, -3.089052958331173, 0.8520015524451807,
    -9.013627165472462, -3.044456315149112, -2.0254065042133362,
    -1.6658910233716615, -7.472432042572407, -8.385146378534895,
    -4.227206241800393, -9.925579743739918, 1.3749159517596006,
    -1.1011622839991704, -9.353784470200434, -0.7145709717644492,
    -5.541046791039952, -1.3922232859439567, -2.880662779849136,
    -4.546717667800562, -6.704303342822899, 1.198229967564679,
    -0.2775003234805492, -11.04384626995634, -3.4663366951679357,
    -7.661003641250008, -10.147072970697025, -0.7899321317123752,
    -4.754693025815888, -2.028497145200021, -6.026536156387456,
    -2.5273396164198134,
]

# (N, x, ln b_trunc at 30 digits for alphas = x + 1 + 1/sqrt(6) and for
# alphas = x + 1/2), with eps = N^-0.73: parameters of the k = 3
# truncated-predictive tables
_K3_TABLE_REFS = [
    (8, (0, 0, 8), -11.669429368878552, -8.55283102769727),
    (8, (1, 3, 4), -13.052859162773503, -9.984830067727001),
    (16, (0, 1, 15), -14.186949812628127, -10.596645661854279),
    (16, (5, 5, 6), -21.70029407302064, -18.57297107873824),
    (24, (0, 0, 24), -13.979678806131446, -9.93559121124526),
    (24, (2, 7, 15), -26.344225238861803, -22.88962981131558),
    (24, (0, 12, 12), -25.51069561866122, -22.093184356301602),
    (12, (1, 1, 10), -14.182759703448616, -10.871816202324966),
]


class TestK3AgainstMpmath:
    """The k = 3 integral against ln of its value from mpmath 1.3.0 at 40
    working digits: tanh-sinh quadrature over theta_1, on panels split
    geometrically toward both ends, of mpmath's incomplete beta function,
    with error estimates below 1e-30 relative."""

    def test_suite_draws(self):
        draws = list(_k3_suite_draws())
        for (alphas, eps), ref in zip(draws, _K3_SUITE_REFS, strict=True):
            assert abs(b_trunc(alphas, eps).value_log - ref) <= 1e-13, (alphas, eps)

    @pytest.mark.parametrize("N, x, ref_minimax, ref_jeffreys", _K3_TABLE_REFS)
    def test_table_parameters(self, N, x, ref_minimax, ref_jeffreys):
        for base, ref in ((1.0 + 1.0 / math.sqrt(6.0), ref_minimax),
                          (0.5, ref_jeffreys)):
            alphas = tuple(xi + base for xi in x)
            assert abs(b_trunc(alphas, N ** -0.73).value_log - ref) <= 1e-13

    @pytest.mark.parametrize("alphas, eps, ref", [
        ((5.836505488890044, 3.983550058931567, 1.1423609267641315),
         0.031985331090341046, -9.044716106510597),
        ((0.7, 1.2, 3.0), 1e-9, -2.15991803302486),
    ], ids=["one-panel-trap", "tiny-floor"])
    def test_pinned(self, alphas, eps, ref):
        """scipy's quad (QAGS), which took this integral before, is off by
        3.7e-13 at the first case, which a single 21-point panel passes with
        the same error, and by 1.5e-6 at the second."""
        assert abs(b_trunc(alphas, eps).value_log - ref) <= 1e-13


class TestLockstepBatch:
    """Batches of floored-simplex integrals: each member gets the floats of
    its run alone, whatever else is in the batch."""

    @staticmethod
    def _draws(seed: int, k: int, n: int) -> tuple:
        rng = np.random.default_rng(seed)
        alphas = np.exp(rng.uniform(math.log(0.2), math.log(8.0), size=(n, k)))
        # floors from 1e-7 to near 1/k, for a range of bisection depths
        return alphas, np.exp(rng.uniform(math.log(1e-7), math.log(0.9 / k), size=n))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_k3_and_nested_k4_batch(self, seed):
        """One gauss_kronrod batch of k = 3 integrals and nested k = 4 ones
        (each level of those is itself a batch of k = 3 integrals), in a
        shuffled order, against each integral run alone."""
        draws = {3: self._draws(seed, 3, 12), 4: self._draws(seed + 10, 4, 4)}
        parts = {k: simplex_module._outer_integrand(*draws[k])[:3] for k in draws}
        members = [(k, j) for k in draws for j in range(draws[k][1].size)]
        members = [members[p] for p in np.random.default_rng(seed).permutation(16)]
        kind = np.array([k for k, _ in members])
        local = np.array([j for _, j in members])

        def f(t, idx):
            out = np.empty(t.size)
            for k, (fk, _, _) in parts.items():
                mask = kind[idx] == k
                out[mask] = fk(t[mask], local[idx[mask]])
            return out

        values, errors = gauss_kronrod(
            f, [parts[k][1][j] for k, j in members], [parts[k][2][j] for k, j in members])
        depths = set()
        for m, (k, j) in enumerate(members):
            alphas, eps = draws[k]
            g, lo, hi = simplex_module._outer_integrand(alphas[j:j + 1], eps[j:j + 1])[:3]
            levels = []

            def counted(t, idx):
                levels.append(t.size)
                return g(t, idx)

            (value,), (error,) = gauss_kronrod(counted, lo, hi)
            depths.add(len(levels))
            assert (values[m], errors[m]) == (value, error), (k, j)
        assert len(depths) >= 3

    @staticmethod
    def _factor(c: np.ndarray):
        """An integrand factor g(thetas, idx) = c[idx] (1.5 + sum_i theta_i
        log theta_i), positive, elementwise, and different per integral."""
        return lambda thetas, idx: c[idx] * (1.5 + (thetas * np.log(thetas)).sum(axis=0))

    @pytest.mark.parametrize("k, with_g", [(3, False), (4, False), (3, True)],
                             ids=["3", "4", "3-g"])
    def test_recursive_batch_equals_singles(self, k, with_g):
        """With an integrand factor g, integral j of the batch carries
        c_j h(theta) and its run alone c_j h(theta): g reaches the k = 2
        base case through the inner batches with the outer index."""
        alphas, eps = self._draws(7, k, 10 if k == 3 else 3)
        c = 1.0 + np.arange(eps.size) / eps.size
        logs, rel = simplex_module._recursive_b_log(
            alphas, eps, self._factor(c) if with_g else None)
        for j in range(eps.size):
            (log1,), (rel1,) = simplex_module._recursive_b_log(
                alphas[j:j + 1], eps[j:j + 1],
                self._factor(c[j:j + 1]) if with_g else None)
            assert (logs[j], rel[j]) == (log1, rel1)

    def test_b_trunc_batch_equals_b_trunc(self):
        """A batch of k = 2, 3 and 4 integrals, as the suites take them,
        returns b_trunc's results bit for bit."""
        params = [(tuple(a), float(e)) for a, e in zip(*self._draws(8, 3, 8))]
        params += [(tuple(a), float(e)) for a, e in zip(*self._draws(9, 2, 8))]
        params += [(tuple(a), float(e)) for a, e in zip(*self._draws(10, 4, 3))]
        params = params[::2] + params[1::2]
        ints, log_full = simplex_module._b_trunc_batch(params)
        assert ints == [b_trunc(*p) for p in params]
        assert log_full == [log_multivariate_beta(a) for a, _ in params]


class TestLemma1:
    """Alternating-envelope bounds for log(1+x)."""

    def test_equality_at_zero(self):
        rep = lemma1_check(2, [0.0])
        assert rep.max_violation <= 0.0

    def test_m_zero_hand_values(self):
        # x/(1+x) <= log(1+x) <= x at x = 1
        rep = lemma1_check(0, [1.0])
        assert rep.passed
        assert rep.witness["lower"] == pytest.approx(0.5, rel=1e-15, abs=0)
        assert rep.witness["upper"] == pytest.approx(1.0, rel=1e-15, abs=0)
        assert rep.witness["log1p"] == pytest.approx(math.log(2), rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_dense_grid(self, m):
        grid = np.concatenate([
            np.linspace(-0.99, -0.01, 200),
            np.linspace(0.01, 10.0, 400),
        ])
        assert lemma1_check(m, grid).passed

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma1_check(-1, [0.5])
        with pytest.raises(DomainError):
            lemma1_check(0, [-1.0])


class TestLemma4:
    """Retained-fraction increment bound."""

    def test_k2_hand_case(self):
        rep = lemma4_check((1.0, 1.0), 0.1)
        assert rep.passed
        # I(2,1) - I(1,1): retained fractions of Beta(2,1) and Beta(1,1)
        lhs = rep.witness["lhs"]
        expect = (0.9**2 - 0.1**2) - (1 - 0.2)  # exactly zero here
        assert lhs == pytest.approx(expect, rel=1e-10, abs=1e-10)

    def test_vanishing_floor(self):
        rep = lemma4_check((1.5, 2.0), 1e-8)
        assert rep.passed
        assert abs(rep.witness["lhs"]) < 1e-6
        assert rep.witness["rhs"] < 1e-6

    def test_random_k3(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            alphas = tuple(np.exp(rng.uniform(-1, 1.5, size=3)))
            eps = float(rng.uniform(1e-3, 0.3))
            assert lemma4_check(alphas, eps).passed


class TestLemma5:
    """Interval-shift monotonicity of segment mean ratios."""

    def test_equal_intervals(self):
        rep = lemma5_check(1.3, 2.1, 0.1, 0.6, 0.1, 0.6)
        assert rep.max_violation <= 0.0
        assert rep.witness["lhs"] == pytest.approx(rep.witness["rhs"], rel=1e-12, abs=0)

    def test_uniform_halves(self):
        # means of the uniform density on [0, 1/2] and [1/2, 1]
        rep = lemma5_check(1.0, 1.0, 0.0, 0.5, 0.5, 1.0)
        assert rep.passed
        assert rep.witness["lhs"] == pytest.approx(0.25, rel=1e-12, abs=0)
        assert rep.witness["rhs"] == pytest.approx(0.75, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma5_check(1.0, 1.0, 0.5, 0.4, 0.6, 0.7)
        with pytest.raises(DomainError):
            lemma5_check(1.0, 1.0, 0.3, 0.6, 0.2, 0.7)


class TestLemma6:
    """Simplex-to-interval domination of the bumped-integral ratio."""

    def test_k2_strict(self):
        rep = lemma6_check((1.2, 0.9), 0.1)
        assert rep.passed
        assert rep.witness["lhs"] < rep.witness["rhs"]

    def test_vanishing_floor_reduces_to_dirichlet_mean(self):
        alphas = (1.4, 2.2, 0.9)
        rep = lemma6_check(alphas, 1e-7)
        mean = alphas[0] / sum(alphas)
        assert rep.witness["lhs"] == pytest.approx(mean, rel=1e-4, abs=0)
        assert rep.witness["rhs"] == pytest.approx(mean, rel=1e-4, abs=0)

    def test_random_k3(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            alphas = tuple(np.exp(rng.uniform(-1, 1.5, size=3)))
            eps = float(rng.uniform(1e-3, 0.3))
            assert lemma6_check(alphas, eps).passed


def _b_exact(v) -> Fraction:
    """The multivariate Beta value at positive integers, exactly."""
    num = math.prod(math.factorial(x - 1) for x in v)
    return Fraction(num, math.factorial(sum(v) - 1))


class TestLemma7:
    """Aggregation identity for Dirichlet-multinomial marginals."""

    def test_k2_trivially_equal(self):
        rep = lemma7_check((1.3, 0.8), 9, 4)
        assert rep.witness["rel_diff"] < 1e-13

    def test_k3_exact_rational(self):
        """Both sides computed in exact rationals for integer parameters."""
        N, x1 = 6, 2
        alphas = (1, 1, 1)
        lhs = Fraction(0)
        for x2 in range(N - x1 + 1):
            x3 = N - x1 - x2
            coef = Fraction(
                math.factorial(N),
                math.factorial(x1) * math.factorial(x2) * math.factorial(x3),
            )
            lhs += _b_exact((x1 + 1, x2 + 1, x3 + 1)) / _b_exact(alphas) * coef
        rhs = (
            _b_exact((x1 + 1, N - x1 + 2)) / _b_exact((1, 2))
            * Fraction(math.comb(N, x1))
        )
        assert lhs == rhs
        rep = lemma7_check(alphas, N, x1)
        assert rep.passed
        assert rep.witness["lhs"] == pytest.approx(float(lhs), rel=1e-12, abs=0)

    def test_k4_exact_rational(self):
        """k = 4: both sides in exact rationals for integer parameters, and
        the check's terms, all from one gammaln pass, within 1e-12."""
        N, x1 = 9, 3
        alphas = (2, 1, 3, 1)
        lhs = Fraction(0)
        for rest in itertools.product(range(N - x1 + 1), repeat=3):
            if sum(rest) != N - x1:
                continue
            x = (x1, *rest)
            coef = Fraction(math.factorial(N),
                            math.prod(math.factorial(v) for v in x))
            lhs += (_b_exact([v + a for v, a in zip(x, alphas)])
                    / _b_exact(alphas) * coef)
        pooled = sum(alphas[1:])
        rhs = (_b_exact((x1 + alphas[0], N - x1 + pooled))
               / _b_exact((alphas[0], pooled)) * math.comb(N, x1))
        assert lhs == rhs
        rep = lemma7_check(alphas, N, x1)
        assert rep.passed
        assert rep.witness["lhs"] == pytest.approx(float(lhs), rel=1e-12, abs=0)
        assert rep.witness["rhs"] == pytest.approx(float(rhs), rel=1e-12, abs=0)

    def test_k4_random(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            alphas = tuple(np.exp(rng.uniform(-1, 1.5, size=4)))
            N = int(rng.integers(1, 13))
            x1 = int(rng.integers(0, N + 1))
            assert lemma7_check(alphas, N, x1).passed

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma7_check((1.0, 1.0), 5, 6)


class TestLemma8:
    """Segment mean-ratio identity and its linear bound."""

    def test_no_floor_gives_beta_mean(self):
        rep = lemma8_check(2.5, 3.5, 0.0)
        assert rep.passed
        assert rep.witness["ratio"] == pytest.approx(2.5 / 6.0, rel=1e-12, abs=0)

    def test_uniform_half_hand_value(self):
        """alpha = beta = 1, eps = 1/2: conditional mean 3/4; the identity
        right side is 1/2 + (1/2 * 1/2)/(2 * 1/2) = 3/4."""
        rep = lemma8_check(1.0, 1.0, 0.5)
        assert rep.passed
        assert rep.witness["ratio"] == pytest.approx(0.75, rel=1e-12, abs=0)
        assert rep.witness["identity_rhs"] == pytest.approx(0.75, rel=1e-12, abs=0)

    def test_exact_rational_cross_check(self):
        ratio = float(
            _beta_seg_exact(3, 2, Fraction(1, 5), Fraction(1))
            / _beta_seg_exact(2, 2, Fraction(1, 5), Fraction(1))
        )
        rep = lemma8_check(2.0, 2.0, 0.2)
        assert rep.witness["ratio"] == pytest.approx(ratio, rel=1e-11, abs=0)

    def test_bound_fails_below_alpha_one(self):
        """The linear bound genuinely breaks for alpha < 1: at
        (alpha, beta, eps) = (0.05, 1, 1/2) the conditional mean is ~0.72
        but the claimed bound is ~0.52.  The identity still holds."""
        rep = lemma8_check(0.05, 1.0, 0.5)
        assert rep.witness["rel_diff"] <= 1e-10          # identity fine
        assert rep.witness["ratio"] > rep.witness["bound_rhs"] + 0.1
        assert rep.max_violation > 0.0                   # bound violated

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma8_check(1.0, 1.0, 1.0)


class TestSuites:
    """Randomized stress suites; seeds make every report reproducible."""

    @pytest.mark.parametrize("lemma", [1, 4, 5, 6, 7, 8])
    def test_suite_passes(self, lemma):
        rep = run_lemma_suite(lemma, 120)
        assert rep.passed, rep.witness
        assert rep.seed == DEFAULT_SEED
        assert rep.trials == 120

    def test_report_schema(self):
        rep = run_lemma_suite(5, 10)
        d = rep.to_dict()
        assert set(d) == {"lemma", "trials", "max_violation", "witness",
                          "seed", "tolerances"}

    def test_deterministic(self):
        a = run_lemma_suite(4, 40, seed=99)
        b = run_lemma_suite(4, 40, seed=99)
        assert a.max_violation == b.max_violation
        assert a.witness == b.witness

    def test_unknown_number(self):
        with pytest.raises(DomainError):
            run_lemma_suite(2, 10)

    @pytest.mark.parametrize("seed", [0, 41])
    @pytest.mark.parametrize("lemma, check", [
        (4, lemma4_check), (5, lemma5_check), (6, lemma6_check), (8, lemma8_check),
    ])
    def test_suite_is_the_merge_of_its_checks(self, lemma, check, seed):
        """A batched suite reports, bit for bit, the merge of the public
        per-trial checks on the same draws."""
        draw = simplex_module._SUITES[lemma][0]
        rng = simplex_module.seeded_stream(seed, lemma)
        draws = [draw(rng) for _ in range(100)]
        merged = functools.reduce(LemmaReport.merge, [check(*d) for d in draws])
        want = dict(merged.to_dict(), trials=100, seed=seed)
        assert run_lemma_suite(lemma, 100, seed).to_dict() == want
