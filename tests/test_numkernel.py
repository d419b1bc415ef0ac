"""Special-function and summation primitives against independent oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from minimax_multinom import (
    DomainError,
    IntegrationError,
    log_beta_segment,
    log_multivariate_beta,
    stable_sum,
)
import minimax_multinom.numkernel as numkernel
from minimax_multinom.numkernel import seeded_stream, window_fsums

mpmath.mp.dps = 40


class TestLogMultivariateBeta:
    def test_trivial_values(self):
        assert log_multivariate_beta((1, 1)) == pytest.approx(0.0, abs=1e-15)
        assert log_multivariate_beta((1, 1, 1)) == pytest.approx(math.log(0.5), rel=1e-14, abs=0)
        assert log_multivariate_beta((0.5, 0.5)) == pytest.approx(
            math.log(math.pi), rel=1e-14, abs=0)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_pairwise_identity(self, a, b):
        """B(a, b) decomposes into log-gamma differences."""
        lhs = log_multivariate_beta((a, b))
        rhs = gammaln(a) + gammaln(b) - gammaln(a + b)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_multivariate_beta((1.0,))
        with pytest.raises(DomainError):
            log_multivariate_beta((1.0, 0.0))

    @pytest.mark.parametrize("a", [(math.nan, 1.0), (math.inf, 1.0),
                                   (1e308, 1e308)])
    def test_bad_shapes(self, a):
        """A NaN or infinite shape, or finite shapes whose total overflows,
        is outside the domain: not a NaN or an OverflowError."""
        with pytest.raises(DomainError):
            log_multivariate_beta(a)


_EXACT_ROW_N = [0, 1, 2, 63, 64, 1040, 4096, 10000]


class TestLogBinomialRow:
    @pytest.mark.parametrize("N", _EXACT_ROW_N)
    def test_exact_integers(self, N):
        row = numkernel.log_binomial_row(N)
        assert row.tolist() == [math.log(math.comb(N, x)) for x in range(N + 1)]

    @pytest.mark.parametrize("N", _EXACT_ROW_N)
    def test_symmetric(self, N):
        row = numkernel.log_binomial_row(N)
        assert np.array_equal(row, row[::-1])

    def test_log_gamma_above_the_exact_limit(self):
        N = numkernel._EXACT_COMB_LIMIT + 1
        x = np.arange(N + 1, dtype=float)
        want = gammaln(N + 1) - gammaln(x + 1) - gammaln(N - x + 1)
        assert np.array_equal(numkernel.log_binomial_row(N), want)


class TestBetaSegment:
    def test_uniform_full_interval(self):
        assert math.exp(log_beta_segment(1, 1, 0, 1)) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_full_interval_equals_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=2))
            full = math.exp(log_beta_segment(a, b, 0.0, 1.0))
            assert full == pytest.approx(
                math.exp(log_multivariate_beta((a, b))), rel=1e-12, abs=0
            )

    def test_polynomial_antiderivative_oracle(self):
        """theta (1-theta)^2 integrates to 11/192 over [1/4, 3/4]."""
        exact = Fraction(11, 192)
        got = math.exp(log_beta_segment(2, 3, 0.25, 0.75))
        assert got == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_tiny_upper_tail_against_mpmath(self):
        # mass ~ 2e-9: the naive incomplete-beta difference loses 8 digits
        a, b, s = 1.9738166521794576, 9.46658612880907, 0.9048047988252217
        ref = float(mpmath.quad(
            lambda t: t ** (a - 1) * (1 - t) ** (b - 1), [mpmath.mpf(s), 1]
        ))
        got = math.exp(log_beta_segment(a, b, s, 1.0))
        assert got == pytest.approx(ref, rel=1e-11, abs=0)

    def test_interior_sliver_against_mpmath(self):
        a, b = 3.0, 40.0
        s, t = 0.6, 0.62  # deep right tail, interior slice
        ref = float(mpmath.quad(
            lambda u: u ** (a - 1) * (1 - u) ** (b - 1), [mpmath.mpf(s), mpmath.mpf(t)]
        ))
        assert math.exp(log_beta_segment(a, b, s, t)) == pytest.approx(ref, rel=1e-9, abs=0)

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.0, max_value=0.45),
        st.floats(min_value=0.02, max_value=0.25),
        st.floats(min_value=0.02, max_value=0.25),
    )
    @settings(max_examples=100, deadline=None)
    def test_additivity(self, a, b, s, d1, d2):
        """Adjacent segments add up to the enclosing segment."""
        t = s + d1
        u = t + d2
        left = math.exp(log_beta_segment(a, b, s, t))
        right = math.exp(log_beta_segment(a, b, t, u))
        whole = math.exp(log_beta_segment(a, b, s, u))
        assert left + right == pytest.approx(whole, rel=1e-10, abs=1e-14)

    def test_monotone_in_endpoints(self):
        a, b = 1.7, 2.3
        vals_t = [math.exp(log_beta_segment(a, b, 0.1, t))
                  for t in (0.3, 0.5, 0.7, 0.9)]
        assert all(x < y for x, y in zip(vals_t, vals_t[1:]))
        vals_s = [math.exp(log_beta_segment(a, b, s, 0.9))
                  for s in (0.1, 0.3, 0.5, 0.7)]
        assert all(x > y for x, y in zip(vals_s, vals_s[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_beta_segment(1, 1, 0.5, 0.5)
        with pytest.raises(DomainError):
            log_beta_segment(1, 1, 0.7, 0.2)
        with pytest.raises(DomainError):
            log_beta_segment(0.0, 1, 0.0, 1.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1e308, 1e308)])
    def test_bad_shapes(self, alpha, beta):
        """An infinite shape, or finite shapes whose total overflows, is
        outside the domain: not an IntegrationError."""
        with pytest.raises(DomainError):
            log_beta_segment(alpha, beta, 0.1, 0.5)


#: (alpha, beta, s, t) of a batch that takes every route of
#: log_beta_segment: head segments from s = 0 and s > 0, upper tails at
#: s = 0 and s > 0, a sliver around 1/2 and a deep-tail slice that fail the
#: cancellation guard, and a tail past betaincc's underflow
_MIXED_SEGMENTS = [
    (3.983550058931567, 1.1423609267641315, 1e-3, 1 - 1e-3),
    (3.983550058931567, 1.1423609267641315, 0.0, 0.7),
    (2.5, 3.5, 0.0, 1.0),
    (2.5, 3.5, 0.3, 1.0),
    (1.9738166521794576, 9.46658612880907, 0.9048047988252217, 1.0),
    (3.983550058931567, 1.1423609267641315, 0.4999999, 0.5000001),
    (2.0, 40.0, 0.6, 0.62),
    (1.5, 400.0, 0.9, 1.0),
]


class TestBetaSegments:
    def test_matches_scalar_segments(self):
        """An array call gives every segment the float of its own scalar
        call, on a batch that mixes every route (_MIXED_SEGMENTS), and on
        the same segments broadcast from a column of shapes against a row
        of ends."""
        cases = np.array(_MIXED_SEGMENTS)
        a, b, s, t = cases.T
        special = numkernel.special_functions()
        upper = special.betainc(a, b, t)
        thin = upper - special.betainc(a, b, s) <= numkernel._SEGMENT_GUARD * upper
        assert np.flatnonzero(thin & (t < 1.0)).tolist() == [5, 6]
        assert special.betaincc(1.5, 400.0, 0.9) == 0.0
        got = log_beta_segment(*cases.T)
        assert got.tolist() == [log_beta_segment(*c) for c in _MIXED_SEGMENTS]
        grid = log_beta_segment(cases[:, :1], cases[:, 1:2], s, t)
        assert grid.shape == (len(cases), len(cases))
        assert grid.tolist() == [
            [log_beta_segment(ai, bi, s, t) for _, _, s, t in _MIXED_SEGMENTS]
            for ai, bi, _, _ in _MIXED_SEGMENTS]

    def test_scalar_input_returns_float(self):
        for case in _MIXED_SEGMENTS:
            assert type(log_beta_segment(*case)) is float
        assert type(log_beta_segment(np.float64(2.0), 3, np.array(0.25), 0.75)) is float
        assert log_beta_segment(2.0, 3.0, np.array([0.25]), 0.75).shape == (1,)

    @pytest.mark.parametrize("where", [0, 4, 7])
    @pytest.mark.parametrize("field, bad", [
        (0, 0.0), (0, math.nan), (1, -1.0), (2, -0.1), (2, 1.0), (3, 1.5),
        (3, math.nan),
    ])
    def test_one_bad_element_raises(self, where, field, bad):
        """One element outside the domain, anywhere in the batch, raises
        DomainError for the whole call."""
        cases = np.array(_MIXED_SEGMENTS)
        cases[where, field] = bad
        with pytest.raises(DomainError):
            log_beta_segment(*cases.T)


def _thin_slices(n: int) -> list:
    """(alpha, beta, s, t) of the first n Beta segments drawn as the lemma 5
    suite draws them that fail the cancellation guard, and so are
    integrated by quadrature."""
    rng = seeded_stream(20, 5)
    betainc = numkernel.special_functions().betainc
    found = []
    while len(found) < n:
        alpha, beta = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=2))
        s = rng.uniform(0.0, 0.8)
        t = rng.uniform(s + 0.01, 1.0)
        for a in (alpha, alpha + 1):
            upper = betainc(a, beta, t)
            if upper - betainc(a, beta, s) <= numkernel._SEGMENT_GUARD * upper:
                found.append((float(a), float(beta), float(s), float(t)))
    return found[:n]


def _mp_log_segment(a, b, s, t):
    """ln of the Beta-kernel integral over [s, t] at 60 digits, room for a
    thin slice's cancellation; an upper tail is taken by the reflection
    theta -> 1 - theta, as a lower one."""
    with mpmath.workdps(60):
        if t == 1.0:
            return mpmath.log(mpmath.betainc(b, a, 0, 1 - mpmath.mpf(s)))
        return mpmath.log(mpmath.betainc(a, b, s, t))

#: thin slices the suites integrate by quadrature, and the one of 2,619
#: (seeds 0-19 of the lemma 4, 5, 6 and 8 suites) where gauss_kronrod and
#: scipy's quad differ most: 2.1e-14 in the log
_FALLBACK_PINS = [
    pytest.param(11.54596594585388, 19.397395027102505, 0.8958685608624478,
                 0.9246960998375731, id="widest-disagreement"),
] + [pytest.param(*case, id=f"suite-5-draw-{j}")
     for j, case in enumerate(_thin_slices(16))]


class TestBetaSegmentFallback:
    """log_beta_segment integrates a segment the incomplete beta difference
    cannot give with numkernel.gauss_kronrod, not with scipy's quad."""

    @pytest.mark.parametrize("a, b, s, t", _FALLBACK_PINS)
    def test_against_mpmath(self, a, b, s, t):
        """Within 1e-13 in the log of 60-digit values."""
        got = log_beta_segment(a, b, s, t)
        assert got == pytest.approx(float(_mp_log_segment(a, b, s, t)),
                                    rel=0, abs=1e-13)

    def test_widest_error_of_the_suites(self):
        """The worst of the 2,619 suite fallbacks against mpmath: 2.0e-13 in
        the log, as quad was.  Both stop at the same two 21-point panels,
        whose qk21 estimate (3.0e-11 relative) is within QUAD_REL_TOL."""
        a, b = 0.11474965540770261, 3.901440637723238
        s, t = 0.8917115433088442, 0.9999483482746332
        assert abs(log_beta_segment(a, b, s, t) - _mp_log_segment(a, b, s, t)) < 3e-13

    @pytest.mark.parametrize("a, b, s", [(1.5, 400.0, 0.9), (19.0, 700.0, 0.75)])
    def test_underflowed_upper_tail(self, a, b, s):
        """Past the complemented function's underflow, the lemma 8 suite's
        route (s = eps, t = 1) is integrated by quadrature too, at shapes
        beyond its draws.  The log is below -700 there, so it is pinned to
        4 of its ulps (quad is as far off: 2.6e-13 and 8.4e-14)."""
        ref = float(_mp_log_segment(a, b, s, 1.0))
        assert abs(log_beta_segment(a, b, s, 1.0) - ref) <= 4 * math.ulp(ref)

    def test_batch_equals_scalar(self, monkeypatch):
        """One array call takes every thin slice, and a tail past betaincc's
        underflow, in one gauss_kronrod batch, and each gets the float of
        its own scalar call."""
        cases = [p.values for p in _FALLBACK_PINS] + [(1.5, 400.0, 0.9, 0.999),
                                                       (1.5, 400.0, 0.9, 1.0)]
        batches = []
        real = numkernel._log_segments_by_quadrature

        def spy(*args):
            batches.append(args[0].size)
            return real(*args)

        monkeypatch.setattr(numkernel, "_log_segments_by_quadrature", spy)
        got = log_beta_segment(*np.array(cases).T)
        assert batches == [len(cases)]
        assert got.tolist() == [log_beta_segment(*c) for c in cases]

    def test_no_quadrature_import(self):
        """A fresh process that takes the fallback loads no scipy.integrate."""
        betainc = numkernel.special_functions().betainc
        upper = betainc(2.0, 40.0, 0.62)
        assert upper - betainc(2.0, 40.0, 0.6) < numkernel._SEGMENT_GUARD * upper
        code = ("import sys; from minimax_multinom.numkernel import "
                "log_beta_segment; log_beta_segment(2.0, 40.0, 0.6, 0.62); "
                "print('scipy.integrate' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(numkernel.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert out.split() == ["False"]


def _suite_tails() -> list:
    """(alpha, beta, s) of the upper-tail segments [s, 1] that the lemma 6
    and lemma 8 suites take, for their first 12 draws at seeds 0 and 1."""
    from minimax_multinom import simplex

    tails = []
    for seed in (0, 1):
        rng = seeded_stream(seed, 6)
        for _ in range(12):
            alphas, eps = simplex._draw_simplex(rng)
            rest = stable_sum(alphas[1:])
            tails += [(alphas[0] + 1.0, rest, eps), (alphas[0], rest, eps)]
        rng = seeded_stream(seed, 8)
        for _ in range(12):
            alpha, beta, eps = simplex._draw_lemma8(rng)
            tails += [(alpha, beta, eps), (alpha + 1.0, beta, eps)]
    return tails


class TestSuiteTails:
    def test_against_mpmath(self):
        """The suites' upper tails, taken in one array call as the suites
        take them, within 1e-14 in the log of 60-digit values (the worst of
        these 96 is 5.6e-15 off)."""
        tails = _suite_tails()
        got = log_beta_segment(*np.array(tails).T, 1.0).tolist()
        for (a, b, s), value in zip(tails, got):
            assert value == pytest.approx(float(_mp_log_segment(a, b, s, 1.0)),
                                          rel=0, abs=1e-14), (a, b, s)


class TestGaussKronrod:
    def test_rule(self):
        """The embedded rule is 10-point Gauss-Legendre, and the 21-point
        Kronrod rule integrates every polynomial of degree <= 31 exactly."""
        x, w = np.polynomial.legendre.leggauss(10)
        on = numkernel._GK21_G > 0
        assert numkernel._GK21_X[on] == pytest.approx(x, rel=0, abs=1e-15)
        assert numkernel._GK21_G[on] == pytest.approx(w, rel=0, abs=1e-15)
        for d in range(32):
            exact = (1 - (-1) ** (d + 1)) / (d + 1)
            got = numkernel._GK21_K @ numkernel._GK21_X ** d
            assert got == pytest.approx(exact, rel=0, abs=1e-15), d

    def test_near_singular_integrand(self):
        """t^-0.6 on [1e-3, 1]: the levels bisect toward the singularity at 0,
        one call of f each, and the result meets the tolerance it reports."""
        levels = []

        def f(t, _):
            levels.append(t.size)
            return t ** -0.6

        (val,), (err,) = numkernel.gauss_kronrod(f, 1e-3, 1.0)
        exact = (1 - 1e-3 ** 0.4) / 0.4
        assert abs(val - exact) <= err <= numkernel.QUAD_REL_TOL * exact
        assert levels[0] == 42 and len(levels) > 2
        assert all(n % 21 == 0 for n in levels)

    @pytest.mark.parametrize("f, message", [
        (lambda t, _: np.sign(np.sin(500 * t)), "did not converge"),
        (lambda t, _: np.full(t.shape, np.nan), "non-finite"),
    ], ids=["160-jumps", "nan"])
    def test_failure_raises(self, f, message):
        with pytest.raises(IntegrationError, match=message):
            numkernel.gauss_kronrod(f, 0.0, 1.0)

    def test_failing_members_raise_as_alone(self):
        """In a batch the jumps (member 3) and the NaN (member 1) fail
        without stopping the others, and the first failing member's error
        is raised: the one a run of it alone raises."""
        bad = {1: lambda t: np.full(t.shape, np.nan),
               3: lambda t: np.sign(np.sin(500 * t))}

        def f(t, j):
            out = t ** -0.6
            for member, g in bad.items():
                out[j == member] = g(t[j == member])
            return out

        lo, hi = [1e-3, 0.1, 0.2, 0.0, 0.5], [1.0, 1.0, 0.7, 1.0, 0.9]
        with pytest.raises(IntegrationError) as alone:
            numkernel.gauss_kronrod(lambda t, _: bad[1](t), lo[1], hi[1])
        with pytest.raises(IntegrationError) as batch:
            numkernel.gauss_kronrod(f, lo, hi)
        assert str(batch.value) == str(alone.value)
        assert "non-finite" in str(batch.value) and math.isnan(batch.value.achieved)
        del bad[1]
        with pytest.raises(IntegrationError) as alone:
            numkernel.gauss_kronrod(lambda t, _: bad[3](t), lo[3], hi[3])
        with pytest.raises(IntegrationError) as batch:
            numkernel.gauss_kronrod(f, lo, hi)
        assert str(batch.value) == str(alone.value)
        assert batch.value.achieved == alone.value.achieved

    def test_members_equal_runs_alone(self):
        """Bit for bit, each integral of a batch equals its run alone, at
        every depth of bisection the batch reaches."""
        powers = np.array([-0.6, 0.5, -0.3, 2.0, -0.9, 0.0])
        lo = np.array([1e-3, 0.0, 1e-6, 0.1, 1e-4, 0.3])
        hi = np.array([1.0, 2.0, 0.5, 0.2, 1.0, 0.4])
        depths = []

        def f(t, j):
            return t ** powers[j]

        def alone(m):
            levels = []

            def g(t, _):
                levels.append(t.size)
                return t ** powers[m]

            out = numkernel.gauss_kronrod(g, lo[m], hi[m])
            depths.append(len(levels))
            return out

        values, errors = numkernel.gauss_kronrod(f, lo, hi)
        for m in range(powers.size):
            (value,), (error,) = alone(m)
            assert (values[m], errors[m]) == (value, error)
        assert len(set(depths)) >= 3


class TestStableSum:
    def test_cancellation(self):
        assert stable_sum([1e16, 1.0, -1e16]) == 1.0

    def test_empty(self):
        assert stable_sum([]) == 0.0

    def test_million_tenths_rational_oracle(self):
        """Sum of 10^6 copies of float(0.1) against exact rational arithmetic."""
        exact = float(Fraction(0.1) * 10**6)
        got = stable_sum([0.1] * 10**6)
        assert got == pytest.approx(exact, abs=1e-9)
        # the compensated sum is in fact correctly rounded
        assert got == exact

    def test_ndarray_input(self):
        arr = np.array([1e16, 1.0, -1e16])
        assert stable_sum(arr) == 1.0

    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=2,
                    max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, xs):
        """Correctly rounded, hence identical under reordering."""
        forward = stable_sum(xs)
        assert stable_sum(sorted(xs)) == forward
        assert stable_sum(list(reversed(xs))) == forward


def _term():
    """One summand: any binade from 1e-300 to 1e300, subnormals, signed
    zeros, and the values around 1 that ties are made of."""
    return st.one_of(
        st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0),
                  st.integers(-300, 300)),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0**-53,
                         2.0**-54, 1.0 + 2.0**-52]),
    )


def _window():
    plain = st.lists(_term(), min_size=1, max_size=40)
    # every term beside its negation: the exact sum is 0 or a remnant
    # far below the largest term
    cancelling = st.lists(_term(), min_size=1, max_size=20).flatmap(
        lambda w: st.permutations(w + [-v for v in w] + [w[0] * 2.0**-60]))
    # exact midpoints between two doubles, which round to even
    ties = st.builds(
        lambda odd, e, s: [s * (1.0 + odd * 2.0**-52) * 2.0**e,
                           s * 2.0**(e - 53)],
        st.booleans(), st.integers(-800, 800), st.sampled_from([1.0, -1.0]))
    return st.one_of(plain, cancelling, ties, st.lists(_term(), min_size=1,
                                                       max_size=1))


def _fsums(windows) -> list:
    return [math.fsum(w).hex() for w in windows]


class TestWindowFsums:
    """window_fsums returns math.fsum's bytes for every window, certified in
    numpy or by falling back to fsum."""

    @staticmethod
    def _run(windows) -> list:
        flat = np.array([v for w in windows for v in w], dtype=float)
        return [v.hex() for v in window_fsums(flat, [len(w) for w in windows])]

    @given(st.lists(_window(), min_size=1, max_size=12))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_equals_fsum_window_by_window(self, windows):
        assert self._run(windows) == _fsums(windows)

    @pytest.mark.parametrize("window", [
        [1.0, 2.0**-53],                  # midpoint: rounds down to even
        [1.0 + 2.0**-52, 2.0**-53],       # midpoint: rounds up to even
        [1.0, 2.0**-53, 2.0**-300],       # just above a midpoint
        [1.0, 2.0**-53, -(2.0**-300)],    # just below a midpoint
        [-1.0, -(2.0**-54), -(2.0**-300)],
        [1e16, 1.0, -1e16],
        [0.1] * 1000,
        [5e-324, 2.0**-899],
        [2.0**959, -(2.0**959), 1.0],
    ])
    def test_adversarial_windows(self, window):
        windows = [window, [0.3, -0.1], window[::-1]]
        assert self._run(windows) == _fsums(windows)

    def test_fallback_runs_for_uncertifiable_windows(self, monkeypatch):
        """Only ties, zero sums, non-finite terms and windows outside
        [2**-900, 2**960) reach fsum; every result is still fsum's."""
        fallback = [[1.0, 2.0**-53], [1.0, -1.0], [-0.0], [1e-300, 3e-300],
                    [math.inf, 1.0], [math.nan, 2.0], [1e300, 1e300]]
        windows = [w for f in fallback for w in (f, [0.1, 0.2, 0.3])]
        windows += [[1.0], [-2.5, 1e-200]]
        summed = []

        def counting(terms):
            summed.append(list(terms))
            return stable_sum(terms)

        monkeypatch.setattr(numkernel, "stable_sum", counting)
        got = self._run(windows)
        assert got == _fsums(windows)
        assert [[v.hex() for v in w] for w in summed] == [
            [v.hex() for v in w] for w in fallback]


class TestSeededStream:
    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64) + 5])
    def test_seed_outside_key_word_rejected(self, seed):
        """Masking to 64 bits would give these the stream of another seed."""
        with pytest.raises(DomainError, match="seed"):
            seeded_stream(seed, 0)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_key_word_bounds_accepted(self, seed):
        assert 0.0 <= seeded_stream(seed, 0).random() < 1.0
