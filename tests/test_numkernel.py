"""Special-function and summation primitives against independent oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from minimax_multinom import (
    DomainError,
    log_beta_segment,
    log_multinomial,
    log_multivariate_beta,
    stable_sum,
)
import minimax_multinom.numkernel as numkernel
from minimax_multinom.numkernel import seeded_stream, window_fsums

mpmath.mp.dps = 40


class TestLogMultivariateBeta:
    def test_trivial_values(self):
        assert log_multivariate_beta((1, 1)) == pytest.approx(0.0, abs=1e-15)
        assert log_multivariate_beta((1, 1, 1)) == pytest.approx(math.log(0.5), rel=1e-14)
        assert log_multivariate_beta((0.5, 0.5)) == pytest.approx(math.log(math.pi), rel=1e-14)

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


class TestLogMultinomial:
    def test_factorizes_into_binomials(self):
        # C(N; x1, x2, x3) = C(N, x1) * C(N - x1, x2)
        lhs = log_multinomial(10, (3, 5, 2))
        rhs = math.log(math.comb(10, 3)) + math.log(math.comb(7, 5))
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_binomial_trivial_values(self):
        assert log_multinomial(5, (0, 5)) == 0.0
        assert log_multinomial(4, (2, 2)) == pytest.approx(math.log(6), rel=1e-15)

    def test_binomial_exact_bigint_oracle(self):
        """ln C(100, 50) against the exact integer binomial."""
        exact = math.log(math.comb(100, 50))
        assert log_multinomial(100, (50, 50)) == pytest.approx(exact, rel=1e-14)
        assert exact == pytest.approx(66.78384165201743, rel=1e-12)

    def test_binomial_gammaln_path_matches_exact(self):
        # N above the exact-integer cutoff
        got = log_multinomial(15000, (7500, 7500))
        exact = math.log(math.comb(15000, 7500))
        assert got == pytest.approx(exact, rel=1e-13)

    def test_binomial_domain(self):
        with pytest.raises(DomainError):
            log_multinomial(4, (5, -1))
        with pytest.raises(DomainError):
            log_multinomial(-1, (0, -1))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_multinomial(5, (3, 3))


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
        assert math.exp(log_beta_segment(1, 1, 0, 1)) == pytest.approx(1.0, rel=1e-14)

    def test_full_interval_equals_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=2))
            full = math.exp(log_beta_segment(a, b, 0.0, 1.0))
            assert full == pytest.approx(
                math.exp(log_multivariate_beta((a, b))), rel=1e-12
            )

    def test_polynomial_antiderivative_oracle(self):
        """theta (1-theta)^2 integrates to 11/192 over [1/4, 3/4]."""
        exact = Fraction(11, 192)
        got = math.exp(log_beta_segment(2, 3, 0.25, 0.75))
        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_tiny_upper_tail_against_mpmath(self):
        # mass ~ 2e-9: the naive incomplete-beta difference loses 8 digits
        a, b, s = 1.9738166521794576, 9.46658612880907, 0.9048047988252217
        ref = float(mpmath.quad(
            lambda t: t ** (a - 1) * (1 - t) ** (b - 1), [mpmath.mpf(s), 1]
        ))
        got = math.exp(log_beta_segment(a, b, s, 1.0))
        assert got == pytest.approx(ref, rel=1e-11)

    def test_interior_sliver_against_mpmath(self):
        a, b = 3.0, 40.0
        s, t = 0.6, 0.62  # deep right tail, interior slice
        ref = float(mpmath.quad(
            lambda u: u ** (a - 1) * (1 - u) ** (b - 1), [mpmath.mpf(s), mpmath.mpf(t)]
        ))
        assert math.exp(log_beta_segment(a, b, s, t)) == pytest.approx(ref, rel=1e-9)

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
