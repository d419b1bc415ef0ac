"""Moment polynomials: recurrence vs closed forms vs brute-force summation.

The strongest check is exact: the recurrence output evaluated in rational
arithmetic equals the rational probability-mass summation digit for digit.
Floating-point evaluations are then compared against the exact values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from minimax_multinom import (
    DomainError,
    EpsilonSchedule,
    ScheduleMode,
    lemma3_bound_check,
    moment_closed_form,
    moment_pmf_oracle,
    moment_pmf_oracle_exact,
    moment_ratio_bound_check,
    moment_recurrence,
)
from minimax_multinom.numkernel import log_binomial_row

POLYS = moment_recurrence(12)


class TestRecurrenceStructure:
    def test_base_cases(self):
        assert POLYS[0].coeffs == {0: (1,)}
        assert POLYS[1].coeffs == {}
        assert POLYS[2].coeffs == {1: (1, -1)}  # 1 - theta

    def test_printed_leading_coefficients(self):
        """The explicit leading polynomials of orders 6, 7, 8."""
        assert POLYS[6].coeffs[3] == (15, -45, 45, -15)          # 15(1-t)^3
        assert POLYS[6].coeffs[2] == (25, -180, 415, -390, 130)  # 5(1-t)^2(5-26t+26t^2)
        assert POLYS[7].coeffs[3] == (105, -525, 945, -735, 210) # 105(1-t)^3(1-2t)
        assert POLYS[8].coeffs[4] == (105, -420, 630, -420, 105) # 105(1-t)^4

    def test_power_ranges(self):
        """mu_{2l-1} uses powers 1..l-1, mu_{2l} uses 1..l (m >= 2)."""
        for l in range(2, 7):
            assert set(POLYS[2 * l - 1].coeffs) == set(range(1, l))
            assert set(POLYS[2 * l].coeffs) == set(range(1, l + 1))

    def test_integer_coefficients(self):
        for poly in POLYS:
            for coeffs in poly.coeffs.values():
                assert all(isinstance(c, int) for c in coeffs)

    def test_m_max_validation(self):
        with pytest.raises(DomainError):
            moment_recurrence(1)


class TestExactAgreement:
    """Recurrence output == brute-force mass summation, in exact rationals."""

    @pytest.mark.parametrize("m", range(13))
    def test_exact_equality(self, m):
        for N, theta in ((7, Fraction(2, 5)), (13, Fraction(1, 7)),
                         (30, Fraction(9, 11))):
            assert POLYS[m].evaluate_exact(N, theta) == \
                moment_pmf_oracle_exact(m, N, theta)

    def test_odd_moments_vanish_at_half_exactly(self):
        for m in range(3, 13, 2):
            assert POLYS[m].evaluate_exact(10, Fraction(1, 2)) == 0

    def test_float_evaluation_precision(self):
        """Float evaluation stays within 1e-10 of the exact value."""
        rng = np.random.default_rng(0x5EED)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(2, 13))
            N = int(rng.integers(1, 31))
            theta = Fraction(float(rng.uniform(0.05, 0.95))).limit_denominator(2**30)
            exact = float(moment_pmf_oracle_exact(m, N, theta))
            got = float(POLYS[m].evaluate(N, float(theta)))
            worst = max(worst, abs(got - exact) / max(abs(exact), 1e-300))
        assert worst <= 1e-10

    def test_float_pmf_oracle_consistency(self):
        # the float oracle agrees with the exact one away from cancellation
        assert moment_pmf_oracle(4, 20, 0.3) == pytest.approx(
            float(moment_pmf_oracle_exact(4, 20, Fraction(3, 10))), rel=1e-12, abs=0)


class TestClosedForms:
    def test_low_orders(self):
        assert moment_closed_form(0, 9, 0.4) == 1.0
        assert moment_closed_form(1, 9, 0.4) == 0.0
        assert moment_closed_form(2, 9, 0.4) == pytest.approx(9 * 0.4 * 0.6,
                                                              rel=1e-15, abs=0)
        assert moment_closed_form(3, 11, 0.5) == 0.0

    def test_fourth_moment_hand_value(self):
        # 3 (N t (1-t))^2 + N t (1-t) (1 - 6t + 6t^2) at N=10, t=0.3
        assert moment_closed_form(4, 10, 0.3) == pytest.approx(12.684, rel=1e-12, abs=0)

    def test_fifth_moment_against_pmf(self):
        got = moment_closed_form(5, 7, 0.4)
        ref = float(moment_pmf_oracle_exact(5, 7, Fraction(2, 5)))
        assert got == pytest.approx(ref, rel=1e-10, abs=0)

    def test_matches_recurrence_everywhere(self):
        """Closed forms (orders <= 8) against the recurrence, 200 draws."""
        rng = np.random.default_rng(0x5EED + 1)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(0, 9))
            N = float(rng.uniform(1, 100))
            t = float(rng.uniform(0.02, 0.98))
            a = moment_closed_form(m, N, t)
            b = float(POLYS[m].evaluate(N, t))
            if b == 0.0:
                worst = max(worst, abs(a - b))
            else:
                worst = max(worst, abs(a - b) / abs(b))
        assert worst <= 1e-11

    def test_above_eight_delegates_to_recurrence(self):
        assert moment_closed_form(10, 14, 0.27) == pytest.approx(
            float(POLYS[10].evaluate(14, 0.27)), rel=1e-14, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_closed_form(-1, 5, 0.5)
        with pytest.raises(DomainError):
            moment_closed_form(2, 5, 1.0)
        for N in (-3, -1e-9, math.nan):
            with pytest.raises(DomainError, match="N must be nonnegative"):
                moment_closed_form(2, N, 0.3)


class TestPrettyPrinter:
    def test_golden_strings(self):
        assert POLYS[1].pretty() == "mu_1 = 0"
        assert POLYS[2].pretty() == "mu_2 = (N*t)*(1 -1*t)"
        assert POLYS[4].pretty() == (
            "mu_4 = (N*t)^2*(3 -6*t +3*t^2) + (N*t)*(1 -7*t +12*t^2 -6*t^3)"
        )


SCHEDULE = EpsilonSchedule(1.0, 0.6, ScheduleMode.SECOND_ORDER)
DEEP_SWEEP = [1024, 2048, 4096, 8192]


class TestRatioBounds:
    """Scaled moment ratios stay bounded along the floor schedule."""

    def test_first_order(self):
        odd, even = moment_ratio_bound_check(1, SCHEDULE, DEEP_SWEEP, grid_points=512)
        # |mu_1| / (N theta)^0 is identically zero
        assert all(s == 0.0 for _, _, s in odd.rows)
        assert odd.passed
        # mu_2 / (N theta) = 1 - theta <= 1
        assert even.passed
        assert all(s <= 1.0 + 1e-12 for _, _, s in even.rows)

    def test_second_order(self):
        odd, even = moment_ratio_bound_check(2, SCHEDULE, DEEP_SWEEP, grid_points=512)
        assert odd.passed and even.passed
        # |mu_3|/(N theta) = (1-t)|1-2t| <= 1, maximized near the floor
        assert all(s <= 1.0 + 1e-12 for _, _, s in odd.rows)

    def test_third_order(self):
        odd, even = moment_ratio_bound_check(3, SCHEDULE, DEEP_SWEEP, grid_points=512)
        assert odd.passed and even.passed

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_ratio_bound_check(0, SCHEDULE, [16])


class TestLemma3Bound:
    """(N theta)^l E[-w^(2l+1)/(1+w)] stays bounded along the schedule."""

    def test_sign_at_l_zero(self):
        # E[-w/(1+w)] = -E[w] + E[w^2/(1+w)] >= 0 since E[w] = 0
        rep = lemma3_bound_check(0, 1.0, SCHEDULE, [64, 128, 256, 512],
                                 grid_points=256)
        assert rep.passed
        assert all(s >= -1e-13 for _, _, s in rep.rows)

    def test_exact_rational_cross_check(self):
        """One point recomputed in exact rational arithmetic."""
        N, a, l = 20, 1, 1
        theta = Fraction(1, 2)
        total = Fraction(0)
        for x in range(N + 1):
            pmf = Fraction(math.comb(N, x), 2**N)
            w = Fraction(x - 10, 10 + a)
            total += pmf * (-(w ** (2 * l + 1)) / (1 + w))
        exact = float(total * (N * theta) ** l)

        # the same quantity the way the scan computes it
        x = np.arange(N + 1)
        logpmf = (log_binomial_row(N)
                  + x * math.log(0.5) + (N - x) * math.log(0.5))
        w = (x - N * 0.5) / (N * 0.5 + a)
        val = float(np.sum(np.exp(logpmf) * (-(w ** 3) / (1 + w)))) * (N * 0.5)
        assert val == pytest.approx(exact, rel=1e-12, abs=0)

    def test_trend_passes(self):
        rep = lemma3_bound_check(1, 0.7, SCHEDULE, [128, 256, 512, 1024],
                                 grid_points=512)
        assert rep.passed

    def test_degenerate_theta_one(self):
        # the grid includes theta = 1 where w = 0 surely; must not blow up
        rep = lemma3_bound_check(1, 2.0, SCHEDULE, [32], grid_points=64)
        assert math.isfinite(rep.rows[0][2])

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma3_bound_check(-1, 1.0, SCHEDULE, [16])
        with pytest.raises(DomainError):
            lemma3_bound_check(1, 0.0, SCHEDULE, [16])
