"""Expansion coefficients: double-entry checks and remainder behavior."""

import math

import numpy as np
import pytest
from reference_checks import minimax_prior_expansion

import minimax_multinom.expansion as expansion_module
from minimax_multinom import (
    ALPHA_MINIMAX,
    SQRT6,
    CheckFailure,
    DomainError,
    EpsilonSchedule,
    ModelSpec,
    PriorSpec,
    ScheduleMode,
    SymmetricPrior,
    ThetaPoint,
    expansion_error_profile,
    minimax_alpha_identities,
    minimax_excess_coefficient,
    risk_coordinatewise,
    risk_expansion,
)
from minimax_multinom.expansion import EXPANSION_TABLE, _poly
from minimax_multinom.numkernel import seeded_stream
from minimax_multinom.risk import CoordinateRiskEvaluator, SeparableMaximizer

THETAS = {
    2: [ThetaPoint.uniform(2), ThetaPoint.complete([0.2]),
        ThetaPoint.complete([0.05])],
    3: [ThetaPoint.uniform(3), ThetaPoint.complete([0.2, 0.3])],
    4: [ThetaPoint.uniform(4), ThetaPoint.complete([0.1, 0.2, 0.3])],
}


class TestTermAgreement:
    """The symmetric-minimax specialization re-derives the general table."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("N", [10, 100, 1000])
    def test_per_term_match(self, k, N):
        prior = SymmetricPrior.minimax(k).expand()
        model = ModelSpec(k, N)
        for theta in THETAS[k]:
            general = risk_expansion(prior, model, theta)
            special = minimax_prior_expansion(k, N, theta)
            for name in ("t1", "t2", "t3", "t4"):
                a, b = getattr(general, name), getattr(special, name)
                assert abs(a - b) <= 1e-13 * max(abs(a), abs(b)), name

    def test_partial_sums(self):
        terms = risk_expansion(SymmetricPrior.uniform(2).expand(),
                               ModelSpec(2, 50), ThetaPoint.uniform(2))
        assert terms.t1 == pytest.approx(1.0 / 100.0, rel=1e-15, abs=0)
        assert terms.upto(1) == terms.t1
        assert terms.upto(4) == pytest.approx(
            terms.t1 + terms.t2 + terms.t3 + terms.t4, rel=1e-15, abs=0)
        with pytest.raises(DomainError):
            terms.upto(5)


class TestIdentities:
    def test_all_pass(self):
        report = minimax_alpha_identities()
        # scales with the lhs sizes
        assert max(r[3] for r in report.rows) <= 1e-13 * 300
        names = [r[0] for r in report.rows]
        assert "quadratic(ah) = 0" in names
        assert any("k=8" in n for n in names)

    def test_minimax_concentration_value(self):
        assert ALPHA_MINIMAX == pytest.approx(1.0 + 1.0 / math.sqrt(6.0),
                                              rel=1e-16, abs=0)

    def test_other_quadratic_root(self):
        other = 1.0 - 1.0 / SQRT6
        assert abs(6 * other**2 - 12 * other + 5) <= 1e-13

    def test_k2_excess_coefficient(self):
        assert minimax_excess_coefficient(2) == pytest.approx(
            -(15 + 4 * SQRT6) / 12, rel=1e-14, abs=0)
        assert minimax_excess_coefficient(2) == pytest.approx(-2.066496580927726,
                                                              rel=1e-12, abs=0)

    def test_violation_reported_by_name(self):
        with pytest.raises(CheckFailure, match="identity violated"):
            minimax_alpha_identities(rtol=1e-18)


class TestCoefficientTable:
    def test_uniform_prior_order2_coefficient(self):
        """At concentration one the 1/theta coefficient is -1/12: the
        uniform prior also fails to cancel the boundary term, with the
        opposite sign to the Jeffreys one."""
        coeffs, den = EXPANSION_TABLE[2]["theta_pows"][1]
        assert _poly(coeffs, 1.0) / den == pytest.approx(-1.0 / 12.0, rel=1e-15, abs=0)

    def test_jeffreys_order2_specialization(self):
        """a = 1/2: the 1/theta coefficient is 1/24 and the constant is
        -(3k^2 - 2)/24."""
        coeffs, den = EXPANSION_TABLE[2]["theta_pows"][1]
        assert _poly(coeffs, 0.5) / den == pytest.approx(1.0 / 24.0, rel=1e-15, abs=0)
        for k in (2, 3, 5):
            got = EXPANSION_TABLE[2]["const"](k * 0.5, k)
            assert got == pytest.approx(-(3 * k * k - 2) / 24.0, rel=1e-14, abs=0)

    def test_jeffreys_full_term_k2(self):
        theta = ThetaPoint.complete([0.3])
        terms = risk_expansion(SymmetricPrior.jeffreys(2).expand(),
                               ModelSpec(2, 10), theta)
        expect = (1.0 / 100.0) * (
            1 / (24 * 0.3) + 1 / (24 * 0.7) - 5.0 / 12.0
        )
        assert terms.t2 == pytest.approx(expect, rel=1e-13, abs=0)

    def test_permutation_equivariance(self):
        prior = PriorSpec((0.5, 1.0, 2.0))
        theta = ThetaPoint.complete([0.2, 0.3])
        perm = (1, 2, 0)
        a = risk_expansion(prior, ModelSpec(3, 20), theta)
        b = risk_expansion(PriorSpec(tuple(prior.a[p] for p in perm)),
                           ModelSpec(3, 20),
                           ThetaPoint(tuple(theta.theta[p] for p in perm)))
        for name in ("t1", "t2", "t3", "t4"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-14, abs=0)


class TestSecondOrderConvergence:
    def test_excess_converges_to_second_term(self):
        """(exact - (k-1)/(2N)) * N^2 approaches the N^-2 coefficient at a
        fixed interior point; within 5% by N = 4096."""
        for prior in (SymmetricPrior.minimax(2), SymmetricPrior.jeffreys(2)):
            p = prior.expand()
            theta = ThetaPoint.complete([0.5])
            model = ModelSpec(2, 4096)
            exact = risk_coordinatewise(p, model, theta).exact_risk
            terms = risk_expansion(p, model, theta)
            lhs = (exact - terms.t1) * 4096.0**2
            rhs = terms.t2 * 4096.0**2
            assert abs(lhs - rhs) <= 0.05 * abs(rhs)


class TestErrorProfile:
    def test_pointwise_fourth_order_slope(self):
        """At a fixed interior point the order-4 residual decays like N^-5:
        log-log slope within [-5.5, -4.5] over a decade of N."""
        Ns = [16, 24, 32, 48, 64, 96, 128, 160]
        theta = ThetaPoint.complete([0.5])
        for prior in (SymmetricPrior.uniform(2), SymmetricPrior.jeffreys(2),
                      SymmetricPrior.minimax(2)):
            p = prior.expand()
            res = []
            for N in Ns:
                model = ModelSpec(2, N)
                exact = risk_coordinatewise(p, model, theta).exact_risk
                res.append(abs(exact - risk_expansion(p, model, theta).total))
            slope = np.polyfit(np.log(Ns), np.log(res), 1)[0]
            assert -5.5 <= slope <= -4.5

    def test_order1_residual_tracks_second_term(self):
        """Truncating after the leading term leaves a residual of the size
        of the N^-2 term at the maximizer."""
        prior = SymmetricPrior.jeffreys(2).expand()
        sched = EpsilonSchedule(1.0, 0.73, ScheduleMode.MINIMAX)
        (row,) = expansion_error_profile(prior, sched, [1024],
                                         truncation_order=1, grid_size=64)
        terms = risk_expansion(prior, ModelSpec(2, 1024),
                               ThetaPoint(row.argmax_theta))
        ratio = row.scaled_residual / abs(terms.t2 * 1024.0**2)
        assert 0.5 <= ratio <= 2.0

    def test_reduced_variant_second_order_trend(self):
        """The boundary-reduced expansion has o(N^-2) error on admissible
        schedules; with eps_N = N^(-0.6) the N^2-scaled sup residual falls
        clearly across a 16-fold N sweep.  (At decay 0.73 the scaled
        residual only shrinks like N^-0.08, numerically invisible.)"""
        sched = EpsilonSchedule(1.0, 0.6, ScheduleMode.SECOND_ORDER)
        prior = SymmetricPrior.minimax(2).expand()
        rows = expansion_error_profile(prior, sched, [256, 1024, 4096],
                                       truncation_order=4, variant="reduced",
                                       grid_size=96)
        scaled = [r.scaled_residual for r in rows]
        assert scaled[1] < 0.6 * scaled[0]
        assert scaled[2] < 0.6 * scaled[1]

    def test_full_fourth_order_scaled_remainder_bounded(self):
        """N^5 eps^4-scaled sup residual shows no growth, matching the
        stated remainder order."""
        sched = EpsilonSchedule(1.0, 0.73, ScheduleMode.MINIMAX)
        prior = SymmetricPrior.minimax(2).expand()
        rows = expansion_error_profile(prior, sched, [64, 128, 256],
                                       truncation_order=4, grid_size=96)
        scaled = [r.scaled_residual for r in rows]
        assert scaled[-1] <= 1.05 * scaled[0]

    @pytest.mark.parametrize("a", [(0.7, 1.9), (0.7, 1.9, 3.1)])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_residual_matches_risk_expansion(self, a, order):
        """At its argmax the profile's residual equals |exact risk -
        risk_expansion truncated at the same order| to 1e-14 of the risk:
        both evaluate the same tabulated terms."""
        sched = EpsilonSchedule(1.0, 0.6, ScheduleMode.SECOND_ORDER)
        prior = PriorSpec(a)
        rows = expansion_error_profile(prior, sched, [48, 96],
                                       truncation_order=order, grid_size=32)
        for row in rows:
            model = ModelSpec(prior.k, row.N)
            theta = ThetaPoint(row.argmax_theta)
            exact = risk_coordinatewise(prior, model, theta).exact_risk
            terms = risk_expansion(prior, model, theta)
            residual = abs(exact - terms.upto(order))
            assert abs(residual - row.sup_abs_residual) <= 1e-14 * exact

    def test_validation(self):
        sched = EpsilonSchedule(1.0, 0.6, ScheduleMode.SECOND_ORDER)
        prior = SymmetricPrior.uniform(2).expand()
        with pytest.raises(DomainError):
            expansion_error_profile(prior, sched, [64, 32])
        with pytest.raises(DomainError):
            expansion_error_profile(prior, sched, [32], variant="bogus")
        with pytest.raises(DomainError):
            expansion_error_profile(prior, sched, [32], truncation_order=5)


def _per_coordinate_residual(prior, N, order, variant, i, t):
    """The profile's residual for one coordinate index, term by term: kept
    as the reference for the closure's per-point index."""
    ev = CoordinateRiskEvaluator(prior, ModelSpec(prior.k, N))
    coord_terms, _ = expansion_module._kept_terms(prior, order, variant)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    expansion = np.zeros_like(t)
    for o, p, poly, den in coord_terms[i]:
        expansion += poly / (den * t**p) / float(N) ** o
    return ev.coordinate(i, t) - expansion


class TestResidualClosure:
    """expansion_error_profile hands the search a residual h(i, t) that, like
    the kernel, takes one coordinate index or one per point."""

    @pytest.mark.parametrize("variant", ["full", "reduced"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_per_point_index_equals_per_coordinate(self, monkeypatch, order,
                                                   variant):
        closures = []

        class Capture(SeparableMaximizer):
            def maximize(self, grid_size=256):
                closures.append(self.h)
                return 0.0, ThetaPoint.uniform(self.k), ()

        monkeypatch.setattr(expansion_module, "SeparableMaximizer", Capture)
        prior, N = PriorSpec((0.4, 1.3, 2.2)), 40
        expansion_error_profile(prior, EpsilonSchedule(), [N],
                                truncation_order=order, variant=variant)
        (h,) = closures
        rng = seeded_stream(5, order)
        t = np.concatenate([rng.uniform(1e-4, 1 - 1e-4, size=60), [0.5]])
        i = rng.integers(0, 3, size=t.size)
        want = [_per_coordinate_residual(prior, N, order, variant, j, [tj])[0]
                for j, tj in zip(i.tolist(), t)]
        assert np.array_equal(h(i, t), want)
        for j in range(3):
            assert np.array_equal(
                h(j, t), _per_coordinate_residual(prior, N, order, variant, j, t))
