"""Prior comparison, minimax bracket, and optimal-concentration search."""

import math

import pytest

import minimax_multinom.analysis as analysis
from minimax_multinom import (
    ALPHA_MINIMAX,
    DomainError,
    EpsilonSchedule,
    ModelSpec,
    ScheduleMode,
    SymmetricPrior,
    bayes_risk,
    compare_priors,
    minimax_sandwich,
    optimal_alpha_search,
    prior_label,
    truncation_bayes_gap,
)

SCHED = EpsilonSchedule(1.0, 0.73, ScheduleMode.MINIMAX)


class TestCompareRows:
    def test_row_contract(self):
        priors = [SymmetricPrior.jeffreys(2), SymmetricPrior.uniform(2),
                  SymmetricPrior.minimax(2)]
        rows = compare_priors(2, [16, 32, 64], SCHED, priors, grid_size=48)
        assert len(rows) == 9
        labels = [r.prior_label for r in rows]
        assert labels[:3] == ["jeffreys"] * 3 and labels[-3:] == ["minimax"] * 3
        for r in rows:
            assert r.excess_over_t1 == r.sup_risk - 0.5 / r.N
            assert r.scaled_excess == r.N**2 * r.excess_over_t1
            assert r.eps == pytest.approx(float(r.N) ** -0.73, rel=1e-15, abs=0)

    def test_reproducible_bit_for_bit(self):
        priors = [SymmetricPrior.minimax(2)]
        a = compare_priors(2, [32, 64], SCHED, priors, grid_size=48, seed=5)
        b = compare_priors(2, [32, 64], SCHED, priors, grid_size=48, seed=5)
        assert a == b

    def test_minimax_excess_negative_and_jeffreys_diverging(self):
        priors = [SymmetricPrior.jeffreys(2), SymmetricPrior.minimax(2)]
        rows = compare_priors(2, [64, 256], SCHED, priors, grid_size=128)
        jeff = [r for r in rows if r.prior_label == "jeffreys"]
        mini = [r for r in rows if r.prior_label == "minimax"]
        for r in mini:
            assert r.excess_over_t1 < 0
        # divergence witness at the largest N
        last = jeff[-1]
        assert last.scaled_excess >= (1.0 / 24.0) / last.eps * 0.8
        assert jeff[1].scaled_excess > jeff[0].scaled_excess

    def test_empty_priors(self):
        with pytest.raises(DomainError):
            compare_priors(2, [16], SCHED, [])

    def test_labels(self):
        assert prior_label(0.5) == "jeffreys"
        assert prior_label(1.0) == "uniform"
        assert prior_label(ALPHA_MINIMAX) == "minimax"
        assert prior_label(2.25) == "alpha-2.25"


class TestSandwich:
    def test_bracket_order_and_schema(self):
        res = minimax_sandwich(2, [8, 16, 32], SCHED, grid_size=48)
        assert len(res.rows) == 3
        for row in res.rows:
            assert row.upper >= row.lower - 1e-12
            assert row.gap_scaled == row.N**2 * (row.upper - row.lower)
            assert row.k == 2
        assert len(res.crosscheck_scaled) == 3

    def test_requires_minimax_window(self):
        bad = EpsilonSchedule(1.0, 0.6, ScheduleMode.SECOND_ORDER)
        with pytest.raises(DomainError):
            minimax_sandwich(2, [8, 16], bad)

    def test_one_bayes_risk_per_n(self, monkeypatch):
        """Each N integrates one Bayes risk, the full predictive's; the
        lower end, the truncated predictive's Bayes risk, is that risk less
        the exact gap."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].N)
            return bayes_risk(*args, **kwargs)

        monkeypatch.setattr(analysis, "bayes_risk", counting)
        res = minimax_sandwich(2, [8, 16, 24], SCHED, grid_size=48)
        assert calls == [8, 16, 24]
        for row in res.rows:
            prior, model = SymmetricPrior.minimax(2), ModelSpec(2, row.N)
            trunc = SCHED.truncation(row.N, 2)
            assert row.lower == (bayes_risk(prior, model, trunc)
                                 - truncation_bayes_gap(prior, trunc, model))

    def test_deterministic(self):
        a = minimax_sandwich(2, [8, 16, 24], SCHED, grid_size=48)
        b = minimax_sandwich(2, [8, 16, 24], SCHED, grid_size=48)
        assert a == b


class TestOptimalAlpha:
    def test_near_asymptotic_optimum(self):
        """Grid minimizer lands within 0.2 of 1 + 1/sqrt(6) by N = 512 (a
        soft, descriptive criterion: no finite-N optimality is claimed)."""
        grid = [0.8 + 0.1 * i for i in range(13)]
        alpha_star, curve = optimal_alpha_search(2, 512, SCHED, grid,
                                                 grid_size=96)
        assert abs(alpha_star - ALPHA_MINIMAX) <= 0.2
        assert len(curve) == len(grid)
        assert all(math.isfinite(v) for _, v in curve)

    def test_small_n_recorded_without_assertion(self):
        """At tiny N the minimizer is just recorded; nothing is claimed."""
        alpha_star, curve = optimal_alpha_search(2, 4, SCHED,
                                                 [0.5, 1.0, 1.5, 2.0, 2.5],
                                                 grid_size=32)
        assert alpha_star in [a for a, _ in curve]

    def test_validation(self):
        with pytest.raises(DomainError, match="need at least one alpha"):
            optimal_alpha_search(2, 16, SCHED, [])
        with pytest.raises(DomainError, match="must be positive"):
            optimal_alpha_search(2, 16, SCHED, [-0.5, 1.0])
