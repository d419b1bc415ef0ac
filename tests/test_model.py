"""Model types, predictive densities, and their invariants."""

import math

import numpy as np
import pytest

from minimax_multinom import (
    ALPHA_MINIMAX,
    DomainError,
    EpsilonSchedule,
    ModelSpec,
    Observation,
    OutcomeLabel,
    PriorSpec,
    ScheduleMode,
    SymmetricPrior,
    TruncatedSimplex,
    predictive_density,
    truncated_predictive_density,
)
from minimax_multinom.numkernel import log_beta_segment


class TestTypes:
    def test_model_validation(self):
        with pytest.raises(DomainError):
            ModelSpec(1, 5)
        with pytest.raises(DomainError):
            ModelSpec(2, -1)
        ModelSpec(2, 0)  # prior-predictive case is allowed

    def test_prior_total_cached(self):
        p = PriorSpec((0.5, 1.5, 2.0))
        assert p.A == 4.0
        assert p.k == 3
        with pytest.raises(DomainError):
            PriorSpec((1.0, 0.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                PriorSpec((1.0, bad))
            with pytest.raises(DomainError):
                SymmetricPrior(bad, 2)

    def test_symmetric_constants(self):
        assert SymmetricPrior.jeffreys(3).alpha == 0.5
        assert SymmetricPrior.uniform(3).alpha == 1.0
        assert SymmetricPrior.minimax(3).alpha == ALPHA_MINIMAX
        assert ALPHA_MINIMAX == pytest.approx(1.4082482904638631, rel=1e-15)
        # the reciprocal bounds the minimax schedule window from below
        assert 1.0 / ALPHA_MINIMAX == pytest.approx(0.7101, abs=5e-5)

    def test_truncated_simplex(self):
        TruncatedSimplex(3, 0.1)
        with pytest.raises(DomainError):
            TruncatedSimplex(3, 0.34)
        with pytest.raises(DomainError):
            TruncatedSimplex(3, 0.0)

    def test_schedule_windows(self):
        EpsilonSchedule(1.0, 0.73, ScheduleMode.MINIMAX)
        with pytest.raises(DomainError):
            EpsilonSchedule(1.0, 0.70, ScheduleMode.MINIMAX)
        with pytest.raises(DomainError):
            EpsilonSchedule(1.0, 0.76, ScheduleMode.SECOND_ORDER)
        with pytest.raises(DomainError):
            EpsilonSchedule(1.0, 1.0, ScheduleMode.EXPANSION)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                EpsilonSchedule(bad, 0.73, ScheduleMode.MINIMAX)
        sched = EpsilonSchedule(2.0, 0.5, ScheduleMode.SECOND_ORDER)
        assert sched.eps(16) == pytest.approx(0.5)
        for N in (0, -4):
            with pytest.raises(DomainError):
                sched.eps(N)
        with pytest.raises(DomainError):
            sched.truncation(16, 2)  # eps = 0.5 not < 1/2

    def test_observation(self):
        model = ModelSpec(3, 6)
        Observation((1, 2, 3)).check_against(model)
        with pytest.raises(DomainError):
            Observation((1, 2, 2)).check_against(model)
        with pytest.raises(DomainError):
            Observation((1, -1, 6))

    def test_outcome_label(self):
        OutcomeLabel(2).check_against(ModelSpec(3, 1))
        with pytest.raises(DomainError):
            OutcomeLabel(3).check_against(ModelSpec(3, 1))


class TestPredictiveDensity:
    def test_symmetric_case(self):
        val = predictive_density(
            SymmetricPrior.uniform(2).expand(), ModelSpec(2, 2),
            Observation((1, 1)), OutcomeLabel(0),
        )
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_jeffreys_hand_value(self):
        # (x_1 + 1/2) / (N + 1) = 1.5 / 2
        val = predictive_density(
            SymmetricPrior.jeffreys(2).expand(), ModelSpec(2, 1),
            Observation((1, 0)), OutcomeLabel(0),
        )
        assert val == pytest.approx(0.75, abs=1e-15)

    def test_no_data_reduces_to_prior_mean(self):
        prior = PriorSpec((0.5, 1.0, 2.5))
        model = ModelSpec(3, 0)
        for i in range(3):
            val = predictive_density(prior, model, Observation((0, 0, 0)),
                                     OutcomeLabel(i))
            assert val == pytest.approx(prior.a[i] / prior.A, rel=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            N = int(rng.integers(0, 12))
            a = tuple(np.exp(rng.uniform(-1, 1, size=k)))
            x = rng.multinomial(N, np.ones(k) / k)
            total = sum(
                predictive_density(PriorSpec(a), ModelSpec(k, N),
                                   Observation(tuple(x)), OutcomeLabel(i))
                for i in range(k)
            )
            assert abs(total - 1.0) <= 1e-15 * k

    def test_label_equivariance(self):
        prior = PriorSpec((0.4, 1.1, 2.5))
        model = ModelSpec(3, 6)
        x = (3, 1, 2)
        perm = (2, 0, 1)
        for i in range(3):
            direct = predictive_density(prior, model, Observation(x), OutcomeLabel(i))
            permuted = predictive_density(
                prior.permuted(perm), model,
                Observation(tuple(x[p] for p in perm)),
                OutcomeLabel(perm.index(i)),
            )
            assert permuted == pytest.approx(direct, rel=1e-15)

    def test_large_concentration_limit(self):
        """alpha -> inf forgets the data and tends to 1/k."""
        val = predictive_density(
            SymmetricPrior(1e8, 4).expand(), ModelSpec(4, 12),
            Observation((12, 0, 0, 0)), OutcomeLabel(0),
        )
        assert abs(val - 0.25) < 1e-7


class TestTruncatedPredictiveDensity:
    def test_vanishing_floor_recovers_full_predictive(self):
        """As eps -> 0 the integral ratio tends to one.  The rate depends on
        the count vector: interior counts leave only O(eps^2)-and-smaller
        truncation mass, while an all-in-one-cell count has posterior mass
        O(eps) beyond the opposite floor, so the difference is Theta(eps)
        there and no tighter."""
        alpha = SymmetricPrior.uniform(2)
        model = ModelSpec(2, 4)
        eps = 1e-6
        trunc = TruncatedSimplex(2, eps)
        for x, tol in (((2, 2), 1e-8), ((1, 3), 1e-8), ((4, 0), 6 * eps)):
            for i in range(2):
                full = predictive_density(alpha.expand(), model,
                                          Observation(x), OutcomeLabel(i))
                restricted = truncated_predictive_density(
                    alpha, trunc, model, Observation(x), OutcomeLabel(i)
                )
                assert restricted == pytest.approx(full, abs=tol)
        # the boundary count really is Theta(eps), not o(eps)
        worst = abs(
            truncated_predictive_density(alpha, trunc, model,
                                         Observation((4, 0)), OutcomeLabel(0))
            - predictive_density(alpha.expand(), model,
                                 Observation((4, 0)), OutcomeLabel(0))
        )
        assert worst > eps / 10

    def test_closed_form_segment_ratio(self):
        """k=2, N=1, x=(1,0), alpha=1, eps=1/4: the value is
        (2/3) * [I(3,1)/I(2,1)] = 13/24 by polynomial antiderivatives."""
        val = truncated_predictive_density(
            SymmetricPrior.uniform(2), TruncatedSimplex(2, 0.25),
            ModelSpec(2, 1), Observation((1, 0)), OutcomeLabel(0),
        )
        assert val == pytest.approx(13.0 / 24.0, rel=1e-10)
        # same number assembled from raw segments
        seg = lambda a, b: math.exp(log_beta_segment(a, b, 0.25, 0.75))
        manual = (2.0 / 3.0) * (seg(3, 1) / (1 / 3)) / (seg(2, 1) / (1 / 2))
        assert val == pytest.approx(manual, rel=1e-10)

    def test_symmetry(self):
        alpha = SymmetricPrior.minimax(2)
        val0 = truncated_predictive_density(
            alpha, TruncatedSimplex(2, 0.1), ModelSpec(2, 4),
            Observation((2, 2)), OutcomeLabel(0),
        )
        val1 = truncated_predictive_density(
            alpha, TruncatedSimplex(2, 0.1), ModelSpec(2, 4),
            Observation((2, 2)), OutcomeLabel(1),
        )
        assert val0 == pytest.approx(val1, rel=1e-12)

    def test_sums_to_one(self):
        alpha = SymmetricPrior(1.3, 3)
        trunc = TruncatedSimplex(3, 0.08)
        model = ModelSpec(3, 5)
        total = sum(
            truncated_predictive_density(alpha, trunc, model,
                                         Observation((2, 2, 1)), OutcomeLabel(i))
            for i in range(3)
        )
        assert abs(total - 1.0) <= 10 * 1e-10 * 10
