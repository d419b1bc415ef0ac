"""Model types, their invariants, and the truncated-prior predictive."""

import math

import pytest

from minimax_multinom import (
    ALPHA_MINIMAX,
    DomainError,
    EpsilonSchedule,
    ModelSpec,
    PriorSpec,
    ScheduleMode,
    SymmetricPrior,
    TruncatedPredictiveTable,
    TruncatedSimplex,
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
        # finite parameters whose total overflows
        with pytest.raises(DomainError):
            PriorSpec((1e308, 1e308))
        with pytest.raises(DomainError):
            SymmetricPrior(1e308, 2)

    def test_prior_total_not_settable(self):
        """A is always the compensated total of a: a passed A raises rather
        than being silently replaced."""
        with pytest.raises(TypeError):
            PriorSpec((1.0, 2.0), 5.0)
        with pytest.raises(TypeError):
            PriorSpec((1.0, 2.0), A=3.0)

    def test_symmetric_constants(self):
        assert SymmetricPrior.jeffreys(3).alpha == 0.5
        assert SymmetricPrior.uniform(3).alpha == 1.0
        assert SymmetricPrior.minimax(3).alpha == ALPHA_MINIMAX
        assert ALPHA_MINIMAX == pytest.approx(1.4082482904638631, rel=1e-15, abs=0)
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
        assert sched.eps(16) == pytest.approx(0.5, rel=1e-15, abs=0)
        for N in (0, -4):
            with pytest.raises(DomainError):
                sched.eps(N)
        with pytest.raises(DomainError):
            sched.truncation(16, 2)  # eps = 0.5 not < 1/2

    def test_truncation_names_n(self):
        """A floor c*N^-r at or above 1/k is reported at its N; a floor that
        underflows to 0, and k below 2, keep TruncatedSimplex's messages."""
        sched = EpsilonSchedule(2.0, 0.5, ScheduleMode.SECOND_ORDER)
        with pytest.raises(DomainError, match=r"^at N=16 the floor c\*N\^-r = "
                           r"0\.5 is not below 1/k = 1/2$"):
            sched.truncation(16, 2)
        with pytest.raises(DomainError, match="got eps=0.0, k=3"):
            EpsilonSchedule(5e-324, 0.73).truncation(4, 3)
        with pytest.raises(DomainError, match="at least two categories"):
            sched.truncation(16, 1)


def _predictives(alpha, trunc, model, x) -> tuple:
    """(full, truncated) predictive masses of every category after counts
    x: (x_i + alpha)/(N + k alpha), and that times e^r_i(x), r_i the
    truncated-predictive table's log ratio I(x + alpha + e_i)/I(x + alpha)
    of retained fractions."""
    table = TruncatedPredictiveTable(alpha, trunc, model)
    row = [tuple(c) for c in table.comps.tolist()].index(tuple(x))
    full = [(v + alpha.alpha) / (model.N + model.k * alpha.alpha) for v in x]
    return full, [q * math.exp(r) for q, r in zip(full, table.log_ratio[row])]


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
            full, restricted = _predictives(alpha, trunc, model, x)
            for i in range(2):
                assert restricted[i] == pytest.approx(full[i], rel=0, abs=tol)
        # the boundary count really is Theta(eps), not o(eps)
        full, restricted = _predictives(alpha, trunc, model, (4, 0))
        assert abs(restricted[0] - full[0]) > eps / 10

    def test_closed_form_segment_ratio(self):
        """k=2, N=1, x=(1,0), alpha=1, eps=1/4: the value is
        (2/3) * [I(3,1)/I(2,1)] = 13/24 by polynomial antiderivatives."""
        _, (val, _) = _predictives(SymmetricPrior.uniform(2),
                                   TruncatedSimplex(2, 0.25), ModelSpec(2, 1),
                                   (1, 0))
        assert val == pytest.approx(13.0 / 24.0, rel=1e-10, abs=0)
        # same number assembled from raw segments
        seg = lambda a, b: math.exp(log_beta_segment(a, b, 0.25, 0.75))
        manual = (2.0 / 3.0) * (seg(3, 1) / (1 / 3)) / (seg(2, 1) / (1 / 2))
        assert val == pytest.approx(manual, rel=1e-10, abs=0)

    def test_symmetry(self):
        _, (val0, val1) = _predictives(SymmetricPrior.minimax(2),
                                       TruncatedSimplex(2, 0.1), ModelSpec(2, 4),
                                       (2, 2))
        assert val0 == pytest.approx(val1, rel=1e-12, abs=0)

    def test_sums_to_one(self):
        _, restricted = _predictives(SymmetricPrior(1.3, 3),
                                     TruncatedSimplex(3, 0.08), ModelSpec(3, 5),
                                     (2, 2, 1))
        assert abs(sum(restricted) - 1.0) <= 1e-13
