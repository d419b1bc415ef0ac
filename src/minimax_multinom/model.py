"""Multinomial observation model, Dirichlet priors, floor regions and
floor schedules.

The model: counts x = (x_1, ..., x_k) from N draws over k categories, with
cell probabilities theta on the simplex.  The quantity predicted is the next
single outcome y (one-hot over the k categories).  Under a Dirichlet prior
with parameters a the predictive mass of category i is (x_i + a_i)/(N + A),
A = sum(a); under the same prior restricted to the truncated simplex
{theta_i >= eps} the predictive picks up a ratio of truncated Dirichlet
integrals (risk.TruncatedPredictiveTable).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DomainError
# DEFAULT_SEED is re-exported as part of the model API
from .numkernel import DEFAULT_SEED, stable_sum

SQRT6 = math.sqrt(6.0)

#: Concentration of the symmetric Dirichlet prior whose predictive is
#: asymptotically minimax for one-step-ahead prediction.
ALPHA_MINIMAX = 1.0 + 1.0 / SQRT6
ALPHA_JEFFREYS = 0.5
ALPHA_UNIFORM = 1.0


@dataclass(frozen=True)
class ModelSpec:
    """Category count k and observed sample size N."""

    k: int
    N: int

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("need at least two categories")
        # N = 0 is allowed: the predictive degenerates to the prior mean,
        # which makes for cheap trivial-case testing
        if self.N < 0:
            raise DomainError("sample size must be nonnegative")


@dataclass(frozen=True)
class PriorSpec:
    """Dirichlet parameter vector a with its total A = sum(a) cached.

    A appears in every downstream formula, so it is computed once (with
    compensated summation) and reused verbatim everywhere.
    """

    a: tuple
    A: float = field(init=False)

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        if len(a) < 2:
            raise DomainError("need at least two categories")
        if not all(math.isfinite(v) and v > 0 for v in a):
            raise DomainError("Dirichlet parameters must be positive and finite")
        object.__setattr__(self, "a", a)
        try:
            object.__setattr__(self, "A", stable_sum(a))
        except OverflowError:
            raise DomainError(
                "Dirichlet parameters must have a finite total") from None

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def is_symmetric(self) -> bool:
        return all(v == self.a[0] for v in self.a)


@dataclass(frozen=True)
class SymmetricPrior:
    """Symmetric Dirichlet prior: common concentration alpha over k cells."""

    alpha: float
    k: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError("concentration must be positive and finite")
        if self.k < 2:
            raise DomainError("need at least two categories")
        if not math.isfinite(self.k * self.alpha):
            raise DomainError("Dirichlet parameters must have a finite total")

    @classmethod
    def jeffreys(cls, k: int) -> "SymmetricPrior":
        return cls(ALPHA_JEFFREYS, k)

    @classmethod
    def uniform(cls, k: int) -> "SymmetricPrior":
        return cls(ALPHA_UNIFORM, k)

    @classmethod
    def minimax(cls, k: int) -> "SymmetricPrior":
        return cls(ALPHA_MINIMAX, k)

    def expand(self) -> PriorSpec:
        return PriorSpec((self.alpha,) * self.k)


@dataclass(frozen=True)
class TruncatedSimplex:
    """The simplex with every coordinate floored at eps (0 < eps < 1/k)."""

    k: int
    eps: float

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("need at least two categories")
        if not (0.0 < self.eps < 1.0 / self.k):
            raise DomainError(f"need 0 < eps < 1/k, got eps={self.eps!r}, k={self.k}")


class ScheduleMode(enum.Enum):
    """Validity window of a floor schedule eps_N = c * N^(-r).

    EXPANSION      r < 1      N*eps_N -> inf; the four-order risk expansion
                              holds uniformly with remainder O(N^-5 eps^-4).
    SECOND_ORDER   r < 3/4    N^(3/4)*eps_N -> inf; boundary terms beyond
                              the leading 1/theta powers are o(N^-2).
    MINIMAX        1/alpha-hat < r < 3/4; additionally N^(1/alpha-hat) *
                              eps_N -> 0, so the prior-truncation penalty is
                              o(N^-2) and the minimax bracket collapses.
    """

    EXPANSION = "expansion"
    SECOND_ORDER = "second-order"
    MINIMAX = "minimax"


@dataclass(frozen=True)
class EpsilonSchedule:
    """Coordinate-floor schedule eps_N = c * N^(-r)."""

    c: float = 1.0
    r: float = 0.73
    mode: ScheduleMode = ScheduleMode.MINIMAX

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise DomainError("scale c must be positive and finite")
        mode = self.mode
        if isinstance(mode, str):
            mode = ScheduleMode(mode)
            object.__setattr__(self, "mode", mode)
        if mode is ScheduleMode.EXPANSION and not self.r < 1:
            raise DomainError("EXPANSION mode requires r < 1")
        if mode is ScheduleMode.SECOND_ORDER and not self.r < 0.75:
            raise DomainError("SECOND_ORDER mode requires r < 3/4")
        if mode is ScheduleMode.MINIMAX:
            lo = 1.0 / ALPHA_MINIMAX  # ~0.7101
            if not (lo < self.r < 0.75):
                raise DomainError(
                    f"MINIMAX mode requires r in ({lo:.4f}, 0.75), got {self.r!r}"
                )

    def eps(self, N: int) -> float:
        if N < 1:
            raise DomainError(f"the floor schedule needs N >= 1, got N={N}")
        return self.c * float(N) ** (-self.r)

    def truncation(self, N: int, k: int) -> TruncatedSimplex:
        """The floor region at sample size N; raises DomainError, naming N,
        if eps_N is not below 1/k."""
        eps = self.eps(N)
        try:
            return TruncatedSimplex(k, eps)
        except DomainError:
            if k < 2 or eps == 0.0:  # not a sample size too small for k
                raise
            raise DomainError(
                f"at N={N} the floor c*N^-r = {eps!r} is not below 1/k = 1/{k}"
            ) from None
