"""Kullback-Leibler prediction risk for Dirichlet-multinomial predictive
densities: exact engines, asymptotic expansions, truncated-simplex
integrals, and minimax-bracket experiments.  All risks are in nats."""

from .analysis import (
    PriorComparisonRow,
    SandwichResult,
    SandwichRow,
    compare_priors,
    minimax_sandwich,
    optimal_alpha_search,
    prior_label,
)
from .errors import (
    CheckFailure,
    DomainError,
    IntegrationError,
    SizeError,
)
from .expansion import (
    ExpansionTerms,
    IdentityReport,
    ProfileRow,
    expansion_error_profile,
    minimax_alpha_identities,
    minimax_excess_coefficient,
    risk_expansion,
)
from .model import (
    ALPHA_JEFFREYS,
    ALPHA_MINIMAX,
    ALPHA_UNIFORM,
    DEFAULT_SEED,
    SQRT6,
    EpsilonSchedule,
    ModelSpec,
    PriorSpec,
    ScheduleMode,
    SymmetricPrior,
    TruncatedSimplex,
)
from .moments import (
    MomentPoly,
    moment_closed_form,
    moment_recurrence,
)
from .numkernel import (
    compositions,
    log_beta_segment,
    log_multivariate_beta,
    stable_sum,
)
from .risk import (
    RiskMethod,
    RiskReport,
    SupRiskReport,
    ThetaPoint,
    TruncatedPredictiveTable,
    bayes_risk,
    risk_coordinatewise,
    risk_enumeration,
    sup_risk,
    truncation_bayes_gap,
)
from .simplex import (
    LemmaReport,
    SLACK_FACTOR,
    check_lemma,
    log_i_trunc,
    run_lemma_suite,
)

__version__ = "0.1.0"
