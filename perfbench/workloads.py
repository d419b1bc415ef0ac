"""Seeded job lists for the benchmark workloads.

A job is the argv of one ``minimax-multinom`` call.  A run repeats rounds of
its workload's job list; round ``i`` of seed ``s`` draws its jobs from a
stream keyed on ``(workload, s, i)``, so the same seed always gives the same
jobs.  The seed varies the sample sizes, the floor exponent ``r`` and the
program's ``--seed``, within bands narrow enough that the seed moves the
work per round far less than the search itself does, so medians over seeds
compare commits rather than draws.

``tiny`` shrinks every size for the benchmark's own smoke tests.
"""

from __future__ import annotations

import random

PRIORS = ("jeffreys", "uniform", "minimax")

#: floor exponents drawn from inside the minimax window (1/1.4082, 3/4)
R_BAND = (0.715, 0.745)


def _r(rng: random.Random) -> list:
    return ["--r", repr(round(rng.uniform(*R_BAND), 4))]


def _seed(rng: random.Random) -> list:
    return ["--seed", str(rng.randrange(2**31))]


def _sup_large_n(rng: random.Random, tiny: bool) -> list:
    # One call per cell of the README's compare-priors grid, so each cell
    # reports an argmax the checker can test.  N stays within 1/32 of
    # 1024: one cell at N = 4096 alone outlasts a run.
    base = 48 if tiny else 1024
    priors = list(PRIORS)
    rng.shuffle(priors)
    return [
        ["sup-risk", "--k", "2", "--N", str(base + rng.randrange(base // 32 + 1)),
         "--prior", prior, "--format", "json"] + _r(rng) + _seed(rng)
        for prior in priors
    ]


def _bracket_small_n(rng: random.Random, tiny: bool) -> list:
    # The truncated-predictive caps are N <= 64 (k = 2) and N <= 24 (k = 3).
    jobs = []
    for k, anchors in ((2, (4, 6, 8) if tiny else (16, 32, 64)),
                       (3, (6, 8, 10) if tiny else (8, 16, 24))):
        Ns = [a - rng.randrange(2 if tiny else 4) for a in anchors]
        jobs.append(["sandwich", "--k", str(k), "--N", ",".join(map(str, Ns))]
                    + _r(rng) + _seed(rng))
    return jobs


def _residual_k3(rng: random.Random, tiny: bool) -> list:
    anchors = (8, 16) if tiny else (64, 128, 256, 480)
    Ns = [a + rng.randrange(a // 16 + 1) for a in anchors]
    seed = _seed(rng)
    trials = ["--trials", "20"] if tiny else []
    return [
        ["expansion-error", "--k", "3", "--order", "4", "--variant", "full",
         "--N", ",".join(map(str, Ns)), "--prior", rng.choice(PRIORS)]
        + _r(rng) + seed,
        ["verify-lemmas", "--lemma", "all"] + trials + seed,
    ]


WORKLOADS = {
    "sup-large-N": _sup_large_n,
    "bracket-small-N": _bracket_small_n,
    "residual-k3": _residual_k3,
}

#: layers each workload must exercise; a traced run that records no call
#: to one of them fails
DECLARED_LAYERS = {
    "sup-large-N": (
        "cli.main", "risk.sup_risk", "risk.search.grid", "risk.coordinate",
        "numkernel.stable_sum", "pool.ordered_map",
    ),
    "bracket-small-N": (
        "cli.main", "analysis.minimax_sandwich", "risk.sup_risk",
        "risk.search.grid", "risk.search.ascent", "risk.coordinate",
        "numkernel.stable_sum", "risk.bayes_risk",
        "risk.CoordinateRiskEvaluator.risk", "risk.TruncatedPredictiveTable",
        "simplex.log_i_trunc", "numkernel.log_beta_segment",
        "pool.ordered_map",
    ),
    "residual-k3": (
        "cli.main", "expansion.expansion_error_profile", "risk.search.grid",
        "risk.search.ascent", "risk.coordinate", "numkernel.stable_sum",
        "simplex.run_lemma_suite", "numkernel.log_beta_segment",
        "pool.ordered_map",
    ),
}


def jobs(workload: str, seed: int, round_index: int, tiny: bool = False) -> list:
    """The job list of one round, as argv lists."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    return WORKLOADS[workload](rng, tiny)
