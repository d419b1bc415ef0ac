"""Acceptance suite: the nine headline criteria, one test per criterion.

Each criterion prints a single PASS/FAIL line (routed past pytest's capture
so the verdicts always appear in the run log) and then asserts.

Criterion 8 is split: the bracket ordering (8a) holds, but the demanded 40%
collapse of the N^2-scaled bracket width between N = 16 and N = 64 (8b) is
numerically unattainable on the prescribed schedule: the width is dominated
by the prior-truncation penalty, whose scaled size decays like
N^(1 - 0.73 * (1 + 1/sqrt(6))) = N^(-0.028), i.e. by only ~12% over that
sweep (and at most ~7% anywhere in the admissible decay window).  The test
asserts the criterion as stated and is expected to fail; see the README.
"""

import json
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import record_verdict
from reference_checks import (
    evaluate_exact,
    minimax_prior_expansion,
    moment_pmf_oracle_exact,
)

from minimax_multinom import (
    ALPHA_MINIMAX,
    SQRT6,
    EpsilonSchedule,
    ModelSpec,
    PriorSpec,
    ScheduleMode,
    SymmetricPrior,
    ThetaPoint,
    compare_priors,
    minimax_alpha_identities,
    minimax_sandwich,
    moment_closed_form,
    moment_recurrence,
    risk_coordinatewise,
    risk_enumeration,
    risk_expansion,
    run_lemma_suite,
    truncation_bayes_gap,
)
from minimax_multinom.cli import main as cli_main

SCHEDULE = EpsilonSchedule(1.0, 0.73, ScheduleMode.MINIMAX)


def report(criterion: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE CRITERION {criterion}: {verdict} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    record_verdict(line)


def test_criterion_1_oracle_equivalence():
    """Enumeration and the separable form agree to 1e-12 absolute across
    k in {2,3,4}, N in 1..8, 100 random draws each; under 30 s."""
    t0 = time.time()
    rng = np.random.default_rng(0x5EED)
    worst = 0.0
    for k in (2, 3, 4):
        for N in range(1, 9):
            model = ModelSpec(k, N)
            for _ in range(100):
                a = tuple(np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=k)))
                th = rng.dirichlet(np.ones(k))
                while th.min() < 1e-3:
                    th = rng.dirichlet(np.ones(k))
                prior = PriorSpec(a)
                theta = ThetaPoint(tuple(th))
                diff = abs(
                    risk_enumeration(prior, model, theta).exact_risk
                    - risk_coordinatewise(prior, model, theta).exact_risk
                )
                worst = max(worst, diff)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    report("1 (oracle equivalence)", ok,
           f"worst |enum - coord| = {worst:.3e} over 2400 draws, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_2_minimax_prior_excess():
    """k=2, minimax prior, eps_N = N^-0.73: N^2 (sup - 1/(2N)) is negative,
    trends toward -(15 + 4 sqrt 6)/12, within 10% at N = 4096; under 5 min."""
    t0 = time.time()
    target = -(15.0 + 4.0 * SQRT6) / 12.0
    rows = compare_priors(2, [256, 1024, 4096], SCHEDULE,
                          [SymmetricPrior.minimax(2)], grid_size=512)
    scaled = [r.scaled_excess for r in rows]
    gaps = [abs(s - target) for s in scaled]
    elapsed = time.time() - t0
    ok = (
        all(s < 0 for s in scaled)
        and gaps[-1] <= 0.10 * abs(target)
        and gaps[0] > gaps[1] > gaps[2]
        and elapsed < 300.0
    )
    report("2 (minimax-prior second-order excess)", ok,
           f"scaled excess {['%.5f' % s for s in scaled]} -> target {target:.5f}, "
           f"{elapsed:.0f}s")
    assert all(s < 0 for s in scaled)
    assert gaps[-1] <= 0.10 * abs(target)
    assert gaps[0] > gaps[1] > gaps[2]
    assert elapsed < 300.0


def test_criterion_3_jeffreys_divergence():
    """Same sweep, Jeffreys prior: N^2 eps (sup - 1/(2N)) clears 0.8/24 at
    N = 4096, and the divergence witness N^2 (sup - 1/(2N)) grows across
    the sweep (it scales like 1/(24 eps_N); the eps-normalized form tends
    to 1/24 from above and is provably not monotone, see the README)."""
    rows = compare_priors(2, [256, 1024, 4096], SCHEDULE,
                          [SymmetricPrior.jeffreys(2)], grid_size=512)
    normalized = [r.eps * r.scaled_excess for r in rows]
    divergence = [r.scaled_excess for r in rows]
    ok = (
        normalized[-1] >= 0.8 / 24.0
        and divergence[0] < divergence[1] < divergence[2]
    )
    report("3 (Jeffreys divergence)", ok,
           f"N^2*eps*excess {['%.5f' % v for v in normalized]} vs 0.8/24 = "
           f"{0.8 / 24:.5f}; divergence {['%.2f' % v for v in divergence]}")
    assert normalized[-1] >= 0.8 / 24.0
    assert divergence[0] < divergence[1] < divergence[2]


def test_criterion_4_expansion_cross_check():
    """General expansion at the minimax concentration matches the
    specialized form per term at 1e-13 relative, and the closed-form
    identities hold at 1e-13."""
    worst = 0.0
    for k, theta in ((2, ThetaPoint.complete([0.35])),
                     (2, ThetaPoint.uniform(2)),
                     (3, ThetaPoint.complete([0.2, 0.3])),
                     (4, ThetaPoint.uniform(4))):
        prior = SymmetricPrior.minimax(k).expand()
        for N in (16, 256, 4096):
            general = risk_expansion(prior, ModelSpec(k, N), theta)
            special = minimax_prior_expansion(k, N, theta)
            for name in ("t1", "t2", "t3", "t4"):
                a, b = getattr(general, name), getattr(special, name)
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    identities_ok = True
    try:
        idrep = minimax_alpha_identities(rtol=1e-13)
    except AssertionError:
        identities_ok = False
        idrep = None
    ok = worst <= 1e-13 and identities_ok
    report("4 (expansion coefficient cross-check)", ok,
           f"worst per-term rel diff = {worst:.2e}; identities "
           f"{'pass' if identities_ok else 'FAIL'}")
    assert worst <= 1e-13
    assert identities_ok and idrep is not None


def test_criterion_5_moment_engine():
    """Recurrence moments match brute-force mass summation (1e-10 relative
    for m <= 12, N <= 30, 200 draws; exactly in rational arithmetic),
    closed forms match the recurrence at 1e-11, and every coefficient is an
    exact integer."""
    polys = moment_recurrence(12)
    rng = np.random.default_rng(0x5EED)
    worst_pmf = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 13))
        N = int(rng.integers(1, 31))
        theta = Fraction(float(rng.uniform(0.05, 0.95))).limit_denominator(2**30)
        exact = moment_pmf_oracle_exact(m, N, theta)
        assert evaluate_exact(polys[m], N, theta) == exact
        rel = abs(float(polys[m].evaluate(N, float(theta))) - float(exact))
        rel /= max(abs(float(exact)), 1e-300)
        worst_pmf = max(worst_pmf, rel)

    worst_closed = 0.0
    for _ in range(200):
        m = int(rng.integers(0, 9))
        N = float(rng.uniform(1, 100))
        th = float(rng.uniform(0.02, 0.98))
        a = moment_closed_form(m, N, th)
        b = float(polys[m].evaluate(N, th))
        if b == 0.0:
            worst_closed = max(worst_closed, abs(a - b))
        else:
            worst_closed = max(worst_closed, abs(a - b) / abs(b))

    ints_ok = all(
        isinstance(c, int)
        for poly in polys for coeffs in poly.coeffs.values() for c in coeffs
    )
    ok = worst_pmf <= 1e-10 and worst_closed <= 1e-11 and ints_ok
    report("5 (moment engine)", ok,
           f"pmf-oracle rel {worst_pmf:.2e} (tol 1e-10), closed-form rel "
           f"{worst_closed:.2e} (tol 1e-11), integer coefficients: {ints_ok}")
    assert worst_pmf <= 1e-10
    assert worst_closed <= 1e-11
    assert ints_ok


def test_criterion_6_lemma_suites():
    """500 seeded draws per inequality suite with zero violations beyond
    integrator slack; the aggregation and mean-ratio identities hold at
    1e-10 relative."""
    verdicts = {}
    for number in (1, 4, 5, 6, 7, 8):
        rep = run_lemma_suite(number, 500)
        verdicts[number] = rep.max_violation
    ok = all(v <= 0.0 for v in verdicts.values())
    report("6 (inequality/identity suites)", ok,
           "max violations " + ", ".join(
               f"L{n}={v:.1e}" for n, v in verdicts.items()))
    for number, violation in verdicts.items():
        assert violation <= 0.0, f"suite {number} violated: {violation}"


def test_criterion_7_truncation_gap():
    """k=2, concentrations 1 and 1+1/sqrt(6), eps_N = N^-0.73, N in
    {16,32,64}: the gap is nonnegative and gap/(eps^alpha / N) stays within
    a factor two across the sweep."""
    details = []
    ok = True
    for alpha in (1.0, ALPHA_MINIMAX):
        ratios = []
        for N in (16, 32, 64):
            trunc = SCHEDULE.truncation(N, 2)
            gap = truncation_bayes_gap(SymmetricPrior(alpha, 2), trunc,
                                       ModelSpec(2, N))
            ok = ok and gap >= -1e-12
            ratios.append(gap / (trunc.eps**alpha / N))
        spread = max(ratios) / min(ratios)
        ok = ok and spread <= 2.0
        details.append(f"alpha={alpha:.4f}: spread {spread:.3f}")
    report("7 (prior-truncation Bayes gap)", ok, "; ".join(details))
    assert ok


@pytest.fixture(scope="module")
def sandwich_rows():
    return minimax_sandwich(2, [16, 32, 64], SCHEDULE, grid_size=512).rows


def test_criterion_8a_bracket_order(sandwich_rows):
    """The computable bracket is ordered: upper >= lower at every N."""
    ok = all(r.upper >= r.lower - 1e-12 for r in sandwich_rows)
    report("8a (bracket order)", ok,
           "; ".join(f"N={r.N}: upper-lower={r.upper - r.lower:.3e}"
                     for r in sandwich_rows))
    assert ok


def test_criterion_8b_bracket_collapse_trend(sandwich_rows):
    """Demanded: N^2 (upper - lower) falls by >= 40% from N=16 to N=64.

    This cannot hold on the prescribed schedule: the width is dominated by
    the prior-truncation penalty O(eps_N^alpha / N), so the scaled width
    decays like N^(1 - 0.73(1 + 1/sqrt 6)) = N^(-0.028) - about 4% per
    quadrupling of N, bounded by ~7% over this sweep anywhere in the
    admissible window r in (0.7101, 0.75).  Measured: ~12% (the o(N^-2)
    statement is true but numerically invisible at desk scale).  The
    assertion is kept as stated and fails honestly."""
    scaled = [r.gap_scaled for r in sandwich_rows]
    decrease = 1.0 - scaled[-1] / scaled[0]
    ok = decrease >= 0.40
    report("8b (bracket collapse trend)", ok,
           f"N^2-width {['%.4f' % s for s in scaled]}; decrease "
           f"{100 * decrease:.1f}% (demanded >= 40%; structurally capped "
           f"near N^(-0.028) on this schedule)")
    assert decrease >= 0.40, (
        "the 40% collapse between N=16 and N=64 is unattainable on the "
        f"eps_N = N^-0.73 schedule (measured {100 * decrease:.1f}%); the "
        "scaled bracket width is dominated by the prior-truncation penalty "
        "decaying like N^(1 - 0.73 * (1 + 1/sqrt 6)) = N^(-0.028)"
    )


def test_criterion_9_determinism(capsys):
    """Any command rerun with the same seed but a different worker count
    yields byte-identical output."""
    commands = [
        ["compare-priors", "--k", "2", "--N", "8,16", "--priors",
         "jeffreys,minimax", "--grid-size", "48", "--seed", "7"],
        ["verify-lemmas", "--lemma", "all", "--trials", "30", "--seed", "7"],
        ["sandwich", "--k", "2", "--N", "8,16", "--grid-size", "48",
         "--seed", "7"],
        ["risk", "--k", "2", "--N", "4", "--alpha", "1", "--theta", "0.3"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for threads in ("1", "4"):
            code = cli_main(argv + ["--threads", threads])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out.encode())
        ok = ok and outputs[0] == outputs[1]
    report("9 (determinism across worker counts)", ok,
           f"{len(commands)} commands byte-identical under --threads 1 vs 4")
    assert ok


def test_acceptance_epilogue():
    """Not a criterion: records the tool configuration in the log."""
    line = ("ACCEPTANCE SUITE COMPLETE - schedule eps_N = N^-0.73, "
            "seed 0x5EED, risks in nats")
    print(line, file=sys.__stdout__, flush=True)
    record_verdict(line)
    assert json.dumps({"done": True})
