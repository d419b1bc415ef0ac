"""Command-line contract: payloads, exit codes, determinism, formats."""

import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import minimax_multinom
import minimax_multinom.risk as risk_module
from minimax_multinom import LemmaReport
from minimax_multinom.cli import main
from minimax_multinom._pool import ordered_map, resolve_threads


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRiskCommand:
    def test_hand_value_payload(self, capsys):
        code, out, err = run_cli(
            capsys, "risk", "--k", "2", "--N", "1", "--alpha", "1",
            "--theta", "0.5,0.5",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["results"][0]["risk"] == pytest.approx(0.05889151782,
                                                              abs=1e-11)
        assert payload["units"] == "nats"
        assert payload["params"]["theta"] == "0.5,0.5"

    def test_theta_last_coordinate_inferred(self, capsys):
        _, out_full, _ = run_cli(capsys, "risk", "--k", "2", "--N", "1",
                                 "--alpha", "1", "--theta", "0.5,0.5")
        _, out_short, _ = run_cli(capsys, "risk", "--k", "2", "--N", "1",
                                  "--alpha", "1", "--theta", "0.5")
        assert json.loads(out_full)["results"] == json.loads(out_short)["results"]

    def test_both_methods(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--k", "3", "--N", "2",
                               "--prior", "minimax", "--theta",
                               "0.333333333333333,0.333333333333333",
                               "--method", "both")
        rows = json.loads(out)["results"]
        assert code == 0 and len(rows) == 2
        assert rows[0]["risk"] == pytest.approx(rows[1]["risk"], abs=1e-12)

    def test_bits_flag_rescales(self, capsys):
        import math

        _, out_nats, _ = run_cli(capsys, "risk", "--k", "2", "--N", "1",
                                 "--alpha", "1", "--theta", "0.5,0.5")
        _, out_bits, _ = run_cli(capsys, "risk", "--k", "2", "--N", "1",
                                 "--alpha", "1", "--theta", "0.5,0.5", "--bits")
        nats = json.loads(out_nats)["results"][0]["risk"]
        bits = json.loads(out_bits)["results"][0]["risk"]
        assert bits == pytest.approx(nats / math.log(2), rel=1e-15)
        assert json.loads(out_bits)["units"] == "bits"


class TestVerifyLemmas:
    def test_suite_clean_exit(self, capsys):
        code, out, err = run_cli(capsys, "verify-lemmas", "--lemma", "8",
                                 "--trials", "60", "--seed", "24397")
        assert code == 0 and err == ""
        row = json.loads(out)["results"][0]
        assert row["lemma"] == 8
        assert row["trials"] == 60
        assert row["max_violation"] <= 0.0
        assert row["seed"] == 24397

    def test_all_suites(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemmas", "--lemma", "all",
                               "--trials", "40")
        assert code == 0
        assert len(json.loads(out)["results"]) == 6

    def test_violation_exits_one(self, capsys, monkeypatch):
        import minimax_multinom.cli as cli

        def fake_suite(n, trials, seed):
            return LemmaReport(n, trials, 0.5, {"x": 1.0}, seed)

        monkeypatch.setattr(cli, "run_lemma_suite", fake_suite)
        code, out, _ = run_cli(capsys, "verify-lemmas", "--lemma", "5",
                               "--trials", "3")
        assert code == 1
        assert json.loads(out)["results"][0]["max_violation"] == 0.5


class TestComparePriors:
    ARGS = ("compare-priors", "--k", "2", "--N", "8,16,32", "--r", "0.73",
            "--priors", "jeffreys,uniform,minimax", "--grid-size", "48")

    def test_csv_contract(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0 and err == ""
        lines = out.split("\r\n")
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# seed=") for l in meta)
        assert any(l.startswith("# version=") for l in meta)
        assert any(l.startswith("# params=") for l in meta)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == ("prior_label,alpha,k,N,eps,sup_risk,"
                                     "excess_over_t1,scaled_excess")
        data = [l for l in lines[header_idx + 1:] if l]
        assert len(data) == 9

    def test_byte_identical_across_threads(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS, "--threads", "1")
        _, out4, _ = run_cli(capsys, *self.ARGS, "--threads", "4")
        assert out1.encode() == out4.encode()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "compare-priors", "--k", "2",
                               "--N", "8", "--priors", "minimax",
                               "--grid-size", "48", "--out", str(target))
        assert code == 0 and out == ""
        text = target.read_bytes().decode()
        assert "\r\n" in text and "minimax" in text


class TestOtherCommands:
    def test_sup_risk_json(self, capsys):
        code, out, _ = run_cli(capsys, "sup-risk", "--k", "2", "--N", "32",
                               "--prior", "jeffreys", "--eps", "0.1",
                               "--grid-size", "48", "--trace")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["sup_risk"] > 0
        assert len(payload["trace"]) >= 3

    def test_sandwich_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sandwich", "--k", "2", "--N", "8,16",
                               "--grid-size", "48")
        assert code == 0
        lines = [l for l in out.split("\r\n") if l and not l.startswith("#")]
        assert lines[0] == "k,N,eps,upper,lower,gap_scaled"
        assert len(lines) == 3

    def test_expansion_error_csv(self, capsys):
        code, out, _ = run_cli(capsys, "expansion-error", "--k", "2",
                               "--N", "16,32", "--prior", "minimax",
                               "--r", "0.6", "--grid-size", "32")
        assert code == 0
        lines = [l for l in out.split("\r\n") if l and not l.startswith("#")]
        assert lines[0] == "N,eps,sup_abs_residual,scaled_residual,argmax_theta"
        assert len(lines) == 3

    def test_moments_with_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--m-max", "8", "--N", "10",
                               "--theta", "0.3", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 9
        four = next(r for r in rows if r["order"] == 4)
        assert four["value"] == pytest.approx(12.684, rel=1e-11)
        assert four["closed_form"] == pytest.approx(12.684, rel=1e-11)
        assert "mu_2" in rows[2]["pretty"]

    def test_optimal_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "optimal-alpha", "--k", "2", "--N", "64",
                               "--alpha-grid", "1.0:2.0:0.5",
                               "--grid-size", "32")
        assert code == 0
        lines = out.split("\r\n")
        assert any(l.startswith("# alpha_star=") for l in lines)
        data = [l for l in lines if l and not l.startswith("#")]
        assert data[0] == "alpha,sup_risk"
        assert len(data) == 4

    def test_identities(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--format", "json")
        assert code == 0
        assert all(r["abs_diff"] <= 1e-11 for r in json.loads(out)["results"])


class TestErrorHandling:
    def test_invalid_parameters_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--k", "1", "--N", "1",
                                 "--alpha", "1", "--theta", "1.0")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["risk", "--k", "2", "--N", "5", "--alpha", "1", "--theta", "nan,0.5"],
        ["risk", "--k", "2", "--N", "5", "--alpha", "inf", "--theta", "0.5"],
        ["sup-risk", "--k", "2", "--N", "16", "--alpha", "nan"],
        ["compare-priors", "--k", "2", "--N", "16", "--c", "nan"],
    ])
    def test_non_finite_input_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("argv, env", [
        pytest.param(["verify-lemmas", "--lemma", "1", "--trials", "0"], {},
                     id="trials-0"),
        pytest.param(["verify-lemmas", "--lemma", "1", "--trials", "-3"], {},
                     id="trials-negative"),
        pytest.param(["sup-risk", "--k", "2", "--N", "0", "--prior", "minimax"],
                     {}, id="sup-risk-N0"),
        pytest.param(["compare-priors", "--k", "2", "--N", "0"], {},
                     id="compare-priors-N0"),
        pytest.param(["expansion-error", "--k", "2", "--N", "0",
                      "--prior", "minimax"], {}, id="expansion-error-N0"),
        pytest.param(["sandwich", "--k", "2", "--N", "0"], {}, id="sandwich-N0"),
        # the trend verdicts compare the last N with the first
        pytest.param(["sandwich", "--k", "2", "--N", "64,32,16"], {},
                     id="sandwich-N-decreasing"),
        pytest.param(["sandwich", "--k", "2", "--N", "16,16,32"], {},
                     id="sandwich-N-repeated"),
        # each grid below would grow without end if it were not rejected
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "0.5:2.5:0"], {}, id="alpha-step-0"),
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "0.5:2.5:-0.1"], {},
                     id="alpha-step-negative"),
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "0.5:inf:0.1"], {}, id="alpha-stop-inf"),
        # malformed grids report the same DomainError, not float()'s message
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "1,1"], {}, id="alpha-grid-comma"),
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "1:2"], {}, id="alpha-grid-two-fields"),
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "a:2:0.1"], {}, id="alpha-grid-not-number"),
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "2:1:0.5"], {}, id="alpha-grid-empty"),
        # a weight below the smallest subnormal double reads as 0, which is
        # no Dirichlet parameter (a weight of 1e-17 runs: see below)
        pytest.param(["risk", "--k", "2", "--N", "64", "--a", "1e-400,1",
                      "--theta", "0.05"], {}, id="risk-tiny-prior-weight"),
        pytest.param(["compare-priors", "--k", "2", "--N", "64",
                      "--priors", "1e-400", "--grid-size", "16"], {},
                     id="compare-priors-tiny-prior-weight"),
        # a Philox key word is 64 bits; a seed outside would alias another
        pytest.param(["sup-risk", "--k", "2", "--N", "8", "--prior", "minimax",
                      "--seed", "-1"], {}, id="sup-risk-seed-negative"),
        pytest.param(["sup-risk", "--k", "2", "--N", "8", "--prior", "minimax",
                      "--seed", str(2**64)], {}, id="sup-risk-seed-2**64"),
        pytest.param(["verify-lemmas", "--lemma", "1", "--trials", "5",
                      "--seed", "-1"], {}, id="verify-lemmas-seed-negative"),
        pytest.param(["verify-lemmas", "--lemma", "1", "--trials", "5",
                      "--seed", str(2**64)], {}, id="verify-lemmas-seed-2**64"),
        pytest.param(["identities", "--threads", "0"], {}, id="threads-0"),
        pytest.param(["identities", "--threads", "-3"], {},
                     id="threads-negative"),
        pytest.param(["identities"], {"MINIMAX_MULTINOM_THREADS": "abc"},
                     id="threads-env-not-integer"),
        pytest.param(["moments", "--N", "10"], {}, id="moments-N-without-theta"),
        pytest.param(["moments", "--theta", "0.3"], {},
                     id="moments-theta-without-N"),
        pytest.param(["moments", "--m-max", "4", "--N", "-3", "--theta", "0.3"],
                     {}, id="moments-N-negative"),
        # checked before any polynomial is evaluated, so no numpy warning
        # reaches stderr ahead of the JSON error
        pytest.param(["moments", "--N", "5", "--theta", "inf"], {},
                     id="moments-theta-inf"),
        pytest.param(["moments", "--N", "5", "--theta", "1.5"], {},
                     id="moments-theta-above-1"),
        # an empty --N list would print a header and no rows
        pytest.param(["compare-priors", "--k", "2", "--N", ","], {},
                     id="compare-priors-N-empty"),
        pytest.param(["sandwich", "--k", "2", "--N", ","], {},
                     id="sandwich-N-empty"),
        pytest.param(["expansion-error", "--k", "2", "--N", ",",
                      "--prior", "minimax"], {}, id="expansion-error-N-empty"),
    ])
    def test_out_of_domain_input_exit_two(self, capsys, monkeypatch, argv, env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_empty_alpha_grid_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "optimal-alpha", "--k", "2", "--N",
                                 "8", "--alpha-grid", "2:1:0.5")
        assert code == 2
        message = json.loads(err)["error"]["message"]
        assert message.startswith("--alpha-grid ") and "empty" in message

    @pytest.mark.parametrize("argv, field", [
        (["risk", "--k", "2", "--N", "64", "--a", "1e-17,1", "--theta", "0.05"],
         "risk"),
        (["compare-priors", "--k", "2", "--N", "64", "--priors", "1e-17",
          "--grid-size", "16"], "sup_risk"),
    ], ids=["risk", "compare-priors"])
    def test_tiny_prior_weight_raises_no_numpy_warning(self, capsys, argv,
                                                       field):
        """At a weight this small w rounds to -1 at x = 0; the kernel's
        x = 0 term is still finite, and no numpy warning is printed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        assert math.isfinite(json.loads(out)["results"][0][field])

    def test_non_finite_risk_exits_two(self, capsys, monkeypatch):
        """A kernel that returns inf reaches the risk total's DomainError."""
        monkeypatch.setattr(risk_module.CoordinateRiskEvaluator, "_window_sums",
                            lambda ev, rows, *_: [math.inf] * len(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "risk", "--k", "2", "--N", "64",
                                     "--alpha", "1", "--theta", "0.05")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "not finite" in error["message"]

    @pytest.mark.parametrize("flag, argv", [
        ("--N", ["compare-priors", "--k", "2", "--N", "abc"]),
        ("--N", ["sandwich", "--k", "2", "--N", "16,x"]),
        ("--N", ["expansion-error", "--k", "2", "--N", "1.5", "--prior", "minimax"]),
        ("--theta", ["risk", "--k", "2", "--N", "4", "--alpha", "1",
                     "--theta", "abc"]),
        ("--a", ["risk", "--k", "2", "--N", "4", "--a", "1,x", "--theta", "0.5"]),
        ("--a", ["sup-risk", "--k", "2", "--N", "8", "--a", "1,x"]),
        ("--lemma", ["verify-lemmas", "--lemma", "x"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_non_numeric_input_names_the_flag(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith(flag + " ")

    @pytest.mark.parametrize("argv", [
        ["risk", "--k", "2", "--N", "4", "--theta", "0.5",
         "--prior", "jeffreys", "--alpha", "7"],
        ["risk", "--k", "2", "--N", "4", "--theta", "0.5",
         "--a", "1,2", "--alpha", "7"],
        ["sup-risk", "--k", "2", "--N", "8", "--prior", "minimax",
         "--a", "1,2"],
        ["expansion-error", "--k", "2", "--N", "64,128",
         "--prior", "minimax", "--alpha", "2"],
    ], ids=lambda v: " ".join(v))
    def test_conflicting_prior_flags_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "InvalidParameters"

    def test_largest_seed_accepted(self, capsys):
        code, out, err = run_cli(capsys, "verify-lemmas", "--lemma", "1",
                                 "--trials", "5", "--seed", str(2**64 - 1))
        assert code == 0 and err == ""
        assert json.loads(out)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("token", ["foo", "-1", "0", "inf"])
    def test_unknown_prior_name_exit_two(self, capsys, token):
        code, out, err = run_cli(capsys, "compare-priors", "--k", "2",
                                 "--N", "8", "--priors", "jeffreys," + token)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        for word in ("--priors", repr(token), "jeffreys", "uniform", "minimax",
                     "positive number"):
            assert word in error["message"]

    def test_unknown_flag_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "risk", "--nope")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InvalidParameters"

    def test_missing_prior_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "risk", "--k", "2", "--N", "1",
                               "--theta", "0.5,0.5")
        assert code == 2
        assert "prior" in json.loads(err)["error"]["message"]

    def test_schedule_window_violation(self, capsys):
        code, _, err = run_cli(capsys, "sandwich", "--k", "2", "--N", "8",
                               "--r", "0.5")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"


# Runs argv (if any) in a fresh interpreter, then prints the scipy modules
# it ever imported as the last line of stdout.
_ISOLATION_CODE = """
import json
import sys
from minimax_multinom.cli import main
if sys.argv[1:] and main(sys.argv[1:]) != 0:
    sys.exit("command failed")
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
"""


def _scipy_modules(*argv) -> set:
    env = dict(os.environ,
               PYTHONPATH=str(Path(minimax_multinom.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _ISOLATION_CODE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loads_quadrature(*argv) -> bool:
    return "scipy.integrate" in _scipy_modules(*argv)


class TestImportIsolation:
    """scipy.integrate is imported only by runs that integrate, and
    scipy.special only by runs that integrate, take a Beta segment or
    build a truncated-predictive table."""

    def test_import_loads_no_scipy(self):
        assert _scipy_modules() == set()

    @pytest.mark.parametrize("argv", [
        pytest.param(["risk", "--k", "2", "--N", "4", "--alpha", "1",
                      "--theta", "0.3"], id="risk"),
        pytest.param(["sup-risk", "--k", "2", "--N", "8", "--prior", "minimax"],
                     id="sup-risk-k2"),
        pytest.param(["compare-priors", "--k", "2", "--N", "8"],
                     id="compare-priors-k2"),
        pytest.param(["expansion-error", "--k", "2", "--N", "8",
                      "--prior", "minimax"], id="expansion-error"),
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "1:1.2:0.1"], id="optimal-alpha"),
        pytest.param(["moments"], id="moments"),
        pytest.param(["identities"], id="identities"),
        pytest.param(["verify-lemmas", "--lemma", "1", "--trials", "50"],
                     id="verify-lemmas-1"),
    ])
    def test_light_run_skips_special_functions(self, argv):
        assert "scipy.special" not in _scipy_modules(*argv)

    def test_sandwich_loads_special_functions(self):
        assert "scipy.special" in _scipy_modules("sandwich", "--k", "2",
                                                 "--N", "8")

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="import"),
        pytest.param(["risk", "--k", "2", "--N", "4", "--alpha", "1",
                      "--theta", "0.3"], id="risk"),
        pytest.param(["sup-risk", "--k", "2", "--N", "8", "--prior", "minimax"],
                     id="sup-risk-k2"),
        pytest.param(["sup-risk", "--k", "3", "--N", "8", "--prior", "minimax"],
                     id="sup-risk-k3"),
        pytest.param(["compare-priors", "--k", "2", "--N", "8"],
                     id="compare-priors"),
        pytest.param(["expansion-error", "--k", "2", "--N", "8",
                      "--prior", "minimax"], id="expansion-error"),
        pytest.param(["optimal-alpha", "--k", "2", "--N", "8",
                      "--alpha-grid", "1:1.2:0.1"], id="optimal-alpha"),
    ])
    def test_non_integrating_run_skips_quadrature(self, argv):
        assert not _loads_quadrature(*argv)

    @pytest.mark.parametrize("argv", [
        pytest.param(["sandwich", "--k", "2", "--N", "8"], id="sandwich"),
        pytest.param(["verify-lemmas", "--lemma", "4"], id="verify-lemmas"),
    ])
    def test_integrating_run_loads_quadrature(self, argv):
        assert _loads_quadrature(*argv)


class TestThreadResolution:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("MINIMAX_MULTINOM_THREADS", "3")
        assert resolve_threads(None) == 3
        assert resolve_threads(2) == 2
        monkeypatch.delenv("MINIMAX_MULTINOM_THREADS")
        assert resolve_threads(None) >= 1


def test_ordered_map_runs_in_order_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("MINIMAX_MULTINOM_THREADS", "4")
    calls = []

    def record(item):
        calls.append((item, threading.get_ident()))
        return item * item

    assert ordered_map(record, range(6)) == [0, 1, 4, 9, 16, 25]
    assert calls == [(i, threading.get_ident()) for i in range(6)]


class TestHelp:
    @pytest.mark.parametrize("cmd", ["risk", "sandwich", "compare-priors",
                                     "verify-lemmas"])
    def test_help_states_units(self, capsys, cmd):
        """Every command's help names the risk unit."""
        code = main([cmd, "--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "nats" in out
