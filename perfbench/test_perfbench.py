"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from minimax_multinom import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(tmp_root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_metrics_printed():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(tracer.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3",
                  "--seconds", "0.1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sup-large-N", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _job(argv) -> run.Job:
    job = run.run_job(cli, argv)
    oracle.check(job.argv, job.rc, job.stdout)
    return job


def test_checker_rejects_nudged_sup():
    argv = workloads.jobs("sup-large-N", 5, 0, tiny=True)[0]
    payload = json.loads(_job(argv).stdout)
    row = payload["results"][0]
    row["sup_risk"] *= 1.0 + 1e-9
    with pytest.raises(oracle.CheckError, match="enumeration risk"):
        oracle.check(argv, 0, json.dumps(payload))


def test_checker_rejects_lower_above_upper():
    argv = workloads.jobs("bracket-small-N", 5, 0, tiny=True)[0]
    lines = _job(argv).stdout.split("\r\n")
    header = lines.index("k,N,eps,upper,lower,gap_scaled")
    fields = lines[header + 1].split(",")
    fields[4] = repr(float(fields[3]) * 1.01)
    lines[header + 1] = ",".join(fields)
    with pytest.raises(oracle.CheckError, match="lower"):
        oracle.check(argv, 0, "\r\n".join(lines))


def test_checker_rejects_non_json_constants():
    with pytest.raises(oracle.CheckError):
        oracle.parse_json('{"risk": NaN}')


def test_same_seed_same_jobs_and_digests():
    for name in workloads.WORKLOADS:
        first = workloads.jobs(name, 11, 2, tiny=True)
        assert first == workloads.jobs(name, 11, 2, tiny=True)
        assert first != workloads.jobs(name, 12, 2, tiny=True)
    argvs = workloads.jobs("residual-k3", 11, 0, tiny=True)
    digests = [[run.run_job(cli, argv).digest for argv in argvs] for _ in range(2)]
    assert digests[0] == digests[1]
