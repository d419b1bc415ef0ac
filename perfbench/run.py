"""Benchmark of the minimax-multinom CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sup-large-N --seed 1 --seconds 25 --trace 0

One client drives ``minimax_multinom.cli.main(argv)`` in this interpreter,
with stdout captured, running the seeded job list of the workload in rounds
back to back (a closed loop) for at most ``--seconds`` (at least one round);
each run is a fresh interpreter, so module caches do not carry over between
runs.  The worker count is the CLI default: ``MINIMAX_MULTINOM_THREADS`` is
cleared, so it resolves to the core count.  Every job is checked after the
timed rounds (see ``oracle.py``); a failed check counts against ``ok_frac``
and ``failed`` without stopping the run.

``--trace 0`` prints the end-to-end metrics: per-round means of the job
list's wall time, its slowest job and its CPU time, peak resident memory,
the share of jobs that passed, and the median set-up time of a fresh CLI
process.  ``--trace 1`` alternates an untraced and a traced pass over each
round's jobs and prints the per-layer metrics (see ``tracer.py``) plus the
tracing overhead.  The last line of stdout is the result object; the line
before it names the report file under ``.perfbench/``, which holds machine
facts, the jobs, their timings, check outcomes and stdout digests.

The benchmark's own tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s"),
    ("job_max_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
)

#: the README's first example, answered by a fresh interpreter per sample
SETUP_ARGV = ["risk", "--k", "2", "--N", "1", "--alpha", "1", "--theta", "0.5,0.5"]
SETUP_CODE = "import sys; from minimax_multinom.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_SAMPLES = 7


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Job:
    """One CLI call: its argv, exit code, output and cost."""

    argv: list
    rc: int
    stdout: str
    wall_s: float
    cpu_s: float
    error: str | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()

    def record(self) -> dict:
        return {"argv": self.argv, "rc": self.rc, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "sha256": self.digest,
                "check": self.error or "ok"}


def run_job(cli, argv) -> Job:
    out, err = io.StringIO(), io.StringIO()
    cpu, start = _cpu_s(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    wall = time.perf_counter() - start
    return Job(list(argv), rc, out.getvalue(), wall, _cpu_s() - cpu)


def check_jobs(jobs) -> int:
    """Check every job; returns the number that failed."""
    # oracle imports the program, which is importable once main() has put
    # the checkout's src/ on the path
    from oracle import CheckError, check

    failed = 0
    for job in jobs:
        try:
            check(job.argv, job.rc, job.stdout)
        except CheckError as exc:
            job.error = str(exc)
            failed += 1
    return failed


def measure_setup(samples: int) -> list:
    """Fresh-interpreter CLI calls of the README example, timed from spawn
    to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    jobs = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE] + SETUP_ARGV,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        jobs.append(Job(SETUP_ARGV, proc.returncode, proc.stdout,
                        time.perf_counter() - start, 0.0))
    return jobs


def _commit() -> str:
    """HEAD's commit, read from the checkout's .git; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy
    from minimax_multinom._pool import resolve_threads

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "threads": resolve_threads(None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_lines": src_lines,
    }


def run_rounds(cli, workload, seed, seconds, tiny, tracer=None) -> tuple:
    """Rounds of the workload's job list for at most `seconds` (at least
    one round).

    Returns (untraced rounds, traced rounds); with a tracer, each round's
    jobs run untraced and then again traced.
    """
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        argvs = workloads.jobs(workload, seed, index, tiny)
        plain.append([run_job(cli, argv) for argv in argvs])
        if tracer is not None:
            tracer.install()
            try:
                round_jobs = []
                for j, argv in enumerate(argvs):
                    tracer.job = f"{index}.{j}"
                    round_jobs.append(run_job(cli, argv))
                traced.append(round_jobs)
            finally:
                tracer.uninstall()
            tracer.end_round()
        index += 1
        elapsed = time.perf_counter() - start
        # stop before a round of the mean length would overrun `seconds`
        if elapsed * (index + 1) / index > seconds:
            return plain, traced


def _round_walls(rounds) -> list:
    return [sum(job.wall_s for job in r) for r in rounds]


def end_to_end(rounds, setup_jobs, peak_rss_kb, failed, attempted) -> dict:
    # Rounds are independent draws of the job list whose search costs vary
    # by tens of percent, often in two clusters; a mean over rounds is far
    # steadier from run to run than a median of so few draws.
    return {
        "wall_s": statistics.fmean(_round_walls(rounds)),
        "job_max_s": statistics.fmean(max(j.wall_s for j in r) for r in rounds),
        "cpu_s": statistics.fmean(sum(j.cpu_s for j in r) for r in rounds),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(j.wall_s for j in setup_jobs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny job sizes and one set-up sample, for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "minimax_multinom" / "cli.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MINIMAX_MULTINOM_THREADS", None)
    from minimax_multinom import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"imported {cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    if args.workload not in workloads.DECLARED_LAYERS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.DECLARED_LAYERS)}", file=sys.stderr)
        return 2

    facts = machine_facts()
    setup_jobs = [] if args.trace else measure_setup(1 if args.tiny else SETUP_SAMPLES)
    tracer = Tracer() if args.trace else None
    plain, traced = run_rounds(cli, args.workload, args.seed, args.seconds,
                               args.tiny, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    all_jobs = setup_jobs + [j for r in plain + traced for j in r]
    failed = check_jobs(all_jobs)
    for job in all_jobs:
        if job.error:
            print(f"check failed: {' '.join(job.argv)}: {job.error}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        metrics = layer_metrics(tracer.totals, len(traced))
        metrics["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(_round_walls(traced), _round_walls(plain)))
        tracer.archive.save(OUT / f"{stem}-spans.csv.gz")
        silent = [name for name in workloads.DECLARED_LAYERS[args.workload]
                  if not tracer.totals["calls:" + name]]
        if silent:
            print(f"declared layers recorded no calls: {silent}", file=sys.stderr)
            return 1
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(plain, setup_jobs, peak_rss_kb, failed, len(all_jobs))
        units = dict(END_TO_END)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "facts": facts,
        "setup": [j.record() for j in setup_jobs],
        "rounds": [[j.record() for j in r] for r in plain],
        "traced_rounds": [[j.record() for j in r] for r in traced],
        "metrics": metrics,
    }
    report_path = OUT / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"facts": facts, "report": str(report_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
