"""Output checks for benchmark jobs, run outside the timed region.

``check(argv, rc, stdout)`` raises ``CheckError`` naming the first problem.
Every job must exit 0 and print RFC 8259 JSON or RFC 4180 CSV.  The
command-specific checks recompute what they can with the enumeration
engine, which is independent of the separable engine the program searches
with:

* ``sup-risk``: the enumeration risk at the reported argmax matches the
  reported sup to ``SUP_RTOL`` relative, and the sup dominates the
  enumeration risk at the uniform point, the floor corner and
  ``FLOORED_POINTS`` seeded floored points.
* ``sandwich``: ``lower <= upper + crosscheck/N^2 <= upper`` per row, with
  the program's own 1e-12 slack.  ``upper + crosscheck/N^2`` is the Bayes
  risk of the full predictive, so this is Bayes optimality of the truncated
  predictive followed by Bayes risk <= sup risk.  ``gap_trend_ok = false``
  is criterion 8b failing by design, not a job failure.
* ``expansion-error``: ``|enumeration - expansion|`` at each reported argmax
  matches ``sup_abs_residual`` to ``RESIDUAL_TOL`` times the exact risk.
* ``verify-lemmas``: every ``max_violation <= 0``.
* ``risk``: the README's hand value ``ln(9/8)/2`` at N = 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

from minimax_multinom.expansion import risk_expansion
from minimax_multinom.model import ModelSpec, SymmetricPrior
from minimax_multinom.risk import ThetaPoint, risk_enumeration

#: relative agreement of the reported sup with the enumeration risk at the
#: reported argmax (the engines agree to ~1e-12 relative at N ~ 1024)
SUP_RTOL = 1e-10
#: |residual| agreement, as a share of the exact risk at the argmax
#: (measured up to ~5e-13 at N = 512, k = 3)
RESIDUAL_TOL = 1e-11
#: slack of the bracket order, the same as the program's
BRACKET_SLACK = 1e-12
FLOORED_POINTS = 3

_DEFAULT_FORMAT = {"sup-risk": "json", "verify-lemmas": "json", "risk": "json"}
_SUITES = [1, 4, 5, 6, 7, 8]


class CheckError(Exception):
    """A job's output failed a check."""


def _options(argv) -> dict:
    # every benchmark job passes flag-value pairs after the command
    return dict(zip(argv[1::2], argv[2::2]))


def _reject_constant(token):
    raise CheckError(f"non-finite JSON token {token}")


def parse_json(text: str) -> dict:
    """One RFC 8259 JSON object (NaN and Infinity are not JSON)."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckError("stdout is not a JSON object")
    return payload


def parse_csv(text: str) -> tuple:
    """(metadata, header, rows) of RFC 4180 CSV after '#' metadata lines."""
    if not text.endswith("\r\n") or "\n" in text.replace("\r\n", ""):
        raise CheckError("CSV records must end in CRLF")
    lines = text.split("\r\n")[:-1]
    meta = {}
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[1:].strip().partition("=")
        meta[key] = value
    try:
        records = list(csv.reader(io.StringIO("\r\n".join(lines), newline=""),
                                  strict=True))
    except csv.Error as exc:
        raise CheckError(f"malformed CSV: {exc}") from None
    if not records:
        raise CheckError("CSV has no header")
    header, rows = records[0], records[1:]
    if any(len(row) != len(header) for row in rows):
        raise CheckError("CSV rows differ in field count from the header")
    return meta, header, [dict(zip(header, row)) for row in rows]


def _float(value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise CheckError(f"not a number: {value!r}") from None
    if not math.isfinite(out):
        raise CheckError(f"non-finite value {value!r}")
    return out


def _theta(text: str, eps: float) -> ThetaPoint:
    theta = ThetaPoint(tuple(_float(v) for v in text.split(";")))
    if min(theta.theta) < eps - 1e-12:
        raise CheckError(f"argmax {theta.theta} leaves the floored simplex (eps={eps})")
    return theta


def _check_eps(reported, opts: dict, N: int) -> float:
    # the schedule eps_N = c N^(-r) at the default c = 1
    eps = _float(reported)
    if eps != float(N) ** -float(opts["--r"]):
        raise CheckError(f"eps {eps!r} at N={N} does not follow the schedule")
    return eps


def _floored_points(k: int, eps: float, seed: int) -> list:
    rng = random.Random(seed)
    points = [ThetaPoint.uniform(k), ThetaPoint.complete([eps] * (k - 1))]
    for _ in range(FLOORED_POINTS):
        raw = [rng.expovariate(1.0) for _ in range(k)]
        total = math.fsum(raw)
        points.append(ThetaPoint.complete(
            [eps + (1.0 - k * eps) * v / total for v in raw[:-1]]))
    return points


def check_sup_risk(opts: dict, payload: dict) -> None:
    (row,) = payload["results"]
    k, N = int(opts["--k"]), int(opts["--N"])
    if (row["k"], row["N"]) != (k, N):
        raise CheckError("reported k or N differs from the request")
    eps = _check_eps(row["eps"], opts, N)
    prior = getattr(SymmetricPrior, opts["--prior"])(k).expand()
    model = ModelSpec(k, N)
    sup = _float(row["sup_risk"])
    theta = _theta(row["argmax_theta"], eps)
    exact = risk_enumeration(prior, model, theta).exact_risk
    if abs(exact - sup) > SUP_RTOL * abs(exact):
        raise CheckError(f"sup {sup!r} differs from the enumeration risk "
                         f"{exact!r} at the argmax")
    for point in _floored_points(k, eps, int(opts.get("--seed", 0))):
        value = risk_enumeration(prior, model, point).exact_risk
        if value > sup * (1.0 + SUP_RTOL):
            raise CheckError(f"risk {value!r} at {point.theta} exceeds the sup {sup!r}")


def check_sandwich(opts: dict, meta: dict, rows: list) -> None:
    Ns = [int(v) for v in opts["--N"].split(",")]
    if [int(r["N"]) for r in rows] != Ns:
        raise CheckError("sandwich rows differ from the requested N list")
    crosscheck = json.loads(meta["crosscheck_scaled"], parse_constant=_reject_constant)
    if len(crosscheck) != len(rows):
        raise CheckError("crosscheck_scaled length differs from the row count")
    for row, cross in zip(rows, crosscheck):
        N = int(row["N"])
        _check_eps(row["eps"], opts, N)
        upper, lower = _float(row["upper"]), _float(row["lower"])
        bayes_full = upper + _float(cross) / (N * N)
        if not lower <= bayes_full + BRACKET_SLACK:
            raise CheckError(f"N={N}: lower {lower!r} > Bayes risk {bayes_full!r}")
        if not bayes_full <= upper + BRACKET_SLACK:
            raise CheckError(f"N={N}: Bayes risk {bayes_full!r} > upper {upper!r}")
        gap = _float(row["gap_scaled"])
        if abs(gap - N * N * (upper - lower)) > 1e-9 * abs(gap) + 1e-15:
            raise CheckError(f"N={N}: gap_scaled {gap!r} != N^2 (upper - lower)")


def check_expansion_error(opts: dict, rows: list) -> None:
    if (opts.get("--order"), opts.get("--variant")) != ("4", "full"):
        raise CheckError("the residual check covers --order 4 --variant full")
    k = int(opts["--k"])
    Ns = [int(v) for v in opts["--N"].split(",")]
    if [int(r["N"]) for r in rows] != Ns:
        raise CheckError("expansion rows differ from the requested N list")
    prior = getattr(SymmetricPrior, opts["--prior"])(k).expand()
    for row in rows:
        N = int(row["N"])
        eps = _check_eps(row["eps"], opts, N)
        model = ModelSpec(k, N)
        theta = _theta(row["argmax_theta"], eps)
        sup = _float(row["sup_abs_residual"])
        exact = risk_enumeration(prior, model, theta).exact_risk
        residual = abs(exact - risk_expansion(prior, model, theta).total)
        if abs(residual - sup) > RESIDUAL_TOL * exact:
            raise CheckError(f"N={N}: residual {residual!r} at the argmax "
                             f"differs from sup_abs_residual {sup!r}")
        scaled = _float(row["scaled_residual"])
        if abs(scaled - sup * N**5 * eps**4) > 1e-12 * abs(scaled):
            raise CheckError(f"N={N}: scaled_residual is not sup * N^5 eps^4")


def check_verify_lemmas(opts: dict, payload: dict) -> None:
    results = payload["results"]
    wanted = _SUITES if opts["--lemma"] == "all" else [int(opts["--lemma"])]
    if [r["lemma"] for r in results] != wanted:
        raise CheckError("verify-lemmas reports the wrong suites")
    trials = int(opts.get("--trials", 500))
    for r in results:
        if r["trials"] != trials:
            raise CheckError(f"lemma {r['lemma']}: {r['trials']} trials, asked {trials}")
        if not _float(r["max_violation"]) <= 0.0:
            raise CheckError(f"lemma {r['lemma']}: max_violation {r['max_violation']!r} > 0")


def check_risk(opts: dict, payload: dict) -> None:
    # only the README example is checked: k = 2, N = 1, alpha = 1, theta = 1/2
    if [opts.get(f) for f in ("--k", "--N", "--alpha", "--theta")] != ["2", "1", "1", "0.5,0.5"]:
        raise CheckError("the risk check covers the README example only")
    value = _float(payload["results"][0]["risk"])
    expected = 0.5 * math.log(9.0 / 8.0)
    if abs(value - expected) > 1e-14:
        raise CheckError(f"risk {value!r} != ln(9/8)/2 = {expected!r}")


def check(argv, rc: int, stdout: str) -> None:
    """Raise CheckError unless the job's exit code and output are right."""
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    command, opts = argv[0], _options(argv)
    if opts.get("--format", _DEFAULT_FORMAT.get(command, "csv")) == "json":
        payload = parse_json(stdout)
        meta, rows = None, None
    else:
        payload = None
        meta, _, rows = parse_csv(stdout)
    try:
        if command == "sup-risk":
            check_sup_risk(opts, payload)
        elif command == "sandwich":
            check_sandwich(opts, meta, rows)
        elif command == "expansion-error":
            check_expansion_error(opts, rows)
        elif command == "verify-lemmas":
            check_verify_lemmas(opts, payload)
        elif command == "risk":
            check_risk(opts, payload)
        else:
            raise CheckError(f"no check for command {command!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed {command} output: {exc!r}") from None
