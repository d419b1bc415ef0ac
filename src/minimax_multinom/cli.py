"""Command-line front end.

Every experiment in the library is reachable as a subcommand with
machine-readable output (CSV or JSON), a full parameter echo in the output
header, and deterministic results for a fixed seed.  --threads is validated
and otherwise inert.  Risks are reported in nats unless --bits is given.

Exit codes: 0 success, 1 a numerical check failed (the failing witness is in
the payload), 2 invalid parameters.  Errors are emitted as a JSON object on
standard error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._pool import resolve_threads
from .analysis import (
    compare_priors,
    minimax_sandwich,
    optimal_alpha_search,
)
from .errors import CheckFailure, DomainError, SizeError
from .expansion import expansion_error_profile, minimax_alpha_identities
from .model import (
    ALPHA_MINIMAX,
    DEFAULT_SEED,
    EpsilonSchedule,
    ModelSpec,
    PriorSpec,
    ScheduleMode,
    SymmetricPrior,
    TruncatedSimplex,
)
from .moments import moment_closed_form, moment_recurrence
from .numkernel import check_seed
from .risk import (
    RiskMethod,
    ThetaPoint,
    risk_coordinatewise,
    risk_enumeration,
    sup_risk,
)
from .simplex import run_lemma_suite

LN2 = math.log(2.0)

_EPILOG = "Risks and Bayes risks are in nats; pass --bits to rescale by 1/ln 2."

#: the symmetric priors known by name
_NAMED_PRIORS = {
    "jeffreys": SymmetricPrior.jeffreys,
    "uniform": SymmetricPrior.uniform,
    "minimax": SymmetricPrior.minimax,
}


@dataclass
class RunConfig:
    command: str
    params: dict
    seed: int
    output: str  # "csv" | "json"
    out_path: str | None
    bits: bool


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as machine-readable JSON, exit 2."""

    def error(self, message):
        _emit_error("InvalidParameters", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str, witness=None) -> None:
    payload = {"error": {"type": kind, "message": message}}
    if witness is not None:
        payload["error"]["witness"] = witness
    print(json.dumps(payload, default=_jsonable), file=sys.stderr)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, (tuple, set)):
        return list(obj)
    if hasattr(obj, "value"):
        return obj.value
    return str(obj)


def _dumps(value) -> str:
    """Strict RFC 8259 JSON: a NaN or infinity raises ValueError."""
    return json.dumps(value, default=_jsonable, allow_nan=False)


def _parse_list(text: str, flag: str, cast) -> list:
    """The comma-joined values of a flag, or DomainError naming the flag."""
    try:
        return [cast(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise DomainError(
            f"{flag} needs comma-joined {cast.__name__} values, got {text!r}"
        ) from None


def _parse_theta(text: str, k: int) -> ThetaPoint:
    vals = _parse_list(text, "--theta", float)
    if len(vals) == k - 1:
        # last coordinate inferred from the unit-sum constraint
        return ThetaPoint.complete(vals)
    if len(vals) == k:
        return ThetaPoint(tuple(vals))
    raise DomainError(f"theta needs {k - 1} or {k} values, got {len(vals)}")


def _parse_prior(args, k: int) -> PriorSpec:
    if getattr(args, "prior", None):
        return _NAMED_PRIORS[args.prior](k).expand()
    if getattr(args, "a", None):
        return PriorSpec(tuple(_parse_list(args.a, "--a", float)))
    if getattr(args, "alpha", None) is not None:
        return SymmetricPrior(args.alpha, k).expand()
    raise DomainError("specify a prior via --alpha, --a or --prior")


def infer_mode(r: float) -> ScheduleMode:
    """Strictest schedule window the decay exponent satisfies."""
    if 1.0 / ALPHA_MINIMAX < r < 0.75:
        return ScheduleMode.MINIMAX
    if r < 0.75:
        return ScheduleMode.SECOND_ORDER
    if r < 1.0:
        return ScheduleMode.EXPANSION
    raise DomainError(f"decay exponent r={r!r} leaves every schedule window")


def _schedule(args) -> EpsilonSchedule:
    mode = ScheduleMode(args.mode) if getattr(args, "mode", None) else infer_mode(args.r)
    return EpsilonSchedule(c=args.c, r=args.r, mode=mode)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _rescale(row: dict, risk_keys, bits: bool) -> dict:
    if not bits:
        return row
    out = dict(row)
    for key in risk_keys:
        if key in out and isinstance(out[key], float):
            out[key] = out[key] / LN2
    return out


def _write_output(config: RunConfig, columns, rows, risk_keys=(), extra_meta=None):
    """rows: list of dicts.  CSV gets '#' metadata lines, then a header row."""
    rows = [_rescale(r, risk_keys, config.bits) for r in rows]
    meta = {
        "seed": config.seed,
        "version": __version__,
        "command": config.command,
        "params": config.params,
        "units": "bits" if config.bits else "nats",
    }
    if extra_meta:
        meta.update(extra_meta)
    if config.output == "json":
        payload = dict(meta)
        payload["results"] = rows
        text = _dumps(payload) + "\n"
    else:
        buf = io.StringIO()
        for key in ("seed", "version", "command", "units"):
            buf.write(f"# {key}={meta[key]}\r\n")
        buf.write(f"# params={_dumps(meta['params'])}\r\n")
        for key, value in (extra_meta or {}).items():
            buf.write(f"# {key}={_dumps(value)}\r\n")
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    if config.out_path and config.out_path != "-":
        with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_risk(args, config: RunConfig) -> int:
    model = ModelSpec(args.k, args.N)
    prior = _parse_prior(args, args.k)
    theta = _parse_theta(args.theta, args.k)
    methods = (
        [RiskMethod.ENUMERATION, RiskMethod.COORDINATEWISE]
        if args.method == "both"
        else [RiskMethod(args.method)]
    )
    rows = []
    for method in methods:
        fn = risk_enumeration if method is RiskMethod.ENUMERATION else risk_coordinatewise
        rep = fn(prior, model, theta)
        rows.append(
            {
                "method": method.value,
                "risk": rep.exact_risk,
                "per_coordinate": ";".join(repr(v) for v in rep.per_coordinate),
                "theta": ";".join(repr(v) for v in rep.theta.theta),
            }
        )
    _write_output(config, ["method", "risk", "per_coordinate", "theta"], rows,
                  risk_keys=["risk"])
    return 0


def _cmd_sup_risk(args, config: RunConfig) -> int:
    model = ModelSpec(args.k, args.N)
    prior = _parse_prior(args, args.k)
    if args.eps is not None:
        trunc = TruncatedSimplex(args.k, args.eps)
    else:
        trunc = _schedule(args).truncation(args.N, args.k)
    rep = sup_risk(
        prior, model, trunc,
        grid_size=args.grid_size, seed=config.seed,
    )
    row = {
        "k": args.k,
        "N": args.N,
        "eps": trunc.eps,
        "sup_risk": rep.sup_value,
        "argmax_theta": ";".join(repr(v) for v in rep.argmax_theta.theta),
    }
    extra = {"trace": [(label, value) for label, value in rep.search_trace]} \
        if args.trace else None
    _write_output(config, list(row), [row], risk_keys=["sup_risk"], extra_meta=extra)
    return 0


def _cmd_compare_priors(args, config: RunConfig) -> int:
    priors = []
    for token in args.priors.split(","):
        token = token.strip()
        if token in _NAMED_PRIORS:
            priors.append(_NAMED_PRIORS[token](args.k))
            continue
        try:
            alpha = float(token)
        except ValueError:
            alpha = math.nan
        if not (math.isfinite(alpha) and alpha > 0):
            raise DomainError(
                f"--priors: unknown prior {token!r}; use "
                f"{', '.join(_NAMED_PRIORS)} or a positive number"
            )
        priors.append(SymmetricPrior(alpha, args.k))
    rows = compare_priors(
        args.k, _parse_list(args.N, "--N", int), _schedule(args), priors,
        grid_size=args.grid_size, seed=config.seed,
    )
    columns = ["prior_label", "alpha", "k", "N", "eps", "sup_risk",
               "excess_over_t1", "scaled_excess"]
    _write_output(
        config, columns, [dataclasses.asdict(r) for r in rows],
        risk_keys=["sup_risk", "excess_over_t1", "scaled_excess"],
    )
    return 0


def _cmd_sandwich(args, config: RunConfig) -> int:
    schedule = EpsilonSchedule(c=args.c, r=args.r, mode=ScheduleMode.MINIMAX)
    result = minimax_sandwich(
        args.k, _parse_list(args.N, "--N", int), schedule,
        grid_size=args.grid_size, seed=config.seed,
    )
    columns = ["k", "N", "eps", "upper", "lower", "gap_scaled"]
    _write_output(
        config, columns, [dataclasses.asdict(r) for r in result.rows],
        risk_keys=["upper", "lower", "gap_scaled"],
        extra_meta={
            "crosscheck_scaled": list(result.crosscheck_scaled),
            "gap_trend_ok": result.gap_trend_ok,
            "crosscheck_trend_ok": result.crosscheck_trend_ok,
        },
    )
    return 0


def _cmd_expansion_error(args, config: RunConfig) -> int:
    prior = _parse_prior(args, args.k)
    rows = expansion_error_profile(
        prior, _schedule(args), _parse_list(args.N, "--N", int),
        truncation_order=args.order, variant=args.variant,
        grid_size=args.grid_size, seed=config.seed,
    )
    out_rows = [
        {
            "N": r.N,
            "eps": r.eps,
            "sup_abs_residual": r.sup_abs_residual,
            "scaled_residual": r.scaled_residual,
            "argmax_theta": ";".join(repr(v) for v in r.argmax_theta),
        }
        for r in rows
    ]
    _write_output(
        config, ["N", "eps", "sup_abs_residual", "scaled_residual", "argmax_theta"],
        out_rows, risk_keys=["sup_abs_residual"],
    )
    return 0


def _cmd_verify_lemmas(args, config: RunConfig) -> int:
    try:
        numbers = [1, 4, 5, 6, 7, 8] if args.lemma == "all" else [int(args.lemma)]
    except ValueError:
        raise DomainError(
            f"--lemma needs a check number or 'all', got {args.lemma!r}"
        ) from None
    reports = [run_lemma_suite(n, args.trials, seed=config.seed) for n in numbers]
    rows = [r.to_dict() for r in reports]
    if config.output == "csv":
        # nested report fields become JSON strings inside the CSV cells
        for row in rows:
            row["witness"] = json.dumps(row["witness"], default=_jsonable)
            row["tolerances"] = json.dumps(row["tolerances"], default=_jsonable)
    _write_output(
        config,
        ["lemma", "trials", "max_violation", "witness", "seed", "tolerances"],
        rows,
    )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_moments(args, config: RunConfig) -> int:
    if (args.N is None) != (args.theta is None):
        raise DomainError("--N and --theta must be given together")
    if args.theta is not None and not 0.0 < args.theta < 1.0:
        raise DomainError(f"--theta must lie in (0, 1), got {args.theta!r}")
    polys = moment_recurrence(args.m_max)
    rows = []
    for poly in polys:
        row = {"order": poly.order, "pretty": poly.pretty()}
        if args.N is not None:
            row["value"] = float(poly.evaluate(args.N, args.theta))
            if poly.order <= 8:
                row["closed_form"] = moment_closed_form(poly.order, args.N, args.theta)
            else:
                row["closed_form"] = row["value"]
        rows.append(row)
    columns = list(rows[0].keys())
    _write_output(config, columns, rows)
    return 0


def _cmd_optimal_alpha(args, config: RunConfig) -> int:
    try:
        lo, hi, step = (float(v) for v in args.alpha_grid.split(":"))
        valid = all(map(math.isfinite, (lo, hi, step))) and step > 0
    except ValueError:  # not three numbers
        valid = False
    if not valid:
        raise DomainError("--alpha-grid needs finite start:stop:step with step > 0")
    grid = []
    v = lo
    while v <= hi + 1e-12:
        grid.append(round(v, 10))
        v += step
    if not grid:
        raise DomainError(f"--alpha-grid {args.alpha_grid} is empty: start > stop")
    alpha_star, curve = optimal_alpha_search(
        args.k, args.N, _schedule(args), grid,
        grid_size=args.grid_size, seed=config.seed,
    )
    rows = [{"alpha": a, "sup_risk": s} for a, s in curve]
    _write_output(
        config, ["alpha", "sup_risk"], rows, risk_keys=["sup_risk"],
        extra_meta={"alpha_star": alpha_star},
    )
    return 0


def _cmd_identities(args, config: RunConfig) -> int:
    report = minimax_alpha_identities()
    rows = [
        {"identity": name, "lhs": lhs, "rhs": rhs, "abs_diff": diff}
        for name, lhs, rhs, diff in report.rows
    ]
    _write_output(config, ["identity", "lhs", "rhs", "abs_diff"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(sp, default_format="csv"):
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for every randomized component (default 0x5EED)")
    sp.add_argument("--threads", type=int, default=None,
                    help="validated (at least 1; falls back to "
                         "MINIMAX_MULTINOM_THREADS) and otherwise inert: every "
                         "command runs its jobs in order on one thread, so it "
                         "changes neither results nor how the work runs")
    sp.add_argument("--format", choices=["csv", "json"], default=default_format,
                    help=f"output format (default {default_format})")
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")
    sp.add_argument("--bits", action="store_true",
                    help="report risks in bits instead of nats")


def _add_schedule(sp):
    sp.add_argument("--c", type=float, default=1.0, help="floor scale c")
    sp.add_argument("--r", type=float, default=0.73,
                    help="floor decay exponent r in eps_N = c*N^(-r)")
    sp.add_argument("--mode", choices=[m.value for m in ScheduleMode], default=None,
                    help="schedule window (default: strictest window r fits)")


def _add_prior_args(sp):
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=float, default=None,
                       help="symmetric Dirichlet concentration")
    group.add_argument("--a", default=None, help="comma-joined Dirichlet parameters")
    group.add_argument("--prior", choices=list(_NAMED_PRIORS),
                       default=None, help="named symmetric prior")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minimax-multinom", epilog=_EPILOG, description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "risk", epilog=_EPILOG,
        help="exact prediction risk (nats) at one parameter point",
        description="Exact average Kullback-Leibler prediction risk of the "
                    "Dirichlet-prior predictive at a fixed simplex point, by "
                    "full enumeration and/or the O(Nk) separable form.",
    )
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--theta", required=True,
                    help="comma-joined coordinates; the last may be omitted")
    sp.add_argument("--method",
                    choices=["enumeration", "coordinatewise", "both"],
                    default="coordinatewise")
    _add_prior_args(sp)
    _add_common(sp, default_format="json")
    sp.set_defaults(handler=_cmd_risk)

    sp = sub.add_parser(
        "sup-risk", epilog=_EPILOG,
        help="supremum of the risk over a floored simplex",
        description="Maximize the prediction risk over the simplex with "
                    "coordinates floored at eps, reporting the maximizer and "
                    "the search trace.",
    )
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--eps", type=float, default=None,
                    help="explicit floor (otherwise c*N^(-r))")
    sp.add_argument("--grid-size", type=int, default=512)
    sp.add_argument("--trace", action="store_true", help="include the search trace")
    _add_prior_args(sp)
    _add_schedule(sp)
    _add_common(sp, default_format="json")
    sp.set_defaults(handler=_cmd_sup_risk)

    sp = sub.add_parser(
        "compare-priors", epilog=_EPILOG,
        help="sup-risk excess over (k-1)/(2N) across priors and N",
        description="For each prior and sample size, the sup risk over the "
                    "floored simplex, its excess over (k-1)/(2N), and the "
                    "N^2-scaled excess.  The minimax concentration "
                    "1 + 1/sqrt(6) keeps the scaled excess bounded near "
                    "-(k-1)(1+(7+2*sqrt(6))k)/12, while the Jeffreys prior's "
                    "grows like 1/(24 eps_N).",
    )
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--N", required=True, help="comma-joined sample sizes")
    sp.add_argument("--priors", default="jeffreys,uniform,minimax",
                    help="comma-joined names or concentrations")
    sp.add_argument("--grid-size", type=int, default=512)
    _add_schedule(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_compare_priors)

    sp = sub.add_parser(
        "sandwich", epilog=_EPILOG,
        help="computable bracket around the minimax risk",
        description="Per sample size: lower = Bayes risk of the truncated-"
                    "prior predictive under the truncated minimax-prior "
                    "weight; upper = sup risk of the full-prior predictive. "
                    "The minimax value lies in [lower, upper]; the N^2-scaled "
                    "width is reported for trend analysis.",
    )
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--N", required=True, help="comma-joined sample sizes")
    sp.add_argument("--grid-size", type=int, default=512)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--r", type=float, default=0.73,
                    help="must lie in the minimax window (~0.7101, 0.75)")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_sandwich)

    sp = sub.add_parser(
        "expansion-error", epilog=_EPILOG,
        help="sup |exact risk - asymptotic expansion| across N",
        description="Sup over the floored simplex of the absolute difference "
                    "between the exact risk and the expansion truncated at "
                    "the requested order, with the residual scaled by "
                    "N^5*eps^4 (full order 4) or N^2 (otherwise).",
    )
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--N", required=True, help="comma-joined sample sizes")
    sp.add_argument("--order", type=int, default=4, choices=[1, 2, 3, 4])
    sp.add_argument("--variant", choices=["full", "reduced"], default="full")
    sp.add_argument("--grid-size", type=int, default=128)
    _add_prior_args(sp)
    _add_schedule(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_expansion_error)

    sp = sub.add_parser(
        "verify-lemmas", epilog=_EPILOG,
        help="randomized inequality/identity suites (see README catalogue)",
        description="Run one numbered check suite on seeded random draws; "
                    "max_violation <= 0 means every instance held within "
                    "integrator slack.  Exit code 1 on violation, with the "
                    "witness in the payload.",
    )
    sp.add_argument("--lemma", required=True,
                    help="check number (1, 4, 5, 6, 7, 8) or 'all'")
    sp.add_argument("--trials", type=int, default=500)
    _add_common(sp, default_format="json")
    sp.set_defaults(handler=_cmd_verify_lemmas)

    sp = sub.add_parser(
        "moments", epilog=_EPILOG,
        help="binomial central-moment polynomials and evaluations",
        description="Exact central-moment polynomials in the (N*theta)-power "
                    "basis up to the requested order, optionally evaluated "
                    "(recurrence vs closed form) at a given (N, theta).",
    )
    sp.add_argument("--m-max", type=int, default=8)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--theta", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_moments)

    sp = sub.add_parser(
        "optimal-alpha", epilog=_EPILOG,
        help="finite-N grid search for the best symmetric concentration",
        description="Minimize the sup risk over symmetric Dirichlet "
                    "concentrations on a grid; the asymptotic optimum is "
                    "1 + 1/sqrt(6) ~ 1.4082.",
    )
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--alpha-grid", default="0.5:2.5:0.05",
                    help="start:stop:step")
    sp.add_argument("--grid-size", type=int, default=256)
    _add_schedule(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_optimal_alpha)

    sp = sub.add_parser(
        "identities", epilog=_EPILOG,
        help="algebraic identities of the minimax concentration",
        description="Check the closed-form identities satisfied by "
                    "1 + 1/sqrt(6) to 1e-13.",
    )
    _add_common(sp)
    sp.set_defaults(handler=_cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command", "seed", "format", "out",
                       "threads", "bits")
        and value is not None
    }
    try:
        resolve_threads(args.threads)  # validated; no command reads it
        config = RunConfig(
            command=args.command,
            params=params,
            seed=check_seed(args.seed),
            output=args.format,
            out_path=args.out,
            bits=args.bits,
        )
        # no numpy warning may print ahead of the one JSON error
        with np.errstate(all="ignore"):
            return args.handler(args, config)
    except (DomainError, SizeError, ValueError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    except CheckFailure as exc:
        _emit_error("CheckFailure", str(exc), getattr(exc, "witness", None))
        return 1
    except Exception as exc:  # noqa: BLE001 - surface everything as JSON
        _emit_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
