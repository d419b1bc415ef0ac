"""Span tracer and per-layer metrics for traced benchmark runs.

The tracer wraps the program's layer entry points from outside: it replaces
every module binding of a wrapped function (``stable_sum`` is bound in
``numkernel``, ``risk``, ``expansion``, ``simplex`` and ``model``;
``ordered_map`` in ``_pool``, ``analysis``, ``risk`` and ``expansion``) and
the class attribute of a wrapped method, and restores them on exit.  Each
call records a span ``(id, name, start, end, parent, job, extra)``; after
each round the spans are summed and compressed in memory, and the run writes
them out when it ends.  Worker threads of
``ordered_map`` inherit the map's span as their parent.

Layer metrics and the end-to-end metric each should move (per round, so a
run's round count does not change them):

====================================================  ==========================
``numkernel.stable_sum.{calls,terms,self_s,...}``     ``wall_s`` on sup-large-N;
                                                      no change on bracket-small-N
``numkernel.log_beta_segment.{calls,self_s}``         ``wall_s`` on bracket-small-N,
                                                      residual-k3
``risk.coordinate.{calls,self_s}``                    ``wall_s`` on bracket-small-N
``risk.coordinate.{points,us_per_point}``             ``wall_s``, ``peak_rss_mb``
                                                      on sup-large-N
``risk.sup_risk``, ``risk.search.*``                  ``wall_s``, ``job_max_s`` on
                                                      sup-large-N
``risk.search.ascent_win_frac``                       ``wall_s`` on sup-large-N;
                                                      stays meaningful on residual-k3
``risk.bayes_risk``, ``risk.bayes.integrand_evals``   ``wall_s`` on bracket-small-N
``risk.TruncatedPredictiveTable.*``,
``simplex.log_i_trunc.*``                             ``wall_s`` on bracket-small-N
``expansion.expansion_error_profile.self_s``,
``simplex.run_lemma_suite.*``                         ``wall_s`` on residual-k3
``analysis.minimax_sandwich.s``, ``cli.main.self_s``  ``wall_s`` on every workload
``pool.*``                                            ``wall_s``, ``cpu_s`` on
                                                      every workload
====================================================  ==========================

``model`` and ``moments`` get no metric: no workload spends measurable time
there.  ``.calls`` counts spans, ``.s`` sums their wall time and ``.self_s``
that time less the part covered by child spans.  Spans in ``ordered_map``
workers run side by side, so these sums add up across workers and, under
the interpreter lock, include time spent waiting for it; ``pool.busy_frac``
(item time / (map wall x workers)) and ``pool.cpu_busy_frac`` (item CPU
time on the same base) show how much.  The residual closure that
``expansion_error_profile`` hands the search is traced as
``expansion.residual`` and counted in the expansion's self time.
"""

from __future__ import annotations

import gzip
import io
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "minimax_multinom"

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("numkernel.stable_sum.calls", "count", "lower"),
    ("numkernel.stable_sum.terms", "count", "lower"),
    ("numkernel.stable_sum.self_s", "s", "lower"),
    ("numkernel.stable_sum.ns_per_term", "ns", "lower"),
    ("numkernel.log_beta_segment.calls", "count", "lower"),
    ("numkernel.log_beta_segment.self_s", "s", "lower"),
    ("risk.coordinate.calls", "count", "lower"),
    ("risk.coordinate.points", "count", "lower"),
    ("risk.coordinate.self_s", "s", "lower"),
    ("risk.coordinate.us_per_point", "us", "lower"),
    ("risk.sup_risk.calls", "count", "lower"),
    ("risk.sup_risk.s", "s", "lower"),
    ("risk.search.grid.calls", "count", "lower"),
    ("risk.search.grid.s", "s", "lower"),
    ("risk.search.ascent.starts", "count", "lower"),
    ("risk.search.ascent.s", "s", "lower"),
    ("risk.search.ascent_win_frac", "frac", "higher"),
    ("risk.bayes_risk.calls", "count", "lower"),
    ("risk.bayes_risk.s", "s", "lower"),
    ("risk.bayes.integrand_evals", "count", "lower"),
    ("risk.TruncatedPredictiveTable.build_s", "s", "lower"),
    ("risk.TruncatedPredictiveTable.rows", "count", "lower"),
    ("risk.TruncatedPredictiveTable.memo_hit_frac", "frac", "higher"),
    ("simplex.log_i_trunc.calls", "count", "lower"),
    ("simplex.log_i_trunc.self_s", "s", "lower"),
    ("expansion.expansion_error_profile.self_s", "s", "lower"),
    ("simplex.run_lemma_suite.calls", "count", "lower"),
    ("simplex.run_lemma_suite.s", "s", "lower"),
    ("analysis.minimax_sandwich.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("pool.ordered_map.calls", "count", "lower"),
    ("pool.ordered_map.items", "count", "lower"),
    ("pool.workers", "count", "higher"),
    ("pool.busy_frac", "frac", "higher"),
    ("pool.cpu_busy_frac", "frac", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans around the program's layer entry points."""

    def __init__(self):
        self.spans = []
        self.totals = Counter()
        self.archive = SpanArchive()
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        # candidates returned by search pieces, keyed by maximizer id
        self._candidates = defaultdict(list)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, prepare=None, finish=None):
        """fn wrapped in a span.  prepare(sid, args, kwargs) may rewrite the
        arguments and returns (args, kwargs, extra); finish(extra, args,
        result) returns the extra stored with the span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            extra = None
            start = time.perf_counter()
            try:
                if prepare is not None:
                    args, kwargs, extra = prepare(sid, args, kwargs)
                result = fn(*args, **kwargs)
                if finish is not None:
                    extra = finish(extra, args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job, extra))

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch_function(self, module, attr, wrapper_of):
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self) -> None:
        """Wrap every traced layer."""
        pkg = sys.modules
        cli = pkg[PACKAGE + ".cli"]
        numkernel = pkg[PACKAGE + ".numkernel"]
        risk = pkg[PACKAGE + ".risk"]
        simplex = pkg[PACKAGE + ".simplex"]
        expansion = pkg[PACKAGE + ".expansion"]
        analysis = pkg[PACKAGE + ".analysis"]
        pool = pkg[PACKAGE + "._pool"]

        def span(name, prepare=None, finish=None):
            return lambda fn: self.wrap(name, fn, prepare, finish)

        self._patch_function(cli, "main", span("cli.main"))
        self._patch_function(numkernel, "stable_sum",
                             span("numkernel.stable_sum", _prepare_stable_sum))
        self._patch_function(numkernel, "log_beta_segment",
                             span("numkernel.log_beta_segment"))
        self._patch_function(simplex, "log_i_trunc", span("simplex.log_i_trunc"))
        self._patch_function(simplex, "run_lemma_suite",
                             span("simplex.run_lemma_suite"))
        self._patch_function(risk, "sup_risk", span("risk.sup_risk"))
        self._patch_function(risk, "bayes_risk", span("risk.bayes_risk"))
        self._patch_function(expansion, "expansion_error_profile",
                             span("expansion.expansion_error_profile"))
        self._patch_function(analysis, "minimax_sandwich",
                             span("analysis.minimax_sandwich"))
        self._patch_function(pool, "ordered_map", span(
            "pool.ordered_map", self._prepare_map(pool.resolve_threads)))

        evaluator = risk.CoordinateRiskEvaluator
        self._patch_method(evaluator, "coordinate",
                           span("risk.coordinate", _prepare_coordinate))
        self._patch_method(evaluator, "risk",
                           span("risk.CoordinateRiskEvaluator.risk"))
        self._patch_method(risk.TruncatedPredictiveTable, "__init__", span(
            "risk.TruncatedPredictiveTable", finish=_finish_table))
        maximizer = risk.SeparableMaximizer
        init = maximizer.__dict__["__init__"]

        def traced_init(mx, h, *args, **kwargs):
            # expansion_error_profile hands the search a residual closure;
            # its time outside risk.coordinate is the expansion's own work
            if getattr(h, "__module__", None) == expansion.__name__:
                h = self.wrap("expansion.residual", h)
            init(mx, h, *args, **kwargs)

        self._patch_method(maximizer, "__init__", lambda fn: traced_init)
        self._patch_method(maximizer, "maximize", span(
            "risk.search.maximize", finish=self._finish_maximize))
        self._patch_method(maximizer, "_family_candidates", span(
            "risk.search.grid", finish=self._keep_candidates))
        self._patch_method(maximizer, "_ascent", span(
            "risk.search.ascent", finish=self._keep_candidates))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_round(self) -> None:
        """Fold the round's spans into the totals and the archive, and
        release them."""
        merge_totals(self.totals, round_totals(self.spans))
        self.archive.add(self.spans)
        del self.spans[:]
        self._candidates.clear()

    # -- hooks -----------------------------------------------------------

    def _prepare_map(self, resolve_threads):
        def prepare(sid, args, kwargs):
            fn, items = args[0], list(args[1])
            threads = args[2] if len(args) > 2 else kwargs.get("threads")
            # the worker count _pool.ordered_map will use
            n = resolve_threads(threads)
            workers = 1 if n <= 1 or len(items) <= 1 else min(n, len(items))
            extra = {"items": len(items), "workers": workers, "busy": [], "cpu": []}

            def timed(item):
                stack = self._stack()
                stack.append(sid)
                start, cpu = time.perf_counter(), time.thread_time()
                try:
                    return fn(item)
                finally:
                    extra["busy"].append(time.perf_counter() - start)
                    extra["cpu"].append(time.thread_time() - cpu)
                    stack.pop()

            return (timed, items) + tuple(args[2:]), kwargs, extra

        return prepare

    def _keep_candidates(self, extra, args, result):
        found = result if isinstance(result, list) else [result]
        self._candidates[id(args[0])].extend(found)
        return extra

    def _finish_maximize(self, extra, args, result):
        maximizer = args[0]
        found = self._candidates.pop(id(maximizer), [])
        try:
            return winning_label(maximizer, result[2], found)
        except (AttributeError, KeyError):
            # the search changed shape; the tracer must not fail the job
            return "unknown"


def _prepare_stable_sum(sid, args, kwargs):
    terms = args[0]
    if not hasattr(terms, "__len__"):
        # a generator: drain it inside the span, as fsum would
        terms = list(terms)
    return (terms,) + tuple(args[1:]), kwargs, len(terms)


def _prepare_coordinate(sid, args, kwargs):
    return args, kwargs, int(np.size(args[2]))


def _finish_table(extra, args, result):
    rows, k = args[0].comps.shape
    return (rows, k)


def _round_theta(theta) -> tuple:
    """risk._round_theta without tracing its stable_sum."""
    theta = [float(v) for v in theta]
    imax = max(range(len(theta)), key=theta.__getitem__)
    theta[imax] = 1.0 - math.fsum(v for i, v in enumerate(theta) if i != imax)
    return tuple(theta)


def winning_label(maximizer, trace, candidates) -> str:
    """The trace label SeparableMaximizer.maximize selects, by its rule:
    candidates in trace order, a later one wins when better by more than
    the tie tolerance, or tied with a lexicographically smaller theta."""
    tie = sys.modules[PACKAGE + ".risk"]._TIE_TOL
    k, eps = maximizer.k, maximizer.eps
    thetas = {c.label: c.theta for c in candidates}
    thetas["uniform"] = tuple([1.0 / k] * k)
    for j in range(1, k):
        thetas[f"floor[j={j}]"] = maximizer._family_theta(tuple(range(j)), eps)
    best = None
    for label, value in trace:
        theta = _round_theta(thetas[label])
        if min(theta) < eps - 1e-12:
            continue
        if (best is None or value > best[0] + tie
                or (abs(value - best[0]) <= tie and theta < best[1])):
            best = (value, theta, label)
    return best[2]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def round_totals(spans) -> Counter:
    """Raw sums over the spans of one round: calls, inclusive and self time
    by span name, and the counts behind the ratio metrics."""
    children = defaultdict(list)
    names = {}
    parents = {}
    for sid, name, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
        names[sid] = name
        parents[sid] = parent

    def under(sid: int, ancestor: str) -> bool:
        while sid:
            if names[sid] == ancestor:
                return True
            sid = parents[sid]
        return False

    t = Counter()
    for sid, name, start, end, parent, _, extra in spans:
        t["calls:" + name] += 1
        t["incl:" + name] += end - start
        t["own:" + name] += end - start - _covered(children.get(sid, ()), start, end)
        if name == "numkernel.stable_sum":
            t["terms"] += extra
        elif name == "risk.coordinate":
            t["points"] += extra
        elif name == "risk.search.maximize":
            t["solves"] += 1
            t["ascent_wins"] += extra.startswith("ascent[")
        elif name == "risk.TruncatedPredictiveTable":
            rows, k = extra
            t["table_rows"] += rows
            t["table_lookups"] += rows * (k + 1)
        elif name == "simplex.log_i_trunc":
            t["table_misses"] += under(parent, "risk.TruncatedPredictiveTable")
        elif name == "risk.CoordinateRiskEvaluator.risk":
            t["integrand_evals"] += under(parent, "risk.bayes_risk")
        elif name == "pool.ordered_map":
            t["map_items"] += extra["items"]
            t["workers"] = max(t["workers"], extra["workers"])
            if extra["workers"] > 1:
                t["busy"] += math.fsum(extra["busy"])
                t["busy_cpu"] += math.fsum(extra["cpu"])
                t["capacity"] += (end - start) * extra["workers"]
    return t


def merge_totals(total: Counter, part: Counter) -> None:
    workers = max(total["workers"], part["workers"])
    total.update(part)
    total["workers"] = workers


#: per-round metrics: the totals each one sums
_PER_ROUND = {
    "numkernel.stable_sum.calls": ("calls:numkernel.stable_sum",),
    "numkernel.stable_sum.terms": ("terms",),
    "numkernel.stable_sum.self_s": ("own:numkernel.stable_sum",),
    "numkernel.log_beta_segment.calls": ("calls:numkernel.log_beta_segment",),
    "numkernel.log_beta_segment.self_s": ("own:numkernel.log_beta_segment",),
    "risk.coordinate.calls": ("calls:risk.coordinate",),
    "risk.coordinate.points": ("points",),
    "risk.coordinate.self_s": ("own:risk.coordinate",),
    "risk.sup_risk.calls": ("calls:risk.sup_risk",),
    "risk.sup_risk.s": ("incl:risk.sup_risk",),
    "risk.search.grid.calls": ("calls:risk.search.grid",),
    "risk.search.grid.s": ("incl:risk.search.grid",),
    "risk.search.ascent.starts": ("calls:risk.search.ascent",),
    "risk.search.ascent.s": ("incl:risk.search.ascent",),
    "risk.bayes_risk.calls": ("calls:risk.bayes_risk",),
    "risk.bayes_risk.s": ("incl:risk.bayes_risk",),
    "risk.bayes.integrand_evals": ("integrand_evals",),
    "risk.TruncatedPredictiveTable.build_s": ("incl:risk.TruncatedPredictiveTable",),
    "risk.TruncatedPredictiveTable.rows": ("table_rows",),
    "simplex.log_i_trunc.calls": ("calls:simplex.log_i_trunc",),
    "simplex.log_i_trunc.self_s": ("own:simplex.log_i_trunc",),
    "expansion.expansion_error_profile.self_s": (
        "own:expansion.expansion_error_profile", "own:expansion.residual"),
    "simplex.run_lemma_suite.calls": ("calls:simplex.run_lemma_suite",),
    "simplex.run_lemma_suite.s": ("incl:simplex.run_lemma_suite",),
    "analysis.minimax_sandwich.s": ("incl:analysis.minimax_sandwich",),
    "cli.main.self_s": ("own:cli.main",),
    "pool.ordered_map.calls": ("calls:pool.ordered_map",),
    "pool.ordered_map.items": ("map_items",),
}


def layer_metrics(t: Counter, rounds: int) -> dict:
    """Per-layer metrics per traced round, from the merged round totals."""

    def ratio(num, den):
        return num / den if den else 0.0

    out = {name: sum(t[key] for key in keys) / rounds
           for name, keys in _PER_ROUND.items()}
    out.update({
        "numkernel.stable_sum.ns_per_term":
            1e9 * ratio(t["own:numkernel.stable_sum"], t["terms"]),
        "risk.coordinate.us_per_point": 1e6 * ratio(t["own:risk.coordinate"], t["points"]),
        "risk.search.ascent_win_frac": ratio(t["ascent_wins"], t["solves"]),
        "risk.TruncatedPredictiveTable.memo_hit_frac":
            1.0 - ratio(t["table_misses"], t["table_lookups"]) if t["table_lookups"] else 0.0,
        "pool.workers": t["workers"],
        "pool.busy_frac": ratio(t["busy"], t["capacity"]),
        "pool.cpu_busy_frac": ratio(t["busy_cpu"], t["capacity"]),
    })
    return out


class SpanArchive:
    """Spans as gzipped CSV (id, name, start, end, parent, job), held in
    memory until the run writes them out."""

    def __init__(self):
        self._buffer = io.BytesIO()
        self._gzip = gzip.GzipFile(fileobj=self._buffer, mode="wb")
        self._gzip.write(b"id,name,start,end,parent,job\n")

    def add(self, spans) -> None:
        self._gzip.write("".join(
            f"{sid},{name},{start!r},{end!r},{parent},{job}\n"
            for sid, name, start, end, parent, job, _ in spans
        ).encode("utf-8"))

    def save(self, path) -> None:
        self._gzip.close()
        path.write_bytes(self._buffer.getvalue())
