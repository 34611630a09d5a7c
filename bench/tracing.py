"""Spans around ranksel's layers, recorded from outside the package.

Tracer.install() replaces each public function named in SPANS with a
wrapper at every binding in every loaded ranksel module (solve_h, for
example, is bound in hconst, procedures, efficiency and the package itself),
so calls made through any import path are recorded.  A span holds its name,
start, end, the span that was open on the calling thread when it started,
the run id (the index of the CLI command it belongs to) and a few counts
taken from the call's arguments or result.

Worker threads get their parent from the thread that submitted the task:
the ThreadPoolExecutor binding of each module is replaced by a subclass whose
submit() carries the submitting span and run id into the task, so spans of a
``--threads 2`` pass nest under the same parents as in a one-thread pass.

Functions in COUNTED are only counted (too frequent to time without
distorting the run).  Spans are kept in memory and written out by write().
The wrappers stay installed for the life of the process, which runs one
benchmark pass and exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MAX_OF_T_SUM = "max-of-t-sum"


def _points(args, kwargs, result):
    return {"points": int(np.size(args[0] if args else kwargs["x"]))}


def _solve(args, kwargs, result):
    return {"iterations": int(result.iterations), "residual": float(result.residual)}


def _quadrature(args, kwargs, result):
    return {"nodes": int(result.nodes), "refinements": int(result.refinements)}


def _replications(args, kwargs, result):
    return {"replications": int(result.replications)}


def _prior_draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


# (span name, module, attribute, attrs(args, kwargs, result) or None)
SPANS = [
    ("cli.main", "ranksel.cli", "main", None),
    ("hconst.h_table", "ranksel.hconst", "h_table", None),
    ("hconst.solve_h", "ranksel.hconst", "solve_h", _solve),
    ("distributions.t_logcdf", "ranksel.distributions", "t_logcdf", _points),
    ("distributions.t_quantile", "ranksel.distributions", "t_quantile", None),
    ("quadrature.panel_quadrature", "ranksel.quadrature", "panel_quadrature", _quadrature),
    ("quadrature.geometric_edges", "ranksel.quadrature", "geometric_edges", None),
    ("procedures.estimate_pcs", "ranksel.procedures", "estimate_pcs", _replications),
    ("procedures.run_procedure", "ranksel.procedures", "run_procedure", None),
    ("procedures.run_stage1", "ranksel.procedures", "run_stage1", None),
    ("efficiency.efficiency_curve", "ranksel.efficiency", "efficiency_curve", None),
    ("efficiency.estimate_alpha", "ranksel.efficiency", "estimate_alpha", None),
    ("extremes.fit_extremes", "ranksel.extremes", "fit_extremes", None),
    ("extremes.ad_distance", "ranksel.extremes", "ad_distance", None),
    ("extremes.hill_tail_index", "ranksel.extremes", "hill_tail_index", None),
]

COUNTED = [
    ("procedures.second_stage_size", "ranksel.procedures", "second_stage_size"),
    ("procedures.dd_weights", "ranksel.procedures", "dd_weights"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.counters = {name: itertools.count() for name, _, _ in COUNTED}
        self.generator_setups: list[float] = []
        self.extremes_draws: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- context --------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.run = None
        return loc

    def begin_run(self, run_id: int) -> None:
        loc = self._state()
        loc.stack = []
        loc.run = run_id

    def _linked(self, fn):
        """fn, run on a worker thread under the submitting thread's span."""
        caller = self._state()
        parent = caller.stack[-1] if caller.stack else None
        run = caller.run

        def task(*args, **kwargs):
            loc = self._state()
            saved = (loc.stack, loc.run)
            loc.stack = [parent] if parent is not None else []
            loc.run = run
            try:
                return fn(*args, **kwargs)
            finally:
                loc.stack, loc.run = saved

        return task

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._state()
            sid = next(tracer._ids)
            parent = loc.stack[-1] if loc.stack else None
            loc.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                loc.stack.pop()
                tracer.spans.append((sid, parent, loc.run, threading.get_ident(), name,
                                     start, end, None, type(exc).__name__))
                raise
            end = time.perf_counter()
            loc.stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            tracer.spans.append((sid, parent, loc.run, threading.get_ident(), name,
                                 start, end, extra, None))
            return result

        return wrapper

    def _counted(self, name, fn):
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement):
        """Point every ranksel module binding of `original` at `replacement`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ranksel" or modname.startswith("ranksel.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for name, modname, attr, attrs in SPANS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._rebind(original, self._span(name, original, attrs))
        for name, modname, attr in COUNTED:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._rebind(original, self._counted(name, original))
        self._install_methods()
        tracer = self

        class LinkedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._linked(fn), *args, **kwargs)

        self._rebind(ThreadPoolExecutor, LinkedExecutor)

    def _install_methods(self) -> None:
        import scipy.stats

        from ranksel.distributions import RandomStream
        from ranksel.procedures import VariancePrior

        # first access of RandomStream.generator builds the SeedSequence/PCG64
        prop = RandomStream.__dict__.get("generator")
        if isinstance(prop, property):
            fget = prop.fget
            setups = self.generator_setups

            def generator(stream):
                if "_bench_seen" in stream.__dict__:
                    return fget(stream)
                start = time.perf_counter()
                gen = fget(stream)
                setups.append(time.perf_counter() - start)
                stream.__dict__["_bench_seen"] = True
                return gen

            RandomStream.generator = property(generator)
        else:
            self.missing.append("distributions.generators_built")

        sample = VariancePrior.__dict__.get("sample")
        if sample is not None:
            VariancePrior.sample = self._span("procedures.prior_sample", sample, _prior_draws)
        else:
            self.missing.append("procedures.prior_sample")

        # gumbel_r.fit and invweibull.fit are the only scipy fits extremes makes
        for dist in (scipy.stats.gumbel_r, scipy.stats.invweibull):
            dist.fit = self._span("extremes.scipy_fit", dist.fit, None)

        # every extremes variate comes from _draw_base(gen, count, k, nu, statistic)
        extremes = sys.modules.get("ranksel.extremes")
        draw = getattr(extremes, "_draw_base", None)
        if draw is not None:
            tally = self.extremes_draws

            @functools.wraps(draw)
            def counting_draw(gen, count, k, nu, statistic):
                tally.append(count * k * (2 if statistic == _MAX_OF_T_SUM else 1))
                return draw(gen, count, k, nu, statistic)

            extremes._draw_base = counting_draw
        else:
            self.missing.append("extremes.draws")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "missing": self.missing,
                "counters": {name: next(c) for name, c in self.counters.items()},
                "generator_setups": self.generator_setups,
                "extremes_draws": sum(self.extremes_draws),
            }) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- analysis -------------------------------------------------------------

def read_spans(path: str) -> tuple[dict, list[dict]]:
    keys = ("id", "parent", "run", "thread", "name", "start", "end", "attrs", "error")
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [dict(zip(keys, json.loads(line))) for line in fh]
    return header, spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> None:
    """Set span["self"]: duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    for s in spans:
        kids = children.get(s["id"], [])
        clipped = [(max(lo, s["start"]), min(hi, s["end"])) for lo, hi in kids]
        s["self"] = (s["end"] - s["start"]) - _covered([c for c in clipped if c[1] > c[0]])


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: completed calls, failed calls, self and total seconds,
    summed counts from the span attributes and each completed duration."""
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "errors": 0, "self_s": 0.0,
                                         "total_s": 0.0, "sums": {}, "durations": []})
        agg["self_s"] += s["self"]
        agg["total_s"] += s["end"] - s["start"]
        if s["error"] is not None:
            agg["errors"] += 1
            continue
        agg["calls"] += 1
        agg["durations"].append(s["end"] - s["start"])
        for key, value in (s["attrs"] or {}).items():
            agg["sums"][key] = agg["sums"].get(key, 0) + value
    return out
