"""ranksel benchmark: end-to-end timings of the CLI and a traced per-layer breakdown.

    python3 bench/run.py --workload {solve-grid,pcs-sim,bulk-mc} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; ranksel is imported from its ``src``
directory, never from an installed copy.  Every pass is a fresh
single-threaded Python process (bench/child.py) that imports ranksel.cli and
runs the workload's commands (bench/workloads.py) through ranksel.cli.main
with ``--threads 1``.  Every output row is checked (bench/checks.py).

--trace 0 repeats passes for S seconds (at least three) and reports the
end-to-end metrics: setup_s (fresh interpreter until ranksel.cli is imported
and its parser built; two fresh processes per pass, one of them set-up only),
wall_s (compute time of one pass), solves_per_s and peak_rss_mb, as medians.
The host's speed drifts by tens of percent while a run lasts, so each
command's time and each set-up time is scaled by a fixed calibration kernel
timed beside it (bench/child.py) to the speed given by
CALIBRATION_REFERENCE_S; the raw times are kept in the record.

--trace 1 runs one untraced pass, two traced passes and one traced
``--threads 2`` pass, plus ``python -X importtime`` (it does not use S), and
reports per-layer self times and counts (bench/tracing.py), the tracing
overhead, and checks that the traced counts match the outputs and repeat
exactly, that every h solve's residual is below 1e-8, and that every layer the
workload is meant to move is instrumented and recorded.  A per-layer metric
whose instrumentation is absent from the program reads null.

The last line of standard output is the result as one JSON object; the lines
before it are a readable summary.  A fuller record, with provenance and the
sample count behind every median, is written to .bench_out/ in the checkout.
Exit status is 0 with a result, 2 without one (the checkout has no ranksel
sources, or the program could not be started at all).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import RESIDUAL_TOL, check_rows, parse_rows  # noqa: E402
from tracing import aggregate, read_spans, self_times  # noqa: E402
from workloads import WORKLOADS, commands, extremes_draws, options, work  # noqa: E402

MIN_PASSES = 3
# bench/child.py's calibration kernel, best of three, on a 2.1 GHz Xeon vCPU
# with the host quiet: wall_s is given at this machine speed
CALIBRATION_REFERENCE_S = 0.009
IMPORTTIME_RUNS = 3
# every process is stopped by then, so a run ends within 180 s either way
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Bench:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.out_dir = os.path.join(root, ".bench_out")
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe_outcomes: list[str] = []
        self.deadline = time.monotonic() + DEADLINE_S

    # -- processes --------------------------------------------------------

    def run_process(self, argv: list[str]) -> subprocess.CompletedProcess:
        """Run a process in the checkout; it is killed at the run's deadline."""
        try:
            return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"run did not finish within {DEADLINE_S} s") from err

    def spawn(self, cmds: list[dict], spans_out: str | None = None) -> dict:
        job = {"src": self.src, "commands": [c["argv"] for c in cmds],
               "spans_out": spans_out}
        job["t_spawn"] = time.monotonic()
        proc = self.run_process([sys.executable, os.path.join(HERE, "child.py"),
                                json.dumps(job)])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"benchmark process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def run_pass(self, threads: int = 1, spans_out: str | None = None) -> dict:
        """One pass over the workload; checks every command's output."""
        cmds = commands(self.workload, self.seed, threads)
        result = self.spawn(cmds, spans_out)
        wall = 0.0
        for cmd, res in zip(cmds, result["commands"]):
            res["label"] = cmd["label"]
            res["probe"] = cmd["probe"]
            res["rows"] = parse_rows(res["stdout"]) if res["rc"] == 0 else []
            problems = self.check(cmd, res)
            if cmd["probe"]:
                self.probe_outcomes.append("; ".join(problems) or "ok")
                continue
            wall += res["wall_s"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.append(f"{cmd['label']} (threads {threads}): "
                                     + "; ".join(problems)[:500])
        result["wall_s"] = wall
        result["scaled_wall_s"] = sum(at_reference_speed(r) for r in result["commands"]
                                      if not r["probe"])
        result["cmds"] = cmds
        return result

    def check(self, cmd: dict, res: dict) -> list[str]:
        if res["error"] is not None:
            return [f"raised {res['error']}"]
        if res["rc"] != 0:
            return [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"]
        ref = None if cmd["probe"] else self.reference["commands"].get(cmd["key"])
        if ref is None and not cmd["probe"]:
            return ["no reference output for this command"]
        return check_rows(cmd["argv"][0], res["rows"], ref)

    def setup_only(self) -> dict:
        return self.spawn([])

    def importtime(self) -> dict[str, float]:
        """Import cost split from ``python -X importtime -c 'import ranksel.cli'``."""
        proc = self.run_process([sys.executable, "-X", "importtime", "-c", "import ranksel.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import of ranksel.cli failed: {proc.stderr.strip()[-2000:]}")
        # one entry per module, children listed before their parent, nesting
        # shown by two spaces of indent per level
        entries = []
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip(), int(fields[0]) * 1e-6, int(fields[1]) * 1e-6))
        parents, later = [], {}
        for depth, name, _, _ in reversed(entries):
            parents.append(later.get(depth - 1, ""))
            later[depth] = name
        parents.reverse()

        def cost(prefix):
            """Cumulative time of the outermost imports of a package's modules;
            a lazily imported package may have no line of its own."""
            mine = lambda n: n == prefix or n.startswith(prefix + ".")
            return sum(cum for (_, name, _, cum), parent in zip(entries, parents)
                       if mine(name) and not mine(parent))

        return {
            "cli.import_s": cost("ranksel"),
            "cli.import_scipy_optimize_s": cost("scipy.optimize"),
            "cli.import_scipy_stats_s": cost("scipy.stats"),
            "cli.import_ranksel_self_s": sum(own for _, name, own, _ in entries
                                             if name.split(".")[0] == "ranksel"),
        }

    def inputs_work(self) -> dict[str, int]:
        total = {"solves": 0, "reps": 0, "draws": 0}
        for _, argv in WORKLOADS[self.workload]["commands"]:
            for key, value in work(argv).items():
                total[key] += value
        return total

    # -- runs -------------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        self.setup_only()  # fills the bytecode and file caches; not measured
        passes, spawns = [], []
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            result = self.run_pass()
            passes.append(result)
            spawns += [result, self.setup_only()]
        raw = [p["wall_s"] for p in passes]
        # each command's time at the reference machine speed, median over passes
        scaled = per_command(passes, statistics.median, at_reference_speed)
        wall = sum(scaled.values())
        w = self.inputs_work()
        pass_scaled = [sum(at_reference_speed(r) for r in p["commands"] if not r["probe"])
                       for p in passes]
        wall_s = summary(pass_scaled, "s")
        wall_s["value"] = wall
        wall_s["how"] = (f"sum over {len(scaled)} commands of each one's median over "
                         f"{len(passes)} passes, at reference machine speed; raw pass wall "
                         f"median {statistics.median(raw):.6g} s")
        solves = {"value": w["solves"] / wall, "unit": "1/s", "samples": len(passes),
                  "q1": w["solves"] / wall_s["q3"], "q3": w["solves"] / wall_s["q1"],
                  "how": f"{w['solves']} solves / wall_s"}
        setup_s = summary([setup_time(p) for p in spawns], "s")
        setup_s["how"] = (f"median over {len(spawns)} fresh processes, at reference machine "
                          f"speed; raw median "
                          f"{statistics.median(p['setup_s'] for p in spawns):.6g} s")
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "solves_per_s": solves,
            "peak_rss_mb": summary([p["peak_rss_mb"] for p in passes], "MB"),
        }
        extra = {"reps_per_s": rate(w["reps"], wall), "draws_per_s": rate(w["draws"], wall),
                 "raw_wall_s": summary(raw, "s"),
                 "raw_setup_s": summary([p["setup_s"] for p in spawns], "s"),
                 "command_s": scaled,
                 "raw_command_s": per_command(passes, statistics.median, lambda r: r["wall_s"]),
                 "calibration_s": summary([r["calibration_s"] for p in passes
                                           for r in p["commands"]], "s")}
        return {"metrics": metrics, "extra": extra, "passes": len(passes)}

    def traced(self) -> dict:
        self.setup_only()
        os.makedirs(self.out_dir, exist_ok=True)
        stem = os.path.join(self.out_dir, f"spans-{self.workload}-seed{self.seed}")
        untraced = self.run_pass()
        a = self.run_pass(spans_out=stem + "-a.jsonl")
        b = self.run_pass(spans_out=stem + "-b.jsonl")
        c = self.run_pass(threads=2, spans_out=stem + "-threads2.jsonl")
        imports = [self.importtime() for _ in range(IMPORTTIME_RUNS)]

        head_a, spans_a = read_spans(stem + "-a.jsonl")
        head_b, spans_b = read_spans(stem + "-b.jsonl")
        head_c, spans_c = read_spans(stem + "-threads2.jsonl")
        for spans in (spans_a, spans_b, spans_c):
            self_times(spans)
        agg_a = aggregate(spans_a)
        problems = []

        counts_a, counts_b = exact_counts(agg_a, head_a), exact_counts(aggregate(spans_b), head_b)
        counts_c = exact_counts(aggregate(spans_c), head_c)
        if counts_a != counts_b:
            problems.append(f"exact counts differ between two traced passes: "
                            f"{diff(counts_a, counts_b)}")
        for cmd, res_a, res_c in zip(a["cmds"], a["commands"], c["commands"]):
            if res_a["rows"] != res_c["rows"]:
                problems.append(f"{cmd['label']}: --threads 2 changed the output rows")
        problems += completeness(a, spans_a, head_a)
        problems += instrumented(self.workload, agg_a, head_a)
        residuals = [s["attrs"]["residual"] for spans in (spans_a, spans_b, spans_c)
                     for s in spans if s["name"] == "hconst.solve_h" and s["error"] is None]
        too_big = [r for r in residuals if not (math.isfinite(r) and r < RESIDUAL_TOL)]
        if too_big:
            problems.append(f"{len(too_big)} of {len(residuals)} traced h solves have a "
                            f"residual not below {RESIDUAL_TOL}: {too_big[:3]}")

        # both ratios from times at reference machine speed, so that host drift
        # between the passes does not read as tracing or threading cost
        overhead = a["scaled_wall_s"] / untraced["scaled_wall_s"]
        traced_wall = sum(r["wall_s"] for r in a["commands"])
        coverage = sum(s["self"] for s in spans_a) / traced_wall
        # the gap is the harness's own time around ranksel.cli.main; it must
        # stay within what tracing is allowed to add
        floor = 1.0 / max(overhead, 1.01)
        if not floor <= coverage <= 1.0 + 1e-9:
            problems.append(f"self times cover {coverage:.4f} of the traced wall, "
                            f"outside [{floor:.4f}, 1]")

        w = self.inputs_work()
        layer = layer_metrics(agg_a, head_a, spans_a, a)
        layer["hconst.solve_h.residual_max"] = (
            max(residuals) if residuals and all(map(math.isfinite, residuals)) else None,
            "ratio")
        layer["cli.threads2_wall_ratio"] = (c["scaled_wall_s"] / a["scaled_wall_s"], "ratio")
        layer["trace.overhead_ratio"] = (overhead, "ratio")
        layer["reps_per_s"] = (rate(w["reps"], untraced["scaled_wall_s"]), "1/s")
        layer["draws_per_s"] = (rate(w["draws"], untraced["scaled_wall_s"]), "1/s")
        for name in imports[0]:
            layer[name] = (statistics.median(i[name] for i in imports), "s")
        layer["hconst.probe_failures"] = (
            sum(o != "ok" for o in self.probe_outcomes), "count")
        self.failures += problems
        info = {
            "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": a["wall_s"],
            "threads2_traced_wall_s": c["wall_s"],
            "ratios_from": "pass times at reference machine speed",
            "scaled_wall_s": {"untraced": untraced["scaled_wall_s"],
                              "traced": a["scaled_wall_s"],
                              "threads2_traced": c["scaled_wall_s"]},
            "solve_h_residuals_checked": len(residuals),
            "untraced_setup_s": untraced["setup_s"],
            "self_time_coverage": coverage,
            "exact_counts": counts_a,
            "exact_counts_threads2": counts_c,
            "threads2_counts_match": counts_a == counts_c,
            "missing_instrumentation": head_a["missing"],
            "importtime_runs": IMPORTTIME_RUNS,
            "solve_h_latency_samples": len(agg_a.get("hconst.solve_h", {}).get("durations", [])),
            "solve_h_tail_percentile": tail_percentile(
                len(agg_a.get("hconst.solve_h", {}).get("durations", []))),
        }
        return {"layer": layer, "info": info}


# -- metric helpers ---------------------------------------------------------

def summary(values: list[float], unit: str) -> dict:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"value": statistics.median(values), "unit": unit, "samples": len(values),
            "q1": qs[0], "q3": qs[2]}


def tail_percentile(samples: int) -> float | None:
    """Highest percentile of a fixed ladder with at least ten samples beyond it."""
    best = None
    for pct in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if samples * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            best = pct
    return best


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rate(amount: int, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def at_reference_speed(res: dict) -> float:
    """A command's wall time scaled by the machine speed measured around it."""
    return res["wall_s"] * CALIBRATION_REFERENCE_S / res["calibration_s"]


def setup_time(spawn: dict) -> float:
    """A process's set-up time scaled by the machine speed measured right after it."""
    return spawn["setup_s"] * CALIBRATION_REFERENCE_S / spawn["setup_calibration_s"]


def per_command(passes: list[dict], reduce, wall) -> dict[str, float]:
    """reduce() of wall(record) of each timed command over the passes, by label."""
    labels = [r["label"] for r in passes[0]["commands"] if not r["probe"]]
    return {label: reduce([wall(r) for p in passes for r in p["commands"]
                           if r["label"] == label])
            for label in labels}


def diff(a: dict, b: dict) -> dict:
    return {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}


def exact_counts(agg: dict, head: dict) -> dict[str, int]:
    """Counts that must repeat bit for bit between two passes at one seed."""
    def total(name, key=None):
        entry = agg.get(name)
        if entry is None:
            return 0
        return entry["calls"] if key is None else entry["sums"].get(key, 0)

    out = {
        "hconst.solve_h.calls": total("hconst.solve_h"),
        "hconst.solve_h.iterations": total("hconst.solve_h", "iterations"),
        "quadrature.panel_quadrature.calls": total("quadrature.panel_quadrature"),
        "quadrature.panel_quadrature.nodes": total("quadrature.panel_quadrature", "nodes"),
        "quadrature.panel_quadrature.refinements":
            total("quadrature.panel_quadrature", "refinements"),
        "distributions.t_logcdf.calls": total("distributions.t_logcdf"),
        "distributions.t_logcdf.points": total("distributions.t_logcdf", "points"),
        "distributions.generators_built": len(head["generator_setups"]),
        "procedures.estimate_pcs.replications":
            total("procedures.estimate_pcs", "replications"),
        "procedures.run_procedure.calls": total("procedures.run_procedure"),
        "procedures.run_stage1.calls": total("procedures.run_stage1"),
        "procedures.prior_sample.draws": total("procedures.prior_sample", "draws"),
        "efficiency.estimate_alpha.calls": total("efficiency.estimate_alpha"),
        "extremes.draws": head["extremes_draws"],
    }
    out.update(head["counters"])
    return out


def completeness(run: dict, spans: list[dict], head: dict) -> list[str]:
    """Traced counts against the counts implied by each command's output."""
    problems = []
    missing = set(head["missing"])
    by_run: dict[int, list[dict]] = {}
    for s in spans:
        by_run.setdefault(s["run"], []).append(s)
    roots = sum(1 for s in spans if s["name"] == "cli.main" and s["parent"] is None)
    if "cli.main" not in missing and roots != len(run["cmds"]):
        problems.append(f"{roots} cli.main root spans for {len(run['cmds'])} commands")
    want_extremes = 0
    for i, (cmd, res) in enumerate(zip(run["cmds"], run["commands"])):
        if cmd["probe"] or res["rc"] != 0:
            continue
        command, rows = cmd["argv"][0], res["rows"]
        spans_i = by_run.get(i, [])

        def count(name, key=None):
            done = [s for s in spans_i if s["name"] == name and s["error"] is None]
            return len(done) if key is None else sum(s["attrs"][key] for s in done)

        checks = []
        if command in ("hconst", "efficiency"):
            checks.append(("hconst.solve_h", "solve_h calls", count("hconst.solve_h"),
                           2 * len(rows)))
        if command == "pcs":
            checks.append(("procedures.estimate_pcs", "replications",
                           count("procedures.estimate_pcs", "replications"),
                           sum(r["replications"] for r in rows)))
        if command == "efficiency":
            checks.append(("efficiency.estimate_alpha", "estimate_alpha calls",
                           count("efficiency.estimate_alpha"), 2 * len(rows)))
            reps = int(options(cmd["argv"])["replications"])
            checks.append(("procedures.prior_sample", "prior draws",
                           count("procedures.prior_sample", "draws"), 2 * reps * len(rows)))
        if command == "extremes":
            width = {"max-of-t": 1, "max-of-t-sum": 2}
            from_rows = sum(r["k"] * r["replications"] * width[r["statistic"]] for r in rows)
            if from_rows != extremes_draws(cmd["argv"]):
                problems.append(f"{cmd['label']}: output rows disagree with the inputs")
            want_extremes += from_rows
        for name, what, got, want in checks:
            if name not in missing and got != want:
                problems.append(f"{cmd['label']}: traced {what} {got}, outputs imply {want}")
    if "extremes.draws" not in missing and head["extremes_draws"] != want_extremes:
        problems.append(f"traced extremes draws {head['extremes_draws']}, "
                        f"outputs imply {want_extremes}")
    return problems


def observed(agg: dict, head: dict) -> dict[str, int]:
    """Calls (or, for the draw tally, variates) recorded per instrumentation name."""
    seen = {name: entry["calls"] + entry["errors"] for name, entry in agg.items()}
    seen.update(head["counters"])
    seen["distributions.generators_built"] = len(head["generator_setups"])
    seen["extremes.draws"] = head["extremes_draws"]
    return seen


def instrumented(workload: str, agg: dict, head: dict) -> list[str]:
    """The workload's layers that are absent from the program or recorded nothing."""
    missing, seen = set(head["missing"]), observed(agg, head)
    problems = []
    for name in WORKLOADS[workload]["traced"]:
        if name in missing:
            problems.append(f"{name} is not instrumented: the program has no such function")
        elif not seen.get(name):
            problems.append(f"{name} recorded nothing on this workload")
    return problems


def layer_metrics(agg: dict, head: dict, spans: list[dict], run: dict) -> dict:
    """Per-layer metrics of one traced pass; None where the instrumentation is absent."""
    missing = set(head["missing"])

    def get(name, field="self_s", key=None):
        if name in missing:
            return None
        entry = agg.get(name)
        if entry is None:
            return 0
        if key is not None:
            return entry["sums"].get(key, 0)
        return entry[field]

    out = {}
    for name in ("cli.main", "distributions.t_logcdf", "distributions.t_quantile",
                 "quadrature.panel_quadrature", "quadrature.geometric_edges",
                 "hconst.solve_h", "procedures.estimate_pcs", "procedures.run_procedure",
                 "procedures.run_stage1", "procedures.prior_sample",
                 "efficiency.estimate_alpha", "efficiency.efficiency_curve",
                 "extremes.fit_extremes", "extremes.scipy_fit", "extremes.ad_distance",
                 "extremes.hill_tail_index"):
        self_s = get(name)
        out[f"{name}.self_s"] = (None if self_s is None else float(self_s), "s")
    for name in ("distributions.t_logcdf", "distributions.t_quantile",
                 "quadrature.panel_quadrature", "hconst.solve_h",
                 "procedures.run_procedure", "procedures.run_stage1",
                 "efficiency.estimate_alpha"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
    points = get("distributions.t_logcdf", key="points")
    out["distributions.t_logcdf.points"] = (points, "count")
    ns_per_point = points and get("distributions.t_logcdf") / points * 1e9
    out["distributions.t_logcdf.ns_per_point"] = (ns_per_point, "ns")
    generators = "distributions.generators_built" not in missing
    out["distributions.generators_built"] = (
        len(head["generator_setups"]) if generators else None, "count")
    out["distributions.generator_setup_s"] = (
        sum(head["generator_setups"]) if generators else None, "s")
    out["quadrature.panel_quadrature.nodes"] = (
        get("quadrature.panel_quadrature", key="nodes"), "count")
    out["quadrature.panel_quadrature.refinements"] = (
        get("quadrature.panel_quadrature", key="refinements"), "count")
    out["hconst.solve_h.iterations"] = (get("hconst.solve_h", key="iterations"), "count")
    durations = [d * 1e3 for d in agg.get("hconst.solve_h", {}).get("durations", [])]
    tail = tail_percentile(len(durations)) or 50.0
    out["hconst.solve_h.p50_ms"] = (percentile(durations, 50) if durations else None, "ms")
    out["hconst.solve_h.tail_ms"] = (percentile(durations, tail) if durations else None, "ms")
    out["procedures.estimate_pcs.replications"] = (
        get("procedures.estimate_pcs", key="replications"), "count")
    out["procedures.prior_sample.draws"] = (get("procedures.prior_sample", key="draws"), "count")
    for name, counter in head["counters"].items():
        out[f"{name}.calls"] = (None if name in missing else counter, "count")
    out["extremes.draws"] = (
        None if "extremes.draws" in missing else head["extremes_draws"], "count")

    # microseconds per replication of each pcs command, its h solves removed
    timed = not {"procedures.estimate_pcs", "hconst.solve_h"} & missing
    for label in ("k4", "k100", "k1000", "exact"):
        out[f"procedures.rep_us.{label}"] = (0.0 if timed else None, "us")
    for i, cmd in enumerate(run["cmds"]):
        if cmd["argv"][0] != "pcs":
            continue
        mine = [s for s in spans if s["run"] == i and s["error"] is None]
        pcs = sum(s["end"] - s["start"] for s in mine if s["name"] == "procedures.estimate_pcs")
        solves = sum(s["end"] - s["start"] for s in mine if s["name"] == "hconst.solve_h")
        reps = sum(s["attrs"]["replications"] for s in mine
                   if s["name"] == "procedures.estimate_pcs")
        if reps and timed:
            out[f"procedures.rep_us.{cmd['label']}"] = ((pcs - solves) / reps * 1e6, "us")
    return out


# -- entry point ------------------------------------------------------------

def provenance(root: str, args, extra: dict) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished": datetime.now(timezone.utc).isoformat(),
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ranksel benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "ranksel", "cli.py")):
        print(f"no ranksel sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            outcome = bench.traced()
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in sorted(outcome["layer"].items())}
            extra = {"trace_info": outcome["info"]}
        else:
            outcome = bench.timed(args.seconds)
            metrics = outcome["metrics"]
            extra = {"passes": outcome["passes"], **outcome["extra"]}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2

    total = bench.attempted + len(bench.probe_outcomes)
    failed_all = bench.failed + sum(o != "ok" for o in bench.probe_outcomes)
    extra["fail_frac"] = {"value": failed_all / total, "unit": "ratio", "failed": failed_all,
                          "attempted": total, "includes_probe": bool(bench.probe_outcomes)}
    extra["probe_outcomes"] = sorted(set(bench.probe_outcomes))
    extra["failures"] = bench.failures
    record = {"provenance": provenance(root, args, extra), "metrics": metrics}
    os.makedirs(bench.out_dir, exist_ok=True)
    path = os.path.join(bench.out_dir,
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print_summary(record)
    correct = bench.failed == 0 and not bench.failures
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


def print_summary(record: dict) -> None:
    prov = record["provenance"]
    print(f"# workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"sha {prov['git_sha']}  nproc {prov['nproc']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  scipy {prov['scipy']}")
    for name, m in record["metrics"].items():
        if m["value"] is None:
            print(f"# {name:42s} null  (instrumentation absent from the program, "
                  f"or no finite value)")
            continue
        line = f"# {name:42s} {m['value']:.6g} {m['unit']}"
        if "how" in m:
            line += f"  {m['how']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        elif "samples" in m:
            line += f"  median of {m['samples']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        print(line)
    for name in ("reps_per_s", "draws_per_s"):
        if name in prov:
            print(f"# {name:42s} {prov[name]:.6g} 1/s")
    ff = prov["fail_frac"]
    print(f"# {'fail_frac':42s} {ff['value']:.6g} ratio  ({ff['failed']} of {ff['attempted']} "
          f"commands{', known-defect probe included' if ff['includes_probe'] else ''})")
    for outcome in prov["probe_outcomes"]:
        print(f"# known-defect probe (hconst --k 2 --nu 10000 --p 0.9): {outcome}")
    info = prov.get("trace_info")
    if info:
        print(f"# untraced pass: setup {info['untraced_setup_s']:.4g} s, wall "
              f"{info['untraced_wall_s']:.4g} s; traced wall {info['traced_wall_s']:.4g} s; "
              f"--threads 2 traced wall {info['threads2_traced_wall_s']:.4g} s")
        print(f"# self times cover {info['self_time_coverage']:.4f} of the traced wall; "
              f"exact counts repeat: {'no' if any('exact counts' in f for f in prov['failures']) else 'yes'}; "
              f"--threads 2 counts match: {'yes' if info['threads2_counts_match'] else 'no'}")
        print(f"# solve_h latency: {info['solve_h_latency_samples']} samples, tail percentile "
              f"{info['solve_h_tail_percentile'] or 50.0}; import split: median of "
              f"{info['importtime_runs']} -X importtime runs")
        if info["missing_instrumentation"]:
            print(f"# not instrumented (absent from the program): "
                  f"{', '.join(info['missing_instrumentation'])}")
    for failure in prov["failures"]:
        print(f"# FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
