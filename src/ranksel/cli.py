"""Batch command-line front end with reproducible, self-describing outputs.

Every run writes a header holding the canonical JSON config (command,
seed, format and all command parameters) followed by a timestamp line and
the data rows.  Feeding that embedded config back through --config
reproduces the file bit-for-bit apart from the timestamp.  All randomness
comes from substreams keyed by stable ids, so the output does not depend on
the CPU count; --threads is still accepted for old command lines and configs
and changes nothing.

Exit codes: 0 success, 2 argument/usage error, 3 solver failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from ranksel.distributions import RandomStream, ScheduleSpec
from ranksel.efficiency import efficiency_curve, theoretical_eta
from ranksel.extremes import MAX_OF_T, STATISTICS, TriangularArraySpec, fit_extremes
from ranksel.hconst import DD, RINOTT, SolverError, h_table
from ranksel.procedures import (
    ProcedureParams,
    VariancePrior,
    estimate_pcs,
    make_slippage_instance,
)

__all__ = ["main", "entrypoint", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4

SEED_ENV_VAR = "RANKSEL_SEED"
FORMATS = ("csv", "jsonl")
_COMMON_KEYS = ("seed", "format", "out", "threads")
EFFICIENCY_SCHEDULES = ("constant", "log-growth", "power-growth")
# extremes' --nu-schedule names for the ScheduleSpec kinds
NU_SCHEDULES = {"fixed": "constant", "log": "log-growth", "linear": "linear"}


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_list(value) -> list[int]:
    if isinstance(value, str):
        value = [part for part in value.replace(" ", "").split(",") if part]
    out = [int(v) for v in value]
    if not out:
        raise UsageError("expected a non-empty comma-separated integer list")
    return out


def _float_list(value) -> list[float]:
    if isinstance(value, str):
        value = [part for part in value.replace(" ", "").split(",") if part]
    return [float(v) for v in value]


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file; explicit flags override it")
    common.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")
    common.add_argument("--format", choices=FORMATS, help="output format (default csv)")
    common.add_argument("--out", help="output path, '-' for stdout (default)")
    common.add_argument("--threads", type=int,
                        help="accepted for old command lines and ignored (must be >= 1)")

    parser = _Parser(
        prog="ranksel",
        description="two-stage best-population selection toolkit",
        parents=[common],
    )
    parser.set_defaults(**{key: None for key in _COMMON_KEYS}, config=None)

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("hconst", parents=[common], argument_default=argparse.SUPPRESS,
                       help="solve both critical-constant equations over a k grid")
    p.add_argument("--ks", help="comma-separated k values, ascending")
    p.add_argument("--k", type=int, help="single k (alternative to --ks)")
    p.add_argument("--nu", type=int, help="degrees of freedom")
    p.add_argument("--p", type=float, help="target confidence in (0,1)")

    p = sub.add_parser("pcs", parents=[common], argument_default=argparse.SUPPRESS,
                       help="estimate probability of correct selection on a slippage instance")
    p.add_argument("--k", type=int, help="number of competitor populations")
    p.add_argument("--n0", type=int, help="pilot sample size (nu = n0 - 1)")
    p.add_argument("--p", type=float, help="target confidence in (0,1)")
    p.add_argument("--delta", type=float, help="indifference parameter (default 1.0)")
    p.add_argument("--gap", type=float, help="actual mean gap; must exceed delta")
    p.add_argument("--replications", type=int, help="Monte Carlo replications (default 10000)")
    p.add_argument("--variants", choices=("both", DD, RINOTT), help="which procedures (default both)")
    p.add_argument("--variances", help="comma-separated k+1 variances (default all 1)")
    p.add_argument("--method", choices=("chi2", "exact"), help="stage sampling path (default chi2)")

    p = sub.add_parser("efficiency", parents=[common], argument_default=argparse.SUPPRESS,
                       help="tabulate h ratios and normalized expected sample sizes over k")
    p.add_argument("--ks", help="comma-separated k values, ascending")
    p.add_argument("--nu", type=int, help="degrees of freedom for the constant schedule")
    p.add_argument("--schedule", choices=EFFICIENCY_SCHEDULES,
                   help="nu(k) schedule, pilot size nu + 1 (default constant; needs --nu)")
    p.add_argument("--p", type=float, help="target confidence in (0,1)")
    p.add_argument("--delta", type=float, help="indifference parameter (default 1.0)")
    p.add_argument("--prior", help="variance prior, e.g. inverse-gamma:3,4 (default)")
    p.add_argument("--replications", type=int, help="Monte Carlo replications (default 100000)")

    p = sub.add_parser("extremes", parents=[common], argument_default=argparse.SUPPRESS,
                       help="fit diagnostics for triangular-array maxima of t statistics")
    p.add_argument("--ks", help="comma-separated k values, ascending")
    p.add_argument("--nu", type=int, help="degrees of freedom for the fixed schedule")
    p.add_argument("--nu-schedule", choices=tuple(NU_SCHEDULES),
                   help="nu as a function of k (default fixed; needs --nu)")
    p.add_argument("--statistic", choices=STATISTICS, help="base statistic (default max-of-t)")
    p.add_argument("--replications", type=int, help="maxima replications (default 10000)")

    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def _effective(args: argparse.Namespace, config: dict, key: str, default=None, required=False):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        value = default
    if value is None and required:
        raise UsageError(f"missing required parameter --{key.replace('_', '-')}")
    return value


def _resolve_seed(args: argparse.Namespace, config: dict) -> int:
    value = _effective(args, config, "seed")
    if value is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                value = int(env)
            except ValueError as err:
                raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {env!r}") from err
    return int(value) if value is not None else 0


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(", ", ": "))


def _cell_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cell_json(value):
    if value is None:
        return None
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return None if math.isnan(value) else value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _render(fmt: str, config: dict, rows: list[dict]) -> str:
    """The output text; the first row's keys give the column order."""
    columns = list(rows[0])
    stamp = datetime.now(timezone.utc).isoformat()
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# config {_canonical(config)}\n")
        buf.write(f"# timestamp {stamp}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell_csv(row[c]) for c in columns])
        return buf.getvalue()
    lines = [
        json.dumps({"record": "config", "config": config}, sort_keys=True),
        json.dumps({"record": "timestamp", "timestamp": stamp}, sort_keys=True),
    ]
    for row in rows:
        obj = {"record": "row"}
        obj.update({c: _cell_json(row[c]) for c in columns})
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + "\n"


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_hconst(args, config, seed):
    ks_raw = _effective(args, config, "ks")
    if ks_raw is None:
        single = _effective(args, config, "k")
        if single is None:
            raise UsageError("hconst needs --ks or --k")
        ks = [int(single)]
    else:
        ks = _int_list(ks_raw)
    nu = int(_effective(args, config, "nu", required=True))
    p = float(_effective(args, config, "p", required=True))
    cfg = {"command": "hconst", "ks": ks, "nu": nu, "p": p}
    rows = [
        {
            "k": r.k,
            "nu": r.nu,
            "p": r.p,
            "h_dd": r.dd.value,
            "h_rinott": r.rinott.value,
            "ratio": r.ratio if not math.isnan(r.ratio) else None,
            "residual_dd": r.dd.residual,
            "residual_rinott": r.rinott.residual,
        }
        for r in h_table(ks, nu, p)
    ]
    return cfg, rows


def _cmd_pcs(args, config, seed):
    k = int(_effective(args, config, "k", required=True))
    n0 = int(_effective(args, config, "n0", required=True))
    p = float(_effective(args, config, "p", required=True))
    delta = float(_effective(args, config, "delta", 1.0))
    gap = float(_effective(args, config, "gap", required=True))
    replications = int(_effective(args, config, "replications", 10_000))
    variants = _effective(args, config, "variants", "both")
    variances_raw = _effective(args, config, "variances")
    method = _effective(args, config, "method", "chi2")
    chosen = [DD, RINOTT] if variants == "both" else [variants]
    # validates k (at most 2^24 - 1) before the default variances are built
    all_params = [ProcedureParams(p=p, delta=delta, k=k, n0=n0, variant=v) for v in chosen]
    variances = (
        [1.0] * (k + 1) if variances_raw is None else _float_list(variances_raw)
    )
    cfg = {
        "command": "pcs", "k": k, "n0": n0, "p": p, "delta": delta, "gap": gap,
        "replications": replications, "variants": variants, "variances": variances,
        "method": method,
    }
    rng = RandomStream(seed)
    rows = []
    for params in all_params:
        instance = make_slippage_instance(params, gap, variances)
        est = estimate_pcs(
            params, instance, replications,
            rng.substream(0 if params.variant == DD else 1), method=method,
        )
        rows.append({
            "variant": params.variant, "k": k, "n0": n0, "p": p, "delta": delta,
            "gap": gap, "replications": replications, "pcs": est.pcs,
            "std_error": est.std_error, "mean_total": est.mean_total,
            "h": est.h_used.value, "residual": est.h_used.residual,
        })
    return cfg, rows


def _cmd_efficiency(args, config, seed):
    ks = _int_list(_effective(args, config, "ks", required=True))
    schedule_kind = _effective(args, config, "schedule", "constant")
    nu = _effective(args, config, "nu")
    if schedule_kind not in EFFICIENCY_SCHEDULES:
        raise UsageError(
            f"schedule kind must be one of {EFFICIENCY_SCHEDULES}, got {schedule_kind!r}"
        )
    if schedule_kind == "constant":
        if nu is None:
            raise UsageError("constant schedule needs --nu")
        schedule = ScheduleSpec("constant", int(nu))
    else:
        schedule = ScheduleSpec(schedule_kind)
    p = float(_effective(args, config, "p", required=True))
    delta = float(_effective(args, config, "delta", 1.0))
    prior_text = _effective(args, config, "prior", "inverse-gamma:3,4")
    replications = int(_effective(args, config, "replications", 100_000))
    try:
        prior = VariancePrior.from_string(prior_text)
    except ValueError as err:
        raise UsageError(str(err)) from err
    cfg = {
        "command": "efficiency", "ks": ks, "schedule": schedule_kind,
        "p": p, "delta": delta, "prior": prior_text, "replications": replications,
    }
    eta = None
    if schedule_kind == "constant":
        cfg["nu"] = schedule.nu
        eta = theoretical_eta(schedule.nu)
    rows = [
        {
            "k": r.k, "nu": r.nu, "n0": r.n0,
            "h_dd": r.h_dd.value, "h_rinott": r.h_rinott.value,
            "h_ratio": r.h_ratio, "h_ratio_sq": r.h_ratio_sq,
            "alpha_dd": r.alpha_dd.alpha, "alpha_dd_se": r.alpha_dd.std_error,
            "alpha_rinott": r.alpha_rinott.alpha,
            "alpha_rinott_se": r.alpha_rinott.std_error,
            "alpha_ratio": r.alpha_ratio, "total_ratio": r.total_ratio,
            "lhat_dd": r.lhat_dd, "lhat_rinott": r.lhat_rinott,
            "theoretical_eta": eta,
        }
        for r in efficiency_curve(ks, schedule, p, delta, prior, replications, RandomStream(seed))
    ]
    return cfg, rows


def _cmd_extremes(args, config, seed):
    ks = _int_list(_effective(args, config, "ks", required=True))
    nu_schedule = _effective(args, config, "nu_schedule", "fixed")
    nu = _effective(args, config, "nu")
    statistic = _effective(args, config, "statistic", MAX_OF_T)
    replications = int(_effective(args, config, "replications", 10_000))
    if nu_schedule not in NU_SCHEDULES:
        raise UsageError(f"nu schedule must be one of {tuple(NU_SCHEDULES)}, got {nu_schedule!r}")
    if nu_schedule == "fixed":
        if nu is None:
            raise UsageError("fixed nu schedule needs --nu")
        schedule = ScheduleSpec("constant", int(nu))
    else:
        schedule = ScheduleSpec(NU_SCHEDULES[nu_schedule])
    try:
        spec = TriangularArraySpec(tuple(ks), schedule, statistic, replications)
    except ValueError as err:
        raise UsageError(str(err)) from err
    cfg = {
        "command": "extremes", "ks": ks, "nu_schedule": nu_schedule,
        "statistic": statistic, "replications": replications,
    }
    if nu_schedule == "fixed":
        cfg["nu"] = schedule.nu
    rows = [
        {
            "k": r.k, "nu": r.nu, "statistic": statistic,
            "replications": replications, "median": r.median, "iqr": r.iqr,
            "ad_gumbel": r.ad_gumbel, "ad_frechet": r.ad_frechet,
            "hill_index": r.hill_index,
        }
        for r in fit_extremes(spec, RandomStream(seed))
    ]
    return cfg, rows


_COMMANDS = {
    "hconst": _cmd_hconst,
    "pcs": _cmd_pcs,
    "efficiency": _cmd_efficiency,
    "extremes": _cmd_extremes,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config) if args.config else {}
        command = args.command or config.get("command")
        if command is None:
            raise UsageError("no command given (pass a subcommand or a config with one)")
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r} in config")
        if args.command is not None and "command" in config and config["command"] != args.command:
            raise UsageError(
                f"config is for {config['command']!r} but {args.command!r} was requested"
            )
        seed = _resolve_seed(args, config)
        fmt = _effective(args, config, "format", "csv")
        if fmt not in FORMATS:
            raise UsageError(f"format must be one of {FORMATS}, got {fmt!r}")
        out = getattr(args, "out", None)
        threads = int(_effective(args, config, "threads", 1))
        if threads < 1:
            raise UsageError(f"threads must be >= 1, got {threads}")
        cfg, rows = _COMMANDS[command](args, config, seed)
        cfg["seed"] = seed
        cfg["format"] = fmt
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        _write(out, _render(fmt, cfg, rows))
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
