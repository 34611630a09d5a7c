"""Batch command-line front end with reproducible, self-describing outputs.

Every run writes a header holding the canonical JSON config (command,
seed, format and all command parameters) followed by a timestamp line and
the data rows.  Feeding that embedded config back through --config
reproduces the file bit-for-bit apart from the timestamp.  All randomness
comes from substreams keyed by stable ids, so the output does not depend on
the CPU count; --threads is still accepted for old command lines and configs
and changes nothing.

Each parameter is declared once, in ``PARAMS`` (per command) or ``COMMON``;
its row builds its flag and config key.  Flags, config keys and $RANKSEL_SEED
form one mapping, resolved in one pass with the row's parsing and choices
(flag over key over variable; a JSON null is not given).  A config key no
parameter declares exits 2; --out and --config are flags only.

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
from functools import lru_cache

import numpy as np

from ranksel.distributions import RandomStream, ScheduleSpec, _check_choice
from ranksel.efficiency import efficiency_curve, theoretical_eta
from ranksel.extremes import MAX_OF_T, STATISTICS, fit_extremes
from ranksel.hconst import DD, RINOTT, SolverError, h_table
from ranksel.procedures import (
    _STAGE1_MEMO, ProcedureParams, VariancePrior, estimate_pcs, make_slippage_instance,
)

__all__ = ["main", "entrypoint", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4

SEED_ENV_VAR = "RANKSEL_SEED"
FORMATS = ("csv", "jsonl")
# extremes' --nu-schedule names for the ScheduleSpec kinds
NU_SCHEDULES = {"fixed": "constant", "log": "log-growth", "linear": "linear"}


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# Each parser takes a flag's text or a config file's JSON value.
def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _list_of(parse):
    def parse_list(value) -> list:
        items = value
        if isinstance(value, str):
            items = [part for part in value.replace(" ", "").split(",") if part]
        if not isinstance(items, list) or not items:
            raise ValueError(f"expected a non-empty comma-separated list, got {value!r}")
        return [parse(item) for item in items]

    return parse_list


REQUIRED = object()

# (name, parse, default or REQUIRED, choices, help); the flag is --name with
# "-" for "_", the config key is name
COMMON = (
    ("seed", _integer, 0, None, f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)"),
    ("format", _text, "csv", FORMATS, "output format (default csv)"),
    ("threads", _integer, 1, None, "accepted for old command lines and ignored (must be >= 1)"),
)
PARAMS = {
    "hconst": (
        ("ks", _list_of(_integer), None, None, "comma-separated k values, ascending"),
        ("k", _integer, None, None, "single k (alternative to --ks)"),
        ("nu", _integer, REQUIRED, None, "degrees of freedom"),
        ("p", _real, REQUIRED, None, "target confidence in (0,1)"),
    ),
    "pcs": (
        ("k", _integer, REQUIRED, None, "number of competitor populations"),
        ("n0", _integer, REQUIRED, None, "pilot sample size (nu = n0 - 1)"),
        ("p", _real, REQUIRED, None, "target confidence in (0,1)"),
        ("delta", _real, 1.0, None, "indifference parameter (default 1.0)"),
        ("gap", _real, REQUIRED, None, "actual mean gap; must exceed delta"),
        ("replications", _integer, 10_000, None, "Monte Carlo replications (default 10000)"),
        ("variants", _text, "both", ("both", DD, RINOTT), "which procedures (default both)"),
        ("variances", _list_of(_real), None, None, "comma-separated k+1 variances (default all 1)"),
        ("method", _text, "chi2", ("chi2", "exact"), "stage sampling path (default chi2)"),
    ),
    "efficiency": (
        ("ks", _list_of(_integer), REQUIRED, None, "comma-separated k values, ascending"),
        ("nu", _integer, None, None, "degrees of freedom for the constant schedule"),
        ("schedule", _text, "constant", ("constant", "log-growth", "power-growth"),
         "nu(k) schedule, pilot size nu + 1 (default constant; needs --nu)"),
        ("p", _real, REQUIRED, None, "target confidence in (0,1)"),
        ("delta", _real, 1.0, None, "indifference parameter (default 1.0)"),
        ("prior", _text, "inverse-gamma:3,4", None,
         "variance prior, e.g. inverse-gamma:3,4 (default)"),
        ("replications", _integer, 100_000, None, "Monte Carlo replications (default 100000)"),
    ),
    "extremes": (
        ("ks", _list_of(_integer), REQUIRED, None, "comma-separated k values, ascending"),
        ("nu", _integer, None, None, "degrees of freedom for the fixed schedule"),
        ("nu_schedule", _text, "fixed", tuple(NU_SCHEDULES),
         "nu as a function of k (default fixed; needs --nu)"),
        ("statistic", _text, MAX_OF_T, STATISTICS, "base statistic (default max-of-t)"),
        ("replications", _integer, 10_000, None, "maxima replications (default 10000)"),
    ),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_params(parser: argparse.ArgumentParser, params) -> None:
    for name, _, _, choices, help_text in params:
        metavar = None if choices is None else "{" + ",".join(choices) + "}"
        parser.add_argument(_flag(name), metavar=metavar, help=help_text)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The one parser of the process: argparse keeps no state between parse_args calls."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file; explicit flags override it")
    common.add_argument("--out", help="output path, '-' for stdout (default)")
    _add_params(common, COMMON)
    parser = _Parser(prog="ranksel", description="two-stage best-population selection toolkit",
                     parents=[common])
    sub = parser.add_subparsers(dest="command")
    for command, params in PARAMS.items():
        p = sub.add_parser(command, parents=[common], argument_default=argparse.SUPPRESS,
                           help=_COMMANDS[command].__doc__)
        _add_params(p, params)
    return parser


def _resolve(given: dict, params) -> dict:
    """Pop each parameter's value from ``given``, else take its default."""
    values = {}
    for name, parse, default, choices, _ in params:
        value = given.pop(name, None)
        if value is None:
            if default is REQUIRED:
                raise UsageError(f"missing required parameter {_flag(name)}")
            values[name] = default
            continue
        try:
            value = parse(value)
        except (OverflowError, ValueError) as err:  # float() of a huge JSON integer overflows
            raise UsageError(f"{_flag(name)}: {err}") from None
        values[name] = value if choices is None else _check_choice(value, choices, _flag(name))
    return values


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


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(", ", ": "))


def _cell(value):
    """A row value as printed: None for NaN (empty CSV cell, JSON null), numpy scalars as Python."""
    if isinstance(value, np.generic):
        value = value.item()
    return None if isinstance(value, float) and math.isnan(value) else value


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
            writer.writerow([_cell(row[c]) for c in columns])  # None writes as ""
        return buf.getvalue()
    lines = [
        json.dumps({"record": "config", "config": config}, sort_keys=True),
        json.dumps({"record": "timestamp", "timestamp": stamp}, sort_keys=True),
    ]
    for row in rows:
        obj = {"record": "row"}
        obj.update({c: _cell(row[c]) for c in columns})
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + "\n"


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# Each command takes the resolved parameter values and returns its rows.  The
# values it leaves that are not None are echoed in the # config line.
def _cmd_hconst(values, seed):
    """solve both critical-constant equations over a k grid"""
    k = values.pop("k")
    if (k is None) == (values["ks"] is None):
        raise UsageError("hconst needs exactly one of --ks and --k")
    if k is not None:
        values["ks"] = [k]
    return [
        {
            "k": r.k, "nu": r.nu, "p": r.p, "h_dd": r.dd.value, "h_rinott": r.rinott.value,
            "ratio": r.ratio, "residual_dd": r.dd.residual, "residual_rinott": r.rinott.residual,
        }
        for r in h_table(values["ks"], ScheduleSpec("constant", values["nu"]), values["p"])
    ]


def _cmd_pcs(values, seed):
    """estimate probability of correct selection on a slippage instance"""
    k, n0, p, delta, gap, replications = (
        values[name] for name in ("k", "n0", "p", "delta", "gap", "replications")
    )
    chosen = [DD, RINOTT] if values["variants"] == "both" else [values["variants"]]
    # validates k (at most 2^24 - 1) before the default variances are built
    all_params = [ProcedureParams(p=p, delta=delta, k=k, n0=n0, variant=v) for v in chosen]
    if values["variances"] is None:
        values["variances"] = [1.0] * (k + 1)
    # both variants run on one stream, so they share each block's stage 1
    rng = RandomStream(seed).substream(0)
    rows = []
    try:
        for params in all_params:
            instance = make_slippage_instance(params, gap, values["variances"])
            est = estimate_pcs(params, instance, replications, rng, method=values["method"])
            rows.append({
                "variant": params.variant, "k": k, "n0": n0, "p": p, "delta": delta,
                "gap": gap, "replications": replications, "pcs": est.pcs,
                "std_error": est.std_error, "pcs_lo": est.pcs_lo, "pcs_hi": est.pcs_hi,
                "mean_total": est.mean_total, "h": est.h_used.value,
                "residual": est.h_used.residual,
            })
    finally:
        _STAGE1_MEMO.clear()
    return rows


def _cmd_efficiency(values, seed):
    """tabulate h ratios and normalized expected sample sizes over k"""
    nu = values["nu"]
    schedule = ScheduleSpec(values["schedule"], nu)
    prior = VariancePrior.from_string(values["prior"])
    # a closed-form limit exists only while nu stays constant
    eta = None if nu is None else theoretical_eta(nu)
    curve = efficiency_curve(values["ks"], schedule, values["p"], values["delta"], prior,
                             values["replications"], RandomStream(seed))
    return [
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
        for r in curve
    ]


def _cmd_extremes(values, seed):
    """fit diagnostics for triangular-array maxima of t statistics"""
    statistic, replications = values["statistic"], values["replications"]
    schedule = ScheduleSpec(NU_SCHEDULES[values["nu_schedule"]], values["nu"])
    return [
        {
            "k": r.k, "nu": r.nu, "statistic": statistic,
            "replications": replications, "median": r.median, "iqr": r.iqr,
            "ad_gumbel": r.ad_gumbel, "ad_frechet": r.ad_frechet,
            "hill_index": r.hill_index,
        }
        for r in fit_extremes(values["ks"], schedule, statistic, replications, RandomStream(seed))
    ]


_COMMANDS = {
    "hconst": _cmd_hconst,
    "pcs": _cmd_pcs,
    "efficiency": _cmd_efficiency,
    "extremes": _cmd_extremes,
}


def main(argv=None) -> int:
    try:
        flags = vars(_build_parser().parse_args(argv))
        out, path = flags.pop("out", None), flags.pop("config", None)
        config = _load_config(path) if path else {}
        command = flags.pop("command") or config.get("command")
        if command is None:
            raise UsageError("no command given (pass a subcommand or a config with one)")
        if not isinstance(command, str) or command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r} in config")
        if config.get("command", command) != command:
            raise UsageError(f"config is for {config['command']!r} but {command!r} was requested")
        given = {name: value for source in ({"seed": os.environ.get(SEED_ENV_VAR)}, config, flags)
                 for name, value in source.items() if value is not None and name != "command"}
        seed, fmt, threads = _resolve(given, COMMON).values()
        values = _resolve(given, PARAMS[command])
        if given:
            raise UsageError(f"{command} takes no parameter {min(given)!r}")
        if seed < 0:
            raise UsageError(f"--seed (or ${SEED_ENV_VAR}) must be >= 0, got {seed}")
        if threads < 1:
            raise UsageError(f"threads must be >= 1, got {threads}")
        rows = _COMMANDS[command](values, seed)
        cfg = {"command": command, **{k: v for k, v in values.items() if v is not None},
               "seed": seed, "format": fmt}
    except (UsageError, ValueError) as err:
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
