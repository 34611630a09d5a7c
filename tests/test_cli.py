"""Command-line behavior: schemas, determinism, config round-trips, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest
from scipy import stats

import ranksel.cli as cli
import ranksel.hconst as hconst
import ranksel.procedures as procedures
from ranksel.hconst import SolverError, solve_h, HEquationSpec


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = cli.main(argv + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


def strip_timestamp(text):
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("# timestamp") and '"record": "timestamp"' not in line
    )


def parse_header(text):
    first = text.splitlines()[0]
    assert first.startswith("# config ")
    return json.loads(first[len("# config "):])


PCS_PROBE = ["pcs", "--k", "2", "--n0", "3", "--p", "0.9", "--gap", "2", "--replications", "10"]
HCONST_ARGS = ["hconst", "--ks", "1,4,16", "--nu", "4", "--p", "0.9", "--seed", "3"]


def test_hconst_csv_schema(tmp_path):
    rc, text = run_to_file(tmp_path, "h.csv", HCONST_ARGS)
    assert rc == 0
    lines = text.splitlines()
    cfg = parse_header(text)
    assert cfg["command"] == "hconst"
    assert cfg["ks"] == [1, 4, 16]
    assert cfg["seed"] == 3
    assert "out" not in cfg and "threads" not in cfg
    assert lines[1].startswith("# timestamp ")
    header = lines[2].split(",")
    assert header == ["k", "nu", "p", "h_dd", "h_rinott", "ratio",
                      "residual_dd", "residual_rinott"]
    assert len(lines) == 3 + 3


def test_hconst_values_round_trip_full_precision(tmp_path):
    rc, text = run_to_file(tmp_path, "h.csv", ["hconst", "--k", "4", "--nu", "6", "--p", "0.95"])
    assert rc == 0
    row = text.splitlines()[3].split(",")
    expected = solve_h(HEquationSpec(4, 6, 0.95, "dd")).value
    assert float(row[3]) == expected


def test_hconst_symmetry_point_blanks_ratio(tmp_path):
    rc, text = run_to_file(tmp_path, "h.csv", ["hconst", "--k", "1", "--nu", "4", "--p", "0.5"])
    assert rc == 0
    row = text.splitlines()[3].split(",")
    assert abs(float(row[3])) < 1e-9
    assert row[5] == ""  # ratio is undefined at h ~ 0


def test_runs_are_deterministic(tmp_path):
    _, a = run_to_file(tmp_path, "a.csv", HCONST_ARGS)
    _, b = run_to_file(tmp_path, "b.csv", HCONST_ARGS)
    assert strip_timestamp(a) == strip_timestamp(b)


def test_thread_count_does_not_change_output(tmp_path):
    base = ["pcs", "--k", "2", "--n0", "5", "--p", "0.8", "--gap", "1.5",
            "--replications", "300", "--seed", "11"]
    _, a = run_to_file(tmp_path, "a.csv", base + ["--threads", "1"])
    _, b = run_to_file(tmp_path, "b.csv", base + ["--threads", "4"])
    assert strip_timestamp(a) == strip_timestamp(b)
    _, c = run_to_file(tmp_path, "c.csv", ["efficiency", "--ks", "1,3", "--nu", "3",
                                           "--p", "0.9", "--replications", "500",
                                           "--seed", "2", "--threads", "1"])
    _, d = run_to_file(tmp_path, "d.csv", ["efficiency", "--ks", "1,3", "--nu", "3",
                                           "--p", "0.9", "--replications", "500",
                                           "--seed", "2", "--threads", "3"])
    assert strip_timestamp(c) == strip_timestamp(d)


def embedded_config(text):
    if text.startswith("# config "):
        return parse_header(text)
    record = json.loads(text.splitlines()[0])
    assert record["record"] == "config"
    return record["config"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv", [
    HCONST_ARGS,
    ["pcs", "--k", "2", "--n0", "5", "--p", "0.8", "--gap", "1.5",
     "--replications", "200", "--seed", "7"],
    ["efficiency", "--ks", "1,3", "--nu", "3", "--p", "0.9", "--replications", "500",
     "--seed", "2"],
    ["efficiency", "--ks", "2,10", "--schedule", "log-growth", "--p", "0.9",
     "--replications", "500", "--seed", "2"],
    ["extremes", "--ks", "2,4", "--nu", "3", "--replications", "150", "--seed", "5"],
    ["extremes", "--ks", "2,4", "--nu-schedule", "log", "--statistic", "max-of-t-sum",
     "--replications", "150", "--seed", "5"],
], ids=["hconst", "pcs", "efficiency", "efficiency-log-growth", "extremes",
        "extremes-log-sum"])
def test_embedded_config_reproduces_run(tmp_path, argv, fmt):
    rc, original = run_to_file(tmp_path, "a.out", argv + ["--format", fmt])
    assert rc == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(embedded_config(original)))
    rc, replay = run_to_file(tmp_path, "b.out", ["--config", str(cfg_path)])
    assert rc == 0
    assert strip_timestamp(original) == strip_timestamp(replay)


def test_config_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"command": "hconst", "ks": [2], "nu": 4, "p": 0.9, "seed": 1}
    ))
    rc, text = run_to_file(tmp_path, "a.csv", ["hconst", "--config", str(cfg_path), "--p", "0.95"])
    assert rc == 0
    assert parse_header(text)["p"] == 0.95


def test_jsonl_matches_csv(tmp_path):
    base = ["pcs", "--k", "2", "--n0", "5", "--p", "0.8", "--gap", "1.5",
            "--replications", "200", "--seed", "7"]
    _, text_csv = run_to_file(tmp_path, "a.csv", base)
    _, text_jsonl = run_to_file(tmp_path, "a.jsonl", base + ["--format", "jsonl"])
    records = [json.loads(line) for line in text_jsonl.splitlines()]
    assert records[0]["record"] == "config"
    assert records[1]["record"] == "timestamp"
    rows = [r for r in records if r["record"] == "row"]
    assert len(rows) == 2  # both variants by default
    lines = text_csv.splitlines()
    header = lines[2].split(",")
    for csv_row, json_row in zip(lines[3:], rows):
        cells = dict(zip(header, csv_row.split(",")))
        assert float(cells["pcs"]) == json_row["pcs"]
        assert float(cells["h"]) == json_row["h"]
        assert cells["variant"] == json_row["variant"]


def test_nan_cell_renders_empty_csv_and_null_jsonl():
    # hill_index is NaN when too few maxima are positive
    row = {"k": 1, "ad_frechet": 0.5, "hill_index": float("nan")}
    text_csv = cli._render("csv", {"command": "extremes"}, [row])
    assert text_csv.splitlines()[2:] == ["k,ad_frechet,hill_index", "1,0.5,"]
    text_jsonl = cli._render("jsonl", {"command": "extremes"}, [row])
    assert json.loads(text_jsonl.splitlines()[2])["hill_index"] is None


def test_pcs_csv_schema(tmp_path):
    rc, text = run_to_file(tmp_path, "p.csv", PCS_ARGS + ["--replications", "100"])
    assert rc == 0
    lines = text.splitlines()
    assert lines[2].split(",") == [
        "variant", "k", "n0", "p", "delta", "gap", "replications",
        "pcs", "std_error", "pcs_lo", "pcs_hi", "mean_total", "h", "residual",
    ]
    assert [line.split(",")[0] for line in lines[3:]] == ["dd", "rinott"]


def test_extremes_and_efficiency_schemas(tmp_path):
    rc, text = run_to_file(tmp_path, "x.csv", ["extremes", "--ks", "2,4", "--nu", "3",
                                               "--replications", "150", "--seed", "5"])
    assert rc == 0
    assert text.splitlines()[2].split(",") == [
        "k", "nu", "statistic", "replications", "median", "iqr",
        "ad_gumbel", "ad_frechet", "hill_index",
    ]
    rc, text = run_to_file(tmp_path, "e.csv", ["efficiency", "--ks", "1,2", "--nu", "2",
                                               "--p", "0.75", "--replications", "200"])
    assert rc == 0
    assert text.splitlines()[2].split(",") == [
        "k", "nu", "n0", "h_dd", "h_rinott", "h_ratio", "h_ratio_sq",
        "alpha_dd", "alpha_dd_se", "alpha_rinott", "alpha_rinott_se",
        "alpha_ratio", "total_ratio", "lhat_dd", "lhat_rinott", "theoretical_eta",
    ]


EFFICIENCY_SMALL = ["efficiency", "--ks", "2,10", "--p", "0.9", "--replications", "200",
                    "--seed", "2"]
EXTREMES_SMALL = ["extremes", "--ks", "2,4", "--replications", "150", "--seed", "5"]


@pytest.mark.parametrize("argv, config, nus", [
    (EFFICIENCY_SMALL + ["--nu", "3"],
     '{"command": "efficiency", "delta": 1.0, "format": "csv", "ks": [2, 10], "nu": 3, '
     '"p": 0.9, "prior": "inverse-gamma:3,4", "replications": 200, "schedule": "constant", '
     '"seed": 2}', [3, 3]),
    (EFFICIENCY_SMALL + ["--schedule", "log-growth"],
     '{"command": "efficiency", "delta": 1.0, "format": "csv", "ks": [2, 10], "p": 0.9, '
     '"prior": "inverse-gamma:3,4", "replications": 200, "schedule": "log-growth", '
     '"seed": 2}', [2, 4]),
    (EFFICIENCY_SMALL + ["--schedule", "power-growth"],
     '{"command": "efficiency", "delta": 1.0, "format": "csv", "ks": [2, 10], "p": 0.9, '
     '"prior": "inverse-gamma:3,4", "replications": 200, "schedule": "power-growth", '
     '"seed": 2}', [3, 3]),
    (EXTREMES_SMALL + ["--nu", "3"],
     '{"command": "extremes", "format": "csv", "ks": [2, 4], "nu": 3, "nu_schedule": "fixed", '
     '"replications": 150, "seed": 5, "statistic": "max-of-t"}', [3, 3]),
    (EXTREMES_SMALL + ["--nu-schedule", "log"],
     '{"command": "extremes", "format": "csv", "ks": [2, 4], "nu_schedule": "log", '
     '"replications": 150, "seed": 5, "statistic": "max-of-t"}', [2, 3]),
    (EXTREMES_SMALL + ["--nu-schedule", "linear"],
     '{"command": "extremes", "format": "csv", "ks": [2, 4], "nu_schedule": "linear", '
     '"replications": 150, "seed": 5, "statistic": "max-of-t"}', [2, 4]),
], ids=["efficiency-constant", "efficiency-log-growth", "efficiency-power-growth",
        "extremes-fixed", "extremes-log", "extremes-linear"])
def test_schedule_config_line_and_nu_column(tmp_path, argv, config, nus):
    rc, text = run_to_file(tmp_path, "s.csv", argv)
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "# config " + config
    assert [int(line.split(",")[1]) for line in lines[3:]] == nus


@pytest.mark.parametrize("schedule, ks", [
    ("log-growth", "10"), ("log-growth", "3,5"), ("log-growth", "10,11"),
    ("power-growth", "20,30"),
])
def test_growing_schedule_prints_no_theoretical_eta(tmp_path, schedule, ks):
    # every row here shares one nu, yet the pilot size still grows with k
    argv = ["efficiency", "--ks", ks, "--schedule", schedule, "--p", "0.9",
            "--replications", "100"]
    rc, text = run_to_file(tmp_path, "e.csv", argv)
    assert rc == 0
    lines = text.splitlines()
    assert lines[2].split(",")[-1] == "theoretical_eta"
    assert len({line.split(",")[1] for line in lines[3:]}) == 1
    assert all(line.endswith(",") for line in lines[3:])


@pytest.mark.parametrize("argv", [
    ["efficiency", "--ks", "2,10", "--nu", "0", "--p", "0.9", "--replications", "100"],
    ["extremes", "--ks", "2,10", "--nu", "0", "--replications", "200"],
], ids=["efficiency", "extremes"])
def test_zero_nu_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degrees of freedom must be >= 1")
    assert "Traceback" not in err


def test_stdout_default(capsys):
    rc = cli.main(["hconst", "--k", "2", "--nu", "4", "--p", "0.9"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# config ")


def test_seed_env_fallback_and_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RANKSEL_SEED", "42")
    rc, text = run_to_file(tmp_path, "a.csv", ["hconst", "--k", "2", "--nu", "4", "--p", "0.9"])
    assert rc == 0
    assert parse_header(text)["seed"] == 42
    rc, text = run_to_file(
        tmp_path, "b.csv", ["hconst", "--k", "2", "--nu", "4", "--p", "0.9", "--seed", "9"]
    )
    assert parse_header(text)["seed"] == 9
    monkeypatch.setenv("RANKSEL_SEED", "not-a-number")
    assert cli.main(["hconst", "--k", "2", "--nu", "4", "--p", "0.9"]) == 2


PCS_ARGS = ["pcs", "--k", "2", "--n0", "5", "--p", "0.8", "--gap", "1.5"]


@pytest.mark.parametrize("argv", [
    ["hconst", "--k", "2", "--nu", "4", "--p", "0.9"],
    PCS_ARGS + ["--replications", "10"],
], ids=["hconst", "pcs"])
def test_negative_seed_exits_2(capsys, monkeypatch, argv):
    assert cli.main(argv + ["--seed", "-1"]) == 2
    monkeypatch.setenv("RANKSEL_SEED", "-1")
    assert cli.main(argv) == 2
    for err in capsys.readouterr().err.splitlines():
        assert err.startswith("error: --seed") and "got -1" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--variances", "1,inf,1", "finite"),
    ("--variances", "1,1e300,1", "64-bit"),
    ("--gap", "nan", "finite"),
    ("--gap", "inf", "finite"),
    ("--delta", "nan", "finite"),
    ("--delta", "1e-300", "64-bit"),
])
def test_pcs_non_finite_or_huge_input_exits_2(capsys, flag, value, message):
    argv = list(PCS_ARGS)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    assert cli.main(argv + ["--replications", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    "inverse-gamma:3,nan", "lognormal:nan,0.5", "inverse-gamma:inf,4",
    "lognormal:0,inf", "fixed:inf", "lognormal:1000,1", "lognormal:-1000,1",
    "lognormal:0,1000",
])
def test_efficiency_bad_prior_exits_2(capsys, spec):
    argv = ["efficiency", "--ks", "10", "--nu", "4", "--p", "0.9",
            "--replications", "1000", "--prior", spec]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert "Traceback" not in err


def test_efficiency_non_numeric_prior_exits_2(capsys):
    argv = ["efficiency", "--ks", "10", "--nu", "4", "--p", "0.9",
            "--replications", "1000", "--prior", "inverse-gamma:3,x"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: prior parameters must be numbers, got 'inverse-gamma:3,x'"
    ]


def test_pcs_huge_delta_exits_2(capsys):
    # (delta/h)^2 of the weighted mean overflows while (h/delta)^2 underflows
    argv = PCS_ARGS[:-2] + ["--gap", "1.5e300", "--delta", "1e300", "--replications", "10"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delta is too large" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("delta, message", [
    ("1e-160", "64-bit"), ("1e-150", "64-bit"), ("inf", "finite"), ("nan", "finite"),
    ("1e300", "underflows"),
])
def test_efficiency_bad_delta_exits_2(capsys, delta, message):
    argv = ["efficiency", "--ks", "10", "--nu", "4", "--p", "0.9",
            "--replications", "10", "--delta", delta]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    # one float per replication would need 7.28 TiB
    (["extremes", "--ks", "10", "--nu", "4", "--replications", "1000000000000"],
     "replications must be at most"),
    (["efficiency", "--ks", "10", "--nu", "4", "--p", "0.9", "--replications", "1000000000000"],
     "replications must be at most"),
    # default variances and stage-1 arrays with 1e12 + 1 entries
    (["pcs", "--k", "1000000000000", "--n0", "10", "--p", "0.9", "--gap", "1.01",
      "--replications", "100"], "k + 1 must be at most"),
    # one replication of k = 4e9 draws is a single 32 GB row
    (["extremes", "--ks", "10,4000000000", "--nu", "3", "--replications", "100"],
     "draws per maximum"),
    # k = 1e7 fits one row of single t draws, but the sum needs 2k = 2e7
    (["extremes", "--ks", "10000000", "--nu", "3", "--statistic", "max-of-t-sum",
      "--replications", "100"], "draws per maximum"),
    # one exact replication draws (k + 1) * N0 = 2.002e7 stage-1 observations;
    # refused before h is solved
    (["pcs", "--k", "1000", "--n0", "20000", "--p", "0.9", "--gap", "1.01",
      "--replications", "1", "--method", "exact"], "--method chi2"),
], ids=["extremes", "efficiency", "pcs-k", "extremes-k", "extremes-sum-2k", "pcs-exact-n0"])
def test_replications_beyond_memory_exit_2(capsys, argv, message):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_pcs_exact_huge_second_stage_exits_2(capsys):
    argv = ["pcs", "--k", "2", "--n0", "5", "--p", "0.9", "--gap", "1.5",
            "--variances", "1e15,1,1", "--method", "exact", "--replications", "10"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--method chi2" in err
    assert "Traceback" not in err
    argv[argv.index("exact")] = "chi2"
    assert cli.main(argv) == 0


@pytest.mark.parametrize("options", [
    # every variance 1 and means 1e300 apart: theta + z * sigma rounds to theta
    ["--gap", "1e300", "--replications", "10"],
    # sigma = 1e-150 below the ulp of theta = -2, -4; the DD weights reach 1e150
    ["--gap", "2", "--variances", "1e-300,1e-300,1e-300", "--replications", "4000"],
], ids=["gap-1e300", "variances-1e-300"])
def test_pcs_exact_on_deviations_meets_p(capsys, options):
    # the exact path takes S^2 and the weighted statistic from the deviations
    # from theta, so neither reads 0 nor cancels; every row passes the exact
    # one-sided binomial bound at p, P(Bin(n, p) <= hits) >= 1e-6
    argv = ["pcs", "--k", "2", "--n0", "3", "--p", "0.9", "--method", "exact", "--seed", "3"]
    assert cli.main(argv + options) == 0
    lines = [line.split(",") for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    rows = [dict(zip(lines[0], line)) for line in lines[1:]]
    assert [row["variant"] for row in rows] == ["dd", "rinott"]
    for row in rows:
        n = int(row["replications"])
        assert stats.binom.cdf(round(float(row["pcs"]) * n), n, 0.9) >= 1e-6, row


def pcs_rows(capsys, argv):
    assert cli.main(argv + ["--format", "jsonl"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return [r for r in records if r["record"] == "row"]


PCS_SIM = ["pcs", "--n0", "10", "--p", "0.9", "--gap", "1.01", "--seed", "5"]
# ten replications of three populations: on chi2 with a stream per variant,
# Rinott's mean_total falls below DD's at seeds 1 to 4
PCS_FEW = ["pcs", "--k", "2", "--n0", "3", "--p", "0.9", "--gap", "2", "--replications", "10",
           "--variances", "100,100,100", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    PCS_SIM + ["--k", "4", "--replications", "10000", "--variances", "1,2,3,4,5"],
    PCS_SIM + ["--k", "100", "--replications", "1000"],
    PCS_SIM + ["--k", "1000", "--replications", "100"],
    PCS_SIM + ["--k", "4", "--replications", "2000", "--method", "exact"],
    PCS_FEW,
    PCS_FEW + ["--method", "exact"],
], ids=["k4", "k100", "k1000", "exact", "variances", "variances-exact"])
def test_pcs_rinott_mean_total_dominates_dd(capsys, argv):
    # both variants read one stage 1, and h_rinott >= h_dd makes every Rinott
    # second-stage size at least the DD one: a paired property, which two
    # independent streams give only on average
    dd, rinott = pcs_rows(capsys, argv)
    assert (dd["variant"], rinott["variant"]) == ("dd", "rinott")
    assert rinott["h"] > dd["h"]
    assert rinott["mean_total"] >= dd["mean_total"]


@pytest.mark.parametrize("method", ["chi2", "exact"])
def test_pcs_rows_do_not_depend_on_the_variants_requested(capsys, method):
    argv = PCS_SIM + ["--k", "4", "--replications", "2000", "--method", method]
    both = pcs_rows(capsys, argv)
    alone = [row for v in ("dd", "rinott") for row in pcs_rows(capsys, argv + ["--variants", v])]
    assert alone == both
    assert not procedures._STAGE1_MEMO  # the command forgets its kept stage 1


def test_pcs_interval_at_pcs_one(capsys):
    # every replication correct: std_error reads 0, the interval does not
    rows = pcs_rows(capsys, ["pcs", "--k", "1000", "--n0", "10", "--p", "0.9", "--gap", "1.01",
                             "--replications", "100"])
    for row in rows:
        assert (row["pcs"], row["std_error"]) == (1.0, 0.0)
        assert (row["pcs_lo"], row["pcs_hi"]) == (0.025 ** (1 / 100), 1.0)


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one parser per process; commands after it, a parse error among them,
    # print what each prints in a fresh process
    assert cli._build_parser() is cli._build_parser()
    config = tmp_path / "h.json"
    config.write_text(json.dumps({"command": "hconst", "ks": [2, 8], "nu": 5, "p": 0.95}))
    runs = [HCONST_ARGS, ["hconst", "--nu", "4", "--no-such-flag", "1"],
            PCS_PROBE + ["--seed", "4"], ["--config", str(config)]]
    in_process = []
    for argv in runs:
        rc = cli.main(argv)
        captured = capsys.readouterr()
        in_process.append((rc, strip_timestamp(captured.out), captured.err))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    # each command in its own fresh process, all started together
    procs = [subprocess.Popen([sys.executable, "-m", "ranksel.cli", *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for argv in runs]
    for proc, (rc, out, err) in zip(procs, in_process):
        stdout, stderr = proc.communicate()
        assert (proc.returncode, strip_timestamp(stdout), stderr) == (rc, out, err)
    assert [rc for rc, _, _ in in_process] == [0, 2, 0, 0]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["hconst", "--nu", "4", "--p", "0.9"]) == 2  # no ks
    assert cli.main(["hconst", "--k", "2", "--p", "0.9"]) == 2  # no nu
    assert cli.main(["pcs", "--k", "2", "--n0", "5", "--p", "0.8", "--gap", "0.5"]) == 2
    assert cli.main(["hconst", "--k", "2", "--nu", "4", "--p", "0.9", "--threads", "0"]) == 2
    assert cli.main(["hconst", "--k", "2", "--nu", "4", "--p", "0.9", "--format", "xml"]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "solve-everything"}))
    assert cli.main(["--config", str(cfg)]) == 2
    cfg.write_text("{not json")
    assert cli.main(["--config", str(cfg)]) == 2
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps({"command": "pcs"}))
    assert cli.main(["hconst", "--config", str(mismatched)]) == 2
    # a config may only name the schedules the flags offer
    schedules = tmp_path / "schedules.json"
    schedules.write_text(json.dumps({"command": "extremes", "ks": [2], "nu": 3,
                                     "nu_schedule": "quadratic"}))
    assert cli.main(["--config", str(schedules)]) == 2
    schedules.write_text(json.dumps({"command": "efficiency", "ks": [2], "p": 0.9,
                                     "schedule": "linear"}))
    assert cli.main(["--config", str(schedules)]) == 2
    capsys.readouterr()


HCONST_CONFIG = {"command": "hconst", "ks": [2], "nu": 4, "p": 0.9}
PCS_CONFIG = {"command": "pcs", "k": 2, "n0": 5, "p": 0.8, "gap": 1.5, "replications": 10}


@pytest.mark.parametrize("config", [
    {**HCONST_CONFIG, "ks": 5},
    {**HCONST_CONFIG, "nu": [4]},
    {**HCONST_CONFIG, "nu": 4.7},
    {**HCONST_CONFIG, "nu": True},
    {**HCONST_CONFIG, "p": 10**400},
    {**HCONST_CONFIG, "seed": [1]},
    {**HCONST_CONFIG, "format": "xml"},
    {**PCS_CONFIG, "variances": 5},
    {**PCS_CONFIG, "k": [2]},
    {**PCS_CONFIG, "gap": True},
    {**PCS_CONFIG, "method": "gibbs"},
    {**PCS_CONFIG, "variants": "all"},
    {"command": "extremes", "ks": [2], "nu": 3, "replications": 150, "statistic": "min-of-t"},
    {"command": "efficiency", "ks": [2], "nu": 3, "p": 0.9, "prior": 5},
    {"command": ["hconst"]},
], ids=["ks-int", "nu-list", "nu-float", "nu-bool", "p-huge-int", "seed-list", "format",
        "variances-int", "k-list", "gap-bool", "method", "variants", "statistic", "prior-int",
        "command-list"])
def test_config_value_outside_its_flag_exits_2(tmp_path, capsys, config):
    # a config value gets the parsing and choices of its flag
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("config, key", [
    ({**PCS_CONFIG, "replication": 50, "variant": "dd"}, "replication"),
    ({**HCONST_CONFIG, "sed": 7}, "sed"),
    ({**HCONST_CONFIG, "formt": "jsonl", "sed": 7}, "formt"),
    ({**HCONST_CONFIG, "out": "never-written.csv"}, "out"),
    ({**HCONST_CONFIG, "config": "other.json"}, "config"),
    ({**HCONST_CONFIG, "gap": 2.0}, "gap"),
], ids=["pcs-replication", "hconst-sed", "first-of-two", "out", "config", "other-commands-key"])
def test_config_key_no_parameter_declares_exits_2(tmp_path, capsys, monkeypatch, config, key):
    # a config key is a parameter's name or an error, as a misspelled flag is
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config['command']} takes no parameter {key!r}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_seed_order_is_flag_config_variable_default(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    argv = ["--config", str(path), "--out", str(tmp_path / "a.csv")]
    for seed, env, flags, want in [(None, None, [], 0), (None, "5", [], 5), (6, "5", [], 6),
                                   (6, "5", ["--seed", "7"], 7), (None, "5", ["--seed", "7"], 7)]:
        if env is None:
            monkeypatch.delenv("RANKSEL_SEED", raising=False)
        else:
            monkeypatch.setenv("RANKSEL_SEED", env)
        path.write_text(json.dumps({**HCONST_CONFIG, "seed": seed}))  # null is not given
        assert cli.main(argv + flags) == 0
        assert parse_header((tmp_path / "a.csv").read_text())["seed"] == want


@pytest.mark.parametrize("argv, message", [
    (["efficiency", "--ks", "10", "--schedule", "log-growth", "--nu", "3", "--p", "0.9",
      "--replications", "100"], "log-growth schedule takes no nu"),
    (["efficiency", "--ks", "10", "--schedule", "power-growth", "--nu", "3", "--p", "0.9",
      "--replications", "100"], "power-growth schedule takes no nu"),
    (["extremes", "--ks", "10", "--nu-schedule", "log", "--nu", "3", "--replications", "100"],
     "log-growth schedule takes no nu"),
    (["extremes", "--ks", "10", "--nu-schedule", "linear", "--nu", "3", "--replications", "100"],
     "linear schedule takes no nu"),
    (["efficiency", "--ks", "10", "--p", "0.9", "--replications", "100"],
     "constant schedule needs nu (--nu)"),
    (["extremes", "--ks", "10", "--replications", "100"], "constant schedule needs nu (--nu)"),
    (["hconst", "--k", "abc", "--nu", "4", "--p", "0.9"], "--k: "),
    (["hconst", "--ks", "2,x", "--nu", "4", "--p", "0.9"], "--ks: "),
    (["pcs", "--k", "2", "--n0", "5", "--p", "0.8", "--gap", "1.5", "--method", "gibbs"],
     "--method must be one of"),
], ids=["efficiency-log", "efficiency-power", "extremes-log", "extremes-linear",
        "efficiency-no-nu", "extremes-no-nu", "k-text", "ks-text", "method"])
def test_flag_errors_exit_2(capsys, argv, message):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and "Traceback" not in err


@pytest.mark.parametrize("flags, config", [
    (["--k", "10", "--ks", "5"], {}),
    ([], {"k": 10, "ks": [5]}),
    (["--k", "10"], {"ks": [5]}),
], ids=["flags", "config", "mixed"])
def test_hconst_refuses_k_beside_ks(tmp_path, capsys, flags, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "hconst", "nu": 4, "p": 0.9, **config}))
    assert cli.main(["hconst", "--config", str(path)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hconst needs exactly one of --ks and --k\n"


@pytest.mark.parametrize("argv, code", [
    # the nu = 1 root lies where t^2 overflows in the log-density
    (["hconst", "--ks", "1,2", "--nu", "1", "--p", "1e-200"], 3),
    # S^2 overflows on both methods and is refused as a second-stage size
    (PCS_PROBE + ["--variances", "1e308,1,1"], 2),
    (PCS_PROBE + ["--variances", "1e308,1,1", "--method", "exact"], 2),
    # the exact weights (delta/h)^2/S^2 overflow; NaN statistics are never ranked
    (PCS_PROBE + ["--variances", "1e-320,1,1", "--method", "exact"], 2),
    # efficiency's sizes (h/delta)^2 S^2 overflow from a finite S^2
    (["efficiency", "--ks", "10", "--nu", "4", "--p", "0.9", "--replications", "100",
      "--prior", "fixed:1e307"], 2),
], ids=["hconst-nu1", "pcs-huge-var", "pcs-exact-huge-var", "pcs-exact-tiny-var",
        "efficiency-huge-size"])
def test_overflow_probes_print_one_error_line(capsys, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("solver failure: " if code == 3 else "error: ")


def test_solver_failure_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("bracket expansion exhausted")

    monkeypatch.setattr(cli, "h_table", boom)
    assert cli.main(["hconst", "--k", "2", "--nu", "4", "--p", "0.9"]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_quadrature_failure_exits_3(capsys):
    # the k=1e6 Cauchy DD integrand is too sharp for the panel refinement
    argv = ["hconst", "--k", "1000000", "--nu", "1", "--p", "0.999999999"]
    # twice in one process: the failed integral must not be remembered
    for _ in range(2):
        assert cli.main(argv) == 3
        assert "solver failure" in capsys.readouterr().err


def test_hconst_large_nu_solves(tmp_path):
    rc, text = run_to_file(tmp_path, "h.csv", ["hconst", "--k", "2", "--nu", "10000", "--p", "0.9"])
    assert rc == 0
    row = text.splitlines()[3].split(",")
    assert float(row[6]) < 1e-8 and float(row[7]) < 1e-8


def test_hconst_huge_nu_keeps_jensen_ordering(tmp_path):
    # h_rinott >= h_dd; an inexact t-density normalizer at nu = 1e6 printed
    # ratios of 0.979 and 0.985 here
    argv = ["hconst", "--ks", "1,1000", "--nu", "1000000", "--p", "0.999999999"]
    rc, text = run_to_file(tmp_path, "h.csv", argv)
    assert rc == 0
    ratios = [float(line.split(",")[5]) for line in text.splitlines()[3:]]
    assert len(ratios) == 2 and min(ratios) >= 1.0 - 1e-4


@pytest.mark.parametrize("nu, p", [("1000000", "1e-12"), ("9", "1e-6")])
def test_hconst_negative_roots_agree_at_k1(tmp_path, nu, p):
    # at k = 1 both equations are P(T2 - T1 <= h) = p; the Rinott root once
    # came from 1 - qbar, which loses the digits of a tail near p
    rc, text = run_to_file(tmp_path, "h.csv", ["hconst", "--k", "1", "--nu", nu, "--p", p])
    assert rc == 0
    h_dd, h_rinott = (float(v) for v in text.splitlines()[3].split(",")[3:5])
    assert h_dd < 0.0 and h_rinott == pytest.approx(h_dd, rel=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, p", [("1", "0.999999999"), ("1000", "1e-30")])
def test_hconst_cdf_underflow_prints_no_warning(tmp_path, k, p):
    # the t CDF underflows to 0 at some nodes of these solves (at p = 1e-30
    # the DD root is negative); its log is -inf, not a warning
    hconst._dd_integral.cache_clear()
    argv = ["hconst", "--k", k, "--nu", "1000000", "--p", p]
    assert run_to_file(tmp_path, "h.csv", argv)[0] == 0


def test_io_failure_exits_4(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    rc = cli.main(["hconst", "--k", "2", "--nu", "4", "--p", "0.9", "--out", str(missing_dir)])
    assert rc == 4
    assert "i/o failure" in capsys.readouterr().err
