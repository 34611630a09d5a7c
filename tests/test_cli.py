"""Command-line behavior: schemas, determinism, config round-trips, exit codes."""

import json

import pytest

import ranksel.cli as cli
import ranksel.hconst as hconst
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


def test_pcs_csv_schema(tmp_path):
    rc, text = run_to_file(tmp_path, "p.csv", PCS_ARGS + ["--replications", "100"])
    assert rc == 0
    lines = text.splitlines()
    assert lines[2].split(",") == [
        "variant", "k", "n0", "p", "delta", "gap", "replications",
        "pcs", "std_error", "mean_total", "h", "residual",
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
], ids=["extremes", "efficiency", "pcs-k", "extremes-k", "extremes-sum-2k"])
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
