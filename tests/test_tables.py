"""The three tables share one k grid and one (DD, Rinott) constants table.

``hconst.h_table`` solves the constant pair at each (k, nu(k)) of
``ScheduleSpec.grid``; ``efficiency_curve`` builds its rows on those rows and
``fit_extremes`` walks the same grid.  Every count the package takes (k, the
pilot size N0, nu and each replication count) passes one check.
"""

import csv
import io

import numpy as np
import pytest

import ranksel.cli as cli
import ranksel.hconst as hconst
from ranksel.distributions import RandomStream, ScheduleSpec, t_logcdf
from ranksel.efficiency import efficiency_curve, estimate_alpha
from ranksel.extremes import MAX_OF_T, fit_extremes
from ranksel.hconst import DD, HEquationSpec, SolverError, dd_prob, h_table, mc_oracle
from ranksel.procedures import (
    ProblemInstance,
    ProcedureParams,
    VariancePrior,
    dd_weights,
    estimate_pcs,
    run_stage1,
    second_stage_size,
)

BAD_KS = {"empty": [], "repeated": [5, 5], "descending": [5, 2], "k0": [0, 5]}


def test_grid_pairs_each_k_with_its_nu():
    assert ScheduleSpec("log-growth").grid([2, 100]) == [(2, 2), (100, 6)]
    assert ScheduleSpec("constant", 4).grid((1, 10)) == [(1, 4), (10, 4)]
    with pytest.raises(TypeError):
        ScheduleSpec("linear").grid([2.5])


def test_efficiency_rows_are_h_table_rows():
    ks = [10, 100, 1000]
    schedule = ScheduleSpec("log-growth")
    table = h_table(ks, schedule, 0.9)
    curve = efficiency_curve(ks, schedule, 0.9, 1.0, VariancePrior.fixed(1.0), 100,
                             RandomStream(3))
    for h, row in zip(table, curve, strict=True):
        assert (row.k, row.nu) == (h.k, h.nu)
        assert row.h_dd == h.dd and row.h_rinott == h.rinott
        assert row.h_dd.value.hex() == h.dd.value.hex()
        assert row.h_rinott.value.hex() == h.rinott.value.hex()
        assert row.h_ratio.hex() == h.ratio.hex()


def _csv_rows(text):
    return list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))


def test_cli_hconst_and_efficiency_print_the_same_constants(capsys):
    common = ["--ks", "10,100,1000,10000", "--nu", "4", "--p", "0.9"]
    assert cli.main(["hconst"] + common) == 0
    hconst_rows = _csv_rows(capsys.readouterr().out)
    assert cli.main(["efficiency"] + common + ["--replications", "100"]) == 0
    efficiency_rows = _csv_rows(capsys.readouterr().out)
    assert len(hconst_rows) == len(efficiency_rows) == 4
    for a, b in zip(hconst_rows, efficiency_rows):
        assert (a["k"], a["h_dd"], a["h_rinott"]) == (b["k"], b["h_dd"], b["h_rinott"])
        assert a["ratio"] == b["h_ratio"]


@pytest.mark.parametrize("ks", list(BAD_KS.values()), ids=list(BAD_KS))
def test_bad_k_lists_raise_in_every_table(ks):
    prior = VariancePrior.fixed(1.0)
    with pytest.raises(ValueError):
        h_table(ks, ScheduleSpec("constant", 4), 0.9)
    with pytest.raises(ValueError):
        efficiency_curve(ks, ScheduleSpec("log-growth"), 0.9, 1.0, prior, 10, RandomStream(0))
    with pytest.raises(ValueError):
        fit_extremes(ks, ScheduleSpec("constant", 3), MAX_OF_T, 100, RandomStream(0))


@pytest.mark.parametrize("ks", [",".join(map(str, ks)) for ks in BAD_KS.values()],
                         ids=list(BAD_KS))
@pytest.mark.parametrize("command", [
    ["hconst", "--nu", "4", "--p", "0.9"],
    ["efficiency", "--nu", "4", "--p", "0.9", "--replications", "10"],
    ["extremes", "--nu", "3", "--replications", "100"],
], ids=lambda argv: argv[0])
def test_bad_k_lists_exit_2_from_every_command(capsys, command, ks):
    assert cli.main(command + ["--ks", ks]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_k0_gets_nu_at_message_from_extremes():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        fit_extremes((0, 5), ScheduleSpec("constant", 3), MAX_OF_T, 100, RandomStream(0))


@pytest.mark.parametrize("command", [
    ["hconst", "--ks", "10,100", "--nu", "4", "--p", "0.9"],
    ["efficiency", "--ks", "10,100", "--nu", "4", "--p", "0.9", "--replications", "10"],
], ids=lambda argv: argv[0])
def test_solver_failure_names_its_k_in_both_commands(monkeypatch, capsys, command):
    def boom(spec):
        raise SolverError(f"no root for {spec}")

    monkeypatch.setattr(hconst, "solve_h", boom)
    assert cli.main(command) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: k=10: ") and "Traceback" not in err


_PAIR = ProblemInstance(np.zeros(2), np.ones(2))

_PAIR_PARAMS = ProcedureParams(0.9, 1.0, 1, 5, DD)
_PRIOR = VariancePrior.inverse_gamma(3.0, 4.0)
_NU = "degrees of freedom"

# entry point: (the argument's name in messages, smallest allowed value, call
# taking the count and returning what it keeps)
INTEGER_ARGS = {
    # k and N0
    "dd_prob": ("k", 1, lambda v: dd_prob(1.0, v, 4)),
    "HEquationSpec": ("k", 1, lambda v: HEquationSpec(v, 4, 0.9, DD).k),
    "ProcedureParams.k": ("k", 1, lambda v: ProcedureParams(0.9, 1.0, v, 5, DD).k),
    "ProcedureParams.n0": ("N0", 2, lambda v: ProcedureParams(0.9, 1.0, 2, v, DD).n0),
    "run_stage1": ("N0", 2, lambda v: run_stage1(_PAIR, v, RandomStream(0)).variances.tolist()),
    "second_stage_size": ("N0", 2, lambda v: second_stage_size([1.0], 2.0, 1.0, v)),
    "dd_weights": ("N0", 2, lambda v: dd_weights(v, [10], [1.0], 2.0, 1.0)),
    "ScheduleSpec.grid": ("k", 1, lambda v: ScheduleSpec("linear").grid([v])),
    "ScheduleSpec.nu_at": ("k", 1, lambda v: ScheduleSpec("linear").nu_at(v)),
    # nu
    "HEquationSpec.nu": (_NU, 1, lambda v: HEquationSpec(2, v, 0.9, DD).nu),
    "ScheduleSpec.nu": (_NU, 1, lambda v: ScheduleSpec("constant", v).nu),
    "t_logcdf": (_NU, 1, lambda v: t_logcdf(1.0, v)),
    "estimate_alpha.nu": (_NU, 1, lambda v: estimate_alpha(2.0, v, 1.0, _PRIOR, 10,
                                                           RandomStream(0))),
    # replication counts
    "run_stage1.replications": (
        "replications", 1,
        lambda v: run_stage1(_PAIR, 5, RandomStream(0), replications=v).errors.tolist()),
    "estimate_pcs": ("replications", 1,
                     lambda v: estimate_pcs(_PAIR_PARAMS, _PAIR, v, RandomStream(0), h=2.0)),
    "estimate_alpha.replications": (
        "replications", 1, lambda v: estimate_alpha(2.0, 4, 1.0, _PRIOR, v, RandomStream(0))),
    "mc_oracle": ("replications", 1,
                  lambda v: mc_oracle(HEquationSpec(2, 4, 0.9, DD), 2.0, v, RandomStream(0))),
    "fit_extremes": ("replications", 100, lambda v: fit_extremes(
        [2], ScheduleSpec("constant", 3), MAX_OF_T, v, RandomStream(0))),
    "VariancePrior.sample": ("count", 1,
                             lambda v: _PRIOR.sample(v, RandomStream(0)).tolist()),
}


@pytest.mark.parametrize("name", INTEGER_ARGS)
def test_k_and_n0_are_integers_from_their_floor(name):
    argument, floor, call = INTEGER_ARGS[name]
    with pytest.raises(TypeError, match=f"^{argument} must be an integer, got 2.5$"):
        call(2.5)
    for below in {0, floor - 1}:
        with pytest.raises(ValueError, match=f"^{argument} must be >= {floor}, got {below}$"):
            call(below)
    # a numpy integer is taken, and kept as a Python int: the reprs match
    assert repr(call(np.int64(floor + 1))) == repr(call(floor + 1))
