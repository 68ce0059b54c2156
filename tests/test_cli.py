"""End-to-end tests of the command-line front end."""

import csv
import io
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from endnet import cli
from endnet.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
)
from endnet.layout import reweight
from endnet.optim import augdgm_gamma_bound, augdgm_matrices
from endnet.scenarios import SensorScenario, build_lasso


def _write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SEP_SCENARIO = {
    "kind": "random_separable",
    "num_agents": 5,
    "num_components": 6,
    "sparsity": 0.5,
    "seed": 1,
    "topology": "ring",
}


@pytest.fixture
def sep_config(tmp_path):
    return _write_config(tmp_path, "sep.json", {
        "scenario": SEP_SCENARIO,
        "arm": "standard",
        "run": {"algorithm": "augdgm", "max_iters": 400, "merit_every": 20},
    })


# -- design ------------------------------------------------------------------


def test_design_reference_unicast(tmp_path, capsys):
    cfg = _write_config(tmp_path, "design.json", {
        "scenario": {"kind": "unicast", "preset": "reference", "seed": 0},
    })
    out = tmp_path / "out"
    assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "design_report.json").read_text())
    # every agent holds every component under the sparsity-unaware baseline
    assert report["arms"]["standard"]["mean_estimate_count"] == 5.0
    assert report["arms"]["customized"]["mean_estimate_count"] < 5.0
    assert report["arms"]["standard"]["violations"] == []
    assert report["arms"]["customized"]["violations"] == []
    for arm in ("standard", "customized"):
        d = json.loads((out / f"{arm}_layout.json").read_text())
        assert set(d) == {"partition", "agents", "comm", "interference", "graphs", "design"}
        if arm == "standard":
            assert len(d["graphs"]) == 1
    text = capsys.readouterr().out
    assert "mean estimate size" in text


def test_design_costs_ordered(tmp_path):
    cfg = _write_config(tmp_path, "design.json", {
        "scenario": {"kind": "unicast", "num_users": 8, "seed": 3},
    })
    out = tmp_path / "out"
    assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "design_report.json").read_text())
    std, cust = report["arms"]["standard"], report["arms"]["customized"]
    assert cust["unicast_cost"] <= std["unicast_cost"]
    assert cust["broadcast_cost"] <= std["broadcast_cost"]


def _sep_layouts():
    std, cust = cli.build_scenario(SEP_SCENARIO, None)["layouts"]
    return {"standard": std, "designed": cust, "reweighted": reweight(cust, "column")}


@pytest.mark.parametrize("arm", ["standard", "designed", "reweighted"])
def test_layout_files_are_written_without_conversion(tmp_path, arm):
    """A layout dict is JSON-native: written as is, its file has the bytes
    the converting writer gives it."""
    d = _sep_layouts()[arm].to_json_dict()
    native, converted = tmp_path / "native.json", tmp_path / "converted.json"
    cli.dump_json(str(native), d)
    cli.write_json(str(converted), d)
    assert native.read_bytes() == converted.read_bytes()


# -- run ---------------------------------------------------------------------


def test_run_dry_run_writes_nothing(tmp_path, sep_config, capsys):
    out = tmp_path / "dry"
    assert main(["run", "--config", sep_config, "--out", str(out),
                 "--dry-run"]) == EXIT_OK
    assert not out.exists()
    assert "config ok" in capsys.readouterr().out


def test_run_outputs_and_summary(tmp_path, sep_config):
    out = tmp_path / "run"
    assert main(["run", "--config", sep_config, "--out", str(out),
                 "--emit-plots"]) == EXIT_OK
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "k"
    assert len(rows) > 1
    float(rows[1][1])  # data rows parse as numbers
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "augdgm"
    assert summary["iterations"] == 400
    assert summary["final"]["merit"] < 1e-6
    assert "gamma" in summary["certified"]
    assert summary["wall_seconds"] > 0
    script = (out / "trace.gp").read_text()
    assert 'set datafile separator ","' in script
    assert "trace.csv" in script


def test_run_trace_is_rfc4180_and_deterministic(tmp_path, sep_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--config", sep_config, "--out", str(out)]) == EXIT_OK
    b1 = (out1 / "trace.csv").read_bytes()
    assert b1 == (out2 / "trace.csv").read_bytes()
    assert b"\r\n" in b1


def test_run_seed_flag_changes_instance(tmp_path, sep_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", sep_config, "--out", str(out1),
                 "--seed", "7"]) == EXIT_OK
    assert main(["run", "--config", sep_config, "--out", str(out2),
                 "--seed", "8"]) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_run_gne_unicast(tmp_path):
    cfg = _write_config(tmp_path, "uni.json", {
        "scenario": {"kind": "unicast", "preset": "reference", "seed": 0},
        "arm": "customized",
        "run": {"max_iters": 2000, "tol": 1e-2, "reference": False,
                "check_every": 100},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "gne"
    assert summary["certified"]["preconditioner_positive"] is True
    assert "residual" in summary["final"]


def test_run_pushsum_regression(tmp_path):
    cfg = _write_config(tmp_path, "reg.json", {
        "scenario": {"kind": "regression", "num_sensors": 8, "num_sources": 3,
                     "comm_radius_min": 0.45, "comm_radius_width": 0.1},
        "arm": "customized",
        "run": {"max_iters": 5000, "stop_tol": 1e-2},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "pushsum"
    assert summary["final"]["merit"] <= 1e-2


def test_run_admm(tmp_path):
    cfg = _write_config(tmp_path, "admm.json", {
        "scenario": SEP_SCENARIO,
        "arm": "standard",
        "run": {"algorithm": "admm", "alpha": 0.5, "max_iters": 2000,
                "tol": 1e-8},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_merit"] <= 1e-8


def test_run_coupled_qp(tmp_path):
    cfg = _write_config(tmp_path, "qp.json", {
        "scenario": {"kind": "coupled_qp", "num_agents": 4, "dim": 2,
                     "seed": 0, "topology": "ring"},
        "arm": "customized",
        "run": {"max_iters": 2000},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["dual_distance"] <= 1e-3


def test_run_random_game_certified(tmp_path):
    cfg = _write_config(tmp_path, "game.json", {
        "scenario": {"kind": "random_game", "num_agents": 4, "sparsity": 0.4,
                     "seed": 0, "topology": "complete"},
        "arm": "standard",
        "run": {"max_iters": 4000, "tol": 1e-8},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certified"]["rho"] < 1.0
    assert summary["final"]["distance"] <= 1e-8


# -- exit codes --------------------------------------------------------------


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG


def test_unknown_kind_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, "bad.json", {"scenario": {"kind": "nope"}})
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_missing_field_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, "bad.json",
                        {"scenario": {"kind": "unicast"}})  # no num_users
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("mistake,message", [
    ({"arm": "custom"}, "unknown arm 'custom'"),
    ({"run": {"algorithm": "admmm"}}, "unknown algorithm 'admmm'"),
    ({"run": {"algorithm": "gne"}}, "gne solver requires a unicast scenario"),
    ({"run": {"algorithm": "augdgm", "gama": 3}}, "unknown field(s) 'gama' in a run of augdgm"),
    ({"run": {"max_iters": 50, "tol": 1e-3}}, "unknown field(s) 'tol' in a run of augdgm"),
], ids=["arm", "algorithm", "algorithm-for-kind", "misspelt-field", "field-of-another-solver"])
def test_dry_run_rejects_what_the_run_rejects(tmp_path, capsys, mistake, message):
    """A run config the solver would refuse fails the dry run too, with the
    same message."""
    cfg = _write_config(tmp_path, "bad.json", {"scenario": SEP_SCENARIO, **mistake})
    for extra in (["--dry-run"], []):
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     *extra]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


UNICAST_PRESET = {"kind": "unicast", "preset": "reference", "seed": 0}
REGRESSION_8 = {"kind": "regression", "num_sensors": 8, "num_sources": 3,
                "comm_radius_min": 0.45, "comm_radius_width": 0.1}
RANDOM_GAME_4 = {"kind": "random_game", "num_agents": 4, "sparsity": 0.4, "seed": 0}
COUPLED_QP_4 = {"kind": "coupled_qp", "num_agents": 4, "dim": 2, "seed": 0}


@pytest.mark.parametrize("scenario, run, field", [
    (UNICAST_PRESET, {"check_every": 0}, "check_every"),
    (UNICAST_PRESET, {"alpha": 0}, "alpha"),
    (UNICAST_PRESET, {"beta": -1}, "beta"),
    (UNICAST_PRESET, {"reference_step": 0}, "reference_step"),
    (UNICAST_PRESET, {"reference_max_iters": 0}, "reference_max_iters"),
    (UNICAST_PRESET, {"max_iters": 0}, "max_iters"),
    (UNICAST_PRESET, {"check_every": 0.5}, "check_every"),
    (UNICAST_PRESET, {"alpha": float("nan")}, "alpha"),
    ({"kind": "unicast", "num_users": 4, "alpha": 0.0}, {}, "alpha"),
    ({"kind": "unicast", "num_users": 4, "beta": -1e-3}, {}, "beta"),
    (REGRESSION_8, {"check_every": 0}, "check_every"),
    (RANDOM_GAME_4, {"alpha": 0}, "alpha"),
    (RANDOM_GAME_4, {"max_iters": 0}, "max_iters"),
    (SEP_SCENARIO, {"algorithm": "augdgm", "gamma": 0}, "gamma"),
    (SEP_SCENARIO, {"algorithm": "augdgm", "gamma": -1}, "gamma"),
    (SEP_SCENARIO, {"algorithm": "augdgm", "merit_every": 0}, "merit_every"),
    (SEP_SCENARIO, {"algorithm": "abc", "max_iters": -3}, "max_iters"),
    (SEP_SCENARIO, {"algorithm": "abc", "gamma": 0.0}, "gamma"),
    (SEP_SCENARIO, {"algorithm": "admm", "alpha": 0}, "alpha"),
    (SEP_SCENARIO, {"algorithm": "admm", "max_iters": 0}, "max_iters"),
    (REGRESSION_8, {"step_scale": 0}, "step_scale"),
    (REGRESSION_8, {"max_iters": 0}, "max_iters"),
    (COUPLED_QP_4, {"step_scale": -0.5}, "step_scale"),
    (COUPLED_QP_4, {"max_iters": 0}, "max_iters"),
], ids=["check_every", "alpha", "beta", "reference_step", "reference_max_iters", "max_iters",
        "check_every-below-one", "alpha-nan", "scenario-alpha", "scenario-beta",
        "pushsum-check_every", "ne-alpha", "ne-max_iters", "augdgm-gamma",
        "augdgm-gamma-negative", "augdgm-merit_every", "abc-max_iters", "abc-gamma",
        "admm-alpha", "admm-max_iters", "pushsum-step_scale", "pushsum-max_iters",
        "dual-step_scale", "dual-max_iters"])
def test_steps_and_intervals_a_solver_cannot_run_are_config_errors(tmp_path, capsys,
                                                                   scenario, run, field):
    """A step that is not positive or a check interval below 1 fails the
    dry run and the run alike, with a config error that names the field
    (before: a ZeroDivisionError traceback, a nan merit, or a negative beta
    reported as a positive preconditioner; for the solvers other than gne,
    "config ok" from the dry run, then an unmoved iterate, a divergence or
    a solver's error)."""
    cfg = _write_config(tmp_path, "bad.json", {"scenario": scenario, "run": run})
    for extra in (["--dry-run"], []):
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: field {field!r}: must be positive" in err, err
    assert not (tmp_path / "out").exists()


def test_int_field_takes_a_whole_float(tmp_path):
    """A whole number written as a float is read as that int."""
    cfg = _write_config(tmp_path, "whole.json", {
        "scenario": SEP_SCENARIO, "arm": "standard",
        "run": {"algorithm": "augdgm", "max_iters": 40.0, "merit_every": 20.0},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["iterations"] == 40


class _FieldsRead(dict):
    """A run config that records every field the solver looks up."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("scenario, run", [
    ({"kind": "unicast", "preset": "reference", "seed": 0},
     {"max_iters": 50, "reference_max_iters": 50}),
    ({"kind": "random_game", "num_agents": 4, "sparsity": 0.4, "seed": 0}, {"max_iters": 50}),
    (SEP_SCENARIO, {"algorithm": "augdgm", "max_iters": 50}),
    (SEP_SCENARIO, {"algorithm": "abc", "max_iters": 50}),
    (SEP_SCENARIO, {"algorithm": "admm", "max_iters": 50}),
    # the default push-sum step carries this instance's iterate past the
    # divergence guard before it comes back; 600 steps end below it
    ({"kind": "regression", "num_sensors": 8, "num_sources": 3, "comm_radius_min": 0.45,
      "comm_radius_width": 0.1}, {"max_iters": 600}),
    ({"kind": "coupled_qp", "num_agents": 4, "dim": 2, "seed": 0}, {"max_iters": 50}),
], ids=["gne", "ne", "augdgm", "abc", "admm", "pushsum", "dual"])
def test_run_fields_are_the_fields_each_solver_reads(scenario, run):
    """The fields ``_check_run`` accepts for an algorithm are the ones its
    solver branch looks up, neither more nor fewer."""
    bundle = cli.build_scenario(scenario, None)
    run_cfg = _FieldsRead(run)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = cli.run_solver(bundle, run_cfg, "customized")
    assert run_cfg.read == {"algorithm", *cli._RUN_FIELDS[result["algorithm"]]}


def test_augdgm_step_bound_builds_no_tracking_matrices(monkeypatch):
    """The certified step bound of augdgm and abc is 1 / the smoothness
    constant, the tracking matrices' bound bit for bit; augdgm builds no
    tracking matrices and abc builds them once."""
    bundle = cli.build_scenario(SEP_SCENARIO, None)
    built = []
    monkeypatch.setattr(cli, "augdgm_matrices",
                        lambda layout: built.append(layout) or augdgm_matrices(layout))
    for arm, layout in zip(("standard", "customized"), bundle["layouts"]):
        expected = augdgm_matrices(layout).gamma_bound(bundle["problem"])
        for algorithm in ("augdgm", "abc"):
            result = cli.run_solver(bundle, {"algorithm": algorithm, "max_iters": 20}, arm)
            assert result["certified"]["gamma_bound"] == expected
            assert built == ([layout] if algorithm == "abc" else [])
            built.clear()


@pytest.mark.parametrize("change,message", [
    ({"num_sensor": 8}, "unknown field(s) 'num_sensor'"),
    ({"sensing_radiu": 0.3}, "unknown field(s) 'sensing_radiu'"),
    ({"num_sources": None}, "missing field 'num_sources'"),
], ids=["typo-required", "typo-optional", "missing"])
@pytest.mark.parametrize("kind", ["regression", "lasso"])
def test_sensor_scenario_keys_are_checked(tmp_path, capsys, kind, change, message):
    scenario = {"kind": kind, "num_sensors": 8, "num_sources": 3, "seed": 0}
    if "num_sensor" in change:
        del scenario["num_sensors"]
    scenario.update(change)
    scenario = {k: v for k, v in scenario.items() if v is not None}
    cfg = _write_config(tmp_path, "bad.json", {"scenario": scenario})
    assert main(["run", "--config", cfg, "--dry-run"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("scenario, message", [
    ({"kind": "unicast", "num_users": 8, "num_user": 9},
     "unknown field(s) 'num_user' in a unicast scenario"),
    ({"kind": "unicast", "preset": "reference", "num_users": 8},
     "unknown field(s) 'num_users' in a unicast scenario with a preset"),
    ({"kind": "unicast", "preset": "referense"}, "unknown preset 'referense'"),
    ({"kind": "random_game", "num_agents": 4, "sparsty": 0.4},
     "unknown field(s) 'sparsty' in a random_game scenario"),
    ({"kind": "random_separable", "num_agent": 5},
     "unknown field(s) 'num_agent' in a random_separable scenario"),
    ({"kind": "coupled_qp", "num_agents": 4, "dims": 2, "box": 1.0},
     "unknown field(s) 'box', 'dims' in a coupled_qp scenario"),
], ids=["unicast", "unicast-preset", "preset-name", "random_game", "random_separable",
        "coupled_qp"])
def test_unknown_scenario_fields_are_config_errors(tmp_path, capsys, scenario, message):
    """A field its scenario kind does not read is refused with its name,
    by the dry run as by the run, before anything is built."""
    cfg = _write_config(tmp_path, "bad.json", {"scenario": scenario})
    for extra in (["--dry-run"], []):
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     *extra]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    with pytest.raises(cli.ConfigError, match="unknown"):
        cli.build_scenario(scenario)


def test_admm_alpha_out_of_range_is_config_error(tmp_path):
    for alpha in (0.0, 1.0):
        cfg = _write_config(tmp_path, f"admm{alpha}.json", {
            "scenario": SEP_SCENARIO,
            "run": {"algorithm": "admm", "alpha": alpha, "max_iters": 10},
        })
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("alpha, code", [(1.0, EXIT_CONFIG), (1.5, EXIT_CONFIG), (0.999, EXIT_OK)])
def test_admm_alpha_upper_end_is_checked_by_the_dry_run(tmp_path, capsys, alpha, code):
    """ADMM's relaxation parameter must stay below 1 (before: "config ok"
    from the dry run, then the run refused it)."""
    cfg = _write_config(tmp_path, "admm.json", {
        "scenario": SEP_SCENARIO, "run": {"algorithm": "admm", "alpha": alpha}})
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--dry-run"]) == code
    if code == EXIT_CONFIG:
        assert (f"config error: field 'alpha': relaxation parameter {alpha} outside (0, 1)"
                in capsys.readouterr().err)


@pytest.mark.parametrize("algorithm", ["augdgm", "abc"])
@pytest.mark.parametrize("factor, code", [(0.5, EXIT_OK), (1.5, EXIT_OK),
                                          (3.0, EXIT_DIVERGENCE)])
def test_uncertified_tracking_step_warns_in_the_dry_run_and_the_run(tmp_path, algorithm,
                                                                    factor, code):
    """A gamma past 1 / the smoothness constant is warned about by the dry
    run, without a solve, and by the run, whose exit code stays the one the
    step earns (before, augdgm ran 1.5x and diverged at 3x without a word,
    and no dry run warned); a certified gamma is not."""
    bound = augdgm_gamma_bound(cli.build_scenario(SEP_SCENARIO, None)["problem"])
    cfg = _write_config(tmp_path, "step.json", {
        "scenario": SEP_SCENARIO, "run": {"algorithm": algorithm, "gamma": factor * bound}})
    runs = []
    for extra, expected in ((["--dry-run"], EXIT_OK), ([], code)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                         *extra]) == expected
        runs.append([str(w.message) for w in caught
                     if "outside the certified interval" in str(w.message)])
    if factor < 1.0:
        assert runs == [[], []]
    else:
        assert runs == [[f"step size {factor * bound} outside the certified interval "
                         f"(0, {bound:.6g})"]] * 2


@pytest.mark.parametrize("beta", [None, 1.0])
def test_uncertified_gne_beta_warns_in_the_dry_run_and_the_run(tmp_path, beta):
    """A beta that leaves the primal-dual preconditioner indefinite is warned
    about by the dry run, which builds the operators but runs nothing, and
    by the run (before, only the run's summary reported it, after the
    solve); the default beta is not."""
    run = {"max_iters": 200, "reference": False} | ({} if beta is None else {"beta": beta})
    cfg = _write_config(tmp_path, "beta.json", {"scenario": UNICAST_PRESET, "run": run})
    runs = []
    for extra in (["--dry-run"], []):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                         *extra]) == EXIT_OK
        runs.append([str(w.message) for w in caught if "preconditioner" in str(w.message)])
    if beta is None:
        assert runs == [[], []]
    else:
        assert runs == [[f"step size beta={beta} is not certified: the primal-dual "
                         f"preconditioner is not positive definite"]] * 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["certified"]["preconditioner_positive"] is (beta is None)


@pytest.mark.parametrize("scenario, run, field", [
    (SEP_SCENARIO, {"algorithm": "augdgm", "gamma": True}, "gamma"),
    (UNICAST_PRESET, {"alpha": True}, "alpha"),
], ids=["augdgm-gamma", "gne-alpha"])
def test_bool_for_a_float_field_is_config_error(tmp_path, capsys, scenario, run, field):
    """A bool is not read as 1.0 (before: augdgm ran with gamma 1.0 and
    diverged)."""
    cfg = _write_config(tmp_path, "bool.json", {"scenario": scenario, "run": run})
    for extra in (["--dry-run"], []):
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     *extra]) == EXIT_CONFIG
        assert f"config error: field {field!r}: expected float, got True" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("field", ["max_iters", "merit_every"])
def test_tracking_without_steps_or_records_is_config_error(tmp_path, capsys, field):
    """No step, or a record every 0 steps, is refused with a message (no
    step used to end in a KeyError on the empty trace)."""
    for algorithm in ("augdgm", "abc"):
        cfg = _write_config(tmp_path, "none.json", {
            "scenario": SEP_SCENARIO,
            "run": {"algorithm": algorithm, "max_iters": 10, field: 0},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "max_iters >= 1 and merit_every >= 1" in capsys.readouterr().err


def test_divergent_step_size_is_divergence_error(tmp_path):
    cfg = _write_config(tmp_path, "div.json", {
        "scenario": SEP_SCENARIO,
        "arm": "standard",
        "run": {"algorithm": "augdgm", "gamma": 1000.0, "max_iters": 500},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_DIVERGENCE


def test_pushsum_blow_up_is_divergence_error(tmp_path):
    # the standard arm's iterate is ~1e38 when this budget runs out
    cfg = _write_config(tmp_path, "div.json", {
        "scenario": {"kind": "regression", "num_sensors": 40, "num_sources": 20,
                     "comm_radius_min": 0.25, "output_dim": 3, "seed": 0},
        "arm": "standard",
        "run": {"max_iters": 100},
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGENCE


def test_run_lasso_with_sensors_that_sense_nothing(tmp_path):
    scenario = {"kind": "lasso", "num_sensors": 20, "num_sources": 8,
                "comm_radius_min": 0.35, "seed": 0}
    inst = build_lasso(SensorScenario(**{k: v for k, v in scenario.items() if k != "kind"}))
    assert () in inst.problem.footprints
    cfg = _write_config(tmp_path, "lasso.json", {
        "scenario": scenario, "arm": "customized", "run": {"max_iters": 200},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "pushsum"
    assert summary["iterations"] == 200


@pytest.mark.parametrize("block, key, value", [
    ("scenario", "num_agents", "many"),
    ("scenario", "sparsity", None),
    ("run", "max_iters", [400]),
    ("run", "gamma", "small"),
    ("run", "max_iters", 2.7),
    ("run", "merit_every", True),
    ("run", "max_iters", float("inf")),
    ("scenario", "num_components", 6.5),
    ("scenario", "seed", False),
])
def test_ill_typed_field_is_config_error_naming_it(tmp_path, capsys, block, key, value):
    """Also an int field given a fractional number or a bool, in the dry
    run as in the run (before: 2.7 ran 2 iterations, and true ran 1)."""
    cfg = {"scenario": dict(SEP_SCENARIO), "arm": "standard",
           "run": {"algorithm": "augdgm", "max_iters": 50}}
    cfg[block][key] = value
    path = _write_config(tmp_path, "typed.json", cfg)
    for extra in (["--dry-run"], []):
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"),
                     *extra]) == EXIT_CONFIG
        assert f"config error: field {key!r}" in capsys.readouterr().err


def test_run_block_that_is_not_an_object_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, "bad.json", {"scenario": SEP_SCENARIO, "run": ["augdgm"]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_program_error_inside_a_solver_is_not_config_error(tmp_path, monkeypatch, sep_config,
                                                           error):
    def broken(*args, **kwargs):
        raise error("raised inside the solver")

    monkeypatch.setattr(cli, "augdgm_solve", broken)
    with pytest.raises(error, match="inside the solver"):
        main(["run", "--config", sep_config, "--out", str(tmp_path / "out")])


def test_trace_bytes_do_not_depend_on_the_log_level(tmp_path):
    """``endnet run`` on a designed arm, in fresh interpreters: debug logs the
    design of each component and warn logs nothing, and the trace CSVs are
    the same bytes."""
    cfg = _write_config(tmp_path, "sep.json", {
        "scenario": SEP_SCENARIO,
        "arm": "customized",
        "run": {"algorithm": "augdgm", "max_iters": 100, "merit_every": 20},
    })
    src = str(Path(cli.__file__).resolve().parents[1])
    traces, logs = {}, {}
    for level in ("debug", "warn"):
        env = dict(os.environ, END_LOG_LEVEL=level,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / level
        proc = subprocess.run(
            [sys.executable, "-m", "endnet.cli", "run", "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        traces[level] = (out / "trace.csv").read_bytes()
        logs[level] = [line for line in proc.stderr.splitlines() if "endnet.design" in line]
    assert len(logs["debug"]) == SEP_SCENARIO["num_components"]
    assert all(line.startswith("DEBUG endnet.design: component ") for line in logs["debug"])
    assert logs["warn"] == []
    assert traces["debug"] == traces["warn"]


def test_log_level_applies_inside_a_host_that_configured_logging(tmp_path, monkeypatch,
                                                                capsys):
    """A host process whose root logger already has handlers (so
    ``logging.basicConfig`` would do nothing), one of them on stderr, still
    gets the design's debug records when it runs ``endnet run`` with
    END_LOG_LEVEL=debug, each once on stderr: endnet adds no handler of its
    own."""
    cfg = _write_config(tmp_path, "sep.json", {
        "scenario": SEP_SCENARIO,
        "arm": "customized",
        "run": {"algorithm": "augdgm", "max_iters": 20, "merit_every": 10},
    })
    root, endnet_log = logging.getLogger(), logging.getLogger("endnet")
    saved = (root.handlers[:], root.level, endnet_log.handlers[:], endnet_log.level)
    records = []

    class Keep(logging.Handler):
        def emit(self, record):
            records.append(record)

    stderr = logging.StreamHandler(sys.stderr)
    stderr.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.handlers[:] = [logging.NullHandler(), Keep(), stderr]
    root.setLevel(logging.WARNING)
    endnet_log.handlers[:] = []
    monkeypatch.setenv("END_LOG_LEVEL", "debug")
    try:
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "again")]) == EXIT_OK
        assert endnet_log.handlers == []
    finally:
        root.handlers[:], endnet_log.handlers[:] = saved[0], saved[2]
        root.setLevel(saved[1])
        endnet_log.setLevel(saved[3])
    design = [r for r in records if r.name == "endnet.design"]
    assert len(design) == 2 * SEP_SCENARIO["num_components"]
    lines = [line for line in capsys.readouterr().err.splitlines() if "endnet.design" in line]
    assert len(lines) == len(design)
    assert all(line.startswith("DEBUG endnet.design: component ") for line in lines)


def _pins(standard, customized=None):
    """Per arm at --seed 3: (iterations, the trace's k column), or the text of
    the run's divergence. The CLI's push-sum step scale is far outside the
    stable range on the standard regression arm, whose |z| ends near 2e29."""
    return {"standard": standard, "customized": standard if customized is None else customized}


@pytest.mark.parametrize("scenario, run, pins", [
    ({"kind": "unicast", "preset": "reference", "seed": 0},
     {"max_iters": 600, "tol": 1e-2, "reference": False, "check_every": 100},
     _pins((600, range(99, 600, 100)))),
    ({"kind": "random_game", "num_agents": 4, "sparsity": 0.4, "seed": 0}, {"max_iters": 50},
     _pins((50, range(50)))),
    ({"kind": "regression", "num_sensors": 8, "num_sources": 3,
      "comm_radius_min": 0.45, "comm_radius_width": 0.1},
     {"max_iters": 600, "stop_tol": 1e-2},
     _pins("push-sum iterate norm exceeded 1.000e+06 at iteration 599",
           (300, range(99, 300, 100)))),
    (SEP_SCENARIO, {"algorithm": "augdgm", "max_iters": 400, "merit_every": 20},
     _pins((400, range(20, 401, 20)))),
    (SEP_SCENARIO, {"algorithm": "abc", "max_iters": 400, "merit_every": 20},
     _pins((400, range(20, 401, 20)))),
    (SEP_SCENARIO, {"algorithm": "admm", "max_iters": 50}, _pins((50, range(50)))),
    ({"kind": "coupled_qp", "num_agents": 4, "dim": 2, "seed": 0}, {"max_iters": 200},
     _pins((200, range(99, 200, 100)))),
], ids=["unicast", "ne", "regression", "augdgm", "abc", "admm", "dual"])
def test_us_per_step_reaches_the_summary_and_never_the_trace(tmp_path, capsys, scenario, run,
                                                              pins):
    """Every CLI algorithm reports its wall time per step in the summary's
    trace_meta; the trace CSVs of two runs of one config and seed stay the
    same bytes. On both arms the step count and the trace's k column are
    pinned, or the run's divergence."""
    for arm, pin in pins.items():
        cfg = _write_config(tmp_path, f"{arm}.json", {"scenario": scenario, "arm": arm,
                                                      "run": run})
        outs = [tmp_path / arm / "a", tmp_path / arm / "b"]
        if isinstance(pin, str):
            capsys.readouterr()
            assert main(["run", "--config", cfg, "--out", str(outs[0]), "--seed", "3"]) \
                == EXIT_DIVERGENCE
            assert capsys.readouterr().err == f"divergence: {pin}\n"
            continue
        for out in outs:
            assert main(["run", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_OK
        first = (outs[0] / "trace.csv").read_bytes()
        assert first == (outs[1] / "trace.csv").read_bytes()
        assert b"us_per_step" not in first
        rows = list(csv.reader(io.StringIO(first.decode())))
        assert rows[0][0] == "k"
        assert [int(row[0]) for row in rows[1:]] == list(pin[1]), arm
        for out in outs:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["trace_meta"]["us_per_step"] > 0
            assert summary["iterations"] == pin[0], arm


UNICAST_REFERENCE_RUN = {"max_iters": 600, "tol": 1e-2, "check_every": 100,
                         "reference_step": 0.2, "reference_max_iters": 3000}


def test_gne_reference_time_reaches_the_summary_and_never_the_trace(tmp_path):
    """gne reports the wall time of its centralized reference in the
    summary (null when no reference is solved); the trace CSVs of two runs
    of one config and seed stay the same bytes."""
    cfg = _write_config(tmp_path, "cfg.json", {"scenario": UNICAST_PRESET, "arm": "standard",
                                              "run": UNICAST_REFERENCE_RUN})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_OK
    first = (outs[0] / "trace.csv").read_bytes()
    assert first == (outs[1] / "trace.csv").read_bytes()
    assert b"reference_s" not in first
    for out in outs:
        summary = json.loads((out / "summary.json").read_text())
        assert 0 < summary["reference_s"] < summary["wall_seconds"]
    cfg = _write_config(tmp_path, "none.json", {
        "scenario": UNICAST_PRESET, "run": {**UNICAST_REFERENCE_RUN, "reference": False}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_OK
    assert json.loads((tmp_path / "c" / "summary.json").read_text())["reference_s"] is None


def test_both_arms_call_the_reference_and_solve_it_once(monkeypatch):
    """Each arm of a cell calls ``solve_vgne_centralized`` (a wrapper around
    that name sees both calls), and the second reads the first's result."""
    from endnet import games

    calls, loops = [], []
    solve, loop = cli.solve_vgne_centralized, games._reference_loop
    monkeypatch.setattr(cli, "solve_vgne_centralized",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    monkeypatch.setattr(games, "_reference_loop", lambda *a: loops.append(1) or loop(*a))
    bundle = cli.build_scenario(UNICAST_PRESET, None)
    results = [cli.run_solver(bundle, UNICAST_REFERENCE_RUN, arm)
               for arm in ("standard", "customized")]
    assert len(calls) == 2 and len(loops) == 1
    assert all(r["reference_s"] > 0 for r in results)


def test_bad_log_level_is_config_error(tmp_path, monkeypatch, sep_config):
    monkeypatch.setenv("END_LOG_LEVEL", "loud")
    assert main(["run", "--config", sep_config, "--dry-run"]) == EXIT_CONFIG


# -- validate ----------------------------------------------------------------


def _layout_file(tmp_path):
    cfg = _write_config(tmp_path, "design.json", {
        "scenario": {"kind": "unicast", "preset": "reference", "seed": 0},
    })
    out = tmp_path / "layouts"
    assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return str(out / "customized_layout.json")


def test_validate_good_layout(tmp_path, capsys):
    layout_file = _layout_file(tmp_path)
    cfg = _write_config(tmp_path, "val.json",
                        {"layout_file": layout_file, "mode": "undirected"})
    assert main(["validate", "--config", cfg]) == EXIT_OK
    assert "layout ok" in capsys.readouterr().out


def test_validate_wrong_mode_fails(tmp_path, capsys):
    layout_file = _layout_file(tmp_path)
    cfg = _write_config(tmp_path, "val.json", {
        "layout_file": layout_file, "mode": "rooted", "roots": {},
    })
    assert main(["validate", "--config", cfg]) == EXIT_INFEASIBLE
    assert "violation" in capsys.readouterr().err


def _per_component_format(d):
    d["design"] = {str(p): d["graphs"][k] for p, k in enumerate(d["design"], start=1)}
    del d["graphs"]


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["design"].pop(), "'design' lists graph indices for components 1..4, not 1..5"),
    (lambda d: d["design"].__setitem__(1, True), "component 2: graph index True is not an int"),
    (lambda d: d["design"].__setitem__(1, 0.0), "component 2: graph index 0.0 is not an int"),
    (lambda d: d["design"].__setitem__(2, -1), "component 3: graph index -1 is not an int"),
    (lambda d: d["design"].__setitem__(4, len(d["graphs"])), "component 5: graph index"),
    (_per_component_format, "per-component format; write it again with `endnet design`"),
], ids=["length", "bool", "float", "negative", "past-the-end", "per-component"])
def test_validate_rejects_a_bad_graph_index_map(tmp_path, capsys, edit, message):
    layout_file = _layout_file(tmp_path)
    with open(layout_file) as fh:
        d = json.load(fh)
    edit(d)
    bad = _write_config(tmp_path, "bad_layout.json", d)
    cfg = _write_config(tmp_path, "val.json", {"layout_file": bad})
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def _rename_first_weight(key):
    def edit(d):
        weights = d["graphs"][0]["weights"]
        weights[key] = weights.pop(next(iter(weights)))
    return edit


def _set_first_weight(value):
    def edit(d):
        weights = d["graphs"][0]["weights"]
        weights[next(iter(weights))] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_rename_first_weight("x1,2"), "weight key 'x1,2' is not 'receiver,sender' with int ids"),
    (_rename_first_weight("1,2,3"), "weight key '1,2,3' is not 'receiver,sender' with int ids"),
    (_set_first_weight("0.5"), "'0.5' is not a number"),
    (_set_first_weight(float("nan")), "nan is not a number"),
    (_set_first_weight(float("inf")), "inf is not a number"),
    (lambda d: d["graphs"][0].__setitem__("weights", [0.5]),
     "weights [0.5] are not an object keyed 'receiver,sender'"),
    (lambda d: d["graphs"][0]["nodes"].append("7"), "node entry '7' is not an int"),
    (lambda d: d["graphs"][0]["edges"].append([1, 2, 3]),
     "edge entry [1, 2, 3] is not a pair of int node ids"),
], ids=["key-not-int", "key-three-parts", "string-weight", "nan-weight", "inf-weight",
        "weights-list", "string-node", "edge-triple"])
def test_validate_rejects_a_malformed_graph_entry(tmp_path, capsys, edit, message):
    """A malformed entry of a graph is a config error naming the entry, not
    a traceback."""
    layout_file = _layout_file(tmp_path)
    with open(layout_file) as fh:
        d = json.load(fh)
    edit(d)
    bad = _write_config(tmp_path, "bad_layout.json", d)
    cfg = _write_config(tmp_path, "val.json", {"layout_file": bad})
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_validate_missing_file_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, "val.json",
                        {"layout_file": str(tmp_path / "nope.json")})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG


# -- experiment --------------------------------------------------------------


def test_experiment_table(tmp_path):
    cfg = _write_config(tmp_path, "exp.json", {
        "scenario": {k: v for k, v in SEP_SCENARIO.items() if k != "seed"},
        "sweep": {"parameter": "num_components", "values": [4, 6]},
        "seeds": [0, 1],
        "run": {"algorithm": "augdgm", "max_iters": 200, "merit_every": 50},
    })
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_OK
    with open(out / "experiment.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        # designed exchange graphs are subgraphs of the standard choice
        assert float(row["cust_unicast_cost"]) <= float(row["std_unicast_cost"])
        assert float(row["cust_estimates_per_agent"]) <= float(
            row["std_estimates_per_agent"])
    assert rows[0]["num_components"] == "4"
    summary = json.loads((out / "experiment_summary.json").read_text())
    assert summary["parameter"] == "num_components"
    assert len(summary["wall_seconds"]) == 4


@pytest.mark.parametrize("seeds", [[0, 1.5], [True], ["one"]])
def test_experiment_seeds_must_be_integers(tmp_path, capsys, seeds):
    cfg = _write_config(tmp_path, "exp.json", {
        "scenario": SEP_SCENARIO, "seeds": seeds, "run": {"algorithm": "augdgm"}})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: field 'seeds': expected integers" in capsys.readouterr().err


@pytest.mark.parametrize("field, block", [("seeds", {"seeds": "12"}),
                                          ("values", {"sweep": {"parameter": "num_agents",
                                                                "values": "45"}})])
def test_experiment_list_fields_must_be_arrays(tmp_path, capsys, field, block):
    """A string is iterable, but a seed or sweep list given as one is a
    config error, not one cell per character."""
    cfg = _write_config(tmp_path, "exp.json", {
        "scenario": {k: v for k, v in SEP_SCENARIO.items() if k != "seed"},
        "run": {"algorithm": "augdgm", "max_iters": 10, "merit_every": 5}, **block})
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: field {field!r}: expected list" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_deterministic_across_jobs(tmp_path):
    cfg = _write_config(tmp_path, "exp.json", {
        "scenario": {k: v for k, v in SEP_SCENARIO.items() if k != "seed"},
        "sweep": {"parameter": "num_agents", "values": [4, 5]},
        "seeds": [0],
        "run": {"algorithm": "augdgm", "max_iters": 100, "merit_every": 50},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["experiment", "--config", cfg, "--out", str(out2),
                 "--jobs", "2"]) == EXIT_OK
    assert (out1 / "experiment.csv").read_bytes() == (
        out2 / "experiment.csv").read_bytes()
