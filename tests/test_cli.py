"""Command-line interface: exit codes, file outputs, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

import kpcalab.bounds
import kpcalab.cli as cli
from kpcalab import NumericFailure


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _bounds_config(tmp_path, seed=5):
    return _write_config(tmp_path, f"bounds{seed}.json", {
        "seed": seed, "perturbation_cases": 30, "operator_trials": 20})


_RATES_PAYLOAD = {
    "decay": "expo", "gamma": 0.5, "theta": 0.2, "metric": "recon_hat",
    "n_grid": [32, 48, 64, 96], "replications": 5, "atoms": 24, "rank": 8,
    "seed": 3, "slope_tolerance": 5.0,
}


_SPECTRUM_PAYLOAD = {"atoms": 24, "rank": 6, "decay": "poly", "alpha": 2.0, "seed": 7,
                     "ells": [1, 2]}
_TRANSITION_PAYLOAD = {**_RATES_PAYLOAD, "theta": 0.0, "ell_fixed": 1,
                       "metric": "proj_rf_hat", "taus": [0.3, 0.9]}


def test_bounds_run_and_byte_identical_rerun(tmp_path, capsys):
    cfg = _bounds_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["bounds", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["bounds", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert not (out1 / "oracle_snapshot.json").exists()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["tool"] == "kpcalab"
    assert summary["command"] == "bounds"
    raw = open(cfg, "rb").read()
    assert summary["config_sha256"] == hashlib.sha256(raw).hexdigest()
    assert all(v["pass"] for v in summary["verdicts"].values())
    assert summary["violations_plain"] == 0
    head = (out1 / "results.csv").read_text().splitlines()
    assert head[0].startswith("case,dim,d,delta_d,b_hs,plain_lhs")
    assert len(head) == 31
    stdout = capsys.readouterr().out
    assert "overall: PASS" in stdout


def test_bounds_rows_equal_the_per_case_views(tmp_path, monkeypatch, capsys):
    make_cases, check = kpcalab.bounds.make_perturbation_cases, kpcalab.bounds.perturb_check
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return make_cases(*args, **kwargs)

    monkeypatch.setattr(kpcalab.bounds, "make_perturbation_cases", spy)
    # also catch the list view imported into the command module by name
    monkeypatch.setattr(cli, "make_perturbation_cases", spy, raising=False)
    out = tmp_path / "rows"
    assert cli.main(["bounds", "--config", _bounds_config(tmp_path), "--out", str(out)]) == 0
    assert calls == []  # the command scores whole dimension stacks
    expected = []
    for i, case in enumerate(make_cases(30, seed=5)):
        rep = check(case)
        row = [i, case.a.shape[0], case.d, case.delta_d, case.b_hs, rep.plain.lhs,
               rep.plain.rhs, rep.plain.holds, rep.weighted.lhs, rep.weighted.rhs,
               rep.weighted.holds, rep.trivial_rhs, rep.sharper_than_trivial]
        expected.append(",".join(cli._csv_cell(v) for v in row))
    assert (out / "results.csv").read_text().splitlines()[1:] == expected
    capsys.readouterr()


def test_writers_fast_paths_equal_the_generic_path():
    floats = [0.1, -2.5e-300, 1e17, math.nan, math.inf, -math.inf, 3.0]
    ints = [0, -7, 2**40]
    as_numpy = [np.float64(v) for v in floats]
    assert cli.render_json(floats) == cli.render_json(as_numpy)
    assert cli.render_json(floats).splitlines()[4:7] == ["  null,", "  null,", "  null,"]
    assert cli.render_json(ints) == cli.render_json([np.int64(v) for v in ints])
    assert cli.render_json([True, False]) == cli.render_json([np.bool_(True), np.bool_(False)])
    mixed = [1, 2.5, True, None, "x", [0.5, 1], {"k": [math.nan]}]
    assert cli.render_json(mixed) == cli.render_json(
        [np.int64(1), np.float64(2.5), np.bool_(True), None, "x",
         [np.float64(0.5), np.int64(1)], {"k": [np.float64(math.nan)]}])
    nested = {"basis": [[0.25, -1.0], [2.0, 3.5]], "n": [4, 5]}
    assert cli.render_json(nested, indent=2) == cli.render_json(
        {"basis": [list(map(np.float64, r)) for r in nested["basis"]],
         "n": [np.int64(4), np.int64(5)]}, indent=2)
    for plain, generic in [(0.1, np.float64(0.1)), (1e-310, np.float64(1e-310)),
                           (True, np.bool_(True)), (False, np.bool_(False)),
                           (12, np.int64(12)), (-3, np.int32(-3))]:
        assert cli._csv_cell(plain) == cli._csv_cell(generic)
    assert [cli._csv_cell(v) for v in (0.1, True, 7, None, "s")] == [
        "0.10000000000000001", "true", "7", "", "s"]


def test_rates_threads_do_not_change_bytes(tmp_path):
    cfg = _write_config(tmp_path, "rates.json", _RATES_PAYLOAD)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert cli.main(["rates", "--config", cfg, "--out", str(out1),
                     "--threads", "2"]) == 0
    assert cli.main(["rates", "--config", cfg, "--out", str(out2),
                     "--threads", "1"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "oracle_snapshot.json").exists()
    snap = json.loads((out1 / "oracle_snapshot.json").read_text())
    assert len(snap["population_spectrum"]) == 24
    header = (out1 / "results.csv").read_text().splitlines()[0]
    assert header == "n,m,ell,rep,metric,value"
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["threads"] == 2
    assert summary["metric"] == "recon_hat"
    assert summary["verdicts"]["slope_within_tolerance"]["pass"]
    assert summary["verdicts"]["projector_swap_inequality"]["pass"]


def test_seed_override_changes_results(tmp_path):
    cfg = _bounds_config(tmp_path)
    out1, out2 = tmp_path / "s5", tmp_path / "s6"
    assert cli.main(["bounds", "--config", cfg, "--out", str(out1),
                     "--seed", "5"]) == 0
    assert cli.main(["bounds", "--config", cfg, "--out", str(out2),
                     "--seed", "6"]) == 0
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()
    assert json.loads((out2 / "summary.json").read_text())["effective_seed"] == 6


def test_malformed_config_exits_one_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never"
    assert cli.main(["bounds", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_config_schema_rejections(tmp_path, capsys):
    out = str(tmp_path / "o")
    cases = [
        ("unknown.json", {"seed": 1, "florp": 2}, "bounds"),
        ("missing.json", {k: v for k, v in _RATES_PAYLOAD.items()
                          if k != "metric"}, "rates"),
        ("noseed.json", {"perturbation_cases": 3}, "bounds"),
        ("list.json", [1, 2], "bounds"),
    ]
    for name, payload, command in cases:
        cfg = _write_config(tmp_path, name, payload)
        assert cli.main([command, "--config", cfg, "--out", out]) == 1
        assert not (tmp_path / "o").exists()
    capsys.readouterr()


@pytest.mark.parametrize("command, payload", [
    ("bounds", {"seed": 1, "perturbation_cases": "abc"}),
    ("bounds", {"seed": 1, "perturbation_cases": None}),
    ("bounds", {"seed": 1, "perturbation_cases": 2.7}),
    ("bounds", {"seed": 1, "perturbation_cases": True}),
    ("bounds", {"seed": 1, "perturbation_cases": 3, "operator_trials": 2.5}),
    ("bounds", {"seed": "x", "perturbation_cases": 3}),
    ("bounds", {"seed": 1.9, "perturbation_cases": 3}),
    ("bounds", {"seed": False, "perturbation_cases": 3}),
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400.5, "replications": 50}),
    ("concentration", {"seed": 1, "tau": "abc", "count": 400, "replications": 50}),
    ("concentration", {"seed": 1, "tau": math.nan, "count": 400, "replications": 50}),
    ("concentration", {"seed": 1, "tau": True, "count": 400, "replications": 50}),
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50.5}),
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50,
                       "atoms": 32.5}),
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50,
                       "experiments": ["cov_deviation", "nope"]}),
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50,
                       "experiments": "cov_deviation"}),
    ("rates", {**_RATES_PAYLOAD, "n_grid": [32.9, 48, 64, 96]}),
    ("rates", {**_RATES_PAYLOAD, "theta": True}),
    ("rates", {**_RATES_PAYLOAD, "atoms": 24.5}),
    ("rates", {**_RATES_PAYLOAD, "theta": 0.0, "ell_fixed": 2.5}),
    ("rates", {**_RATES_PAYLOAD, "replications": 5.5}),
    ("rates", {**_RATES_PAYLOAD, "slope_tolerance": "x"}),
    ("spectrum", {**_SPECTRUM_PAYLOAD, "atoms": 24.7}),
    ("spectrum", {**_SPECTRUM_PAYLOAD, "ells": [1, 2.9]}),
    ("spectrum", {**_SPECTRUM_PAYLOAD, "ells": 2}),
    ("transition", {**_TRANSITION_PAYLOAD, "taus": ["abc"]}),
], ids=["cases_str", "cases_null", "cases_fraction", "cases_bool", "trials_fraction",
        "seed_str", "seed_fraction", "seed_bool", "count_fraction", "tau_str", "tau_nan",
        "tau_bool", "replications_fraction", "atoms_fraction", "unknown_experiment",
        "experiments_not_a_list", "n_grid_fraction", "theta_bool", "rates_atoms_fraction",
        "ell_fixed_fraction", "rates_replications_fraction", "slope_tolerance_str",
        "spectrum_atoms_fraction", "spectrum_ells_fraction", "spectrum_ells_not_a_list",
        "taus_str"])
def test_bad_config_values_fail_before_any_compute(tmp_path, monkeypatch, capsys,
                                                   command, payload):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran on a bad config")

    for name in ("_case_stacks", "operator_inequality_suite", "mc_tail", "run_grid",
                 "transition_study", "_oracle"):
        monkeypatch.setattr(cli, name, no_compute)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert cli.main(["bounds", "--config", str(tmp_path / "ghost.json"),
                     "--out", out]) == 1
    capsys.readouterr()


def test_verdict_failure_exits_two_but_writes_outputs(tmp_path, capsys):
    payload = dict(_RATES_PAYLOAD, slope_tolerance=1e-6)
    cfg = _write_config(tmp_path, "tight.json", payload)
    out = tmp_path / "tight"
    assert cli.main(["rates", "--config", cfg, "--out", str(out)]) == 2
    assert (out / "results.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["verdicts"]["slope_within_tolerance"]["pass"]
    assert "overall: FAIL" in capsys.readouterr().out


def test_numeric_failure_exits_three(tmp_path, monkeypatch, capsys):
    def explode(config, seed):
        raise NumericFailure("eigensolver went sideways")

    monkeypatch.setitem(cli._HANDLERS, "bounds", explode)
    cfg = _bounds_config(tmp_path)
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_thread_argument_parsing(tmp_path, monkeypatch, capsys):
    # 'auto' counts the CPUs this process may run on, not the machine's
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = _bounds_config(tmp_path)
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "auto"),
                     "--threads", "auto"]) == 0
    summary = json.loads((tmp_path / "auto" / "summary.json").read_text())
    assert summary["threads"] == 1
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "z"),
                     "--threads", "0"]) == 1
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "z"),
                     "--threads", "soon"]) == 1
    capsys.readouterr()


def test_argparse_exits(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main([]) == 1
    assert cli.main(["florp"]) == 1
    capsys.readouterr()


def test_spectrum_smoke(tmp_path, capsys):
    cfg = _write_config(tmp_path, "spec.json", {
        "atoms": 24, "rank": 6, "decay": "poly", "alpha": 2.0,
        "seed": 7, "ells": [1, 2, 5]})
    out = tmp_path / "spec"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "ell,eigenvalue,tail_energy,projector_residual,rel_err,agrees"
    assert len(lines) == 4
    assert lines[1].startswith("1,") and lines[1].endswith("true")
    bad = _write_config(tmp_path, "specbad.json", {
        "atoms": 24, "rank": 6, "decay": "poly", "alpha": 2.0,
        "seed": 7, "ells": [6]})
    assert cli.main(["spectrum", "--config", bad, "--out", str(out)]) == 1
    capsys.readouterr()


def test_transition_smoke(tmp_path, capsys):
    cfg = _write_config(tmp_path, "trans.json", {
        "decay": "expo", "gamma": 1.0, "theta": 0.0, "ell_fixed": 1,
        "metric": "proj_rf_hat", "taus": [0.3, 0.9],
        "n_grid": [32, 48, 64, 96], "replications": 5, "atoms": 24,
        "rank": 6, "seed": 2, "slope_tolerance": 5.0})
    out = tmp_path / "trans"
    assert cli.main(["transition", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "tau"
    assert lines[1].startswith(",")  # reference rows carry no tau
    assert any(line.startswith("0.2999") or line.startswith("0.3")
               for line in lines[1:])
    assert (out / "oracle_snapshot.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["threshold"] == pytest.approx(0.5)
    capsys.readouterr()


def test_concentration_smoke(tmp_path, capsys):
    cfg = _write_config(tmp_path, "conc.json", {
        "tau": 2.0, "count": 200, "replications": 50, "atoms": 32,
        "rank": 8, "seed": 4, "experiments": ["cov_deviation"]})
    out = tmp_path / "conc"
    assert cli.main(["concentration", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("experiment,tau,count,replications,bound")
    assert len(lines) == 2 and lines[1].startswith("cov_deviation,2,200,50,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"]["cov_deviation_within_tail"]["pass"]
    capsys.readouterr()
