"""Command-line interface: exit codes, file outputs, determinism."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

import kpcalab.bounds
import kpcalab.cli as cli
from kpcalab import NumericFailure, rates


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _rows(out) -> list:
    """results.csv's rows below its header, as lists of cell texts."""
    with open(out / "results.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _parsed(text: str, like):
    """A results.csv cell read back as the type of the value written there."""
    if type(like) is bool:
        return {"true": True, "false": False}[text]
    return type(like)(text)


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
        expected.append(row)
    written = _rows(out)
    assert len(written) == len(expected)
    for texts, row in zip(written, expected):
        assert [_parsed(t, v) for t, v in zip(texts, row)] == row
    capsys.readouterr()


def _render_per_value(obj, indent=0):
    """The JSON layout built one value at a time: two-space indent, one list
    item per line, floats in repr form, NaN and infinities as null."""
    pad = "  " * indent
    if isinstance(obj, list) and obj:
        items = [f"{pad}  {_render_per_value(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if type(obj) is float:
        return repr(obj) if math.isfinite(obj) else "null"
    return str(obj).lower() if type(obj) is bool else str(obj)


@pytest.mark.parametrize("indent", [0, 2])
@pytest.mark.parametrize("values", [
    [0.1, -0.0, 0.0, 1e300, -1e300, 5e-324, 2.0**-1074 * 3, 1 / 3, -7.0, 123456789.0],
    [math.nan, 1.5], [math.inf, 0.25], [-0.0, -math.inf], [2.5],
    [1, 2.5, True], [True, False], [0, -3, 2**70], [],
    [[0.5, -0.0], [], [1e300, math.nan], [[2.0], 3.5]],
    list(np.random.default_rng(3).standard_normal(500) * 10.0 ** np.arange(-250, 250)),
], ids=["finite", "nan", "inf", "neg_inf", "one", "mixed", "bools", "ints", "empty", "nested",
        "wide_range"])
def test_float_lists_render_like_one_value_at_a_time(tmp_path, values, indent):
    values = [float(v) if isinstance(v, np.floating) else v for v in values]
    obj, expected = values, _render_per_value(values, indent)
    for depth in reversed(range(indent)):  # nest the list ``indent`` objects deep
        obj = {"v": obj}
        expected = "{\n" + "  " * depth + '  "v": ' + expected + "\n" + "  " * depth + "}"
    cli._write_json(tmp_path / "out.json", obj)
    assert (tmp_path / "out.json").read_text() == expected + "\n"


_SMALL_RUNS = {
    "spectrum": _SPECTRUM_PAYLOAD,
    "rates": _RATES_PAYLOAD,
    "transition": {**_TRANSITION_PAYLOAD, "taus": [0.25, 0.8]},
    "bounds": {"seed": 5, "perturbation_cases": 30, "operator_trials": 20},
    "concentration": {"tau": 2.0, "count": 200, "replications": 50, "atoms": 32,
                      "rank": 8, "seed": 4},
}


@pytest.mark.parametrize("command", _SMALL_RUNS)
def test_every_float_is_written_in_shortest_round_trip_form(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, "c.json", _SMALL_RUNS[command])
    out = tmp_path / command
    assert cli.main([command, "--config", cfg, "--out", str(out)]) in (0, 2)
    texts = []

    def collect(text):
        texts.append(text)
        return float(text)

    for name in ("summary.json", "oracle_snapshot.json"):
        if (out / name).exists():
            json.loads((out / name).read_text(), parse_float=collect)
    for row in _rows(out):
        for cell in row:
            try:
                float(cell)
            except ValueError:
                continue
            if not cell.lstrip("-").isdigit():
                texts.append(cell)
    assert texts
    assert [t for t in texts if repr(float(t)) != t] == []
    capsys.readouterr()


def test_rate_values_are_written_exactly(tmp_path, monkeypatch, capsys):
    reports = []

    def spy(config):
        reports.append(rates.run_grid(config))
        return reports[-1]

    monkeypatch.setattr(cli, "run_grid", spy)
    out = tmp_path / "rates"
    assert cli.main(["rates", "--config", _write_config(tmp_path, "r.json", _RATES_PAYLOAD),
                     "--out", str(out)]) == 0
    written = [float(row[-1]).hex() for row in _rows(out)]
    assert written == [float(r.value).hex() for r in reports[0].rows]
    capsys.readouterr()


def test_transition_verdict_names_keep_17_significant_digits(tmp_path, capsys):
    cfg = _write_config(tmp_path, "t.json", _SMALL_RUNS["transition"])
    out = tmp_path / "trans"
    assert cli.main(["transition", "--config", cfg, "--out", str(out)]) in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["verdicts"]) == [
        "tau_0.25_feature_limited", "tau_0.80000000000000004_sample_limited",
        "projector_swap_inequality"]
    assert summary["config"]["taus"] == [0.25, 0.8]
    capsys.readouterr()


def test_writers_map_nan_to_null_and_nan_and_bools_to_lowercase(tmp_path, monkeypatch,
                                                                capsys):
    def handler(config, seed):
        header = ["a", "b", "c", "d", "e", "f", "g"]
        rows = [[math.nan, True, False, None, 0.1, 7, "s"]]
        body = {"missing": math.nan, "ends": (math.inf, -math.inf, 0.5), "ok": False}
        return header, rows, body, [("check", True, "fine")], {"x": [math.nan, 2.0]}

    monkeypatch.setitem(cli._HANDLERS, "bounds", handler)
    out = tmp_path / "w"
    assert cli.main(["bounds", "--config", _bounds_config(tmp_path), "--out", str(out)]) == 0
    assert (out / "results.csv").read_text().splitlines()[1] == "nan,true,false,,0.1,7,s"
    text = (out / "summary.json").read_text()
    assert '\n  "missing": null,\n  "ends": [\n    null,\n    null,\n    0.5\n  ],\n' in text
    summary = json.loads(text)
    assert summary["ok"] is False and summary["verdicts"]["check"]["pass"] is True
    assert (out / "oracle_snapshot.json").read_text() == (
        '{\n  "x": [\n    null,\n    2.0\n  ]\n}\n')
    capsys.readouterr()


def test_rates_threads_do_not_change_bytes(tmp_path):
    cfg = _write_config(tmp_path, "rates.json", _RATES_PAYLOAD)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert cli.main(["rates", "--config", cfg, "--out", str(out1),
                     "--threads", "2"]) == 0
    assert cli.main(["rates", "--config", cfg, "--out", str(out2),
                     "--threads", "1"]) == 0
    for name in ("results.csv", "oracle_snapshot.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    bounds = _bounds_config(tmp_path)
    for threads in ("1", "2"):
        assert cli.main(["bounds", "--config", bounds, "--out", str(tmp_path / f"b{threads}"),
                         "--threads", threads]) == 0
    assert ((tmp_path / "b1" / "results.csv").read_bytes()
            == (tmp_path / "b2" / "results.csv").read_bytes())
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
    # concentration always runs both experiments, so it has no experiments key
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50,
                       "experiments": ["cov_deviation"]}),
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
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50, "rank": 0}),
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50, "rank": -2}),
    ("concentration", {"seed": 1, "tau": 2.0, "count": 400, "replications": 50,
                       "atoms": 20, "rank": 20}),
    ("bounds --seed 3", {"seed": "abc", "perturbation_cases": 3}),
    ("rates", {**_RATES_PAYLOAD, "n_grid": 5}),
    ("rates", {**_RATES_PAYLOAD, "slope_tolerance": -0.1}),
    # exp(-0.5 i) keeps 47 eigenvalues above RANK_RTOL of the first: ell 59 cannot split
    ("spectrum", {"atoms": 192, "rank": 60, "decay": "expo", "gamma": 0.5, "seed": 7,
                  "ells": [1, 3, 10, 30, 59]}),
    ("transition", {**_TRANSITION_PAYLOAD, "tau": 0.9}),
    ("transition", {**_TRANSITION_PAYLOAD, "taus": [0.8, 0.8]}),
    ("bounds", {"seed": 1, "perturbation_cases": 3, "operator_trials": 0}),
    ("spectrum", {**_SPECTRUM_PAYLOAD, "ells": [2, 2]}),
    # each decay family takes only its own parameter, which the schedule would ignore
    ("spectrum", {**_SPECTRUM_PAYLOAD, "gamma": 0.5}),
    ("spectrum", {**_SPECTRUM_PAYLOAD, "decay": "expo", "gamma": 0.5}),
    ("rates", {**_RATES_PAYLOAD, "n_grid": [1, 48, 64, 96]}),
    ("spectrum", {**_SPECTRUM_PAYLOAD, "decay": "cubic"}),
], ids=["cases_str", "cases_null", "cases_fraction", "cases_bool", "trials_fraction",
        "seed_str", "seed_fraction", "seed_bool", "count_fraction", "tau_str", "tau_nan",
        "tau_bool", "replications_fraction", "atoms_fraction", "experiments_key_unknown",
        "n_grid_fraction", "theta_bool", "rates_atoms_fraction",
        "ell_fixed_fraction", "rates_replications_fraction", "slope_tolerance_str",
        "spectrum_atoms_fraction", "spectrum_ells_fraction", "spectrum_ells_not_a_list",
        "taus_str", "rank_zero", "rank_negative", "atoms_not_above_rank",
        "seed_str_under_override", "n_grid_scalar", "slope_tolerance_negative",
        "spectrum_ell_past_retained_rank", "transition_tau_key", "taus_repeated",
        "trials_zero", "spectrum_ells_repeated", "spectrum_poly_with_gamma",
        "spectrum_expo_with_alpha", "n_grid_below_two", "spectrum_decay_unknown"])
def test_bad_config_values_fail_before_any_compute(tmp_path, monkeypatch, capsys,
                                                   command, payload):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran on a bad config")

    for name in ("perturbation_suite", "operator_inequality_suite", "mc_tail", "run_grid",
                 "transition_study", "_oracle"):
        monkeypatch.setattr(cli, name, no_compute)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "o"
    command, *flags = command.split()
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


_POLY_PAYLOAD = {**{k: v for k, v in _RATES_PAYLOAD.items() if k != "gamma"},
                 "decay": "poly", "alpha": 2.0}


@pytest.mark.parametrize("command, payload", [
    ("rates", {**_POLY_PAYLOAD, "theta": 0.0}),
    # beta = 3: 2 theta beta / alpha = 0.3, so tau = 0.2 is out of regime
    ("transition", {**_POLY_PAYLOAD, "theta": 0.1, "metric": "proj_rf_hat",
                    "taus": [0.5, 0.2]}),
    # ell(10^6) = round(0.86 ln 10^6) = 12 exceeds rank - 1 = 7
    ("rates", {**_RATES_PAYLOAD, "theta": 0.43, "n_grid": [32, 48, 64, 1000000]}),
    # exp(-1.3 i): lambda_20 / lambda_1 = 1.9e-11 sits below the division guard
    ("rates", {**_RATES_PAYLOAD, "gamma": 1.3, "theta": 0.0, "ell_fixed": 20, "atoms": 96,
               "rank": 48, "metric": "proj_hat"}),
    ("transition", {**_TRANSITION_PAYLOAD, "gamma": 1.3, "ell_fixed": 20, "atoms": 96,
                    "rank": 48}),
    # lambda_2 - lambda_3 is about 1e-13, below GAP_TOL
    ("rates", {**_RATES_PAYLOAD, "gamma": 1e-13, "theta": 0.0, "ell_fixed": 2,
               "metric": "proj_hat"}),
], ids=["poly_recon_theta_zero", "transition_second_tau", "ell_past_rank",
        "rates_ell_below_guard", "transition_ell_below_guard", "tied_gap"])
def test_out_of_regime_configs_exit_one_before_any_cell(tmp_path, monkeypatch, capsys,
                                                       command, payload):
    calls = {"_measure_point": [], "_oracle": []}

    def spy(name):
        original = getattr(rates, name)

        def counting(*args):
            calls[name].append(args)
            return original(*args)
        return counting

    for name in calls:
        monkeypatch.setattr(rates, name, spy(name))
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, "regime.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert calls == {"_measure_point": [], "_oracle": []}
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["", "sub"], ids=["out_is_a_file", "out_under_a_file"])
def test_out_through_a_file_exits_one_before_any_compute(tmp_path, monkeypatch, capsys,
                                                         under):
    seen = _spy_command(monkeypatch, lambda: "ran", True)
    blocker = tmp_path / "afile"
    blocker.write_text("kept")
    out = blocker / under if under else blocker
    assert cli.main(["bounds", "--config", _bounds_config(tmp_path), "--out", str(out)]) == 1
    assert seen == []
    assert blocker.read_text() == "kept"
    err = capsys.readouterr().err
    assert "config error" in err and "is not a directory" in err and "Traceback" not in err


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
    for raw in ("0", "00", "soon", "", " 2", "2 ", " 2_0 ", "2_0", "+2", "-1", "2.0",
                "\u00b2", "\u0662", "AUTO"):
        assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "z"),
                         "--threads", raw]) == 1, raw
    assert not (tmp_path / "z").exists()
    capsys.readouterr()


class _FakeBlas:
    """Stands in for OpenBLAS's thread-count functions and logs every call."""

    def __init__(self, count):
        self.count, self.calls = count, []

    def get(self):
        self.calls.append("get")
        return self.count

    def set(self, count):
        self.calls.append(count)
        self.count = count


def _spy_command(monkeypatch, read_count, outcome):
    """Make 'bounds' a handler that records ``read_count()`` and ends with ``outcome``."""
    seen = []

    def handler(config, seed):
        seen.append(read_count())
        if isinstance(outcome, Exception):
            raise outcome
        return ["x"], [[1]], {}, [("spy", outcome, "")], None

    monkeypatch.setitem(cli._HANDLERS, "bounds", handler)
    return seen


@pytest.mark.parametrize("outcome, code", [
    (True, 0), (cli.ConfigError("bad"), 1), (False, 2), (NumericFailure("nan"), 3),
], ids=["exit0", "exit1", "exit2_verdict", "exit3"])
def test_commands_run_blas_on_one_thread_and_restore_it(tmp_path, monkeypatch, capsys,
                                                        outcome, code):
    fake = _FakeBlas(count=7)
    monkeypatch.setattr(cli, "_openblas", lambda: (fake.get, fake.set))
    seen = _spy_command(monkeypatch, lambda: fake.count, outcome)
    cfg = _bounds_config(tmp_path)
    for threads in ("1", "2", "64", "auto"):
        fake.calls.clear()
        assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / threads),
                         "--threads", threads]) == code
        assert seen.pop() == 1
        assert fake.calls == ["get", 1, 7]
    capsys.readouterr()


def test_commands_without_openblas_leave_blas_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    seen = _spy_command(monkeypatch, lambda: "ran", True)
    assert cli.main(["bounds", "--config", _bounds_config(tmp_path),
                     "--out", str(tmp_path / "o"), "--threads", "2"]) == 0
    assert seen == ["ran"]
    capsys.readouterr()


def test_commands_run_the_real_openblas_on_one_thread(tmp_path, monkeypatch, capsys):
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy does not ship OpenBLAS here")
    get, put = blas
    original = get()
    seen = _spy_command(monkeypatch, get, True)
    cfg = _bounds_config(tmp_path)
    try:
        for count, threads in ((2, "2"), (2, "1"), (1, "auto")):
            put(count)
            previous = get()
            assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / threads),
                             "--threads", threads]) == 0
            assert seen.pop() == 1
            assert get() == previous
    finally:
        put(original)
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


_TRANSITION_SMOKE = {
    "decay": "expo", "gamma": 1.0, "theta": 0.0, "ell_fixed": 1,
    "metric": "proj_rf_hat", "taus": [0.3, 0.9],
    "n_grid": [32, 48, 64, 96], "replications": 5, "atoms": 24,
    "rank": 6, "seed": 2, "slope_tolerance": 5.0}


def test_transition_smoke(tmp_path, capsys):
    cfg = _write_config(tmp_path, "trans.json", _TRANSITION_SMOKE)
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


def test_summary_bands_are_the_reports_bands(tmp_path, capsys):
    rates_out, trans_out = tmp_path / "rates", tmp_path / "trans"
    cfg = _write_config(tmp_path, "rates.json", _RATES_PAYLOAD)
    assert cli.main(["rates", "--config", cfg, "--out", str(rates_out)]) == 0
    summary = json.loads((rates_out / "summary.json").read_text())
    report = rates.run_grid(rates.ExperimentConfig(**_RATES_PAYLOAD))
    assert rates.SlopeBand(**summary["band"]) == report.band
    assert summary["verdicts"]["slope_within_tolerance"]["pass"] == report.band.holds(report.slope)

    payload = dict(_TRANSITION_SMOKE)
    cfg = _write_config(tmp_path, "trans.json", payload)
    assert cli.main(["transition", "--config", cfg, "--out", str(trans_out)]) == 0
    summary = json.loads((trans_out / "summary.json").read_text())
    taus = payload.pop("taus")
    study = rates.transition_study(rates.ExperimentConfig(**payload, tau=taus[0]), taus)
    assert rates.SlopeBand(**summary["reference"]["band"]) == study.reports[0].band
    assert len(summary["taus"]) == len(study.rows) == 2
    for entry, row in zip(summary["taus"], study.rows):
        band = rates.SlopeBand(**entry["band"])
        assert band == row.band
        verdict = summary["verdicts"][f"tau_{row.tau:.17g}_{row.regime}"]
        assert verdict["pass"] == entry["matches"] == band.holds(row.slope)
    capsys.readouterr()


def test_concentration_smoke(tmp_path, capsys):
    cfg = _write_config(tmp_path, "conc.json", {
        "tau": 2.0, "count": 200, "replications": 50, "atoms": 32,
        "rank": 8, "seed": 4})
    out = tmp_path / "conc"
    assert cli.main(["concentration", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("experiment,tau,count,replications,bound")
    assert len(lines) == 3 and lines[1].startswith("cov_deviation,2.0,200,50,")
    assert lines[2].startswith("feature_op_deviation,2.0,200,50,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"]["cov_deviation_within_tail"]["pass"]
    assert summary["verdicts"]["feature_op_deviation_within_tail"]["pass"]
    capsys.readouterr()
