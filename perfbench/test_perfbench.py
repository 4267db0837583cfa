"""Tests of the benchmark's own machinery: gate, tracer and comparator."""

import json
import sys

import numpy as np
import pytest

import compare
import gate
import run
from tracer import TRACED, Tracer, self_times
from workloads import Command


def _perturbed(csv: bytes, row: int, col: int, rel: float) -> bytes:
    lines = csv.decode().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = format(float(cells[col]) * (1.0 + rel), ".17g")
    lines[row + 1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("rel, failed", [(1e-9, 1), (1e-12, 0)])
def test_gate_flags_1e9_and_accepts_1e12(rel, failed):
    ref = gate.load_reference(["poly_recon"])
    cmd = Command("poly_recon", "rates", {}, 1, rows=50)
    summary = {"projector_swap_violations": 0,
               "verdicts": {k: {"pass": v} for k, v in ref["poly_recon"]["verdicts"].items()}}
    got = _perturbed(ref["poly_recon"]["csv"], row=7, col=5, rel=rel)
    assert got != ref["poly_recon"]["csv"]
    g = gate.Gate([cmd], ref)
    assert g.check([gate.Outcome("poly_recon", 0, None, got, summary)]) == failed
    assert (g.attempted, g.failed) == (50, failed)


def test_gate_counts_missing_rows_crashes_and_pass_drift():
    csv = b"n,value\n1,0.5\n2,0.25\n3,0.125\n"
    cmd = Command("x", "rates", {}, 1, rows=3)
    summary = {"projector_swap_violations": 0, "verdicts": {}}
    g = gate.Gate([cmd], None)
    assert g.check([gate.Outcome("x", 0, None, csv, summary)]) == 0
    assert g.check([gate.Outcome("x", 0, None, csv[:-8], summary)]) == 1
    assert g.check([gate.Outcome("x", 0, None, csv.replace(b"0.25", b"0.2500001"),
                                 summary)]) == 1
    assert g.check([gate.Outcome("x", None, "RuntimeError()", None, None)]) == 3
    bad = {**summary, "projector_swap_violations": 1}
    assert g.check([gate.Outcome("x", 0, None, csv, bad)]) == 3
    assert (g.attempted, g.failed) == (15, 8)


def test_self_times_on_a_synthetic_tree():
    spans = [
        ("main", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("pool", 5.0, 9.0, 0),
        ("w", 6.0, 8.0, 3),   # two worker threads overlap on [7, 8]
        ("w", 7.0, 9.0, 3),
    ]
    own, uncovered = self_times(spans, -1.0, 11.0)
    assert own == pytest.approx({"main": 3.0, "a": 2.0, "b": 1.0, "pool": 1.0, "w": 3.0})
    assert uncovered == pytest.approx(2.0)
    assert sum(own.values()) + uncovered == pytest.approx(12.0)


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "kpcalab"
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    cli = run.import_kpcalab()
    import kpcalab

    before = _bindings()
    sym_eig = kpcalab.linalg.sym_eig
    config = tmp_path / "rates.json"
    config.write_text(json.dumps({
        "decay": "expo", "gamma": 0.5, "theta": 0.2, "metric": "recon_hat",
        "n_grid": [32, 48, 64, 96], "replications": 5, "atoms": 24, "rank": 8,
        "seed": 3, "slope_tolerance": 5.0}))
    tracer = Tracer()
    tracer.install()
    try:
        for mod in ("linalg", "kpca", "oracle", "bounds"):
            assert getattr(sys.modules[f"kpcalab.{mod}"], "sym_eig") is not sym_eig
        assert kpcalab.sym_eig is kpcalab.kpca.sym_eig
        code = cli.main(["rates", "--config", str(config), "--out", str(tmp_path / "o"),
                         "--threads", "2"])
    finally:
        tracer.restore()
    assert code == 0
    assert _bindings() == before
    spans, counters = tracer.take()
    names = {s[0] for s in spans}
    assert {"cli.main", "rates.run_grid", "kpca.fit_exact", "linalg.sym_eig"} <= names
    assert names <= {f"{m}.{f}" for m, fns in TRACED.items() for f in fns}
    # every span but cli.main has a parent, also those from pool threads
    assert [s[0] for s in spans if s[3] is None] == ["cli.main"]
    assert counters["rates.cells"] == 20
    assert counters["linalg.sym_eig.dim_max"] >= 8


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    pairs = list(zip(base, base))
    same = compare.judge(base, base, pairs, 0.1, True)
    assert same["verdict"] == "unchanged" and not same["gain"]
    slower = [v * 1.2 for v in base]
    assert compare.judge(base, slower, list(zip(base, slower)), 0.1, True)["verdict"] \
        == "regression"
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert compare.judge(noisy, noisy, list(zip(noisy, noisy)), 0.1, True)["verdict"] \
        == "unresolved"
    faster = [v * 0.8 for v in base]
    fast = compare.judge(base, faster, list(zip(base, faster)), 0.1, True)
    assert fast["verdict"] == "unchanged" and fast["gain"] and fast["share_won"] == 1.0
    assert np.isclose(fast["change"], -0.2)
