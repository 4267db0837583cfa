"""End-to-end acceptance checks.

Thirteen headline claims, one test each, every test printing a single
summary line (run with -s to see the lines for passing tests).  The rate
grids are heavy, so the six underlying experiment runs are shared through
a module-scoped fixture; everything else builds its own small inputs.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from kpcalab import (
    ExperimentConfig,
    McTailConfig,
    cos_form_kernel,
    draw_samples,
    embed_exact,
    embed_rf,
    feature_matrix,
    fit_exact,
    fit_rf,
    fixed_gap_band,
    make_finite_rank_kernel,
    mc_tail,
    op_jj,
    operator_inequality_suite,
    perturbation_suite,
    proj_pop,
    recon_error,
    run_grid,
    sample_finite_rank,
    sample_rff,
    tail_energy,
    transition_study,
    uniform_measure,
)
import kpcalab.cli as cli

_SEED = 20260819
_GRID = (256, 512, 1024, 2048, 4096)

_CONFIGS = {
    # polynomial decay at the regime knee, reconstruction metrics
    "poly_recon": ExperimentConfig(
        decay="poly", alpha=2.0, theta=2.0 / 7.0, n_grid=_GRID,
        replications=10, atoms=192, rank=60, seed=_SEED,
        metric="recon_hat", slope_tolerance=0.15),
    # exponential decay, reconstruction
    "expo_recon": ExperimentConfig(
        decay="expo", gamma=0.5, theta=0.2, n_grid=_GRID,
        replications=10, atoms=128, rank=24, seed=_SEED,
        metric="recon_hat", slope_tolerance=0.12),
    # constant-ell projector distance
    "expo_proj_fixed": ExperimentConfig(
        decay="expo", gamma=0.5, theta=0.0, ell_fixed=3, n_grid=_GRID,
        replications=10, atoms=128, rank=24, seed=_SEED,
        metric="proj_hat", slope_tolerance=0.10),
}
_CONFIGS["poly_recon_rf"] = dataclasses.replace(
    _CONFIGS["poly_recon"], metric="recon_rf_hat", tau=0.8)
_CONFIGS["expo_recon_rf"] = dataclasses.replace(
    _CONFIGS["expo_recon"], theta=0.25, metric="recon_rf_hat", tau=0.6,
    slope_tolerance=0.15)
# feature-count transition study base; see test_11 for the two regimes
_TRANSITION_BASE = ExperimentConfig(
    decay="expo", gamma=1.3, theta=0.0, ell_fixed=1,
    n_grid=(362, 575, 912, 1448, 2299, 3650, 5793), replications=60,
    atoms=96, rank=48, seed=_SEED, metric="proj_rf_hat", tau=0.25,
    slope_tolerance=0.10)


def _line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def rate_runs():
    """Runs the six rate experiments once; each test reads its own entry."""
    out = {}
    for name, cfg in _CONFIGS.items():
        t0 = time.perf_counter()
        try:
            result = run_grid(cfg)
        except Exception as exc:  # surfaced by the tests that consume it
            result = exc
        out[name] = (result, time.perf_counter() - t0)
    t0 = time.perf_counter()
    try:
        study = transition_study(_TRANSITION_BASE, (0.25, 0.8))
    except Exception as exc:
        study = exc
    out["transition"] = (study, time.perf_counter() - t0)
    return out


def _unwrap(entry):
    result, elapsed = entry
    if isinstance(result, Exception):
        raise AssertionError(f"experiment raised {result!r}")
    return result, elapsed


def test_01_population_reconstruction_identity():
    t0 = time.perf_counter()
    measure = uniform_measure(128)
    lam = (1.0 + np.arange(40)) ** -2.0
    pop = op_jj(make_finite_rank_kernel(measure, lam, seed=_SEED), measure)
    worst = 0.0
    for ell in range(1, 21):
        tail = tail_energy(pop.spectrum.eigenvalues, ell)
        resid = recon_error(pop, proj_pop(pop, ell))
        worst = max(worst, abs(resid - tail) / tail)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _line(1, ok, f"max rel gap {worst:.2e} over ell=1..20, {elapsed:.2f}s")


def test_02_rff_cosine_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    worst_pair = worst_norm = 0.0
    for m in (1, 8, 64):
        fs = sample_rff(bandwidth=0.7, point_dim=3, m=m, seed=_SEED + m)
        xs = rng.normal(size=(100, 3))
        ys = rng.normal(size=(100, 3))
        phi_x = feature_matrix(fs, xs)
        phi_y = feature_matrix(fs, ys)
        for i in range(100):
            inner = float(phi_x[i] @ phi_y[i])
            worst_pair = max(worst_pair, abs(inner - cos_form_kernel(fs, xs[i], ys[i])))
            worst_norm = max(worst_norm, abs(float(phi_x[i] @ phi_x[i]) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-12 and worst_norm <= 1e-12 and elapsed < 1.0
    assert _line(2, ok, f"max |inner - cosine form| {worst_pair:.2e}, "
                 f"max ||phi||^2 - 1 {worst_norm:.2e}, {elapsed:.2f}s")


def test_03_gram_route_matches_covariance_route():
    t0 = time.perf_counter()
    measure = uniform_measure(40)
    lam = (1.0 + np.arange(8)) ** -2.0
    kernel = make_finite_rank_kernel(measure, lam, seed=_SEED)
    nu = np.sqrt(lam)[:, None] * kernel.table.values
    worst_eig = worst_dual = 0.0
    for n in (20, 50, 100):
        # atoms of a uniform measure are their own indices
        pts = draw_samples(measure, n, seed=_SEED + n)
        model = fit_exact(kernel, pts)
        r = model.eigvals.size
        # route one: centered Gram spectrum, independent numpy arithmetic
        k = np.array([[float(kernel.table.values[:, a] @ (lam * kernel.table.values[:, b]))
                       for b in pts] for a in pts])
        h = np.eye(n) - np.ones((n, n)) / n
        gram_eigs = np.sort(np.linalg.eigvalsh(h @ k @ h))[::-1][:r] / n
        # route two: explicit centered feature covariance
        v = nu[:, pts]
        vc = v - v.mean(axis=1, keepdims=True)
        cov_eigs = np.sort(np.linalg.eigvalsh(vc @ vc.T / n))[::-1][:r]
        worst_eig = max(
            worst_eig,
            float(np.max(np.abs(model.eigvals - gram_eigs) / gram_eigs)),
            float(np.max(np.abs(model.eigvals - cov_eigs) / gram_eigs)),
        )
        # dual orthonormality: gamma_i' K gamma_j = n lambda_i delta_ij
        scaled = model.dual_coeffs @ k @ model.dual_coeffs.T / (n * model.eigvals)
        worst_dual = max(worst_dual, float(np.max(np.abs(scaled - np.eye(r)))))
    elapsed = time.perf_counter() - t0
    ok = worst_eig <= 1e-8 and worst_dual <= 1e-8 and elapsed < 5.0
    assert _line(3, ok, f"max eig rel dev {worst_eig:.2e}, max dual dev "
                 f"{worst_dual:.2e} over n in (20, 50, 100), {elapsed:.2f}s")


def test_04_deterministic_features_reproduce_exact_kpca():
    t0 = time.perf_counter()
    worst_spec = worst_embed = 0.0
    for trial in range(10):
        seed = _SEED + 7 * trial
        measure = uniform_measure(30)
        lam = (1.0 + np.arange(6)) ** -2.0
        kernel = make_finite_rank_kernel(measure, lam, seed=seed)
        pts = draw_samples(measure, 60, seed=seed + 1)
        exact = fit_exact(kernel, pts)
        fs = sample_finite_rank(kernel, 6, seed=seed + 2, deterministic=True)
        rf = fit_rf(fs, pts)
        r = min(exact.eigvals.size, rf.eigvals.size, 4)
        worst_spec = max(worst_spec, float(np.max(
            np.abs(exact.eigvals[:r] - rf.eigvals[:r]) / exact.eigvals[:r])))
        a = embed_exact(exact, measure.atoms, r)
        b = embed_rf(rf, measure.atoms, r)
        for j in range(r):
            sign = 1.0 if np.linalg.norm(a[:, j] - b[:, j]) <= \
                np.linalg.norm(a[:, j] + b[:, j]) else -1.0
            worst_embed = max(worst_embed, float(np.max(np.abs(a[:, j] - sign * b[:, j]))))
    elapsed = time.perf_counter() - t0
    ok = worst_spec <= 1e-8 and worst_embed <= 1e-6 and elapsed < 5.0
    assert _line(4, ok, f"10 runs: max spectrum rel dev {worst_spec:.2e}, "
                 f"max embedding dev {worst_embed:.2e}, {elapsed:.2f}s")


def test_05_perturbation_bound_suite():
    t0 = time.perf_counter()
    suite = perturbation_suite(1000, seed=_SEED)
    elapsed = time.perf_counter() - t0
    ok = (suite.violations_plain == 0 and suite.violations_weighted == 0
          and elapsed < 30.0)
    assert _line(5, ok, f"1000 cases, 0 violations allowed, got "
                 f"{suite.violations_plain}+{suite.violations_weighted}, weighted bound "
                 f"sharper than trivial in {suite.sharper_fraction:.1%}, {elapsed:.1f}s")


def test_06_operator_inequality_suite():
    t0 = time.perf_counter()
    report = operator_inequality_suite(1000, seed=_SEED)
    elapsed = time.perf_counter() - t0
    ok = report.violations == 0 and elapsed < 30.0
    assert _line(6, ok, f"{report.checks} checks over {report.trials} trials, "
                 f"{report.violations} violations, {elapsed:.1f}s")


def test_07_concentration_tails():
    t0 = time.perf_counter()
    config = McTailConfig(tau=2.0, count=400, replications=200, seed=_SEED)
    cov = mc_tail("cov_deviation", config)
    feat = mc_tail("feature_op_deviation", config)
    elapsed = time.perf_counter() - t0
    ok = cov.holds and feat.holds and elapsed < 120.0
    assert _line(7, ok, f"cov exceedance {cov.exceed_fraction:.3f} <= {cov.cap:.3f}, "
                 f"feature-op {feat.exceed_fraction:.3f} <= {feat.cap:.3f}, "
                 f"200 replications each, {elapsed:.1f}s")


def _slope_line(criterion, parts, elapsed, cap, extra_ok=True):
    ok = all(p[0] for p in parts) and elapsed < cap and extra_ok
    detail = "; ".join(p[1] for p in parts) + f", {elapsed:.0f}s"
    return _line(criterion, ok, detail)


def _in_band(label, slope, band, expected):
    """A slope's verdict under its band, and the line that prints it."""
    return band.holds(slope), (f"{label} slope {slope:+.3f} in [{band.low:+.3f}, "
                               f"{band.high:+.3f}] ({band.rule} about {expected:+.3f})")


def test_08_poly_reconstruction_rates(rate_runs):
    exact, t1 = _unwrap(rate_runs["poly_recon"])
    rf, t2 = _unwrap(rate_runs["poly_recon_rf"])
    parts = [_in_band("exact", exact.slope, exact.band, exact.predicted),
             _in_band("rf", rf.slope, rf.band, rf.predicted)]
    assert _slope_line(8, parts, t1 + t2, 900.0)


def test_09_expo_reconstruction_rates(rate_runs):
    exact, t1 = _unwrap(rate_runs["expo_recon"])
    rf, t2 = _unwrap(rate_runs["expo_recon_rf"])
    parts = [_in_band("exact", exact.slope, exact.band, exact.predicted),
             _in_band("rf", rf.slope, rf.band, rf.predicted)]
    assert _slope_line(9, parts, t1 + t2, 900.0)


def test_10_fixed_ell_projector_rate(rate_runs):
    # the paper's exponent is an upper bound; the band's lower edge is the
    # classical fixed-gap rate (see rates.fixed_gap_band)
    report, elapsed = _unwrap(rate_runs["expo_proj_fixed"])
    band = fixed_gap_band(report)
    parts = [(band.holds(report.slope),
              f"slope {report.slope:+.3f} +/- {report.slope_stderr:.3f} in "
              f"[{band.low:+.2f}, {band.high:+.2f}] (paper bound {report.predicted:+.3f})")]
    assert _slope_line(10, parts, elapsed, 600.0)


def test_11_feature_count_transition(rate_runs):
    study, elapsed = _unwrap(rate_runs["transition"])
    low, high = study.reports[1:]
    parts = [_in_band(f"tau={low.config.tau:g} {low.regime}", low.slope, low.band, low.expected),
             _in_band(f"tau={high.config.tau:g} {high.regime}", high.slope, high.band,
                      high.expected)]
    assert _slope_line(11, parts, elapsed, 900.0)


def test_12_projector_swap_inequality_everywhere(rate_runs):
    # sides of the swap inequality are exact oracle numbers on every valid
    # cell of the six rate runs; also exercised on a pure rf population run
    total_cells = 0
    violations = 0
    min_margin = math.inf
    for name in ("poly_recon", "poly_recon_rf", "expo_recon", "expo_recon_rf",
                 "expo_proj_fixed"):
        report, _ = _unwrap(rate_runs[name])
        violations += report.swap_violations
        min_margin = min(min_margin, report.swap_min_margin)
        total_cells += sum(1 for r in report.rows if math.isfinite(r.value))
    study, _ = _unwrap(rate_runs["transition"])
    for report in study.reports:
        violations += report.swap_violations
        min_margin = min(min_margin, report.swap_min_margin)
        total_cells += sum(1 for r in report.rows if math.isfinite(r.value))
    t0 = time.perf_counter()
    rf_pop = run_grid(ExperimentConfig(
        decay="expo", gamma=0.5, theta=0.2, n_grid=(64, 96, 128, 192),
        replications=5, atoms=48, rank=12, seed=_SEED,
        metric="recon_rf_pop", tau=0.5, slope_tolerance=5.0))
    elapsed = time.perf_counter() - t0
    violations += rf_pop.swap_violations
    min_margin = min(min_margin, rf_pop.swap_min_margin)
    total_cells += sum(1 for r in rf_pop.rows if math.isfinite(r.value))
    ok = violations == 0
    assert _line(12, ok, f"{violations} violations over {total_cells} cells "
                 f"(all three projector variants), min margin {min_margin:.2e}, "
                 f"extra rf-population run {elapsed:.1f}s")


def test_13_csv_reruns_byte_identical(tmp_path):
    t0 = time.perf_counter()
    jobs = {
        "spectrum": {"seed": 5, "atoms": 32, "rank": 8, "decay": "poly",
                     "alpha": 2.0, "ells": [1, 2, 3]},
        "rates": {"seed": 5, "decay": "expo", "gamma": 0.5, "theta": 0.2,
                  "metric": "recon_rf_hat", "tau": 0.8,
                  "n_grid": [32, 48, 64, 96], "replications": 5,
                  "atoms": 24, "rank": 8, "slope_tolerance": 5.0},
        "transition": {"seed": 5, "decay": "expo", "gamma": 1.0, "theta": 0.0,
                       "ell_fixed": 1, "metric": "proj_rf_hat",
                       "taus": [0.3, 0.9], "n_grid": [32, 48, 64, 96],
                       "replications": 5, "atoms": 24, "rank": 6,
                       "slope_tolerance": 5.0},
        "bounds": {"seed": 5, "perturbation_cases": 50, "operator_trials": 50},
        "concentration": {"seed": 5, "tau": 2.0, "count": 100,
                          "replications": 50, "atoms": 32, "rank": 8},
    }
    mismatched = []
    for command, payload in jobs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        outs = []
        for run in ("one", "two"):
            out = tmp_path / f"{command}-{run}"
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            outs.append((out / "results.csv").read_bytes())
        if outs[0] != outs[1]:
            mismatched.append(command)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    assert _line(13, ok, f"5 commands rerun, byte-identical CSVs"
                 f"{'' if ok else ' except ' + ','.join(mismatched)}, {elapsed:.1f}s")
