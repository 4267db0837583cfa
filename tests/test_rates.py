"""Rate predictions, schedules, slope fitting, and the grid runner."""

import dataclasses
import math

import numpy as np
import pytest

from kpcalab import (
    ConfigError,
    EigengapError,
    ExperimentConfig,
    OutOfRegime,
    RankError,
    derive_seed,
    draw_samples,
    ell_for,
    fit_exact,
    fit_rf,
    fit_slope,
    lambda_schedule,
    m_for,
    op_aa,
    predicted_exponent,
    proj_distance,
    proj_hat,
    proj_hat_rf,
    proj_pop,
    recon_error,
    run_grid,
    sample_finite_rank,
    transition_study,
)
from kpcalab import kpca, linalg, rates
from kpcalab.rates import _empirical_guard_ok, _measure_grid, _oracle


def _cfg(**kw):
    base = dict(decay="poly", theta=0.2, n_grid=(64, 128, 256, 512), replications=5,
                atoms=24, rank=8, seed=0, metric="recon_hat", alpha=2.0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_predicted_poly_reconstruction_branches():
    assert predicted_exponent(_cfg(theta=0.2)) == pytest.approx(-0.3)
    assert predicted_exponent(_cfg(theta=0.4)) == pytest.approx(-0.4)
    # the knee alpha/(4 alpha - 1) where both branches agree
    assert predicted_exponent(_cfg(theta=2.0 / 7.0)) == pytest.approx(-3.0 / 7.0)
    assert predicted_exponent(
        _cfg(metric="recon_rf_pop", tau=0.1)) == pytest.approx(-0.1)
    assert predicted_exponent(
        _cfg(metric="recon_rf_pop", tau=0.9)) == pytest.approx(-0.3)
    assert predicted_exponent(
        _cfg(metric="recon_rf_hat", tau=0.5)) == pytest.approx(-0.3)
    with pytest.raises(OutOfRegime):
        predicted_exponent(_cfg(metric="recon_rf_hat", tau=0.4))  # tau <= 2 theta
    with pytest.raises(OutOfRegime):
        predicted_exponent(_cfg(theta=0.0))
    with pytest.raises(OutOfRegime):
        predicted_exponent(_cfg(theta=0.5))


def test_predicted_poly_projection_branches():
    # default beta = alpha + 1 = 3, knee = alpha/(2 (2 beta - alpha)) = 1/4
    assert predicted_exponent(_cfg(metric="proj_hat", theta=0.1)) == pytest.approx(-0.2)
    assert predicted_exponent(_cfg(metric="proj_hat", theta=0.3)) == pytest.approx(-0.05)
    with pytest.raises(OutOfRegime):
        predicted_exponent(_cfg(metric="proj_hat", theta=0.4))  # theta >= alpha/(2 beta)
    assert predicted_exponent(
        _cfg(metric="proj_rf_pop", theta=0.1, tau=0.5)) == pytest.approx(-0.1)
    assert predicted_exponent(
        _cfg(metric="proj_rf_hat", theta=0.1, tau=0.9)) == pytest.approx(-0.2)
    assert predicted_exponent(
        _cfg(metric="proj_rf_hat", theta=0.1, tau=0.5)) == pytest.approx(-0.1)
    with pytest.raises(OutOfRegime):
        predicted_exponent(_cfg(metric="proj_rf_hat", theta=0.1, tau=0.2))
    # explicit beta override
    assert predicted_exponent(
        _cfg(metric="proj_hat", theta=0.3), beta=2.0) == pytest.approx(-0.1)
    with pytest.raises(OutOfRegime):
        predicted_exponent(_cfg(metric="proj_hat", theta=0.1), beta=1.5)


def _ecfg(**kw):
    kw.setdefault("decay", "expo")
    kw.setdefault("gamma", 0.5)
    kw.setdefault("alpha", None)
    return _cfg(**kw)


def test_predicted_expo_branches():
    assert predicted_exponent(_ecfg(theta=0.1)) == pytest.approx(-0.2)
    assert predicted_exponent(_ecfg(theta=0.3)) == pytest.approx(-0.5)
    with pytest.raises(OutOfRegime):
        predicted_exponent(_ecfg(theta=0.6))
    assert predicted_exponent(
        _ecfg(metric="recon_rf_pop", theta=0.2, tau=0.3)) == pytest.approx(-0.3)
    assert predicted_exponent(
        _ecfg(metric="recon_rf_hat", theta=0.2, tau=0.5)) == pytest.approx(-0.4)
    assert predicted_exponent(_ecfg(metric="proj_hat", theta=0.0)) == pytest.approx(-0.25)
    assert predicted_exponent(_ecfg(metric="proj_hat", theta=0.2)) == pytest.approx(-0.15)
    assert predicted_exponent(
        _ecfg(metric="proj_rf_pop", theta=0.1, tau=0.5)) == pytest.approx(-0.15)
    assert predicted_exponent(
        _ecfg(metric="proj_rf_hat", theta=0.1, tau=0.7)) == pytest.approx(-0.2)
    assert predicted_exponent(
        _ecfg(metric="proj_rf_hat", theta=0.1, tau=0.3)) == pytest.approx(-0.05)
    with pytest.raises(OutOfRegime):
        predicted_exponent(_ecfg(metric="proj_hat", theta=0.5))


def test_predicted_improved_rates():
    assert predicted_exponent(_ecfg(theta=0.2), improved=True) == pytest.approx(-0.4)
    assert predicted_exponent(_ecfg(theta=0.4), improved=True) == pytest.approx(-0.6)
    with pytest.raises(OutOfRegime):
        predicted_exponent(_cfg(theta=0.2), improved=True)  # poly
    with pytest.raises(OutOfRegime):
        predicted_exponent(_ecfg(metric="proj_hat", theta=0.2), improved=True)
    with pytest.raises(OutOfRegime):
        predicted_exponent(
            _ecfg(metric="recon_rf_pop", theta=0.2, tau=0.5), improved=True)


def test_schedules_round_half_up():
    poly = _cfg(theta=0.25, rank=8)
    assert ell_for(poly, 64) == 2      # 64^(1/8) = 1.68
    assert ell_for(poly, 6561) == 3    # 3^8 exactly
    expo = _ecfg(theta=0.2, gamma=0.5, rank=8)
    assert ell_for(expo, 148) == 2     # 0.4 ln 148 = 1.9989
    assert ell_for(expo, 20) == 1      # 1.198
    assert ell_for(_ecfg(theta=0.01, gamma=0.5), 64) == 1  # clipped up to 1
    assert ell_for(_cfg(theta=0.0, ell_fixed=3), 10**9) == 3
    with pytest.raises(ConfigError):  # schedule exceeds rank - 1
        ell_for(_ecfg(theta=0.2, gamma=0.5, rank=3, atoms=24), 500_000)
    tau_half = _cfg(metric="recon_rf_hat", tau=0.5)
    assert m_for(tau_half, 100) == 10
    assert m_for(tau_half, 10) == 3    # 3.162
    assert m_for(_cfg(metric="recon_rf_hat", tau=0.8), 2048) == 446
    with pytest.raises(ConfigError):
        m_for(_cfg(), 100)


def test_lambda_schedule_families():
    lam = lambda_schedule(_cfg(alpha=2.0, rank=4))
    assert np.allclose(lam, [1.0, 0.25, 1.0 / 9.0, 0.0625], rtol=1e-15)
    lam = lambda_schedule(_ecfg(gamma=0.5, rank=3))
    assert np.allclose(lam, np.exp([-0.5, -1.0, -1.5]), rtol=1e-15)


def test_fit_slope_exact_power_law():
    ns = np.array([16, 32, 64, 128, 256])
    slope, stderr = fit_slope(ns, 5.0 * ns**-0.7)
    assert slope == pytest.approx(-0.7, abs=1e-12)
    assert stderr < 1e-12
    with pytest.raises(ConfigError):
        fit_slope([10, 20, 40], [1.0, 0.5, 0.25])
    with pytest.raises(ConfigError):
        fit_slope([10, 20, 40, 80], [1.0, 0.5, 0.0, 0.25])
    with pytest.raises(ConfigError):
        fit_slope([10, 20, 40, 80], [1.0, 0.5, 0.25])


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(replications=4)
    with pytest.raises(ConfigError):
        _cfg(metric="recon_rf_hat")  # no tau
    with pytest.raises(ConfigError):
        _cfg(tau=0.5)  # recon_hat draws no features
    with pytest.raises(ConfigError):
        _cfg(metric="florp")
    with pytest.raises(ConfigError):
        _cfg(n_grid=(64, 64, 128, 256))
    with pytest.raises(ConfigError):
        _cfg(n_grid=(64, 128, 256))  # a slope fit needs 4 points
    with pytest.raises(ConfigError):
        _cfg(gamma=0.5)  # poly takes no gamma
    with pytest.raises(ConfigError):
        _ecfg(gamma=None)
    with pytest.raises(ConfigError):
        _cfg(alpha=1.0)
    with pytest.raises(ConfigError):
        _cfg(ell_fixed=3)  # needs theta = 0
    with pytest.raises(ConfigError):
        _cfg(theta=0.0, ell_fixed=8)  # outside 1..rank-1
    with pytest.raises(ConfigError):
        _cfg(atoms=8, rank=8)
    with pytest.raises(ConfigError):
        _cfg(tau=1.5)
    with pytest.raises(ConfigError):
        _cfg(theta=-0.1)


@pytest.mark.parametrize("field, value", [
    ("n_grid", (64.5, 128, 256, 512)), ("replications", 5.5), ("atoms", 24.5),
    ("rank", "8"), ("seed", 0.5), ("theta", True), ("theta", math.inf),
    ("alpha", "2"), ("slope_tolerance", "x"), ("slope_tolerance", math.nan),
])
def test_config_rejects_fractional_counts_bools_and_non_finite_reals(field, value):
    with pytest.raises(ConfigError, match=field):
        _cfg(**{field: value})


@pytest.mark.parametrize("field, value", [("ell_fixed", 2.5), ("gamma", True),
                                          ("tau", "0.5")])
def test_config_rejects_bad_optional_fields(field, value):
    kw = {"theta": 0.0, "metric": "proj_hat"} if field == "ell_fixed" else {}
    if field == "tau":
        kw["metric"] = "recon_rf_hat"
    with pytest.raises(ConfigError, match=field):
        _ecfg(**kw, **{field: value})


def test_config_normalizes_integral_numbers():
    config = _cfg(n_grid=(64.0, 128, np.int64(256), 512), atoms=24.0, theta=0)
    assert config.n_grid == (64, 128, 256, 512)
    assert type(config.atoms) is int and type(config.theta) is float


def test_division_guard_rejects_tiny_retained_eigenvalues():
    # lambda_8 / lambda_1 = e^-21, far below the trusted-division floor
    cfg = _ecfg(theta=0.0, gamma=3.0, ell_fixed=8, rank=10, atoms=16,
                n_grid=(8, 16, 24, 32), metric="proj_hat")
    with pytest.raises(ConfigError):
        run_grid(cfg)


def test_full_support_reproduces_population_bias():
    # training on the whole atom set turns the estimator into the population
    # truth, so every replication must equal the schedule's tail energy
    cfg = _cfg(theta=0.25, n_grid=(64, 128, 256, 512), atoms=20, rank=6)
    report = run_grid(cfg, full_support=True)
    lam = lambda_schedule(cfg)
    for n in cfg.n_grid:
        tail = float(np.sum(lam[ell_for(cfg, n):] ** 2))
        assert report.medians[n] == pytest.approx(tail, rel=1e-10)


def test_run_grid_deterministic_across_reruns():
    cfg = _ecfg(theta=0.2, gamma=0.5, metric="recon_rf_hat", tau=0.8,
                n_grid=(32, 48, 64, 96), atoms=24, rank=8)
    first = run_grid(cfg)
    second = run_grid(cfg)
    again = run_grid(cfg)
    assert first.rows == second.rows == again.rows
    assert first.slope == second.slope == again.slope
    assert sum(first.invalid.values()) == 0
    assert first.swap_violations == 0
    assert first.swap_min_margin > 0.0
    assert all(math.isfinite(r.value) for r in first.rows)
    assert {r.n for r in first.rows} == set(cfg.n_grid)
    assert first.predicted == pytest.approx(-0.4)


def test_transition_study_smoke():
    base = _ecfg(theta=0.0, gamma=1.0, metric="proj_rf_hat", tau=0.5,
                 ell_fixed=1, n_grid=(32, 48, 64, 96), atoms=24, rank=6,
                 slope_tolerance=5.0)
    report = transition_study(base, (0.3, 0.9))
    assert report.threshold == pytest.approx(0.5)
    assert len(report.reports) == 3
    assert [row.tau for row in report.rows] == [0.3, 0.9]
    assert report.rows[0].regime == "feature_limited"
    assert report.rows[0].expected == pytest.approx(-0.15)
    assert report.rows[1].regime == "sample_limited"
    assert report.rows[1].expected == pytest.approx(report.reference_slope)
    assert all(row.matches for row in report.rows)
    with pytest.raises(ConfigError):
        transition_study(dataclasses.replace(base, metric="proj_hat", tau=None),
                         (0.3, 0.9))
    for taus in (["abc"], [True], [0.3, math.nan]):
        with pytest.raises(ConfigError, match="taus"):
            transition_study(base, taus)


_SMALL_GRID = (32, 48, 64, 96)


def _sample_level_cell(config, report, n, rep):
    """A cell recomputed on the N atoms through the public sample-level API."""
    kernel, pop = report.kernel, report.pop
    measure = kernel.table.measure
    ell = ell_for(config, n)
    samples = draw_samples(measure, n, derive_seed(config.seed, "samples", n, rep))
    try:
        if config.tau is None:
            q = proj_hat(fit_exact(kernel, samples), kernel, measure, ell)
        else:
            fs = sample_finite_rank(kernel, m_for(config, n),
                                    derive_seed(config.seed, "features", n, rep), mixed=True)
            if config.metric.endswith("_pop"):
                q = proj_pop(op_aa(fs, measure), ell)
            else:
                model = fit_rf(fs, samples)
                if not _empirical_guard_ok(model.eigvals, ell):
                    return math.nan
                q = proj_hat_rf(model, measure, ell)
    except (RankError, EigengapError):
        return math.nan
    if config.metric.startswith("proj"):
        return proj_distance(proj_pop(pop, ell), q)
    return recon_error(pop, q)


def _grid_cases():
    for seed in range(3):
        for metric, tau in (("recon_hat", None), ("proj_hat", None), ("recon_rf_pop", 0.5),
                            ("proj_rf_pop", 0.5), ("recon_rf_hat", 0.5), ("proj_rf_hat", 0.3)):
            yield _ecfg(theta=0.2, metric=metric, tau=tau, n_grid=_SMALL_GRID, seed=seed), 0
    # m(n) = 2 features: a draw that repeats its index cannot carry ell = 2
    for metric in ("proj_rf_pop", "proj_rf_hat"):
        yield _ecfg(theta=0.0, ell_fixed=2, metric=metric, tau=0.2, n_grid=_SMALL_GRID,
                    seed=0), 2


@pytest.mark.parametrize("config, invalid", list(_grid_cases()))
def test_cells_match_the_sample_level_route(config, invalid):
    report = run_grid(config)
    got = np.array([row.value for row in report.rows])
    want = np.array([_sample_level_cell(config, report, row.n, row.rep)
                     for row in report.rows])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert int(np.sum(np.isnan(got))) == invalid
    ok = ~np.isnan(want)
    assert np.max(np.abs(got[ok] - want[ok]) / want[ok]) <= 1e-10


def test_rf_hat_grid_solves_no_matrix_of_n_or_m_per_cell(monkeypatch):
    sizes = []
    solve = linalg._eig_solve

    def recording(solver, a, op):
        sizes.append(a.shape[0])
        return solve(solver, a, op)

    monkeypatch.setattr(linalg, "_eig_solve", recording)
    config = _ecfg(theta=0.2, metric="proj_rf_hat", tau=0.8, n_grid=_SMALL_GRID)
    report = run_grid(config)
    assert max(r.m for r in report.rows) > config.rank
    # only the N x N population spectrum is larger than the T x T cell solves
    assert [size for size in sizes if size > config.rank] == [config.atoms]


def test_exact_grid_fits_every_cell_but_never_gathers_dual_coeffs(monkeypatch):
    fits, gathers = [], []
    fit = rates.fit_exact
    gather = kpca.KpcaModel.dual_coeffs

    def recording_fit(kernel, samples):
        fits.append(samples.shape[0])
        return fit(kernel, samples)

    def recording_gather(model):
        gathers.append(model.n)
        return gather.fget(model)

    monkeypatch.setattr(rates, "fit_exact", recording_fit)
    monkeypatch.setattr(kpca.KpcaModel, "dual_coeffs", property(recording_gather))
    for metric in ("recon_hat", "proj_hat"):
        config = _ecfg(theta=0.2, metric=metric, n_grid=_SMALL_GRID)
        report = run_grid(config)
        assert fits[-len(report.rows):] == [row.n for row in report.rows]
    assert len(fits) == 2 * len(_SMALL_GRID) * 5
    assert gathers == []


def test_grid_rejects_an_operator_off_the_kernel_schedule():
    config = _ecfg(theta=0.2, n_grid=_SMALL_GRID)
    kernel, _ = _oracle(config.atoms, lambda_schedule(config), config.seed)
    _, other = _oracle(config.atoms, 1.01 * lambda_schedule(config), config.seed)
    with pytest.raises(ConfigError, match="self-check"):
        _measure_grid(config, kernel, other, False)
