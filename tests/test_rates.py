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
    SlopeBand,
    basis_factor,
    derive_seed,
    draw_samples,
    ell_for,
    fit_exact,
    fit_rf,
    fit_slope,
    fixed_gap_band,
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
    tail_energy,
    transition_study,
)
from kpcalab import kernels, kpca, linalg, rates
from kpcalab.rates import _empirical_guard_ok, _oracle


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
    # beta = alpha + 1 = 3, knee = alpha/(2 (2 beta - alpha)) = 1/4
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
    # tau <= 2 theta: the feature rate -(tau/2 - theta) would not decay
    for tau in (0.3, 0.4):
        with pytest.raises(OutOfRegime, match="proj_rf_hat needs tau > 0.4"):
            predicted_exponent(_ecfg(metric="proj_rf_hat", theta=0.2, tau=tau))


def _branchwise_predicted_exponent(config):
    """The rate rules spelled out branch by branch for each decay: the reference
    predicted_exponent must match bit for bit, but for the two cases
    test_predicted_exponent_matches_the_branchwise_reference names."""
    theta = config.theta
    tau = config.tau
    metric = config.metric
    recon = metric.startswith("recon")
    if metric in rates._RF_METRICS and tau is None:
        raise ConfigError(f"metric {metric} needs tau")

    if config.decay == "poly":
        alpha = config.alpha
        if recon:
            if not 0.0 < theta < 0.5:
                raise OutOfRegime(f"poly reconstruction rates need 0 < theta < 1/2, got {theta}")
            bias_exp = 2.0 * theta * (1.0 - 1.0 / (2.0 * alpha))
            knee = alpha / (4.0 * alpha - 1.0)
            if metric == "recon_hat":
                return -bias_exp if theta <= knee else -(0.5 - theta / (2.0 * alpha))
            if metric == "recon_rf_pop":
                return -min(tau, bias_exp)
            # recon_rf_hat
            if tau <= 2.0 * theta:
                raise OutOfRegime(
                    f"recon_rf_hat needs tau > 2 theta ({tau} <= {2.0 * theta})"
                )
            return -bias_exp if theta <= knee else -(0.5 - theta / (2.0 * alpha))
        b = alpha + 1.0
        if not 0.0 <= theta < alpha / (2.0 * b):
            raise OutOfRegime(
                f"poly projection rates need 0 <= theta < alpha/(2 beta), got {theta}"
            )
        knee = alpha / (2.0 * (2.0 * b - alpha))
        if metric == "proj_hat":
            return -(0.25 - theta / 2.0) if theta < knee else -(0.5 - theta * b / alpha)
        if metric == "proj_rf_pop":
            return -(tau / 2.0 - theta * b / alpha)
        # proj_rf_hat
        if tau <= 2.0 * theta * b / alpha:
            raise OutOfRegime(
                f"proj_rf_hat needs tau > 2 theta beta / alpha ({tau} too small)"
            )
        if theta < knee and tau > rates._tau_threshold(config):
            return -(0.25 - theta / 2.0)
        return -(tau / 2.0 - theta * b / alpha)

    # exponential decay
    if recon:
        if not 0.0 < theta < 0.5:
            raise OutOfRegime(f"expo reconstruction rates need 0 < theta < 1/2, got {theta}")
        if metric == "recon_hat":
            return -2.0 * theta if theta < 0.25 else -0.5
        if metric == "recon_rf_pop":
            return -min(tau, 2.0 * theta)
        if tau <= 2.0 * theta:
            raise OutOfRegime(f"recon_rf_hat needs tau > 2 theta ({tau} <= {2 * theta})")
        return -2.0 * theta if theta < 0.25 else -0.5
    if not 0.0 <= theta < 0.5:
        raise OutOfRegime(f"expo projection rates need 0 <= theta < 1/2, got {theta}")
    if metric == "proj_hat":
        return -(0.25 - theta / 2.0)
    if metric == "proj_rf_pop":
        return -(tau / 2.0 - theta)
    # proj_rf_hat
    if tau >= rates._tau_threshold(config):
        return -(0.25 - theta / 2.0)
    return -(tau / 2.0 - theta)


def _outcome(predict, config):
    """The prediction's exact bits, or the type of exception it raised."""
    try:
        return predict(config).hex()
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome compared
        return type(exc)


def _prediction_cases():
    """Configs for both decays and every metric: theta over 0..0.6 plus every
    knee and limit, tau over (0, 1] plus every 2 theta, 2 g and threshold at
    beta = alpha + 1."""
    for alpha in (1.5, 2.0, 3.0, None):
        thetas = {k / 40.0 for k in range(25)} | {0.25, 1.0 / 3.0}
        if alpha is not None:
            b = alpha + 1.0
            thetas |= {alpha / (4.0 * alpha - 1.0), alpha / (2.0 * b),
                       alpha / (2.0 * (2.0 * b - alpha))}
        for theta in sorted(thetas):
            taus = {k / 20.0 for k in range(1, 21)} | {2.0 * theta, 0.5 + theta}
            if alpha is not None:
                taus |= {2.0 * (theta * b / alpha), 0.5 + theta * (2.0 * b - alpha) / alpha}
            for metric in rates.METRICS:
                rf = metric in rates._RF_METRICS
                for tau in sorted(t for t in taus if 0.0 < t <= 1.0) if rf else [None]:
                    config = _cfg(decay="expo" if alpha is None else "poly", alpha=alpha,
                                  gamma=0.5 if alpha is None else None, theta=theta,
                                  metric=metric, tau=tau)
                    yield config


def test_predicted_exponent_matches_the_branchwise_reference():
    ties = gaps = 0
    for config in _prediction_cases():
        want = _outcome(_branchwise_predicted_exponent, config)
        got = _outcome(predicted_exponent, config)
        if got == want:
            continue
        assert config.metric == "proj_rf_hat", config
        if config.decay == "expo":  # tau <= 2 theta is now out of regime
            assert config.tau <= 2.0 * config.theta and got is OutOfRegime
            assert isinstance(want, str)
            gaps += 1
        else:  # tau at the threshold: both rates agree but for rounding
            assert config.tau == rates._tau_threshold(config)
            assert abs(float.fromhex(got) - float.fromhex(want)) <= 1e-16
            ties += 1
    assert ties > 0 and gaps > 0


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
    with pytest.raises(ConfigError, match="distinct"):  # no spread in n to fit
        fit_slope([4, 4, 4, 4], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ConfigError, match="1-D"):
        fit_slope([[10, 20], [40, 80]], [[1.0, 0.5], [0.25, 0.125]])
    # NaN <= 0 is false, so a positivity check alone lets these through
    for ns, values in (([1, 2, 3, 4], [1.0, math.nan, 1.0, 2.0]),
                       ([1, 2, math.inf, 4], [1.0, 0.5, 0.25, 0.125]),
                       ([1, 2, math.nan, 4], [1.0, 0.5, 0.25, 0.125]),
                       ([1, 2, 3, 4], [1.0, math.inf, 1.0, 2.0])):
        with pytest.raises(ConfigError, match="finite"):
            fit_slope(ns, values)


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
    ("n_grid", 5), ("n_grid", None), ("n_grid", 2.5),
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
    with pytest.raises(ConfigError, match="division guard"):
        run_grid(cfg)


def _draw_full_support(monkeypatch):
    """Make every rate cell's sample draw the complete atom set, which removes
    all sampling error."""
    monkeypatch.setattr(rates, "draw_samples", lambda measure, n, seed: measure.atoms)


def test_full_support_reproduces_population_bias(monkeypatch):
    # training on the whole atom set turns the estimator into the population
    # truth, so every replication must equal the schedule's tail energy
    cfg = _cfg(theta=0.25, n_grid=(64, 128, 256, 512), atoms=20, rank=6)
    _draw_full_support(monkeypatch)
    report = run_grid(cfg)
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
    for taus in (["abc"], [True], [0.3, math.nan], [0.3, 0.3], []):
        with pytest.raises(ConfigError, match="taus"):
            transition_study(base, taus)
    # poly with beta = 3: threshold 1/2 + theta (2 beta - alpha)/alpha = 0.7
    poly = _cfg(theta=0.1, metric="proj_rf_hat", tau=0.5, n_grid=(64, 96, 128, 192),
                atoms=40, rank=12, seed=3, slope_tolerance=5.0)
    report = transition_study(poly, (0.45, 0.9))
    assert report.threshold == pytest.approx(0.7)
    assert [row.regime for row in report.rows] == ["feature_limited", "sample_limited"]
    assert report.rows[0].expected == pytest.approx(-(0.45 / 2.0 - 0.1 * 3.0 / 2.0))
    for row in report.rows:
        assert row.band == SlopeBand.two_sided(row.expected, poly.slope_tolerance)
        assert row.matches == row.band.holds(row.slope)
    assert report.reports[0].beta == 3.0 and report.reports[1].beta == 3.0


def test_each_run_predicts_and_plans_its_grid_once(monkeypatch):
    calls = {"predicted_exponent": 0, "_grid_plan": 0}
    for name in calls:
        def counted(*args, _real=getattr(rates, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(rates, name, counted)
    run_grid(_ecfg(theta=0.2, n_grid=_SMALL_GRID))
    assert calls == {"predicted_exponent": 1, "_grid_plan": 1}
    calls.update(predicted_exponent=0, _grid_plan=0)
    base = _ecfg(theta=0.0, gamma=1.0, metric="proj_rf_hat", tau=0.5, ell_fixed=1,
                 n_grid=_SMALL_GRID, rank=6, slope_tolerance=5.0)
    transition_study(base, (0.3, 0.9))  # the reference and two tau runs
    assert calls == {"predicted_exponent": 3, "_grid_plan": 3}


# acceptance 11's transition base, cut from 60 replications to 6
_ACCEPTANCE_TRANSITION = ExperimentConfig(
    decay="expo", gamma=1.3, theta=0.0, ell_fixed=1,
    n_grid=(362, 575, 912, 1448, 2299, 3650, 5793), replications=6, atoms=96, rank=48,
    seed=20260819, metric="proj_rf_hat", tau=0.25, slope_tolerance=0.10)


@pytest.mark.parametrize("base, taus", [
    (_ecfg(theta=0.0, gamma=1.0, metric="proj_rf_hat", tau=0.5, ell_fixed=1,
           n_grid=(32, 48, 64, 96), atoms=24, rank=6, slope_tolerance=5.0), (0.3, 0.9)),
    (_ACCEPTANCE_TRANSITION, (0.25, 0.8)),
], ids=["smoke", "acceptance_11"])
def test_transition_runs_share_their_draws_and_equal_their_grids_alone(monkeypatch, base,
                                                                       taus):
    calls = {"draw_samples": 0, "_mixed_coeffs": 0}
    for name in calls:
        def counted(*args, _real=getattr(rates, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(rates, name, counted)
    study = transition_study(base, taus)
    # each (n, rep) sample stack row and rotation is drawn once for all three runs
    points = len(base.n_grid) * base.replications
    assert calls == {"draw_samples": points, "_mixed_coeffs": points}
    monkeypatch.undo()
    alone = [run_grid(dataclasses.replace(base, tau=None, metric="proj_hat"))]
    alone += [run_grid(dataclasses.replace(base, tau=tau)) for tau in taus]
    assert len(study.reports) == len(alone)
    for got, want in zip(study.reports, alone):
        # repr tells every float apart and reads NaN equal to NaN
        assert [repr(row) for row in got.rows] == [repr(row) for row in want.rows]
        assert repr(got.swap_min_margin) == repr(want.swap_min_margin)
        assert got.swap_violations == want.swap_violations


@pytest.mark.parametrize("expected, tolerance",
                         [(-0.25, 0.10), (-0.4, 0.12), (-0.5, 0.15), (-0.125, 0.10)])
def test_two_sided_band_is_the_absolute_difference_rule_bit_for_bit(expected, tolerance):
    band = SlopeBand.two_sided(expected, tolerance)
    assert band.rule == "two_sided"
    edges = [expected - tolerance, expected + tolerance, band.low, band.high]
    slopes = {expected, math.nan, math.inf, -math.inf}
    for edge in edges:
        slopes |= {edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf)}
    rng = np.random.default_rng(0)  # and floats a few ulps about each edge
    for edge in edges:
        slopes |= set(edge + np.spacing(edge) * rng.integers(-8, 9, 200))
    for slope in slopes:
        assert band.holds(float(slope)) == (abs(slope - expected) <= tolerance), slope
    # the edges are the outermost floats the rule accepts
    assert band.holds(band.low) and band.holds(band.high)
    assert not band.holds(np.nextafter(band.low, -math.inf))
    assert not band.holds(np.nextafter(band.high, math.inf))


@pytest.fixture(scope="module")
def fixed_gap_report():
    """A constant-ell proj_hat report at predicted -0.25 and tolerance 0.10."""
    report = run_grid(_ecfg(theta=0.0, ell_fixed=3, metric="proj_hat", slope_tolerance=0.10))
    assert report.predicted == -0.25
    return report


def test_rate_report_verdict_reads_its_two_sided_band(fixed_gap_report):
    report = fixed_gap_report
    assert report.band == SlopeBand.two_sided(report.predicted, 0.10)
    assert report.verdict == report.band.holds(report.slope)
    assert report.beta is None


@pytest.mark.parametrize("slope, holds", [
    (-0.65, False), (-0.601, False), (-0.149, False), (-0.10, False),
    (-0.599, True), (-0.45, True), (-0.151, True),
])
def test_fixed_gap_band_cases(fixed_gap_report, slope, holds):
    band = fixed_gap_band(dataclasses.replace(fixed_gap_report, slope=slope))
    assert band == SlopeBand(-0.5 - 0.10, -0.25 + 0.10, "fixed_gap")
    assert band.holds(slope) is holds


@pytest.mark.parametrize("overrides", [
    dict(theta=0.2, ell_fixed=None),  # ell(n) grows with theta
    dict(metric="recon_hat", theta=0.2, ell_fixed=None),
])
def test_fixed_gap_band_needs_a_constant_ell_proj_hat_report(fixed_gap_report, overrides):
    config = dataclasses.replace(fixed_gap_report.config, **overrides)
    predict = predicted_exponent(config)  # each is in regime
    with pytest.raises(ConfigError, match="constant-ell proj_hat"):
        fixed_gap_band(dataclasses.replace(fixed_gap_report, config=config, predicted=predict))


_SMALL_GRID = (32, 48, 64, 96)


def _sample_level_cell(config, report, n, rep):
    """A cell recomputed on the N atoms through the public sample-level API."""
    kernel, pop = report.kernel, report.pop
    measure = kernel.table.measure
    ell = ell_for(config, n)
    samples = draw_samples(measure, n, derive_seed(config.seed, "samples", n, rep))
    try:
        if config.tau is None:
            model = fit_exact(kernel, samples)
            if not _empirical_guard_ok(model.eigvals, ell):
                return math.nan
            q = proj_hat(model, measure, ell)
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
                            ("proj_rf_pop", 0.5), ("recon_rf_hat", 0.5), ("proj_rf_hat", 0.5)):
            yield _ecfg(theta=0.2, metric=metric, tau=tau, n_grid=_SMALL_GRID, seed=seed), 0
    # m(n) = 2 features: a draw that repeats its index cannot carry ell = 2
    for metric in ("proj_rf_pop", "proj_rf_hat"):
        yield _ecfg(theta=0.0, ell_fixed=2, metric=metric, tau=0.2, n_grid=_SMALL_GRID,
                    seed=0), 2
    # n = 4 samples: a draw that hits at most ell = 3 atoms cannot carry ell = 3
    yield _ecfg(theta=0.0, ell_fixed=3, metric="proj_hat", n_grid=(4, 6, 8, 12), seed=0), 2


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


@pytest.mark.parametrize("metric", ["recon_rf_pop", "proj_rf_pop"])
def test_pop_cells_draw_no_samples(monkeypatch, metric):
    # a *_pop cell scores the feature draw against the population alone
    def no_draw(*args):
        raise AssertionError(f"a {metric} cell drew samples")

    monkeypatch.setattr(rates, "draw_samples", no_draw)
    report = run_grid(_ecfg(theta=0.2, metric=metric, tau=0.5, n_grid=_SMALL_GRID, seed=0))
    assert len(report.rows) == len(_SMALL_GRID) * 5
    assert all(math.isfinite(row.value) for row in report.rows)


def test_a_rate_cell_reads_kappa_from_its_own_root(monkeypatch):
    # one kappa rule: the stacked root a proj_rf_hat point fits has, per member,
    # the kappa_m of that replication's feature draw, bit for bit, so the cell
    # and the fit_rf reference share one degeneracy floor
    roots = []
    count_fit = rates._count_fit
    monkeypatch.setattr(rates, "_count_fit",
                        lambda root, counts: roots.append(root) or count_fit(root, counts))
    config = _ecfg(theta=0.2, metric="proj_rf_hat", tau=0.5, n_grid=_SMALL_GRID, seed=0)
    kernel, pop = _oracle(config.atoms, lambda_schedule(config), config.seed)
    plan, n = rates._grid_plan(config), _SMALL_GRID[1]
    rates._measure_point(config, kernel, pop, plan, n, rates._point_draws([config], kernel, n))
    [root] = roots
    drawn = [sample_finite_rank(kernel, plan[n][1], derive_seed(config.seed, "features", n, rep),
                                mixed=True) for rep in range(config.replications)]
    assert kernels._root_kappa(root).tolist() == [fs.kappa_m for fs in drawn]
    assert kernels._root_kappa(kernel.root) == kernel.kappa


def _reference_count_fit(root, counts, kappa):
    """The one-sample-list count fit the stacked kpca._count_fit replaced, with
    the caller's kappa; rank 0 at the noise floor."""
    n = int(counts.sum())
    centred = root - (root @ counts / n)[:, None]
    w = centred * np.sqrt(counts)[None, :]
    spec = linalg.sym_eig(w @ w.T)
    sigma = spec.eigenvalues
    r = kpca._retained_rank(sigma / n, kappa, n)
    return sigma[:r], spec.eigenvectors[:, :r]


def _reference_plug_in(coords, eigvals):
    q = (coords / eigvals) @ coords.T
    return (q + q.T) / 2.0


def _reference_span_distance(ell, coords, eigvals):
    r = np.linalg.qr(np.hstack([np.eye(coords.shape[0], ell), coords]), mode="r")
    core = (r * np.concatenate([np.ones(ell), -1.0 / eigvals])) @ r.T
    return linalg.matrix_norm((core + core.T) / 2.0, "operator")


def _reference_run_cell(config, kernel, pop, plan, n, rep, full_support):
    """One (n, rep) cell on its own, as the grid measured it before replications
    were stacked; fit_exact's count route is inlined."""
    ell, m = plan[n]
    r_pop = tail_energy(pop.eigenvalues, ell)
    measure = kernel.table.measure
    psi = kernel.table.values
    lam = kernel.lambdas
    if full_support:
        samples = np.asarray(measure.atoms)
    else:
        samples = draw_samples(measure, n, derive_seed(config.seed, "samples", n, rep))
    metric = config.metric
    counts = np.bincount(samples, minlength=psi.shape[1])
    try:
        if metric in ("recon_hat", "proj_hat"):
            sigma, v = _reference_count_fit(np.sqrt(lam)[:, None] * psi, counts, kernel.kappa)
            coords, eigvals = np.sqrt(lam)[:, None] * v, sigma / samples.shape[0]
        else:
            fs = sample_finite_rank(
                kernel, m, derive_seed(config.seed, "features", n, rep), mixed=True
            )
            factor = basis_factor(fs)
            if metric in ("recon_rf_pop", "proj_rf_pop"):
                spec = linalg.sym_eig(factor @ factor.T)
                linalg._check_split(spec.eigenvalues, ell)
                coords, eigvals = spec.eigenvectors, np.ones(factor.shape[0])
            else:
                sigma, v = _reference_count_fit(factor.T @ psi, counts, fs.kappa_m)
                coords, eigvals = factor @ v, sigma / samples.shape[0]
        if not _empirical_guard_ok(eigvals, ell):
            raise RankError(f"eigenvalue {ell} sits below the division guard")
    except (RankError, EigengapError):
        return math.nan, None
    coords, eigvals = coords[:, :ell], eigvals[:ell]
    q = _reference_plug_in(coords, eigvals)
    r_emp = float(np.sum((np.diag(lam) - q * lam[None, :]) ** 2))
    dist = _reference_span_distance(ell, coords, eigvals)
    value = dist if metric.startswith("proj") else r_emp
    margin = pop.hs_norm * dist + rates._SWAP_SLACK - abs(math.sqrt(r_emp) - math.sqrt(r_pop))
    return value, margin


@pytest.mark.parametrize("full_support", [False, True], ids=["drawn", "full_support"])
@pytest.mark.parametrize("config, invalid", list(_grid_cases()))
def test_stacked_points_match_the_one_cell_reference(config, invalid, full_support,
                                                     monkeypatch):
    kernel, pop = _oracle(config.atoms, lambda_schedule(config), config.seed)
    if full_support:
        _draw_full_support(monkeypatch)
    plan = rates._grid_plan(config)
    exact = config.tau is None
    nans = 0
    for n in config.n_grid:
        point = rates._measure_point(config, kernel, pop, plan, n,
                                     rates._point_draws([config], kernel, n))
        assert [row.rep for row, _ in point] == list(range(config.replications))
        for row, margin in point:
            value, want = _reference_run_cell(config, kernel, pop, plan, n, row.rep,
                                              full_support)
            assert (row.n, row.m, row.ell) == (n, plan[n][1], plan[n][0])
            assert math.isnan(row.value) == math.isnan(value)
            assert (margin is None) == (want is None) == math.isnan(value)
            nans += math.isnan(value)
            if want is None:
                continue
            if exact:
                assert (row.value, margin) == (value, want)
            else:
                assert abs(row.value - value) <= 1e-12 * value
                assert abs(margin - want) <= 1e-12 * max(abs(want), 1.0)
    # sampling decides which exact cells are invalid; full support removes it
    assert nans == (0 if full_support and exact else invalid)


@pytest.mark.parametrize("config", [c for c, _ in _grid_cases() if c.seed == 0])
def test_a_replication_does_not_depend_on_how_many_are_stacked(config):
    kernel, pop = _oracle(config.atoms, lambda_schedule(config), config.seed)
    longer = dataclasses.replace(config, replications=10)
    plan = rates._grid_plan(config)
    for n in config.n_grid:
        five = rates._measure_point(config, kernel, pop, plan, n,
                                    rates._point_draws([config], kernel, n))
        ten = rates._measure_point(longer, kernel, pop, plan, n,
                                   rates._point_draws([longer], kernel, n))
        assert len(ten) == 10
        for (row, margin), (row10, margin10) in zip(five, ten[:5]):
            # repr tells every float apart and reads NaN equal to NaN
            assert (repr(row), repr(margin)) == (repr(row10), repr(margin10))


def test_exact_cells_on_too_few_atoms_are_invalid_not_fatal():
    config = _ecfg(theta=0.0, ell_fixed=3, metric="proj_hat", n_grid=(4, 6, 8, 12))
    report = run_grid(config)
    measure = report.kernel.table.measure
    # fewer than ell + 1 distinct atoms leave a centred rank below ell
    few = [np.unique(draw_samples(measure, row.n, derive_seed(config.seed, "samples",
                                                              row.n, row.rep))).size <= row.ell
           for row in report.rows]
    assert [math.isnan(row.value) for row in report.rows] == few
    assert report.invalid == {4: 2, 6: 0, 8: 0, 12: 0}
    # n = 3 samples never carry ell = 3 components: 5 of 5 invalid cells stop the grid
    with pytest.raises(ConfigError, match="5/5 replications invalid at n=3"):
        run_grid(dataclasses.replace(config, n_grid=(3, 6, 8, 12)))


def test_grid_plan_rejects_a_degenerate_population_gap():
    # lambda_2 - lambda_3 is about 1e-13, below GAP_TOL
    config = _ecfg(gamma=1e-13, theta=0.0, ell_fixed=2, metric="proj_hat", n_grid=_SMALL_GRID)
    with pytest.raises(ConfigError, match="gap at ell=2"):
        rates._grid_plan(config)


def test_rf_hat_grid_solves_no_matrix_of_n_or_m_per_cell(monkeypatch):
    sizes = []
    solve = linalg._eig_solve

    def recording(solver, a, op):
        sizes.append(a.shape[-1])
        return solve(solver, a, op)

    monkeypatch.setattr(linalg, "_eig_solve", recording)
    config = _ecfg(theta=0.2, metric="proj_rf_hat", tau=0.8, n_grid=_SMALL_GRID)
    report = run_grid(config)
    assert max(r.m for r in report.rows) > config.rank
    # no solve is larger than T: the cells are T x T and S_J's eigenvalues
    # come from its T x T factor
    assert [size for size in sizes if size > config.rank] == []


def test_exact_grid_fits_every_cell_but_never_gathers_dual_coeffs(monkeypatch):
    fits, gathers = [], []
    fit = rates.fit_exact
    gather = kpca.KpcaModel.dual_coeffs

    def recording_fit(kernel, samples):
        fits.append(samples)
        return fit(kernel, samples)

    def recording_gather(model):
        gathers.append(model.n)
        return gather.func(model)

    monkeypatch.setattr(rates, "fit_exact", recording_fit)
    monkeypatch.setattr(kpca.KpcaModel, "dual_coeffs", property(recording_gather))
    for metric in ("recon_hat", "proj_hat"):
        config = _ecfg(theta=0.2, metric=metric, n_grid=_SMALL_GRID)
        report = run_grid(config)
        # one sample stack per grid point, one row per replication
        stacks = fits[-len(config.n_grid):]
        assert [stack.shape[0] for stack in stacks] == [config.replications] * len(config.n_grid)
        assert [row.size for stack in stacks for row in stack] == [row.n for row in report.rows]
    assert len(fits) == 2 * len(_SMALL_GRID)
    assert gathers == []
    # the recorder is live: a read after the grid builds the dual coefficients
    fit(report.kernel, np.arange(config.atoms)).dual_coeffs
    assert gathers == [config.atoms]


# The three exact-KPCA acceptance configs.
_ACCEPTANCE_EXACT = (
    dict(alpha=2.0, theta=2.0 / 7.0, atoms=192, rank=60, metric="recon_hat"),
    dict(decay="expo", gamma=0.5, alpha=None, theta=0.2, atoms=128, rank=24,
         metric="recon_hat"),
    dict(decay="expo", gamma=0.5, alpha=None, theta=0.0, ell_fixed=3, atoms=128, rank=24,
         metric="proj_hat"),
)


@pytest.mark.parametrize("overrides", _ACCEPTANCE_EXACT)
def test_exact_cell_coordinates_match_the_per_atom_route(overrides):
    config = _cfg(n_grid=(256, 512, 1024, 2048, 4096), replications=10, seed=20260819,
                  **overrides)
    kernel, _ = _oracle(config.atoms, lambda_schedule(config), config.seed)
    lam, psi = kernel.lambdas, kernel.table.values
    for n, rep in ((256, 0), (1024, 3), (4096, 9)):
        ell = ell_for(config, n)
        samples = draw_samples(kernel.table.measure, n,
                               derive_seed(config.seed, "samples", n, rep))
        model = fit_exact(kernel, samples)
        eigvals = model.eigvals[:ell]
        q = rates._plug_in(np.sqrt(lam)[:, None] * model.basis_vectors[:, :ell], eigvals)
        # f_i's basis coordinates Lambda psi(x) gamma_i / sqrt(n lambda_i) from the duals
        from_duals = lam[:, None] * (psi[:, samples] @ model.dual_coeffs[:ell].T)
        want = rates._plug_in(from_duals / np.sqrt(n * eigvals), eigvals)
        assert np.max(np.abs(q - want)) <= 1e-10 * np.max(np.abs(want))


def test_span_distance_matches_the_dense_operator_norm():
    rng = np.random.default_rng(11)
    for t, ell in ((8, 1), (8, 3), (24, 3), (60, 7), (12, 11), (2, 1)):
        p = np.diag((np.arange(t) < ell).astype(float))
        inside = np.zeros((t, ell))  # coordinates inside span(e_1..e_ell)
        inside[:ell] = rng.standard_normal((ell, ell))
        near = p[:, :ell] + 0.1 * rng.standard_normal((t, ell))
        for coords in (rng.standard_normal((t, ell)), near, inside):
            eigvals = rng.uniform(0.1, 2.0, ell)
            want = linalg.matrix_norm(p - rates._plug_in(coords, eigvals), "operator")
            got = rates._span_distance(ell, coords, eigvals)
            assert abs(got - want) <= 1e-12 * max(want, 1.0)
        # Q = P, from the unit vectors and from a rotation inside their span
        rotation = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
        for coords in (p[:, :ell], p[:, :ell] @ rotation):
            assert rates._span_distance(ell, coords, np.ones(ell)) <= 1e-14


def test_grid_rejects_an_operator_off_the_kernel_schedule(monkeypatch):
    config = _ecfg(theta=0.2, n_grid=_SMALL_GRID)
    kernel, _ = _oracle(config.atoms, lambda_schedule(config), config.seed)
    measured = []
    monkeypatch.setattr(rates, "_measure_point", lambda *args: measured.append(args))
    # 1 + 1e-9 is ten times RANK_RTOL: the self-check reads S_J's eigenvalues
    # off its T x T factor and must still see it
    for scale in (1.01, 1.0 + 1e-9):
        _, other = _oracle(config.atoms, scale * lambda_schedule(config), config.seed)
        monkeypatch.setattr(rates, "_oracle", lambda *args: (kernel, other))
        with pytest.raises(ConfigError, match="oracle self-check failed"):
            run_grid(config)
        assert not {"matrix", "spectrum"} & vars(other).keys()
    assert measured == []


def test_grids_and_transitions_never_solve_the_n_by_n_spectrum():
    # S_J stays its N x T factor: no N x N matrix is built, let alone solved
    for metric, tau in (("recon_hat", None), ("proj_hat", None), ("proj_rf_hat", 0.8)):
        report = run_grid(_ecfg(theta=0.2, metric=metric, tau=tau, n_grid=_SMALL_GRID))
        assert {"hs_norm", "eigenvalues"} <= vars(report.pop).keys()
        assert not {"matrix", "spectrum"} & vars(report.pop).keys()
    base = _ecfg(theta=0.0, gamma=1.0, metric="proj_rf_hat", tau=0.5, ell_fixed=1,
                 n_grid=_SMALL_GRID, rank=6, slope_tolerance=5.0)
    study = transition_study(base, (0.3, 0.9))
    assert all(not {"matrix", "spectrum"} & vars(rep.pop).keys() for rep in study.reports)
    assert all("eigenvalues" in vars(rep.pop) for rep in study.reports)
