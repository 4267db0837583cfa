"""Convergence-rate experiments against the exact finite-support oracle.

An experiment fixes a synthetic spectrum (polynomial i^-alpha or
exponential e^-gamma*i), grows the sample size over a grid with the
component count ell(n) and feature count m(n) coupled to n through
exponents theta and tau, measures a reconstruction error or projector
distance per replication against exactly computed population values,
and fits a log-log slope of the per-n medians.  The fitted slope is
compared with the exponent the theory predicts for that exact coupling.
run_grid and transition_study share one grid walk: it predicts each run's
slope and plans its grid from the config alone, so a config out of regime or
with an ell(n) the schedule cannot carry fails before the oracle is built,
and it draws one grid point's tau-free inputs at a time for every run.

Every rate verdict reads a SlopeBand, the slopes it accepts.  There are
two rules.  ``SlopeBand.two_sided`` accepts |slope - expected| <= tolerance
and backs RateReport.verdict and every TransitionRow.  The projection
exponents are the paper's upper bounds, not tight rates: at a constant ell
with a fixed eigengap the measured ``proj_hat`` slope is about -1/2, the
classical eigenprojector rate (Zwald & Blanchard, 2006), faster than the
predicted -1/4, so the two-sided verdict fails although the estimator
converges correctly.  ``fixed_gap_band`` is the second rule, for that run:
from -1/2 - tolerance up to the paper's bound + tolerance.

Feature draws here use the mixed finite-rank family (seeded orthogonal
recombination, uniform importance weights).  The aligned family is
degenerate for this purpose: its feature functions are the population
eigenfunctions themselves, so the feature-side operator commutes with
the population one and the feature-count error never rotates an
eigenspace, which would make the m-driven regimes unobservable.

Projection-rate predictions for polynomial decay are evaluated with
gap exponent beta = alpha + 1, the decay the synthetic half-gaps
(i^-a - (i+1)^-a)/2 actually have; every report carries the beta used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, EigengapError, OutOfRegime, RankError, _count, _real
from .features import _mixed_coeffs, basis_factor, sample_finite_rank
from .kernels import Kernel, _decay_schedule, make_finite_rank_kernel
from .kpca import _count_fit, _stack_counts, fit_exact
from .linalg import RANK_RTOL, _check_split, matrix_norm, sym_eig
from .measures import draw_samples, uniform_measure
from .oracle import PopOperator, _plug_in, op_jj, tail_energy
from .rng import derive_seed

__all__ = [
    "METRICS",
    "ExperimentConfig",
    "RateRow",
    "RateReport",
    "SlopeBand",
    "TransitionRow",
    "TransitionReport",
    "lambda_schedule",
    "ell_for",
    "m_for",
    "predicted_exponent",
    "fit_slope",
    "fixed_gap_band",
    "run_grid",
    "transition_study",
]

METRICS = (
    "recon_hat",
    "recon_rf_pop",
    "recon_rf_hat",
    "proj_hat",
    "proj_rf_pop",
    "proj_rf_hat",
)
_RF_METRICS = ("recon_rf_pop", "recon_rf_hat", "proj_rf_pop", "proj_rf_hat")
# Empirical eigenvalue divisions are only trusted this far above the
# retained-rank floor of 1e-10 * lambda_1.
_GUARD_FACTOR = 100.0
_SWAP_SLACK = 1e-8
# Fewest (n, median) points a log-log slope is fitted to.
_MIN_SLOPE_POINTS = 4
# At a constant ell with a fixed eigengap the empirical eigenprojector converges
# at the classical n^-1/2 rate (Zwald & Blanchard, NIPS 2006), so no correct
# estimator decays faster: fixed_gap_band's lower edge.
_FIXED_GAP_SLOPE = -0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one rate experiment.

    decay/alpha/gamma: spectrum family; poly needs alpha > 1, expo needs
        gamma > 0.
    theta: component growth exponent; ell(n) = round(n^(theta/alpha)) for
        poly, round((theta/gamma) ln n) for expo, clipped below at 1.
    ell_fixed: overrides the schedule with a constant (theta must be 0,
        the constant-ell regime).
    tau: feature growth exponent in (0, 1]; m(n) = round(n^tau).
        Required by the rf metrics and rejected by the others, which
        draw no features.
    n_grid: strictly increasing sample sizes, at least 4 for slope fits.
    replications: independent repetitions per n, at least 5 so medians
        are meaningful.
    atoms, rank: oracle size N and spectrum length T.
    metric: one of METRICS.
    slope_tolerance: |fitted - predicted| acceptance width, >= 0.
    """

    decay: str
    theta: float
    n_grid: tuple[int, ...]
    replications: int
    atoms: int
    rank: int
    seed: int
    metric: str
    alpha: float | None = None
    gamma: float | None = None
    tau: float | None = None
    ell_fixed: int | None = None
    slope_tolerance: float = 0.15

    def __post_init__(self) -> None:
        # Every count and real is checked and normalized before any check
        # that compares it, so a bad value is a ConfigError, never a
        # TypeError after the grid has run.
        if not isinstance(self.n_grid, (list, tuple, np.ndarray)):
            raise ConfigError(f"n_grid must be a list of sample sizes, got {self.n_grid!r}")
        fields = {"n_grid": tuple(_count("n_grid", n, least=2) for n in self.n_grid)}
        for key in ("replications", "atoms", "rank", "seed", "ell_fixed"):
            fields[key] = _count(key, getattr(self, key), optional=key == "ell_fixed")
        for key in ("theta", "alpha", "gamma", "tau", "slope_tolerance"):
            fields[key] = _real(key, getattr(self, key), optional=key in ("alpha", "gamma", "tau"))
        for key, value in fields.items():
            object.__setattr__(self, key, value)
        _decay_schedule(self.decay, self.rank, self.alpha, self.gamma)
        if self.theta < 0.0:
            raise ConfigError(f"theta must be >= 0, got {self.theta}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.tau is not None and not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if self.slope_tolerance < 0.0:
            raise ConfigError(f"slope_tolerance must be >= 0, got {self.slope_tolerance}")
        if (self.tau is None) == (self.metric in _RF_METRICS):
            need = "needs" if self.tau is None else "takes no"
            raise ConfigError(f"metric {self.metric} {need} tau")
        if len(self.n_grid) < _MIN_SLOPE_POINTS:
            raise ConfigError(f"n_grid needs at least {_MIN_SLOPE_POINTS} sample sizes "
                              f"for the slope fit, got {len(self.n_grid)}")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if self.replications < 5:
            raise ConfigError(f"need >= 5 replications, got {self.replications}")
        if self.rank < 2 or self.atoms < self.rank + 1:
            raise ConfigError(
                f"need atoms >= rank + 1 >= 3, got atoms={self.atoms} rank={self.rank}"
            )
        if self.ell_fixed is not None:
            if self.theta != 0.0:
                raise ConfigError("ell_fixed is the theta = 0 (constant ell) regime")
            if not 1 <= self.ell_fixed <= self.rank - 1:
                raise ConfigError(f"ell_fixed={self.ell_fixed} outside 1..{self.rank - 1}")


def _taus(taus) -> list[float]:
    """``taus`` as finite floats, at least one, each once (a repeat reruns its grid)."""
    taus = [_real("taus", tau) for tau in taus]
    if not taus or len(set(taus)) < len(taus):
        raise ConfigError(f"taus must hold at least one tau, each once, got {taus!r}")
    return taus


def lambda_schedule(config: ExperimentConfig) -> np.ndarray:
    """The synthetic population spectrum, length rank, strictly descending."""
    return _decay_schedule(config.decay, config.rank, config.alpha, config.gamma)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def ell_for(config: ExperimentConfig, n: int) -> int:
    """Component count at sample size n under the configured schedule."""
    n = _count("ell_for: n", n, least=1)
    if config.ell_fixed is not None:
        return config.ell_fixed
    if config.decay == "poly":
        raw = float(n) ** (config.theta / config.alpha)
    else:
        raw = (config.theta / config.gamma) * math.log(n)
    ell = _round_half_up(raw)
    if ell > config.rank - 1:
        raise ConfigError(
            f"ell({n}) = {ell} exceeds rank - 1 = {config.rank - 1}; raise rank"
        )
    return max(ell, 1)


def m_for(config: ExperimentConfig, n: int) -> int:
    """Feature count at sample size n; requires tau."""
    n = _count("m_for: n", n, least=1)
    if config.tau is None:
        raise ConfigError("m(n) undefined without tau")
    return max(_round_half_up(float(n) ** config.tau), 1)


def _beta(config: ExperimentConfig) -> float | None:
    """The gap exponent of poly decay's half-gaps, alpha + 1; None for expo."""
    return config.alpha + 1.0 if config.decay == "poly" else None


def _tau_threshold(config: ExperimentConfig) -> float:
    """The tau where proj_rf_hat's feature-count error stops dominating:
    1/2 + theta (2 beta - alpha)/alpha for poly decay, 1/2 + theta for expo."""
    if config.decay == "poly":
        return 0.5 + config.theta * (2.0 * _beta(config) - config.alpha) / config.alpha
    return 0.5 + config.theta


def _regime(config: ExperimentConfig) -> str:
    """A proj_rf_hat config's regime: sample-limited iff tau reaches the threshold."""
    return "sample_limited" if config.tau >= _tau_threshold(config) else "feature_limited"


def predicted_exponent(config: ExperimentConfig) -> float:
    """The theoretical log-log slope for the configured coupling.

    Returns the negated exponent (a slope, so typically negative).  Poly
    projection rates use the gap exponent beta = alpha + 1 (see module
    docstring).  Raises OutOfRegime outside the theory's regimes:
    reconstruction needs 0 < theta < 1/2 and ``recon_rf_hat`` tau > 2 theta;
    projection needs theta below alpha/(2 beta) (poly) or 1/2 (expo), and
    ``proj_rf_hat`` tau > 2 g with g = theta beta/alpha (poly) or theta
    (expo), where the gap closes.  ``proj_rf_hat`` is sample-limited iff tau
    >= the transition_study threshold, feature-limited (-(tau/2 - g)) below it.

    Projection exponents are the paper's upper bounds: at a constant ell
    the measured ``proj_hat`` slope is about -1/2, faster than the -1/4
    returned here; ``fixed_gap_band`` is the verdict band for that run.
    """
    theta, tau, metric = config.theta, config.tau, config.metric
    if metric.startswith("recon"):
        if not 0.0 < theta < 0.5:
            raise OutOfRegime(f"{config.decay} reconstruction rates need 0 < theta < 1/2, "
                              f"got {theta}")
        if config.decay == "poly":
            alpha = config.alpha
            bias = 2.0 * theta * (1.0 - 1.0 / (2.0 * alpha))
            knee = alpha / (4.0 * alpha - 1.0)
            rate = -bias if theta <= knee else -(0.5 - theta / (2.0 * alpha))
        else:
            bias = 2.0 * theta
            rate = -bias if theta < 0.25 else -0.5
        if metric == "recon_rf_pop":
            return -min(tau, bias)
        if metric == "recon_rf_hat" and tau <= 2.0 * theta:
            raise OutOfRegime(f"recon_rf_hat needs tau > 2 theta ({tau} <= {2.0 * theta})")
        return rate

    if config.decay == "poly":
        alpha, b = config.alpha, _beta(config)
        g, limit, knee = theta * b / alpha, alpha / (2.0 * b), alpha / (2.0 * (2.0 * b - alpha))
    else:
        g, limit, knee = theta, 0.5, 0.5
    if not 0.0 <= theta < limit:
        raise OutOfRegime(f"{config.decay} projection rates need 0 <= theta < {limit:g}, "
                          f"got {theta}")
    sample_rate = -(0.25 - theta / 2.0) if theta < knee else -(0.5 - g)
    if metric == "proj_hat":
        return sample_rate
    if metric == "proj_rf_hat":
        if tau <= 2.0 * g:
            raise OutOfRegime(f"proj_rf_hat needs tau > {2.0 * g:g}, got {tau}")
        if _regime(config) == "sample_limited":
            return sample_rate
    return -(tau / 2.0 - g)


def fit_slope(ns, values) -> tuple[float, float]:
    """Least-squares slope and its standard error in log-log coordinates."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if (ns.ndim != 1 or ns.shape != values.shape or ns.size < _MIN_SLOPE_POINTS
            or np.unique(ns).size < 2):
        raise ConfigError(f"fit_slope: need >= {_MIN_SLOPE_POINTS} matched 1-D points at two or "
                          f"more distinct ns, got ns {ns.tolist()} and values {values.tolist()}")
    if not np.all((ns > 0.0) & (values > 0.0) & np.isfinite(ns) & np.isfinite(values)):
        raise ConfigError("fit_slope: log-log fit needs finite, strictly positive data")
    x = np.log(ns)
    y = np.log(values)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    resid = y - y.mean() - slope * xc
    dof = ns.size - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return slope, stderr


def _outermost(expected: float, tolerance: float, toward: float) -> float:
    """The float farthest from ``expected`` toward ``toward`` (an infinity) that
    |s - expected| <= tolerance accepts.  Rounding keeps s - expected monotone
    in s, so the floats that rule accepts are exactly those between two such
    edges."""
    s = expected + math.copysign(tolerance, toward)
    while abs(s - expected) > tolerance:
        s = math.nextafter(s, expected)
    while abs(math.nextafter(s, toward) - expected) <= tolerance:
        s = math.nextafter(s, toward)
    return s


@dataclass(frozen=True)
class SlopeBand:
    """The fitted slopes a rate verdict accepts, low <= slope <= high, and the
    rule that set the edges: ``two_sided`` or ``fixed_gap`` (fixed_gap_band)."""

    low: float
    high: float
    rule: str

    @classmethod
    def two_sided(cls, expected: float, tolerance: float) -> SlopeBand:
        """|slope - expected| <= tolerance, with edges at the outermost floats it
        accepts, so ``holds`` equals that comparison bit for bit."""
        return cls(_outermost(expected, tolerance, -math.inf),
                   _outermost(expected, tolerance, math.inf), "two_sided")

    def holds(self, slope: float) -> bool:
        return self.low <= slope <= self.high


@dataclass(frozen=True)
class RateRow:
    """One measured cell of the grid; value is NaN when the replication's
    samples or features could not support ell components."""

    n: int
    m: int | None
    ell: int
    rep: int
    metric: str
    value: float


@dataclass(frozen=True)
class RateReport:
    """A measured grid and its fitted rate, with the kernel and S_J it used."""

    config: ExperimentConfig
    rows: tuple[RateRow, ...]
    medians: dict
    invalid: dict
    slope: float
    slope_stderr: float
    predicted: float
    swap_min_margin: float
    swap_violations: int
    kernel: Kernel = field(repr=False, compare=False)
    pop: PopOperator = field(repr=False, compare=False)

    @property
    def beta(self) -> float | None:
        """The gap exponent the projection prediction used; None otherwise."""
        return _beta(self.config) if self.config.metric.startswith("proj") else None

    @property
    def band(self) -> SlopeBand:
        return SlopeBand.two_sided(self.predicted, self.config.slope_tolerance)

    @property
    def verdict(self) -> bool:
        return self.band.holds(self.slope)


def fixed_gap_band(report: RateReport) -> SlopeBand:
    """A constant-ell ``proj_hat`` run's band, [-1/2 - tolerance, predicted +
    tolerance]: from the classical fixed-gap rate up to the paper's bound.
    The run's ``verdict`` stays two-sided."""
    config = report.config
    if config.metric != "proj_hat" or config.theta != 0.0:
        raise ConfigError(f"fixed_gap_band needs a constant-ell proj_hat run, got metric "
                          f"{config.metric} at theta {config.theta}")
    tol = config.slope_tolerance
    return SlopeBand(_FIXED_GAP_SLOPE - tol, report.predicted + tol, "fixed_gap")


def _grid_plan(config: ExperimentConfig) -> dict:
    """Per-n ell and m, from the config alone.  The cells' own guard and split
    rules are applied to the schedule, so a split they would reject fails
    before the oracle is built."""
    plan = {}
    vals = lambda_schedule(config)
    for n in config.n_grid:
        ell = ell_for(config, n)
        try:
            if not _empirical_guard_ok(vals, ell):
                raise RankError(f"eigenvalue {ell} sits below the division guard")
            _check_split(vals, ell)
        except (RankError, EigengapError) as err:
            raise ConfigError(f"population spectrum at n={n}: {err}") from None
        plan[n] = (ell, m_for(config, n) if config.tau is not None else None)
    return plan


def _schedule_error(pop: PopOperator, lam: np.ndarray) -> float:
    """max |eig(S_J) - lambda padded with zeros| / lambda_1."""
    vals = pop.eigenvalues
    return float(np.max(np.abs(vals - np.pad(lam, (0, vals.size - lam.size)))) / lam[0])


def _empirical_guard_ok(eigvals: np.ndarray, ell: int) -> bool:
    if eigvals.shape[0] < ell:
        return False
    return eigvals[ell - 1] >= _GUARD_FACTOR * RANK_RTOL * eigvals[0]


def _point_draws(configs: list[ExperimentConfig], kernel: Kernel, n: int) -> tuple:
    """Grid point n's tau-free (seed, n, rep) draws that any of the configs' metrics
    reads: the sample stack, its counts, and each replication's feature seed and mixed
    coeffs.  The configs share seed and replications."""
    metrics = {config.metric for config in configs}
    reps, seed = range(configs[0].replications), configs[0].seed
    samples = None if all(m.endswith("_pop") for m in metrics) else np.stack([
        draw_samples(kernel.table.measure, n, derive_seed(seed, "samples", n, r)) for r in reps])
    counts = (_stack_counts(samples, kernel.table.measure.size)
              if any(m.endswith("_rf_hat") for m in metrics) else None)
    seeds = [derive_seed(seed, "features", n, r) for r in reps] if metrics & {*_RF_METRICS} else []
    return samples, counts, [(s, _mixed_coeffs(kernel, s)) for s in seeds]


def _measure_point(config: ExperimentConfig, kernel: Kernel, pop: PopOperator, plan: dict,
                   n: int, draws: tuple) -> list[tuple[RateRow, float | None]]:
    """Each replication at grid point n as a row and its swap-inequality margin
    (None when invalid), from the point's ``_point_draws`` and its own m(n) feature
    indices, fitted and scored with the others as one stack.  The *_pop metrics
    score the feature draw alone.

    Every estimated projector lies in the span of the kernel's T basis
    functions, where S_J is Lambda = diag(lambda) and its top-ell projector is
    P = diag(1_ell, 0).  Each metric yields basis coordinates C and eigenvalues
    mu of Q = C diag(1/mu) C', scored in that basis and, for ||P - Q||_op, in
    the span of P and C: the same numbers as proj_hat / proj_hat_rf /
    proj_pop(op_aa) scored by recon_error and proj_distance, free of N and m.
    A draw at the count fit's noise floor (a rank-0 fit), a spectrum that cannot
    carry ell components past the division guard, or a feature operator with no
    gap at ell makes the replication invalid (NaN) before any scoring.
    """
    ell, m = plan[n]
    r_pop = tail_energy(pop.eigenvalues, ell)
    psi, lam = kernel.table.values, kernel.lambdas
    reps, metric = range(config.replications), config.metric
    samples, counts, features = draws
    fits = []  # per replication, the basis coordinates and eigenvalues, or None
    if metric in ("recon_hat", "proj_hat"):
        # f_i = (n lambda_i)^-1/2 sum_j gamma_ij k(., x_j) has basis coordinates
        # sqrt(Lambda) v_i up to sign, v_i the fit's T x T eigenvector.
        fits = [(np.sqrt(lam)[:, None] * model.basis_vectors, model.eigvals)
                for model in fit_exact(kernel, samples)]
    else:
        factors = np.stack([basis_factor(sample_finite_rank(kernel, m, seed, coeffs=coeffs))
                            for seed, coeffs in features])
        if metric in ("recon_rf_pop", "proj_rf_pop"):
            spec = sym_eig(factors @ factors.swapaxes(-1, -2))
            for vals, vecs in zip(spec.eigenvalues, spec.eigenvectors):
                try:
                    _check_split(vals, ell)
                    fits.append((vecs, np.ones(vals.shape[0])))
                except (RankError, EigengapError):
                    fits.append(None)
        else:
            # fit_rf's m x m covariance G' Sigma G (G G' = L L') shares its nonzero
            # spectrum with L' Sigma L, the count fit of the root L' psi, whose
            # eigenvector y is the component with basis coordinates L y.
            fitted = _count_fit(factors.swapaxes(-1, -2) @ psi, counts)
            fits = [(factor @ v, sigma / samples.shape[1])
                    for factor, (sigma, v) in zip(factors, fitted)]
    # A draw too degenerate to carry ell components is excluded by the theory's
    # hypotheses, so its replication is marked invalid rather than redrawn.
    valid = [i for i, fit in enumerate(fits) if fit is not None
             and _empirical_guard_ok(fit[1], ell)]
    values, margins = np.full((2, config.replications), math.nan)
    if valid:
        coords = np.stack([fits[i][0][:, :ell] for i in valid])
        eigvals = np.stack([fits[i][1][:ell] for i in valid])
        q = _plug_in(coords, eigvals)
        r_emp = np.sum(((np.diag(lam) - q * lam) ** 2).reshape(len(valid), -1), axis=-1)
        dist = _span_distance(ell, coords, eigvals)
        values[valid] = dist if metric.startswith("proj") else r_emp
        margins[valid] = pop.hs_norm * dist + _SWAP_SLACK - np.abs(np.sqrt(r_emp)
                                                                   - math.sqrt(r_pop))
    return [(RateRow(n=n, m=m, ell=ell, rep=rep, metric=metric, value=float(values[rep])),
             float(margins[rep]) if rep in valid else None) for rep in reps]


def _span_distance(ell: int, coords: np.ndarray, eigvals: np.ndarray) -> float | np.ndarray:
    """||diag(1_ell, 0) - _plug_in(coords, eigvals)||_op per member: with
    [e_1..e_ell | C] = U R (thin QR), the difference is U R diag(1_ell,
    -1/eigvals) R' U', whose norm is that of the 2 ell x 2 ell core."""
    units = np.broadcast_to(np.eye(coords.shape[-2], ell), coords.shape)
    r = np.linalg.qr(np.concatenate([units, coords], axis=-1), mode="r")
    weights = np.concatenate([np.ones(eigvals.shape), -1.0 / eigvals], axis=-1)
    core = (r * weights[..., None, :]) @ r.swapaxes(-1, -2)
    return matrix_norm((core + core.swapaxes(-1, -2)) / 2.0, "operator")


def run_grid(config: ExperimentConfig) -> RateReport:
    """Measure the configured metric over the grid and fit its rate.

    Fully deterministic for a given config: every cell derives its own
    random streams from (seed, n, rep), so neither the order of the grid
    points nor the replication count, each point's replications being fitted
    and scored as one stack, changes a number.  It is the grid walk with one
    run, so an out-of-regime config fails before the oracle is built.

    Alongside the metric, every valid cell checks the projector-swap
    inequality |sqrt(R_emp) - sqrt(R_pop)| <= ||S||_HS * dist with 1e-8
    slack; the report carries the minimum margin and violation count.
    """
    return _run_grids([config])[0]


def _oracle(atoms: int, lambdas: np.ndarray, seed: int) -> tuple[Kernel, PopOperator]:
    """The seeded synthetic kernel on uniform atoms and its S_J operator."""
    measure = uniform_measure(atoms)
    kernel = make_finite_rank_kernel(measure, lambdas, derive_seed(seed, "kernel"))
    return kernel, op_jj(kernel, measure)


def _run_grids(configs: list[ExperimentConfig]) -> list[RateReport]:
    """The grid walk (module docstring): one report per config, for configs that differ
    only in metric and tau, so they share the oracle and each point's tau-free draws."""
    predicted = [predicted_exponent(config) for config in configs]
    plans = [_grid_plan(config) for config in configs]
    base = configs[0]
    kernel, pop = _oracle(base.atoms, lambda_schedule(base), base.seed)
    # The cells score in the kernel's basis, where S_J is diag(lambda); that
    # needs S_J's spectrum to be the schedule padded with zeros.
    spec_err = _schedule_error(pop, kernel.lambdas)
    if spec_err > RANK_RTOL:
        raise ConfigError(f"oracle self-check failed: S_J spectrum is off the schedule "
                          f"by {spec_err:.3e} of lambda_1")
    outcomes = [[] for _ in configs]
    for n in base.n_grid:
        draws = _point_draws(configs, kernel, n)
        for config, plan, out in zip(configs, plans, outcomes):
            out += _measure_point(config, kernel, pop, plan, n, draws)
    reports = []
    for config, plan, out, slope_predicted in zip(configs, plans, outcomes, predicted):
        rows = tuple(row for row, _ in out)
        margins = [mar for _, mar in out if mar is not None]
        medians, invalid = {}, {}
        for n in config.n_grid:
            vals = [r.value for r in rows if r.n == n and not math.isnan(r.value)]
            bad = config.replications - len(vals)
            invalid[n] = bad
            if bad * 2 >= config.replications:
                raise ConfigError(
                    f"{bad}/{config.replications} replications invalid at n={n} "
                    f"(ell={plan[n][0]}); too few of its draws carry ell components"
                )
            medians[n] = float(np.median(vals))
        slope, stderr = fit_slope(list(config.n_grid), [medians[n] for n in config.n_grid])
        reports.append(RateReport(
            config=config,
            rows=rows,
            medians=medians,
            invalid=invalid,
            slope=slope,
            slope_stderr=stderr,
            predicted=slope_predicted,
            swap_min_margin=min(margins) if margins else math.nan,
            swap_violations=sum(mar < 0.0 for mar in margins),
            kernel=kernel,
            pop=pop,
        ))
    return reports


@dataclass(frozen=True)
class TransitionRow:
    tau: float
    regime: str
    slope: float
    slope_stderr: float
    expected: float
    matches: bool
    band: SlopeBand


@dataclass(frozen=True)
class TransitionReport:
    reference_slope: float
    reference_stderr: float
    threshold: float
    rows: tuple[TransitionRow, ...]
    reports: tuple[RateReport, ...]


def transition_study(base: ExperimentConfig, taus) -> TransitionReport:
    """Sweep tau through the m(n) = n^tau coupling and locate the regime
    boundary.

    The base config must use the proj_rf_hat metric.  A tau at or above
    the threshold (1/2 + theta for exponential decay, 1/2 + theta
    (2 beta - alpha)/alpha for polynomial) leaves the sample-size error
    dominant, so its slope must match an exact-KPCA reference run within
    the configured tolerance; below the threshold the feature error
    dominates and the slope must match the feature-driven exponent
    -(tau/2 - theta beta/alpha), resp. -(tau/2 - theta).  Each row carries
    that two-sided band, and ``matches`` is whether it holds.  The reference
    and every tau run go through run_grid's one grid walk together, sharing
    each point's tau-free draws, so each report equals its run_grid alone.
    """
    if base.metric != "proj_rf_hat":
        raise ConfigError(f"transition_study needs metric proj_rf_hat, got {base.metric}")
    configs = [replace(base, tau=tau) for tau in _taus(taus)]
    reference, *runs = _run_grids([replace(base, tau=None, metric="proj_hat"), *configs])
    rows = []
    for config, rep in zip(configs, runs):
        regime = _regime(config)
        # below the threshold, predicted_exponent's feature-driven branch
        expected = reference.slope if regime == "sample_limited" else rep.predicted
        band = SlopeBand.two_sided(expected, base.slope_tolerance)
        rows.append(TransitionRow(
            tau=config.tau,
            regime=regime,
            slope=rep.slope,
            slope_stderr=rep.slope_stderr,
            expected=expected,
            matches=band.holds(rep.slope),
            band=band,
        ))
    return TransitionReport(
        reference_slope=reference.slope,
        reference_stderr=reference.slope_stderr,
        threshold=_tau_threshold(base),
        rows=tuple(rows),
        reports=(reference, *runs),
    )
