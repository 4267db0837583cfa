"""Convergence-rate experiments against the exact finite-support oracle.

An experiment fixes a synthetic spectrum (polynomial i^-alpha or
exponential e^-gamma*i), grows the sample size over a grid with the
component count ell(n) and feature count m(n) coupled to n through
exponents theta and tau, measures a reconstruction error or projector
distance per replication against exactly computed population values,
and fits a log-log slope of the per-n medians.  The fitted slope is
compared with the exponent the theory predicts for that exact coupling.

The projection exponents are the paper's upper bounds, not tight rates.
At a constant ell with a fixed eigengap the measured ``proj_hat`` slope
is about -1/2, the classical eigenprojector rate (Zwald & Blanchard,
2006), faster than the predicted -1/4; the two-sided ``verdict`` then
fails although the estimator converges correctly.

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

from .errors import ConfigError, EigengapError, OutOfRegime, RankError
from .features import basis_factor, sample_finite_rank
from .kernels import Kernel, make_finite_rank_kernel
from .kpca import _retained_rank, fit_exact
from .linalg import GAP_TOL, RANK_RTOL, matrix_norm, spectral_projector, sym_eig
from .measures import draw_samples, uniform_measure
from .oracle import PopOperator, op_jj, tail_energy
from .rng import derive_seed

__all__ = [
    "METRICS",
    "ExperimentConfig",
    "RateRow",
    "RateReport",
    "TransitionReport",
    "lambda_schedule",
    "ell_for",
    "m_for",
    "predicted_exponent",
    "fit_slope",
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
    slope_tolerance: |fitted - predicted| acceptance width.
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
        fields = {"n_grid": tuple(_count("n_grid", n) for n in self.n_grid)}
        for key in ("replications", "atoms", "rank", "seed", "ell_fixed"):
            fields[key] = _count(key, getattr(self, key), optional=key == "ell_fixed")
        for key in ("theta", "alpha", "gamma", "tau", "slope_tolerance"):
            fields[key] = _real(key, getattr(self, key), optional=key in ("alpha", "gamma", "tau"))
        for key, value in fields.items():
            object.__setattr__(self, key, value)
        _decay_schedule(self.decay, self.rank, self.alpha, self.gamma)
        unused = "gamma" if self.decay == "poly" else "alpha"
        if getattr(self, unused) is not None:
            raise ConfigError(f"{self.decay} decay takes no {unused}")
        if self.theta < 0.0:
            raise ConfigError(f"theta must be >= 0, got {self.theta}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.tau is not None and not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if (self.tau is None) == (self.metric in _RF_METRICS):
            need = "needs" if self.tau is None else "takes no"
            raise ConfigError(f"metric {self.metric} {need} tau")
        if len(self.n_grid) < _MIN_SLOPE_POINTS:
            raise ConfigError(f"n_grid needs at least {_MIN_SLOPE_POINTS} sample sizes "
                              f"for the slope fit, got {len(self.n_grid)}")
        if any(n < 2 for n in self.n_grid):
            raise ConfigError("n_grid must hold sample sizes >= 2")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if self.replications < 5:
            raise ConfigError(f"need >= 5 replications, got {self.replications}")
        if self.atoms < self.rank + 1:
            raise ConfigError(
                f"need atoms >= rank + 1 >= 3, got atoms={self.atoms} rank={self.rank}"
            )
        if self.ell_fixed is not None:
            if self.theta != 0.0:
                raise ConfigError("ell_fixed is the theta = 0 (constant ell) regime")
            if not 1 <= self.ell_fixed <= self.rank - 1:
                raise ConfigError(f"ell_fixed={self.ell_fixed} outside 1..{self.rank - 1}")


def _count(key: str, value, optional: bool = False) -> int | None:
    """``value`` as an int: an integral number, never a bool (None if optional)."""
    if value is None and optional:
        return None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _real(key: str, value, optional: bool = False) -> float | None:
    """``value`` as a float: a finite number, never a bool (None if optional)."""
    if value is None and optional:
        return None
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value)):
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _decay_schedule(decay: str, rank: int, alpha: float | None, gamma: float | None) -> np.ndarray:
    """i^-alpha (poly) or e^-gamma*i (expo) for i = 1..rank; ConfigError if invalid."""
    if rank < 2:
        raise ConfigError(f"rank must be >= 2, got {rank}")
    i = 1.0 + np.arange(rank)
    if decay == "poly":
        if alpha is None or not _real("alpha", alpha) > 1.0:
            raise ConfigError(f"poly decay needs alpha > 1, got {alpha}")
        return i ** -float(alpha)
    if decay == "expo":
        if gamma is None or not _real("gamma", gamma) > 0.0:
            raise ConfigError(f"expo decay needs gamma > 0, got {gamma}")
        return np.exp(-float(gamma) * i)
    raise ConfigError(f"unknown decay {decay!r}")


def lambda_schedule(config: ExperimentConfig) -> np.ndarray:
    """The synthetic population spectrum, length rank, strictly descending."""
    return _decay_schedule(config.decay, config.rank, config.alpha, config.gamma)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def ell_for(config: ExperimentConfig, n: int) -> int:
    """Component count at sample size n under the configured schedule."""
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
    if config.tau is None:
        raise ConfigError("m(n) undefined without tau")
    return max(_round_half_up(float(n) ** config.tau), 1)


def _beta_for(config: ExperimentConfig, beta: float | None) -> float:
    if beta is not None:
        return beta
    return config.alpha + 1.0


def predicted_exponent(config: ExperimentConfig, beta: float | None = None,
                       improved: bool = False) -> float:
    """The theoretical log-log slope for the configured coupling.

    Returns the negated exponent (a slope, so typically negative).
    ``beta`` overrides the gap-decay exponent used by polynomial
    projection predictions (default alpha + 1, see module docstring).
    ``improved`` selects the sharper eigengap-based reconstruction rates
    available for exponential decay.  Raises OutOfRegime when the
    parameters fall outside every branch the theory covers.

    Projection exponents are the paper's upper bounds: at a constant ell
    the measured ``proj_hat`` slope is about -1/2, faster than the -1/4
    returned here (see module docstring).
    """
    theta = config.theta
    tau = config.tau
    metric = config.metric
    recon = metric.startswith("recon")
    if improved and (config.decay != "expo" or not recon):
        raise OutOfRegime("improved rates exist only for exponential-decay reconstruction")
    if metric in _RF_METRICS and tau is None:
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
        b = _beta_for(config, beta)
        if b < alpha:
            raise OutOfRegime(f"projection rates need beta >= alpha, got beta={b}")
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
        if theta < knee and tau > 0.5 + theta * (2.0 * b - alpha) / alpha:
            return -(0.25 - theta / 2.0)
        return -(tau / 2.0 - theta * b / alpha)

    # exponential decay
    if recon:
        if improved:
            if not 0.0 < theta < 0.5:
                raise OutOfRegime(f"improved expo rates need 0 < theta < 1/2, got {theta}")
            if metric == "recon_rf_pop":
                raise OutOfRegime("improved rates cover the sampled-feature estimators")
            if metric == "recon_rf_hat" and tau <= 2.0 * theta:
                raise OutOfRegime(f"recon_rf_hat needs tau > 2 theta ({tau} <= {2 * theta})")
            return -2.0 * theta if theta <= 1.0 / 3.0 else -(1.0 - theta)
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
    if tau >= 0.5 + theta:
        return -(0.25 - theta / 2.0)
    return -(tau / 2.0 - theta)


def fit_slope(ns, values) -> tuple[float, float]:
    """Least-squares slope and its standard error in log-log coordinates."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape or ns.size < _MIN_SLOPE_POINTS:
        raise ConfigError(f"fit_slope: need >= {_MIN_SLOPE_POINTS} matched points, got {ns.size}")
    if np.any(ns <= 0.0) or np.any(values <= 0.0):
        raise ConfigError("fit_slope: log-log fit needs strictly positive data")
    x = np.log(ns)
    y = np.log(values)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    resid = y - y.mean() - slope * xc
    dof = ns.size - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return slope, stderr


@dataclass(frozen=True)
class RateRow:
    """One measured cell of the grid; value is NaN when the replication's
    random-feature model could not support ell components."""

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
    beta: float | None
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
    def verdict(self) -> bool:
        return abs(self.slope - self.predicted) <= self.config.slope_tolerance


def _grid_plan(config: ExperimentConfig, kernel: Kernel, pop: PopOperator) -> dict:
    """Per-n precomputation: ell, m, population projector in T-coordinates, and bias."""
    plan = {}
    vals = pop.spectrum.eigenvalues
    lam = kernel.lambdas
    # The cells score in the kernel's basis, where S_J is diag(lambda); that
    # needs S_J's spectrum to be the schedule padded with zeros.
    spec_err = np.max(np.abs(vals - np.pad(lam, (0, vals.size - lam.size))))
    if spec_err > RANK_RTOL * lam[0]:
        raise ConfigError(
            f"oracle self-check failed: S_J spectrum is off the schedule by {spec_err:.3e}"
        )
    floor = _GUARD_FACTOR * RANK_RTOL * vals[0]
    for n in config.n_grid:
        ell = ell_for(config, n)
        if vals[ell - 1] < floor:
            raise ConfigError(
                f"population eigenvalue {ell} at n={n} sits below the division guard; "
                f"shrink theta or the grid"
            )
        gap_ok = ell >= vals.size or vals[ell - 1] - vals[ell] > GAP_TOL
        if not gap_ok:
            raise ConfigError(f"population spectrum is degenerate at ell={ell} (n={n})")
        p_pop = np.diag((np.arange(lam.size) < ell).astype(float))
        m = m_for(config, n) if config.tau is not None else None
        plan[n] = (ell, m, p_pop, tail_energy(pop.spectrum, ell))
    return plan


def _empirical_guard_ok(eigvals: np.ndarray, ell: int) -> bool:
    if eigvals.shape[0] < ell:
        return False
    return eigvals[ell - 1] >= _GUARD_FACTOR * RANK_RTOL * eigvals[0]


def _run_cell(config: ExperimentConfig, kernel: Kernel, pop: PopOperator, plan: dict,
              n: int, rep: int, full_support: bool) -> tuple[RateRow, float | None]:
    """One (n, rep) measurement.  Returns the row and the swap-inequality margin
    (None when the cell is invalid).

    Every estimated projector lies in the span of the kernel's T basis
    functions, so it is built and scored as a T x T matrix Q in that basis,
    where S_J is Lambda = diag(lambda) and its top-ell projector is diag(1_ell, 0):
    the same numbers as proj_hat / proj_hat_rf / proj_pop(op_aa) scored by
    recon_error and proj_distance, at a cost free of N and m.
    """
    ell, m, p_pop, r_pop = plan[n]
    measure = kernel.table.measure
    psi = kernel.table.values
    lam = kernel.lambdas
    if full_support:
        samples = np.asarray(measure.atoms)
    else:
        samples = draw_samples(measure, n, derive_seed(config.seed, "samples", n, rep))
    metric = config.metric
    try:
        if metric in ("recon_hat", "proj_hat"):
            model = fit_exact(kernel, samples)
            if not _empirical_guard_ok(model.eigvals, ell):
                raise ConfigError(
                    f"empirical eigenvalue {ell} fell below the division guard at "
                    f"n={n}, rep={rep}"
                )
            # f_i = (n lambda_i)^-1/2 sum_j gamma_ij k(., x_j) has basis coordinates
            # Lambda psi (c A_i) / sqrt(n lambda_i), c the atom counts, A the atom coeffs.
            eigvals = model.eigvals[:ell]
            coords = lam[:, None] * (psi @ (model.counts[:, None] * model.atom_coeffs[:, :ell]))
            q = _plug_in(coords / np.sqrt(samples.shape[0] * eigvals), eigvals)
        else:
            fs = sample_finite_rank(
                kernel, m, derive_seed(config.seed, "features", n, rep), mixed=True
            )
            factor = basis_factor(fs)
            if metric in ("recon_rf_pop", "proj_rf_pop"):
                q = spectral_projector(sym_eig(factor @ factor.T), ell)
            else:
                q = _plug_in(*_rf_hat_coords(factor, fs.kappa_m, psi, samples, ell))
    except (RankError, EigengapError):
        # A feature draw too degenerate to carry ell components; the
        # hypotheses of the theory exclude these, so the cell is marked
        # invalid rather than silently redrawn.
        return RateRow(n=n, m=m, ell=ell, rep=rep, metric=metric, value=math.nan), None

    r_emp = float(np.sum((np.diag(lam) - q * lam[None, :]) ** 2))
    dist = matrix_norm(p_pop - q, "operator")
    value = dist if metric.startswith("proj") else r_emp
    margin = pop.hs_norm * dist + _SWAP_SLACK - abs(math.sqrt(r_emp) - math.sqrt(r_pop))
    return RateRow(n=n, m=m, ell=ell, rep=rep, metric=metric, value=value), margin


def _plug_in(coords: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """sum_i c_i c_i' / lambda_i over the columns c_i of ``coords``."""
    q = (coords / eigvals) @ coords.T
    return (q + q.T) / 2.0


def _rf_hat_coords(factor: np.ndarray, kappa_m: float, psi: np.ndarray,
                   samples: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis coordinates and eigenvalues of fit_rf's top ell components.

    With Sigma the sample covariance of psi and G the feature coefficients
    (G G' = L L' for L = basis_factor), fit_rf's m x m covariance G' Sigma G
    shares its nonzero spectrum with the T x T matrix L' Sigma L, and an
    eigenpair (y, mu) of the latter is the component whose centred embedding
    has basis coordinates L y.  fit_rf's retained-rank rule and the
    division guard apply unchanged.
    """
    n = samples.shape[0]
    p_hat = np.bincount(samples, minlength=psi.shape[1]) / n
    centred = (psi - (psi @ p_hat)[:, None]) * np.sqrt(p_hat)[None, :]
    root = factor.T @ centred
    spec = sym_eig(root @ root.T)
    mu = spec.eigenvalues
    r = _retained_rank(mu, kappa_m, n, "fit_rf")
    if not _empirical_guard_ok(mu[:r], ell):
        raise RankError("rf model rank below ell")
    return factor @ spec.eigenvectors[:, :ell], mu[:ell]


def run_grid(config: ExperimentConfig, full_support: bool = False) -> RateReport:
    """Measure the configured metric over the grid and fit its rate.

    Fully deterministic for a given config: every cell derives its own
    random streams from (seed, n, rep), so execution order changes no
    number.  ``full_support`` is a test hook replacing every sample draw
    with the complete atom set, which removes all sampling error and must
    reproduce the pure bias values.

    Alongside the metric, every valid cell checks the projector-swap
    inequality |sqrt(R_emp) - sqrt(R_pop)| <= ||S||_HS * dist with 1e-8
    slack; the report carries the minimum margin and violation count.
    """
    oracle = _oracle(config.atoms, lambda_schedule(config), config.seed)
    return _measure_grid(config, *oracle, full_support)


def _oracle(atoms: int, lambdas: np.ndarray, seed: int) -> tuple[Kernel, PopOperator]:
    """The seeded synthetic kernel on uniform atoms and its S_J operator."""
    measure = uniform_measure(atoms)
    kernel = make_finite_rank_kernel(measure, lambdas, derive_seed(seed, "kernel"))
    return kernel, op_jj(kernel, measure)


def _measure_grid(config: ExperimentConfig, kernel: Kernel, pop: PopOperator,
                  full_support: bool) -> RateReport:
    plan = _grid_plan(config, kernel, pop)
    outcomes = [_run_cell(config, kernel, pop, plan, n, rep, full_support)
                for n in config.n_grid for rep in range(config.replications)]
    rows = tuple(row for row, _ in outcomes)
    margins = [mar for _, mar in outcomes if mar is not None]
    medians = {}
    invalid = {}
    for n in config.n_grid:
        vals = [r.value for r in rows if r.n == n and not math.isnan(r.value)]
        bad = config.replications - len(vals)
        invalid[n] = bad
        if bad * 2 >= config.replications:
            raise ConfigError(
                f"{bad}/{config.replications} replications invalid at n={n} "
                f"(ell={plan[n][0]}); the feature schedule is too aggressive"
            )
        medians[n] = float(np.median(vals))
    slope, stderr = fit_slope(list(config.n_grid), [medians[n] for n in config.n_grid])
    beta = _beta_for(config, None) if (
        config.decay == "poly" and config.metric.startswith("proj")) else None
    predicted = predicted_exponent(config)
    return RateReport(
        config=config,
        beta=beta,
        rows=rows,
        medians=medians,
        invalid=invalid,
        slope=slope,
        slope_stderr=stderr,
        predicted=predicted,
        swap_min_margin=min(margins) if margins else math.nan,
        swap_violations=sum(mar < 0.0 for mar in margins),
        kernel=kernel,
        pop=pop,
    )


@dataclass(frozen=True)
class TransitionRow:
    tau: float
    regime: str
    slope: float
    slope_stderr: float
    expected: float
    matches: bool


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
    -(tau/2 - theta beta/alpha), resp. -(tau/2 - theta).
    """
    if base.metric != "proj_rf_hat":
        raise ConfigError(f"transition_study needs metric proj_rf_hat, got {base.metric}")
    taus = [_real("taus", tau) for tau in taus]
    if not taus:
        raise ConfigError("transition_study needs at least one tau")
    # The oracle depends on seed, atoms and schedule only, so every run shares it.
    oracle = _oracle(base.atoms, lambda_schedule(base), base.seed)
    reference = _measure_grid(replace(base, tau=None, metric="proj_hat"), *oracle, False)
    if base.decay == "poly":
        b = _beta_for(base, None)
        threshold = 0.5 + base.theta * (2.0 * b - base.alpha) / base.alpha
    else:
        threshold = 0.5 + base.theta
    rows = []
    reports = [reference]
    for tau in taus:
        rep = _measure_grid(replace(base, tau=tau), *oracle, False)
        reports.append(rep)
        if tau >= threshold:
            expected = reference.slope
            regime = "sample_limited"
        else:
            if base.decay == "poly":
                expected = -(tau / 2.0 - base.theta * _beta_for(base, None) / base.alpha)
            else:
                expected = -(tau / 2.0 - base.theta)
            regime = "feature_limited"
        rows.append(TransitionRow(
            tau=tau,
            regime=regime,
            slope=rep.slope,
            slope_stderr=rep.slope_stderr,
            expected=expected,
            matches=abs(rep.slope - expected) <= base.slope_tolerance,
        ))
    return TransitionReport(
        reference_slope=reference.slope,
        reference_stderr=reference.slope_stderr,
        threshold=threshold,
        rows=tuple(rows),
        reports=tuple(reports),
    )
