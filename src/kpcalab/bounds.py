"""Finite-dimensional checks of the perturbation and concentration bounds.

Each checker computes the left and right sides of one proved inequality
on concrete matrices or vectors, so violations (beyond a fixed
floating-point slack) are hard evidence against an implementation or a
stated constant, never a matter of tuning.  Random cases (each its own
stream) and trials (one stream per dimension) are checked one stack per
dimension; the one-case API (PerturbationCase, perturb_check) runs a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import ConfigError, InvalidInput, NumericFailure, _count, _real
from .features import basis_factor, sample_finite_rank
from .kernels import Kernel, _decay_schedule, make_finite_rank_kernel
from .kpca import _count_gram
from .linalg import (
    RANK_RTOL,
    Spectrum,
    _frobenius,
    eigengaps,
    fix_signs,
    fractional_power,
    matrix_norm,
    spectral_projector,
    sym_eig,
)
from .measures import draw_samples, uniform_measure
from .rng import derive_seed, generator

__all__ = [
    "PerturbationCase",
    "BoundReport",
    "PerturbReport",
    "perturb_check",
    "make_perturbation_cases",
    "perturbation_suite",
    "PerturbationSuiteReport",
    "operator_inequality_suite",
    "OperatorInequalitySuiteReport",
    "bernstein_bound",
    "BernsteinBound",
    "McTailConfig",
    "McTailReport",
    "MC_EXPERIMENTS",
    "mc_tail",
]

# lhs <= rhs + SLACK * (1 + rhs) is the uniform pass rule for proved bounds.
_BOUND_SLACK = 1e-9
# A generated a + b is redrawn until its least eigenvalue is at least
# -_CASE_PSD_RTOL times a's largest, well inside PerturbationCase's PSD floor.
_CASE_PSD_RTOL = 1e-12
# Relative slack on a case's ||b||_HS <= delta_d / 2, for the rounding of both sides.
_CASE_GAP_RTOL = 1e-12
# Absolute slack of the tensor difference lemma.
_TENSOR_ATOL = 1e-12
# Relative slack (times 1 + ||f||^2) of the rank-one norm identity.
_RANK_ONE_RTOL = 1e-10
# The experiments mc_tail runs.
MC_EXPERIMENTS = ("cov_deviation", "feature_op_deviation")


def _within_bound(lhs, rhs):
    """The uniform pass rule for proved bounds, elementwise on arrays."""
    return lhs <= rhs + _BOUND_SLACK * (1.0 + rhs)


def _by_dimension(sizes: list[int]) -> dict[int, list[int]]:
    """Positions of each dimension in ``sizes``, so draws can be stacked per dimension."""
    groups: dict[int, list[int]] = {}
    for i, dim in enumerate(sizes):
        groups.setdefault(dim, []).append(i)
    return groups


def _check_cases(b: np.ndarray, d: np.ndarray, spec_a: Spectrum, spec_ab: Spectrum) -> None:
    """Raise InvalidInput unless every member of a case stack meets PerturbationCase's checks."""
    vals, sum_vals, rows = spec_a.eigenvalues, spec_ab.eigenvalues, np.arange(len(d))
    dim = vals.shape[-1]
    outside = d[(d < 1) | (d >= dim)]
    if outside.size:
        raise InvalidInput(f"PerturbationCase: d={outside[0]} outside 1..{dim - 1}")
    if np.any(vals[rows, d - 1] <= 0.0):
        raise InvalidInput("PerturbationCase: lambda_d must be positive")
    if np.any(vals.min(axis=-1) < -RANK_RTOL * np.maximum(vals.max(axis=-1), 1.0)):
        raise InvalidInput("PerturbationCase: a is not PSD")
    delta, b_hs = eigengaps(spec_a)[rows, d - 1], _frobenius(b)
    for k in np.flatnonzero(b_hs > delta / 2.0 * (1.0 + _CASE_GAP_RTOL))[:1]:
        raise InvalidInput(
            f"PerturbationCase: ||b||_HS = {b_hs[k]:.6e} exceeds delta_d/2 = {delta[k] / 2:.6e}"
        )
    if np.any(sum_vals.min(axis=-1) < -RANK_RTOL * np.maximum(sum_vals.max(axis=-1), 1.0)):
        raise InvalidInput("PerturbationCase: a + b is not PSD within tolerance")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check, or of one per member of a stack (array sides)."""

    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return _within_bound(self.lhs, self.rhs)

    @property
    def margin(self) -> float:
        """Slack left in the bound; negative means violated."""
        return self.rhs + _BOUND_SLACK * (1.0 + self.rhs) - self.lhs


@dataclass(frozen=True)
class PerturbationCase:
    """A PSD matrix, an additive perturbation, and a cut index.

    Hypotheses checked at construction: lambda_d(a) > 0, the perturbation
    is within half the half-gap at d (||b||_HS <= delta_d / 2), and a + b
    stays PSD within tolerance.  The decompositions of a and a + b made
    for those checks are kept as ``spec_a`` and ``spec_ab``.
    """

    a: np.ndarray
    b: np.ndarray
    d: int
    spec_a: Spectrum = field(init=False, repr=False, compare=False)
    spec_ab: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a, b = np.asarray(self.a, dtype=float), np.asarray(self.b, dtype=float)
        if a.shape != b.shape:
            raise InvalidInput(f"PerturbationCase: shapes {a.shape} != {b.shape}")
        d = _count("PerturbationCase: d", self.d)
        spec_a, spec_ab = sym_eig(a[None]), sym_eig((a + b)[None])  # a stack of one
        _check_cases(b[None], np.array([d]), spec_a, spec_ab)
        vars(self).update(a=a, b=b, d=d, spec_a=spec_a[0], spec_ab=spec_ab[0])  # frozen: no setattr

    @property
    def delta_d(self) -> float:
        return float(eigengaps(self.spec_a)[self.d - 1])

    @property
    def b_hs(self) -> float:
        return float(np.linalg.norm(self.b))


@dataclass(frozen=True)
class PerturbReport:
    """Both projector perturbation bounds on one case, or on each member of a stack."""

    plain: BoundReport
    weighted: BoundReport
    trivial_rhs: float

    @property
    def sharper_than_trivial(self) -> bool:
        """Whether the weighted bound beats the operator-norm fallback."""
        return self.weighted.rhs < self.trivial_rhs


def _score_cases(a: np.ndarray, b: np.ndarray, d: np.ndarray, spec_a: Spectrum,
                 spec_ab: Spectrum) -> tuple[np.ndarray, np.ndarray, PerturbReport]:
    """The two projector perturbation bounds on each member of a ``_case_stacks`` stack.

    plain:    ||P_d(a) - P_d(a+b)||_HS <= ||b||_HS / delta_d
    weighted: ||a^1/2 (P_d(a) - P_d(a+b)) a^1/2||_HS
                  <= ||b||_HS * d * lambda_d / delta_d
    with the operator-norm fallback ||a||_op ||b||_HS / delta_d reported
    alongside for comparison.  Returns delta_d, ||b||_HS and a report with
    arrays over the members, member k bit-for-bit what its case scores alone.
    """
    vals, rows = spec_a.eigenvalues, np.arange(len(d))
    delta, b_hs = eigengaps(spec_a)[rows, d - 1], _frobenius(b)
    diff = np.empty_like(a)
    for ell in np.unique(d).tolist():  # one projector stack per cut index
        group = np.flatnonzero(d == ell)
        diff[group] = (spectral_projector(spec_a[group], ell)
                       - spectral_projector(spec_ab[group], ell))
    root_a = fractional_power(spec_a, 0.5)
    return delta, b_hs, PerturbReport(
        plain=BoundReport("projector_perturbation", _frobenius(diff), b_hs / delta),
        weighted=BoundReport("weighted_projector_perturbation",
                             _frobenius(root_a @ diff @ root_a),
                             b_hs * d * vals[rows, d - 1] / delta),
        trivial_rhs=np.abs(vals).max(axis=-1) * b_hs / delta,
    )


def perturb_check(case: PerturbationCase) -> PerturbReport:
    """``_score_cases`` on one case, as a stack of one."""
    rep = _score_cases(case.a[None], case.b[None], np.array([case.d]),
                       case.spec_a[None], case.spec_ab[None])[2]
    plain, weighted = (BoundReport(r.name, float(r.lhs[0]), float(r.rhs[0]))
                       for r in (rep.plain, rep.weighted))
    return PerturbReport(plain, weighted, float(rep.trivial_rhs[0]))


def _case_stacks(count: int, seed: int) -> Iterator[tuple]:
    """The cases of ``make_perturbation_cases``, checked one stack per dimension.

    Yields ``(members, a, b, d, spec_a, spec_ab)`` per dimension: the case
    numbers, a, b, cut indices and spectra of a and a + b of its stack.
    spec_a is the (vals, q) a is built from, so only a + b is decomposed.
    """
    # Each case draws from its own stream, in order: dim in 4..20, the spectrum (shape
    # coin, then gaps or ratio and scale), the raw rotation, d, then (rho, g) per attempt.
    # Only dim is drawn up front; the other draws exist only while their stack is built.
    rngs = [generator(seed, "perturb-case", i) for i in range(count)]
    for dim, members in _by_dimension([int(rng.integers(4, 21)) for rng in rngs]).items():
        group_rngs, size = [rngs[i] for i in members], len(members)
        vals, q_raw, d = np.empty((size, dim)), np.empty((size, dim, dim)), np.empty(size, int)
        gapped, (ratio, scale) = np.empty(size, bool), np.empty((2, size))
        for k, rng in enumerate(group_rngs):  # the raw draws; the spectra come after
            gapped[k] = rng.random() < 0.5
            if gapped[k]:
                vals[k] = rng.uniform(0.05, 1.0, size=dim)  # the gap steps
            else:
                ratio[k], scale[k] = rng.uniform(0.35, 0.7), rng.uniform(1.0, 4.0)
            q_raw[k] = rng.standard_normal((dim, dim))
            d[k] = rng.integers(1, dim // 2 + 1)
        vals[gapped] = 0.3 + np.cumsum(vals[gapped], axis=1)[:, ::-1]
        vals[~gapped] = scale[~gapped, None] * (ratio[~gapped, None] ** np.arange(dim) + 0.05)
        q, r = np.linalg.qr(q_raw)
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        a = (q * vals[:, None, :]) @ q.swapaxes(1, 2)
        a = (a + a.swapaxes(1, 2)) / 2.0
        spec_a = Spectrum(vals, fix_signs(q))
        deltas = eigengaps(spec_a)[np.arange(size), d - 1]
        b, ab_vals = np.empty_like(a), np.empty((size, dim))
        ab_vecs = np.empty_like(a).swapaxes(1, 2)  # a + b's eigenvectors in sym_eig's layout
        # Each case redraws (rho, g) from its own generator until its a + b is PSD.
        pending = np.arange(size)
        for _ in range(100):
            rho, g = np.empty(len(pending)), np.empty((len(pending), dim, dim))
            for j, k in enumerate(pending):
                rho[j] = 1.0 - group_rngs[k].uniform(0.0, 1.0)  # uniform on (0, 1]
                g[j] = group_rngs[k].standard_normal((dim, dim))
            g = (g + g.swapaxes(1, 2)) / 2.0
            b[pending] = g * (rho * deltas[pending] / 2.0 / _frobenius(g))[:, None, None]
            spec = sym_eig(a[pending] + b[pending])
            ab_vals[pending], ab_vecs[pending] = spec.eigenvalues, spec.eigenvectors
            low = spec.eigenvalues.min(axis=-1)
            pending = pending[~(low >= -_CASE_PSD_RTOL * vals[pending].max(axis=-1))]
            if not pending.size:
                break
        else:
            raise NumericFailure("perturbation cases: could not keep a + b PSD")
        spec_ab = Spectrum(ab_vals, ab_vecs)
        _check_cases(b, d, spec_a, spec_ab)
        yield members, a, b, d, spec_a, spec_ab


def make_perturbation_cases(count: int, seed: int) -> list[PerturbationCase]:
    """Seeded random cases in dimensions 4..20 with well-gapped spectra and admissible b.

    Half the spectra are built from additive gaps drawn in [0.05, 1] on a
    0.3 base, half decay geometrically above a floor (the regime where the
    weighted bound beats the operator-norm fallback, since d * lambda_d
    can drop below lambda_1 only under fast decay).  The cut index d runs
    over 1..dim/2 and ||b||_HS is a uniform fraction of delta_d / 2; b is
    resampled until a + b is PSD.  Cases are checked one stack per
    dimension, and each spec_a is the (vals, q) its a is built from.
    """
    count = _count("count", count, least=1)
    cases: list[PerturbationCase] = [None] * count
    for members, a, b, d, spec_a, spec_ab in _case_stacks(count, seed):
        for k, i in enumerate(members):  # already checked as a stack: skip __post_init__
            case = cases[i] = object.__new__(PerturbationCase)
            vars(case).update(a=a[k], b=b[k], d=int(d[k]), spec_a=spec_a[k], spec_ab=spec_ab[k])
    return cases


@dataclass(frozen=True)
class PerturbationSuiteReport:
    """A suite's tallies and ``rows``, one tuple per case in case order:
    (case, dim, d, delta_d, ||b||_HS, plain lhs, rhs, holds, weighted lhs, rhs,
    holds, operator-norm fallback rhs, sharper than the fallback)."""

    cases: int
    violations_plain: int
    violations_weighted: int
    min_margin_plain: float
    min_margin_weighted: float
    sharper_fraction: float
    rows: tuple = field(repr=False)


def perturbation_suite(count: int, seed: int) -> PerturbationSuiteReport:
    """Score seeded random cases one dimension stack at a time and tally the outcomes."""
    count = _count("count", count, least=1)
    rows, plain, weighted, sharper = [None] * count, [], [], []
    for members, a, b, d, spec_a, spec_ab in _case_stacks(count, seed):
        delta, b_hs, rep = _score_cases(a, b, d, spec_a, spec_ab)
        plain.append(rep.plain)
        weighted.append(rep.weighted)
        sharper.append(rep.sharper_than_trivial)
        columns = (d, delta, b_hs, rep.plain.lhs, rep.plain.rhs, rep.plain.holds,
                   rep.weighted.lhs, rep.weighted.rhs, rep.weighted.holds,
                   rep.trivial_rhs, rep.sharper_than_trivial)
        for i, row in zip(members, zip(*(column.tolist() for column in columns))):
            rows[i] = (i, a.shape[-1], *row)
    sharper = np.concatenate(sharper)
    return PerturbationSuiteReport(
        cases=count,
        violations_plain=sum(int(np.sum(~r.holds)) for r in plain),
        violations_weighted=sum(int(np.sum(~r.holds)) for r in weighted),
        min_margin_plain=min(float(r.margin.min()) for r in plain),
        min_margin_weighted=min(float(r.margin.min()) for r in weighted),
        sharper_fraction=int(np.sum(sharper)) / count,
        rows=tuple(rows),
    )


def _tensor_lemma(f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the tensor difference lemma and whether it is violated:

    ||f f' - g g'||_HS <= ||f - g|| sqrt(||f||^2 + ||g||^2 + 4 ||f|| ||g||),
    with equality at g = 0.  f and g are vectors on the last axis, or stacks of them.
    """
    lhs = np.linalg.norm(f[..., :, None] * f[..., None, :] - g[..., :, None] * g[..., None, :],
                         axis=(-2, -1))
    nf = np.linalg.norm(f, axis=-1)
    ng = np.linalg.norm(g, axis=-1)
    rhs = np.linalg.norm(f - g, axis=-1) * np.sqrt(nf**2 + ng**2 + 4.0 * nf * ng)
    return lhs, rhs, lhs > rhs + _TENSOR_ATOL


def _rank_one_norms(f: np.ndarray) -> tuple[dict, np.ndarray, dict]:
    """The operator, HS and trace norms of f f', the target ||f||^2 they all
    equal, and which of them stray from it beyond 1e-10 relative.

    f is a vector on the last axis, or a stack of them.
    """
    target = (f[..., None, :] @ f[..., :, None])[..., 0, 0]
    mat = f[..., :, None] * f[..., None, :]
    kinds = ("operator", "hilbert_schmidt", "trace")
    norms = dict(zip(kinds, matrix_norm(mat, kinds)))
    tol = _RANK_ONE_RTOL * (1.0 + target)
    return norms, target, {kind: np.abs(val - target) > tol for kind, val in norms.items()}


@dataclass(frozen=True)
class OperatorInequalitySuiteReport:
    trials: int
    violations: int
    checks: int


def operator_inequality_suite(trials: int, seed: int) -> OperatorInequalitySuiteReport:
    """Spot-check the operator inequalities behind the main proofs.

    Per trial, on seeded random PSD matrices A, B (dim 2..12):
      * eigenvalue stability: the l2 vector of eigenvalue differences is
        within ||A - B||_HS;
      * ||A^t - B^t||_op <= ||A - B||_op^t for t in {0.25, 0.5, 0.75};
      * ||A^t - B^t||_HS <= t max(||A||_op, ||B||_op)^(t-1) ||A - B||_HS
        for t in {1.5, 2};
    plus the rank-one norm identity and the tensor difference lemma on
    random vectors (with the g = 0 equality case).  The dimensions come
    from one stream, and a dimension's k trials are one (k, 2 dim^2 + 2 dim)
    normal draw keyed by (seed, dim), row r its r-th trial's A, B, f and g, so
    a trial is the same in any longer suite.  A and B form one stack of 2k.
    """

    trials = _count("trials", trials, least=1)
    dims = generator(seed, "op-ineq-dims").integers(2, 13, size=trials).tolist()
    violations = 0
    for dim, members in _by_dimension(dims).items():
        sq, k = dim * dim, len(members)
        draws = generator(seed, "op-ineq-trials", dim).standard_normal((k, 2 * sq + 2 * dim))
        root = np.concatenate([draws[:, :sq], draws[:, sq:2 * sq]]).reshape(2 * k, dim, dim)
        ab = root @ root.swapaxes(-1, -2) / dim  # PSD A's, then B's
        ab = (ab + ab.swapaxes(-1, -2)) / 2.0
        f, g = draws[:, 2 * sq:2 * sq + dim], draws[:, 2 * sq + dim:]
        spec, ts = sym_eig(ab), (0.25, 0.5, 0.75, 1.5, 2.0)
        dist_hs, dist_op = matrix_norm(ab[:k] - ab[k:], ("hilbert_schmidt", "operator"))
        va, vb = spec.eigenvalues[:k], spec.eigenvalues[k:]
        cap = np.maximum(np.abs(va).max(axis=-1), np.abs(vb).max(axis=-1))
        gaps = [power[:k] - power[k:] for power in (fractional_power(spec, t) for t in ts)]
        sides = [(np.linalg.norm(va - vb, axis=-1), dist_hs),  # then A^t - B^t, t < 1 first
                 *zip(matrix_norm(np.stack(gaps[:3]), "operator"), [dist_op**t for t in ts[:3]]),
                 *[(matrix_norm(gap, "hilbert_schmidt"), t * cap ** (t - 1.0) * dist_hs)
                   for t, gap in zip(ts[3:], gaps[3:])]]
        violations += sum(int(np.sum(~_within_bound(lhs, rhs))) for lhs, rhs in sides)
        for other in (g, np.zeros_like(g)):
            violations += int(np.sum(_tensor_lemma(f, other)[2]))
        violations += int(np.sum(np.any(list(_rank_one_norms(f)[2].values()), axis=0)))
    return OperatorInequalitySuiteReport(trials=trials, violations=violations, checks=9 * trials)


@dataclass(frozen=True)
class BernsteinBound:
    """A concentration radius and the probability mass it may be exceeded."""

    bound: float
    tail_probability: float


def bernstein_bound(kind: str, scale: float, tau: float, count: int) -> BernsteinBound:
    """High-probability deviation radii used by the theory.

    kind "cov_centered_mean": V-statistic covariance of bounded vectors
        with mean removal, radius 7 scale sqrt(2 tau / count), tail
        4 exp(-tau).  ``scale`` is the uniform bound on the squared
        vector norm, ``count`` the sample size.
    kind "feature_op": feature-operator deviation, radius
        8 scale sqrt(2 tau / count) with ``scale`` the kernel sup and
        ``count`` the feature count, tail 2 exp(-tau).
    Both need count >= 8 tau; scale and tau must be finite numbers and
    count an integer, or the radius would be NaN and every check against it pass.
    A negative scale, a radius every deviation exceeds, is refused too.
    """
    scale, tau = _real("bernstein_bound: scale", scale), _real("bernstein_bound: tau", tau)
    count = _count("bernstein_bound: count", count)
    if scale < 0:
        raise ConfigError(f"bernstein_bound: scale must be >= 0, got {scale}")
    if tau <= 0:
        raise InvalidInput(f"bernstein_bound: tau must be positive, got {tau}")
    if count < 8.0 * tau:
        raise InvalidInput(
            f"bernstein_bound: needs count >= 8 tau ({count} < {8.0 * tau:g})"
        )
    root = math.sqrt(2.0 * tau / count)
    if kind == "cov_centered_mean":
        return BernsteinBound(bound=7.0 * scale * root, tail_probability=4.0 * math.exp(-tau))
    if kind == "feature_op":
        return BernsteinBound(bound=8.0 * scale * root, tail_probability=2.0 * math.exp(-tau))
    raise InvalidInput(f"bernstein_bound: unknown kind {kind!r}")


@dataclass(frozen=True)
class McTailConfig:
    """Monte Carlo setup for empirical tail checks.

    tau: concentration level, a finite real; the claimed exceedance cap
        is the bound's tail probability at this tau.
    count: sample size s (cov experiment) or feature count m, >= 8 tau.
    replications: independent repetitions; at least 50 so an empirical
        frequency is meaningful.
    seed: master seed.
    atoms, rank: size of the synthetic ground-truth oracle; its spectrum
        is the polynomial decay i^-2.
    Counts (count, replications, seed, atoms, rank) take integral numbers,
    an integral float included, never a bool.  The oracle's kernel is built
    on first read of ``kernel`` and shared by every experiment run on this
    config.
    """

    tau: float
    count: int
    replications: int
    seed: int
    atoms: int = 128
    rank: int = 20

    def __post_init__(self) -> None:
        # Counts and tau are normalized before any check compares them, as in
        # ExperimentConfig, so a bad value is a ConfigError, never a TypeError.
        for key in ("count", "replications", "seed", "atoms", "rank"):
            object.__setattr__(self, key, _count(key, getattr(self, key)))
        object.__setattr__(self, "tau", _real("tau", self.tau))
        if self.replications < 50:
            raise InvalidInput(
                f"McTailConfig: need >= 50 replications, got {self.replications}"
            )
        if self.tau <= 0 or self.count < 8.0 * self.tau:
            raise InvalidInput(f"McTailConfig: need tau > 0 and count >= 8 tau, "
                               f"got tau {self.tau} and count {self.count}")
        if self.rank < 1 or self.atoms < self.rank + 1:
            raise InvalidInput(
                f"McTailConfig: need rank >= 1 and atoms >= rank + 1, "
                f"got rank {self.rank} and atoms {self.atoms}"
            )

    @cached_property
    def kernel(self) -> Kernel:
        lambdas = _decay_schedule("poly", self.rank, 2.0, None)
        return make_finite_rank_kernel(uniform_measure(self.atoms), lambdas,
                                       derive_seed(self.seed, "mc-kernel"))


@dataclass(frozen=True)
class McTailReport:
    experiment: str
    bound: float
    cap: float
    replications: int
    exceed_count: int
    max_deviation: float
    median_deviation: float

    @property
    def exceed_fraction(self) -> float:
        return self.exceed_count / self.replications

    @property
    def holds(self) -> bool:
        return self.exceed_fraction <= self.cap


def mc_tail(experiment: str, config: McTailConfig) -> McTailReport:
    """Empirical exceedance frequency of a concentration bound.

    experiment "cov_deviation": deviation of the V-statistic covariance
    of exact feature vectors (the count fit's ``_count_gram``) from its exactly
    known population value, against the centered-mean radius.  experiment
    "feature_op_deviation": deviation of the feature-side population operator
    L L' from the covariance-side one over fresh feature draws, against the
    feature-operator radius.  Each replication draws its own stream; all are
    scored by one Hilbert-Schmidt norm in basis coordinates (S_J = diag(lambda)).
    """
    if experiment not in MC_EXPERIMENTS:
        raise InvalidInput(f"mc_tail: unknown experiment {experiment!r}")
    kernel = config.kernel
    measure = kernel.table.measure
    reps = range(config.replications)
    if experiment == "cov_deviation":
        radius = bernstein_bound("cov_centered_mean", kernel.kappa, config.tau, config.count)
        ops = np.stack([_count_gram(kernel.root, np.bincount(
            draw_samples(measure, config.count, derive_seed(config.seed, "mc-cov", rep)),
            minlength=measure.size)) for rep in reps])
        ops /= config.count
    else:
        radius = bernstein_bound("feature_op", kernel.kappa, config.tau, config.count)
        factors = np.stack([basis_factor(sample_finite_rank(
            kernel, config.count, derive_seed(config.seed, "mc-feat", rep))) for rep in reps])
        ops = factors @ factors.swapaxes(-1, -2)
    ops -= np.diag(kernel.lambdas)  # in place, as the division: no second stack at the peak
    deviations = _frobenius(ops)
    exceed = int(np.sum(deviations > radius.bound))
    return McTailReport(
        experiment=experiment,
        bound=radius.bound,
        cap=radius.tail_probability,
        replications=config.replications,
        exceed_count=exceed,
        max_deviation=float(deviations.max()),
        median_deviation=float(np.median(deviations)),
    )
