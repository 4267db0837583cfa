"""Finite-dimensional checks of the perturbation and concentration bounds.

Each checker computes the left and right sides of one proved inequality
on concrete matrices or vectors, so violations (beyond a fixed
floating-point slack) are hard evidence against an implementation or a
stated constant, never a matter of tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailed, InvalidInput, NumericFailure
from .features import sample_finite_rank
from .kernels import make_finite_rank_kernel
from .linalg import (
    RANK_RTOL,
    Spectrum,
    eigengaps,
    fractional_power,
    matrix_norm,
    spectral_projector,
    sym_eig,
)
from .measures import draw_samples, uniform_measure
from .oracle import op_aa, op_jj
from .rng import derive_seed, generator

__all__ = [
    "PerturbationCase",
    "BoundReport",
    "PerturbReport",
    "perturb_check",
    "make_perturbation_cases",
    "perturbation_suite",
    "tensor_lemma_check",
    "rank_one_norms_check",
    "operator_inequality_suite",
    "bernstein_bound",
    "BernsteinBound",
    "McTailConfig",
    "McTailReport",
    "mc_tail",
]

# lhs <= rhs + SLACK * (1 + rhs) is the uniform pass rule for proved bounds.
_BOUND_SLACK = 1e-9
# A generated a + b is redrawn until its least eigenvalue is at least
# -_CASE_PSD_RTOL times a's largest, well inside PerturbationCase's PSD floor.
_CASE_PSD_RTOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check."""

    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + _BOUND_SLACK * (1.0 + self.rhs)

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
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != b.shape:
            raise InvalidInput(f"PerturbationCase: shapes {a.shape} != {b.shape}")
        object.__setattr__(self, "spec_a", sym_eig(a))
        vals = self.spec_a.eigenvalues
        if self.d < 1 or self.d >= vals.size:
            raise InvalidInput(f"PerturbationCase: d={self.d} outside 1..{vals.size - 1}")
        if vals[self.d - 1] <= 0.0:
            raise InvalidInput("PerturbationCase: lambda_d must be positive")
        if vals.min() < -RANK_RTOL * max(vals.max(), 1.0):
            raise InvalidInput("PerturbationCase: a is not PSD")
        delta, b_hs = self.delta_d, self.b_hs
        if b_hs > delta / 2.0 * (1.0 + 1e-12):
            raise InvalidInput(
                f"PerturbationCase: ||b||_HS = {b_hs:.6e} exceeds delta_d/2 = {delta / 2:.6e}"
            )
        object.__setattr__(self, "spec_ab", sym_eig(a + b))
        sum_vals = self.spec_ab.eigenvalues
        if sum_vals.min() < -RANK_RTOL * max(sum_vals.max(), 1.0):
            raise InvalidInput("PerturbationCase: a + b is not PSD within tolerance")

    @property
    def delta_d(self) -> float:
        return float(eigengaps(self.spec_a)[self.d - 1])

    @property
    def b_hs(self) -> float:
        return float(np.linalg.norm(self.b))


@dataclass(frozen=True)
class PerturbReport:
    """Both projector perturbation bounds on one case."""

    plain: BoundReport
    weighted: BoundReport
    trivial_rhs: float

    @property
    def sharper_than_trivial(self) -> bool:
        """Whether the weighted bound beats the operator-norm fallback."""
        return self.weighted.rhs < self.trivial_rhs


def perturb_check(case: PerturbationCase) -> PerturbReport:
    """Evaluate the two projector perturbation bounds on a case.

    plain:    ||P_d(a) - P_d(a+b)||_HS <= ||b||_HS / delta_d
    weighted: ||a^1/2 (P_d(a) - P_d(a+b)) a^1/2||_HS
                  <= ||b||_HS * d * lambda_d / delta_d
    with the operator-norm fallback ||a||_op ||b||_HS / delta_d reported
    alongside for comparison.
    """
    spec_a = case.spec_a
    diff = spectral_projector(spec_a, case.d) - spectral_projector(case.spec_ab, case.d)
    delta = case.delta_d
    b_hs = case.b_hs
    lam_d = float(spec_a.eigenvalues[case.d - 1])
    root_a = fractional_power(spec_a, 0.5)
    plain = BoundReport(
        name="projector_perturbation",
        lhs=float(np.linalg.norm(diff)),
        rhs=b_hs / delta,
    )
    weighted = BoundReport(
        name="weighted_projector_perturbation",
        lhs=float(np.linalg.norm(root_a @ diff @ root_a)),
        rhs=b_hs * case.d * lam_d / delta,
    )
    trivial = float(np.max(np.abs(spec_a.eigenvalues))) * b_hs / delta
    return PerturbReport(plain=plain, weighted=weighted, trivial_rhs=trivial)


def make_perturbation_cases(count: int, seed: int,
                            dims: tuple[int, int] = (4, 20)) -> list[PerturbationCase]:
    """Seeded random cases with well-gapped spectra and admissible b.

    Half the spectra are built from additive gaps drawn in [0.05, 1] on a
    0.3 base, half decay geometrically above a floor (the regime where the
    weighted bound beats the operator-norm fallback, since d * lambda_d
    can drop below lambda_1 only under fast decay).  The cut index d runs
    over 1..dim/2 and ||b||_HS is a uniform fraction of delta_d / 2; b is
    resampled until a + b is PSD.
    """
    cases = []
    for i in range(count):
        rng = generator(seed, "perturb-case", i)
        dim = int(rng.integers(dims[0], dims[1] + 1))
        if rng.uniform() < 0.5:
            gaps = rng.uniform(0.05, 1.0, size=dim)
            vals = 0.3 + np.cumsum(gaps)[::-1]
        else:
            ratio = rng.uniform(0.35, 0.7)
            scale = rng.uniform(1.0, 4.0)
            vals = scale * (ratio ** np.arange(dim) + 0.05)
        q_raw = rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(q_raw)
        q = q * np.sign(np.diag(r))
        a = (q * vals) @ q.T
        a = (a + a.T) / 2.0
        d = int(rng.integers(1, max(dim // 2, 1) + 1))
        delta = (vals[d - 1] - vals[d]) / 2.0
        for attempt in range(100):
            rho = 1.0 - rng.uniform(0.0, 1.0)  # uniform on (0, 1]
            g = rng.standard_normal((dim, dim))
            b = (g + g.T) / 2.0
            b *= rho * delta / 2.0 / np.linalg.norm(b)
            if np.linalg.eigvalsh(a + b).min() >= -_CASE_PSD_RTOL * vals.max():
                break
        else:
            raise NumericFailure("make_perturbation_cases: could not keep a + b PSD")
        cases.append(PerturbationCase(a=a, b=b, d=d))
    return cases


@dataclass(frozen=True)
class PerturbationSuiteReport:
    cases: int
    violations_plain: int
    violations_weighted: int
    min_margin_plain: float
    min_margin_weighted: float
    sharper_fraction: float


def perturbation_suite(count: int, seed: int) -> PerturbationSuiteReport:
    """Run perturb_check over seeded random cases and tally the outcomes."""
    reports = [perturb_check(c) for c in make_perturbation_cases(count, seed)]
    return PerturbationSuiteReport(
        cases=count,
        violations_plain=sum(not r.plain.holds for r in reports),
        violations_weighted=sum(not r.weighted.holds for r in reports),
        min_margin_plain=min(r.plain.margin for r in reports),
        min_margin_weighted=min(r.weighted.margin for r in reports),
        sharper_fraction=sum(r.sharper_than_trivial for r in reports) / count,
    )


def tensor_lemma_check(f: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Difference of rank-one tensors against its vector bound.

    ||f f' - g g'||_HS <= ||f - g|| sqrt(||f||^2 + ||g||^2 + 4 ||f|| ||g||),
    with equality at g = 0.  Raises CheckFailed on violation.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    lhs = float(np.linalg.norm(np.outer(f, f) - np.outer(g, g)))
    nf = float(np.linalg.norm(f))
    ng = float(np.linalg.norm(g))
    rhs = float(np.linalg.norm(f - g)) * math.sqrt(nf**2 + ng**2 + 4.0 * nf * ng)
    if lhs > rhs + 1e-12:
        raise CheckFailed(f"tensor lemma violated: {lhs!r} > {rhs!r} + 1e-12")
    return lhs, rhs


def rank_one_norms_check(f: np.ndarray) -> dict:
    """Operator, HS, and trace norms of f f' all equal ||f||^2.

    Raises CheckFailed if any of the three strays beyond 1e-10 relative.
    """
    f = np.asarray(f, dtype=float)
    target = float(f @ f)
    mat = np.outer(f, f)
    out = {kind: matrix_norm(mat, kind) for kind in ("operator", "hilbert_schmidt", "trace")}
    tol = 1e-10 * (1.0 + target)
    for kind, val in out.items():
        if abs(val - target) > tol:
            raise CheckFailed(f"rank-one {kind} norm {val!r} != {target!r} beyond 1e-10")
    out["target"] = target
    return out


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
    random vectors (with the g = 0 equality case).
    """
    violations = 0
    checks = 0

    def _psd(rng: np.random.Generator, dim: int) -> np.ndarray:
        g = rng.standard_normal((dim, dim))
        m = g @ g.T / dim
        return (m + m.T) / 2.0

    for i in range(trials):
        rng = generator(seed, "op-ineq", i)
        dim = int(rng.integers(2, 13))
        a = _psd(rng, dim)
        b = _psd(rng, dim)
        spec_a, spec_b = sym_eig(a), sym_eig(b)
        dist_hs = matrix_norm(a - b, "hilbert_schmidt")
        dist_op = matrix_norm(a - b, "operator")
        va, vb = spec_a.eigenvalues, spec_b.eigenvalues
        cap = float(max(np.max(np.abs(va)), np.max(np.abs(vb))))
        reports = [BoundReport("eigenvalue_stability", float(np.linalg.norm(va - vb)), dist_hs)]
        for t in (0.25, 0.5, 0.75, 1.5, 2.0):
            gap = fractional_power(spec_a, t) - fractional_power(spec_b, t)
            if t < 1.0:
                reports.append(BoundReport("power", matrix_norm(gap, "operator"), dist_op**t))
            else:
                rhs = t * cap ** (t - 1.0) * dist_hs
                reports.append(BoundReport("power", matrix_norm(gap, "hilbert_schmidt"), rhs))
        checks += len(reports)
        violations += sum(not r.holds for r in reports)
        f = rng.standard_normal(dim)
        g = rng.standard_normal(dim)
        for other in (g, np.zeros(dim)):
            checks += 1
            try:
                tensor_lemma_check(f, other)
            except CheckFailed:
                violations += 1
        checks += 1
        try:
            rank_one_norms_check(f)
        except CheckFailed:
            violations += 1
    return OperatorInequalitySuiteReport(trials=trials, violations=violations, checks=checks)


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
    kind "cov_zero_mean": same without mean removal, radius
        2 scale sqrt(2 tau / count), tail 2 exp(-tau).
    kind "feature_op": feature-operator deviation, radius
        8 scale sqrt(2 tau / count) with ``scale`` the kernel sup and
        ``count`` the feature count, tail 2 exp(-tau).
    All three need count >= 8 tau.
    """
    if tau <= 0:
        raise InvalidInput(f"bernstein_bound: tau must be positive, got {tau}")
    if count < 8.0 * tau:
        raise InvalidInput(
            f"bernstein_bound: needs count >= 8 tau ({count} < {8.0 * tau:g})"
        )
    root = math.sqrt(2.0 * tau / count)
    if kind == "cov_centered_mean":
        return BernsteinBound(bound=7.0 * scale * root, tail_probability=4.0 * math.exp(-tau))
    if kind == "cov_zero_mean":
        return BernsteinBound(bound=2.0 * scale * root, tail_probability=2.0 * math.exp(-tau))
    if kind == "feature_op":
        return BernsteinBound(bound=8.0 * scale * root, tail_probability=2.0 * math.exp(-tau))
    raise InvalidInput(f"bernstein_bound: unknown kind {kind!r}")


@dataclass(frozen=True)
class McTailConfig:
    """Monte Carlo setup for empirical tail checks.

    tau: concentration level; the claimed exceedance cap is the bound's
        tail probability at this tau.
    count: sample size s (cov experiment) or feature count m.
    replications: independent repetitions; at least 50 so an empirical
        frequency is meaningful.
    seed: master seed.
    atoms, rank: size of the synthetic ground-truth oracle; its spectrum
        is the polynomial decay i^-2.
    """

    tau: float
    count: int
    replications: int
    seed: int
    atoms: int = 128
    rank: int = 20

    def __post_init__(self) -> None:
        if self.replications < 50:
            raise InvalidInput(
                f"McTailConfig: need >= 50 replications, got {self.replications}"
            )
        if self.tau <= 0:
            raise InvalidInput(f"McTailConfig: tau must be positive, got {self.tau}")


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
    of exact feature vectors from its exactly known population value,
    against the centered-mean radius.  experiment "feature_op_deviation":
    deviation of the feature-side population operator from the
    covariance-side one over fresh feature draws, against the
    feature-operator radius.
    """
    lambdas = (1.0 + np.arange(config.rank)) ** -2.0
    measure = uniform_measure(config.atoms)
    kernel = make_finite_rank_kernel(measure, lambdas, derive_seed(config.seed, "mc-kernel"))
    deviations = np.empty(config.replications)
    if experiment == "cov_deviation":
        radius = bernstein_bound("cov_centered_mean", kernel.kappa, config.tau, config.count)
        nu = np.sqrt(kernel.lambdas)[:, None] * kernel.table.values
        pop = np.diag(kernel.lambdas)
        for rep in range(config.replications):
            idx = draw_samples(measure, config.count, derive_seed(config.seed, "mc-cov", rep))
            v = nu[:, idx]
            vbar = v.mean(axis=1)
            c_hat = v @ v.T / config.count - np.outer(vbar, vbar)
            deviations[rep] = np.linalg.norm(c_hat - pop)
    elif experiment == "feature_op_deviation":
        radius = bernstein_bound("feature_op", kernel.kappa, config.tau, config.count)
        s_j = op_jj(kernel, measure).matrix
        for rep in range(config.replications):
            fs = sample_finite_rank(
                kernel, config.count, derive_seed(config.seed, "mc-feat", rep)
            )
            deviations[rep] = np.linalg.norm(op_aa(fs, measure).matrix - s_j)
    else:
        raise InvalidInput(f"mc_tail: unknown experiment {experiment!r}")
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
