"""Random feature maps whose inner products estimate a kernel.

Two samplers are provided.  ``sample_rff`` draws random Fourier features
for a gaussian kernel: with omega_i ~ N(0, bandwidth^-2 I),

    Phi(x) = m^-1/2 (cos<x, omega_1>, ..., sin<x, omega_m>)  in R^{2m},

so <Phi(x), Phi(y)> = (1/m) sum_i cos<x - y, omega_i>, an unbiased
estimate of the kernel with ||Phi(x)||^2 = 1 exactly.

``sample_finite_rank`` draws importance-sampled features of a finite-rank
kernel.  In the aligned family the features are the scaled basis
functions themselves (index t drawn with probability lambda_t / sum
lambda, feature sqrt(sum lambda) psi_t).  In the mixed family a seeded
orthogonal matrix first recombines the basis, and indices are drawn
uniformly; the estimator stays unbiased for the same kernel but the
feature functions are no longer eigenfunctions of anything, which is the
generic situation.  Both families admit a deterministic mode taking each
index exactly once with weight sqrt(prob); that quadrature reproduces
the kernel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, _count, _real
from .kernels import Kernel, _as_index_points, _root_kappa
from .rng import generator

__all__ = [
    "FeatureSample",
    "sample_rff",
    "sample_finite_rank",
    "basis_factor",
    "feature_matrix",
    "cos_form_kernel",
]


@dataclass(frozen=True)
class FeatureSample:
    """A frozen draw of random features for one kernel.

    kind: "rff" or "finite_rank".
    m: number of parameter draws (for deterministic finite-rank mode,
        the full index count); the feature dimension is 2m for rff, m for
        finite-rank.
    kappa_m: exact sup over the kernel's domain of ||Phi(x)||^2 (for rff,
        1 by construction; for finite-rank, ``_root_kappa`` of the root L' psi,
        not of the N x m features, derived on first read so an unread draw costs nothing).
    rff fields: omegas (m, p), already scaled by 1 / bandwidth.
    finite-rank fields: kernel, indices (m,) into the feature family,
        row_scale (m,) per-row weights, coeffs (T, T) mapping basis rows to
        feature functions.
    """

    kind: str
    m: int
    omegas: np.ndarray | None = None
    kernel: Kernel | None = None
    indices: np.ndarray | None = None
    row_scale: np.ndarray | None = None
    coeffs: np.ndarray | None = None

    @cached_property
    def kappa_m(self) -> float:
        if self.kind == "rff":
            return 1.0
        return float(_root_kappa(basis_factor(self).T @ self.kernel.table.values))


def sample_rff(bandwidth: float, point_dim: int, m: int, seed: int) -> FeatureSample:
    """Draw m Fourier frequencies for a gaussian kernel on R^point_dim."""
    m = _count("sample_rff: m", m, least=1)
    point_dim = _count("sample_rff: point_dim", point_dim, least=1)
    bandwidth = _real("sample_rff: bandwidth", bandwidth)
    if bandwidth <= 0:
        raise InvalidInput(f"sample_rff: bandwidth must be positive, got {bandwidth}")
    omegas = generator(seed, "rff-omegas").standard_normal((m, point_dim)) / bandwidth
    return FeatureSample(kind="rff", m=m, omegas=omegas)


def _mixed_coeffs(kernel: Kernel, seed: int) -> np.ndarray:
    """The mixed family's coeffs sqrt(T) Q diag(sqrt(lambda)), Q seeded orthogonal."""
    t_count = kernel.table.count
    q, r = np.linalg.qr(generator(seed, "feature-mix").standard_normal((t_count, t_count)))
    return np.sqrt(t_count) * (q * np.sign(np.diag(r))) * np.sqrt(kernel.lambdas)[None, :]


def sample_finite_rank(kernel: Kernel, m: int, seed: int, deterministic: bool = False,
                       mixed: bool = False, coeffs: np.ndarray | None = None) -> FeatureSample:
    """Draw m feature indices for a finite-rank kernel.

    deterministic: take every index exactly once with weight sqrt(prob)
        instead of sampling; m must then equal the family size and the
        approximate kernel is exact.
    mixed: recombine the basis through a seeded orthogonal matrix and
        sample indices uniformly (see module docstring).
    coeffs: a mixed draw's coeffs under the same seed, reused; implies mixed.
    """
    m = _count("sample_finite_rank: m", m, least=1)
    t_count = kernel.table.count
    lam = kernel.lambdas
    if mixed or coeffs is not None:
        coeffs = _mixed_coeffs(kernel, seed) if coeffs is None else coeffs
        probs = np.full(t_count, 1.0 / t_count)
    else:
        coeffs = np.sqrt(np.sum(lam)) * np.eye(t_count)
        probs = lam / np.sum(lam)
    if deterministic:
        if m != t_count:
            raise InvalidInput(
                f"sample_finite_rank: deterministic mode needs m == {t_count}, got {m}"
            )
        indices = np.arange(t_count)
        row_scale = np.sqrt(probs)
    else:
        indices = generator(seed, "feature-indices").choice(t_count, size=m, p=probs)
        row_scale = np.full(m, 1.0 / np.sqrt(m))
    return FeatureSample(kind="finite_rank", m=m, kernel=kernel, indices=indices,
                         row_scale=row_scale, coeffs=coeffs)


def basis_factor(sample: FeatureSample) -> np.ndarray:
    """The T x T factor L of a finite-rank draw in basis coordinates.

    Phi(x)'Phi(y) = psi(x)' L L' psi(y) for the kernel's basis psi, where
    L L' = C' diag(sum of row_scale^2 per drawn index) C with C = coeffs, so
    L = C' diag(sqrt of those sums); L L' is the feature Gram G'G.
    """
    if sample.kind != "finite_rank":
        raise InvalidInput(f"basis_factor: sample kind is {sample.kind!r}")
    t_count = sample.coeffs.shape[0]
    mass = np.bincount(sample.indices, weights=sample.row_scale**2, minlength=t_count)
    return sample.coeffs.T * np.sqrt(mass)[None, :]


def feature_matrix(sample: FeatureSample, points: np.ndarray) -> np.ndarray:
    """Rows Phi(x_i) for each point; shape (n, d).

    Rff points are rows in R^p, p = omegas.shape[1] (1-d: points in R^1).  Finite-rank
    points are atoms, checked as the kernel checks them (DomainError off the atoms)."""
    if sample.kind == "rff":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape[1:] != sample.omegas.shape[1:]:
            raise InvalidInput(f"feature_matrix: points of shape {pts.shape} are not rows "
                               f"in R^{sample.omegas.shape[1]}")
        proj = pts @ sample.omegas.T
        scale = 1.0 / np.sqrt(sample.m)
        return scale * np.concatenate([np.cos(proj), np.sin(proj)], axis=1)
    pts = _as_index_points(sample.kernel, points)
    feat_tbl = sample.coeffs @ sample.kernel.table.values
    return (sample.row_scale[:, None] * feat_tbl[sample.indices][:, pts]).T


def cos_form_kernel(sample: FeatureSample, x, y) -> float:
    """(1/m) sum_i cos<x - y, omega_i> for points x, y in R^p; rff only."""
    if sample.kind != "rff":
        raise InvalidInput("cos_form_kernel: only defined for rff samples")
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    if not x.shape == y.shape == sample.omegas.shape[1:]:
        raise InvalidInput(f"cos_form_kernel: x and y of shapes {x.shape} and {y.shape} are "
                           f"not points in R^{sample.omegas.shape[1]}")
    return float(np.mean(np.cos(sample.omegas @ (x - y))))
