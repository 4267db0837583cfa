"""Exact population quantities for kernels on finitely supported measures.

With a measure of N atoms, every population operator of interest is an
N x N symmetric matrix in weight-symmetrized coordinates u = W^1/2 f, kept
as the factor F = W^1/2 (B - (B w) 1')' of a root B with K = B'B on the atoms:

  * covariance-side operator:  S_J = W^1/2 (I - 1 w') K (I - w 1') W^1/2,
    sharing its nonzero spectrum with the population covariance;
  * feature-side operator:     S_A, the same with B the transposed feature
    matrix, sharing its nonzero spectrum with the population feature covariance.

Projectors onto leading eigenspaces, reconstruction errors, and operator
distances are then exact finite-dimensional computations, which is what
makes convergence-rate measurements against ground truth possible.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, _count
from .features import FeatureSample, feature_matrix
from .kernels import Kernel, _as_index_points
from .kpca import KpcaModel, RfKpcaModel, _components, embed_exact, embed_rf
from .linalg import Spectrum, matrix_norm, spectral_projector, sym_eig
from .measures import DiscreteMeasure

__all__ = [
    "PopOperator",
    "ProjectionLike",
    "op_jj",
    "op_aa",
    "tail_energy",
    "proj_pop",
    "proj_hat",
    "proj_hat_rf",
    "recon_error",
    "proj_distance",
    "oracle_snapshot",
]

_PROJECTOR_ATOL = 1e-8


@dataclass(frozen=True)
class PopOperator:
    """A population operator S = F F' in symmetrized coordinates, held as its N x r
    factor F; the dense ``matrix`` and its ``spectrum`` are built on first read.
    ``eigenvalues`` (``spectrum``'s if r >= N) and ``hs_norm`` come from the r x r F'F."""

    factor: np.ndarray = field(repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        s = self.factor @ self.factor.T
        return (s + s.T) / 2.0

    @cached_property
    def spectrum(self) -> Spectrum:
        return sym_eig(self.matrix)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The N eigenvalues of ``matrix``, descending."""
        n, r = self.factor.shape
        if r >= n:
            return self.spectrum.eigenvalues
        gram_f = self.factor.T @ self.factor
        vals = sym_eig((gram_f + gram_f.T) / 2.0).eigenvalues
        return np.concatenate([vals, np.zeros(n - r)])

    @cached_property
    def hs_norm(self) -> float:
        # numpy's pairwise sum: np.linalg.norm's BLAS dot rounds by OpenBLAS's thread count
        gram_f = self.factor.T @ self.factor
        return float(np.sqrt(np.sum(gram_f * gram_f)))


@dataclass(frozen=True)
class ProjectionLike:
    """A symmetric matrix standing in for a spectral projector.

    Orthogonal ones (from population spectra) satisfy P = P' = P^2 and
    trace P = rank, checked at construction.  Empirical plug-ins are
    symmetric but only approximately idempotent, so they skip the check.
    """

    matrix: np.ndarray
    orthogonal: bool

    def __post_init__(self) -> None:
        p = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", p)
        if self.orthogonal:
            if np.max(np.abs(p - p.T)) > _PROJECTOR_ATOL:
                raise InvalidInput("ProjectionLike: orthogonal projector is not symmetric")
            if np.max(np.abs(p @ p - p)) > _PROJECTOR_ATOL:
                raise InvalidInput("ProjectionLike: orthogonal projector is not idempotent")
            if abs(np.trace(p) - round(np.trace(p))) > _PROJECTOR_ATOL:
                raise InvalidInput("ProjectionLike: orthogonal projector trace is not integral")


def _centred_factor(root: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F = W^1/2 (B - (B w) 1')' for a root B (r x N) on atoms of weights w."""
    return np.sqrt(w)[:, None] * (root - (root @ w)[:, None]).T


def _plug_in(coords: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """sum_i c_i c_i' / lambda_i over the columns c_i of ``coords``, per member
    of a stack."""
    q = (coords / eigvals[..., None, :]) @ coords.swapaxes(-1, -2)
    return (q + q.swapaxes(-1, -2)) / 2.0


def op_jj(kernel: Kernel, measure: DiscreteMeasure) -> PopOperator:
    """Covariance-side population operator S_J for a kernel and measure, whose
    root is ``kernel.root`` on the atoms."""
    root = kernel.root[:, _as_index_points(kernel, measure.atoms)]
    return PopOperator(_centred_factor(root, measure.weights))


def op_aa(features: FeatureSample, measure: DiscreteMeasure) -> PopOperator:
    """Feature-side population operator S_A for a feature draw and measure,
    whose root is the transposed feature matrix on the atoms."""
    root = feature_matrix(features, measure.atoms).T
    return PopOperator(_centred_factor(root, measure.weights))


def tail_energy(eigenvalues: np.ndarray, ell: int) -> float:
    """Sum of squared eigenvalues beyond the leading ell (the exact bias), from
    descending eigenvalues such as ``PopOperator.eigenvalues``."""
    ell = _count("tail_energy: ell", ell, least=0)
    vals = np.maximum(eigenvalues, 0.0)
    return float(np.sum(vals[ell:] ** 2))


def proj_pop(op: PopOperator, ell: int) -> ProjectionLike:
    """Orthogonal projector onto the leading ell eigenvectors of S."""
    return ProjectionLike(matrix=spectral_projector(op.spectrum, ell), orthogonal=True)


def proj_hat(model: KpcaModel, measure: DiscreteMeasure, ell: int) -> ProjectionLike:
    """Plug-in projector of exact KPCA, embedded against the measure.

    Each empirical eigenfunction is evaluated on the atoms, centered
    under the measure, weight-symmetrized, and divided by its empirical
    eigenvalue: P = sum_i u_i u_i' / lambda_i.  Components are already
    restricted to the retained rank, so the eigenvalue divisions are safe.
    """
    ell = _components(model, ell, "proj_hat", least=1)
    u = _centred_factor(embed_exact(model, measure.atoms, ell).T, measure.weights)
    return ProjectionLike(_plug_in(u, model.eigvals[:ell]), orthogonal=False)


def proj_hat_rf(model: RfKpcaModel, measure: DiscreteMeasure, ell: int) -> ProjectionLike:
    """Plug-in projector of random-feature KPCA against the measure, from the
    scores of ``embed_rf`` as ``proj_hat`` builds it from ``embed_exact``'s."""
    ell = _components(model, ell, "proj_hat_rf", least=1)
    u = _centred_factor(embed_rf(model, measure.atoms, ell).T, measure.weights)
    return ProjectionLike(_plug_in(u, model.eigvals[:ell]), orthogonal=False)


def recon_error(pop: PopOperator, proj: ProjectionLike) -> float:
    """Squared Hilbert-Schmidt reconstruction error ||(I - Q) S||_HS^2."""
    s = pop.matrix
    resid = s - proj.matrix @ s
    return float(np.sum(resid**2))


def proj_distance(p: ProjectionLike, q: ProjectionLike) -> float:
    """Operator-norm distance between two projector-like matrices."""
    return matrix_norm(p.matrix - q.matrix, "operator")


def oracle_snapshot(kernel: Kernel, measure: DiscreteMeasure, pop: PopOperator,
                    seed: int) -> dict:
    """JSON-ready description of a finite-rank oracle: measure, kernel, and
    the exact spectrum of ``pop = op_jj(kernel, measure)``.

    The kernel's T x N basis table is packed, lossless, as base64 of its
    row-major little-endian float64 bytes with its shape beside it.
    """
    values = kernel.table.values
    return {
        "atoms": np.asarray(measure.atoms).tolist(),
        "weights": measure.weights.tolist(),
        "population_spectrum": pop.eigenvalues.tolist(),
        "kernel": {
            "kind": "finite_rank",
            "lambdas": kernel.lambdas.tolist(),
            "kappa": kernel.kappa,
            "basis_shape": list(values.shape),
            "basis_values_f64le_b64": binascii.b2a_base64(
                values.astype("<f8", copy=False).tobytes(), newline=False).decode("ascii"),
        },
        "seed": _count("oracle_snapshot: seed", seed),
    }
