"""Kernels, Gram matrices, and the synthetic finite-rank construction.

A kernel lives on the index support of a discrete measure:
k(i, j) = sum_t lambda_t psi_t(i) psi_t(j) for a basis of functions
orthonormal in the weighted inner product and orthogonal to constants.
That construction makes every population quantity exactly computable
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ConfigError, DomainError, InvalidInput, NumericFailure, _real
from .linalg import _positive_qr, _require_symmetric
from .measures import _WEIGHT_SUM_ATOL, DiscreteMeasure
from .rng import generator

__all__ = [
    "FunctionTable",
    "Kernel",
    "make_finite_rank_kernel",
    "kernel_eval",
    "gram",
    "cross_gram",
    "center_gram",
]

_ORTHO_ATOL = 1e-10
_GS_BREAKDOWN = 1e-10


def _position_weights(measure: DiscreteMeasure) -> np.ndarray:
    """The measure's weights by atom position, w[atoms] = weights; InvalidInput
    unless the atoms are a permutation of the positions 0..N-1."""
    atoms, n_atoms = measure.atoms, measure.size
    if not (atoms.ndim == 1 and np.issubdtype(atoms.dtype, np.integer)
            and atoms.min() >= 0 and atoms.max() < n_atoms):
        raise InvalidInput(f"finite-rank kernels need atoms that are a permutation of "
                           f"0..{n_atoms - 1}")
    w = np.empty(n_atoms)
    w[atoms] = measure.weights
    return w


@dataclass(frozen=True)
class FunctionTable:
    """Values of T basis functions on the support of a discrete measure.

    values: shape (T, N); row t holds psi_t evaluated at positions 0..N-1.
    The measure's atoms must be a permutation of those positions, and column
    i is weighted by the weight of the atom labelled i.  Rows must be
    orthonormal in that weighted inner product and orthogonal to the
    constant function, both within 1e-10.
    """

    measure: DiscreteMeasure
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.measure.size:
            raise InvalidInput(
                f"FunctionTable: values shape {values.shape} does not match "
                f"{self.measure.size} atoms"
            )
        w = _position_weights(self.measure)
        gram_w = (values * w) @ values.T
        if np.max(np.abs(gram_w - np.eye(values.shape[0]))) > _ORTHO_ATOL:
            raise InvalidInput("FunctionTable: rows are not weighted-orthonormal within 1e-10")
        if np.max(np.abs(values @ w)) > _ORTHO_ATOL:
            raise InvalidInput("FunctionTable: rows are not orthogonal to constants within 1e-10")
        object.__setattr__(self, "values", values)

    @property
    def count(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class Kernel:
    """The finite-rank kernel of a basis table and strictly descending finite
    positive lambdas; points are integer atom positions.  ``root``, the T x N
    sqrt(Lambda) psi with k(i, j) = root[:, i]'root[:, j], is kept read-only.
    ``kappa``, the largest k(x, x) over the atoms, ``_root_kappa(root)``, is derived on first read.
    """

    table: FunctionTable
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.shape[0] != self.table.count:
            raise InvalidInput("Kernel: lambdas must match the table row count")
        if not (np.all(np.isfinite(lam) & (lam > 0.0)) and np.all(np.diff(lam) < 0.0)):
            raise InvalidInput("Kernel: lambdas must be finite, > 0 and strictly descending")
        object.__setattr__(self, "lambdas", lam)

    @cached_property
    def root(self) -> np.ndarray:
        root = np.sqrt(self.lambdas)[:, None] * self.table.values
        root.flags.writeable = False
        return root

    @cached_property
    def kappa(self) -> float:
        return float(_root_kappa(self.root))


def _root_kappa(root: np.ndarray) -> float | np.ndarray:
    """Largest squared column norm of a root (d, N), sup of its k(x, x); per member of a stack."""
    return np.max(np.sum(root**2, axis=-2), axis=-1)


def _decay_schedule(decay: str, rank: int, alpha: float | None, gamma: float | None) -> np.ndarray:
    """i^-alpha (poly) or e^-gamma*i (expo) for i = 1..rank; ConfigError if invalid,
    or if the other family's parameter is given, since it would be ignored."""
    i = 1.0 + np.arange(rank)
    if decay == "poly":
        if alpha is None or not _real("alpha", alpha) > 1.0:
            raise ConfigError(f"poly decay needs alpha > 1, got {alpha}")
        if gamma is not None:
            raise ConfigError("poly decay takes no gamma")
        return i ** -float(alpha)
    if decay == "expo":
        if gamma is None or not _real("gamma", gamma) > 0.0:
            raise ConfigError(f"expo decay needs gamma > 0, got {gamma}")
        if alpha is not None:
            raise ConfigError("expo decay takes no alpha")
        return np.exp(-float(gamma) * i)
    raise ConfigError(f"unknown decay {decay!r}")


def make_finite_rank_kernel(measure: DiscreteMeasure, lambdas: np.ndarray, seed: int) -> Kernel:
    """Seeded synthetic kernel whose population spectrum is exactly ``lambdas``.

    The measure's atoms must be a permutation of the positions 0..N-1; each
    position is weighted by its own atom's weight.  The basis is one QR of the
    constant function and a (T, N) block of standard normal draws, as columns
    scaled by sqrt(w): row t is Q's column t + 1 over sqrt(w), draw t's Gram-Schmidt
    residual against the constant and the earlier rows in the weighted inner product.
    A residual norm |R_tt| below 1e-10 raises NumericFailure naming row t, no redraw.
    """
    lam = np.asarray(lambdas, dtype=float)
    n_atoms = measure.size
    if lam.ndim != 1 or lam.shape[0] < 1:
        raise InvalidInput(f"make_finite_rank_kernel: need a nonempty 1-D schedule, "
                           f"got shape {lam.shape}")
    if lam.shape[0] > n_atoms - 1:
        raise CapacityError(
            f"make_finite_rank_kernel: {lam.shape[0]} components need at least "
            f"{lam.shape[0] + 1} atoms, measure has {n_atoms}"
        )
    root_w = np.sqrt(_position_weights(measure))
    draws = generator(seed, "finite-rank-basis").standard_normal((lam.shape[0], n_atoms))
    q, norms = _positive_qr(root_w[:, None] * np.vstack([np.ones(n_atoms), draws]).T)
    broken = np.flatnonzero(norms[1:] < _GS_BREAKDOWN)
    if broken.size:
        raise NumericFailure(f"make_finite_rank_kernel: Gram-Schmidt broke down on row "
                             f"{broken[0]} (residual norm below {_GS_BREAKDOWN:g})")
    rows = np.ascontiguousarray(q[:, 1:].T / root_w)
    return Kernel(FunctionTable(measure=measure, values=rows), lam)


def _as_index_points(kernel: Kernel, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    if pts.ndim != 1 or not np.issubdtype(pts.dtype, np.integer):
        raise DomainError(
            "finite-rank kernel points must be integer atom positions, got "
            f"dtype {pts.dtype} with shape {pts.shape}"
        )
    n_atoms = kernel.table.measure.size
    if pts.size and (pts.min() < 0 or pts.max() >= n_atoms):
        raise DomainError(
            f"finite-rank kernel point out of support: range [{pts.min()}, {pts.max()}] "
            f"vs {n_atoms} atoms"
        )
    return pts


def kernel_eval(kernel: Kernel, x, y) -> float:
    """k(x, y) for a single pair of atom positions, summed over the basis."""
    xi, yi = (_as_index_points(kernel, p) for p in (x, y))
    if xi.size != 1 or yi.size != 1:
        raise DomainError(f"kernel_eval: a finite-rank point is one atom position, "
                          f"got {xi.size} and {yi.size}")
    vals = kernel.table.values
    return float(np.sum(kernel.lambdas * vals[:, xi[0]] * vals[:, yi[0]]))


def gram(kernel: Kernel, points: np.ndarray) -> np.ndarray:
    """Symmetric PSD Gram matrix k(x_i, x_j) over a point list: ``cross_gram`` of
    the points with themselves, symmetrised; needs at least one point."""
    k = cross_gram(kernel, points, points)
    if k.shape[0] < 1:
        raise InvalidInput("gram: need at least one point")
    return (k + k.T) / 2.0


def cross_gram(kernel: Kernel, points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Rectangular kernel matrix k(a_i, b_j); shape (len(a), len(b)): it is
    root[:, a]' root[:, b], with root = sqrt(Lambda) psi."""
    pa = _as_index_points(kernel, points_a)
    pb = _as_index_points(kernel, points_b)
    return kernel.root[:, pa].T @ kernel.root[:, pb]


def center_gram(k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Two-sided centering (I - 1 w') K (I - w 1') for probability weights."""
    k = _require_symmetric(k, "center_gram")
    w = np.asarray(weights, dtype=float)
    if k.ndim != 2 or w.shape != (k.shape[0],):
        raise InvalidInput(f"center_gram: shapes {k.shape} and {w.shape} are incompatible")
    if abs(w.sum() - 1.0) > _WEIGHT_SUM_ATOL:
        raise InvalidInput(
            f"center_gram: weights sum to {float(w.sum())!r}, not 1 within {_WEIGHT_SUM_ATOL:g}"
        )
    kw = k @ w
    www = float(w @ kw)
    out = k - kw[:, None] - kw[None, :] + www
    return (out + out.T) / 2.0
