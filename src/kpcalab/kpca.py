"""Exact and random-feature kernel PCA on empirical samples.

The exact route eigendecomposes the doubly centered Gram matrix H K H
and scales by 1/n, so the i-th empirical eigenvalue is eig_i(H K H) / n.
The dual vector gamma_i is the centered unit eigenvector rescaled so
that gamma_i' K gamma_i = n lambda_i, which makes the i-th empirical
eigenfunction

    f_i(z) = (n lambda_i)^-1/2 sum_j gamma_ij k(z, x_j)

exactly unit norm in the RKHS.  Finite-rank kernels compute the same fit
from the samples' count vector over the atoms, never forming H K H, and build
per-atom coefficients only when read.  The random-feature route substitutes
a finite feature map and eigendecomposes the biased (V-statistic) sample
covariance of the features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModel, InvalidInput, RankError
from .features import FeatureSample, feature_matrix
from .kernels import Kernel, _as_index_points, center_gram, cross_gram, gram
from .linalg import RANK_RTOL, fix_signs, sym_eig

__all__ = [
    "KpcaModel",
    "RfKpcaModel",
    "fit_exact",
    "embed_exact",
    "fit_rf",
    "embed_rf",
]

# Top eigenvalue below kappa times this means the centered Gram carries
# no signal at all (e.g. a constant kernel).
_DEGENERATE_RTOL = 1e-12


@dataclass
class KpcaModel:
    """The result of an exact KPCA fit: a plain dataclass whose coefficient
    caches (atom_coeffs, dual_coeffs) are filled on first read.

    train_points: the n training points (atom positions or vectors).
    kernel: the training kernel.
    eigvals: retained empirical eigenvalues, descending, length r <= n-1.
    counts, basis_vectors, atom_coeffs: a finite-rank fit's samples per atom,
        shape (N,); the retained eigenvectors V (T, r) of its T x T matrix,
        eigenfunction i being psi' sqrt(Lambda) v_i up to sign; and the
        coefficients each sample at atom a carries, atom_coeffs[a], shape
        (N, r), built from V on first read.  None on a gaussian fit.
    dual_coeffs: shape (r, n); row i is gamma_i (centered, scaled so
        gamma_i' K gamma_i = n eigvals[i]), gathered from atom_coeffs on
        first read.  Large fits that never touch these stay free of per-atom
        and per-sample work.
    """

    train_points: np.ndarray
    kernel: Kernel
    eigvals: np.ndarray
    counts: np.ndarray | None = None
    basis_vectors: np.ndarray | None = None
    _sigma: np.ndarray | None = field(default=None, repr=False)
    _atom_coeffs: np.ndarray | None = field(default=None, repr=False)
    _dual_coeffs: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return int(self.train_points.shape[0])

    @property
    def rank(self) -> int:
        return int(self.eigvals.shape[0])

    @property
    def atom_coeffs(self) -> np.ndarray | None:
        if self._atom_coeffs is None and self.basis_vectors is not None:
            self._atom_coeffs = _atom_coeffs(self)
        return self._atom_coeffs

    @property
    def dual_coeffs(self) -> np.ndarray:
        if self._dual_coeffs is None:
            self._dual_coeffs = self.atom_coeffs[self.train_points].T
        return self._dual_coeffs


@dataclass
class RfKpcaModel:
    """The result of a random-feature KPCA fit, a plain (unfrozen) dataclass.

    features: the feature draw the model was fit with.
    train_points: the n training points.
    mean: shape (d,), sample mean of the feature vectors.
    eigvals: retained eigenvalues of the sample feature covariance.
    components: shape (d, r), orthonormal eigenvector columns.
    """

    features: FeatureSample
    train_points: np.ndarray
    mean: np.ndarray
    eigvals: np.ndarray
    components: np.ndarray

    @property
    def n(self) -> int:
        return int(self.train_points.shape[0])

    @property
    def rank(self) -> int:
        return int(self.eigvals.shape[0])


def _retained_rank(vals: np.ndarray, kappa: float, n: int, op: str) -> int:
    """Count of descending ``vals`` above RANK_RTOL times the top one, at most
    n - 1.  Raises DegenerateModel when the top one sits at kappa's noise floor."""
    if vals.size == 0 or vals[0] <= _DEGENERATE_RTOL * kappa:
        raise DegenerateModel(f"{op}: no component above the noise floor")
    return min(int(np.sum(vals > RANK_RTOL * vals[0])), n - 1)


def _count_fit(root: np.ndarray, counts: np.ndarray, kappa: float | np.ndarray,
               op: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per member i of counts (k, N), the eigenpairs (sigma, V) of W W' that
    _retained_rank keeps for sigma / n, from one eigensolve of the k matrices.

    W is the per-atom root (d, N), shared or one per member (k, d, N), centred
    with counts[i] as weights and scaled by sqrt(counts[i]), so W W' / n is the
    covariance of the n samples' root columns and W W' has the nonzero spectrum
    of their centred n x n Gram matrix; kappa is a scalar or (k,)."""
    n = counts.sum(axis=-1)
    centred = root - np.matmul(root, counts[..., None]) / n[:, None, None]
    # W W' through one X X' product per member, which is exactly symmetric.
    centred *= np.sqrt(counts)[:, None, :]
    spec = sym_eig(centred @ centred.swapaxes(-1, -2))
    fits = []
    for sigma, vecs, size, floor in zip(spec.eigenvalues, spec.eigenvectors, n,
                                        np.broadcast_to(kappa, n.shape)):
        r = _retained_rank(sigma / size, floor, int(size), op)
        fits.append((sigma[:r], vecs[:, :r]))
    return fits


def _stack_counts(samples: np.ndarray, size: int) -> np.ndarray:
    """bincount(row, minlength=size) of every row of a (k, n) sample stack."""
    flat = (samples + size * np.arange(len(samples))[:, None]).ravel()
    return np.bincount(flat, minlength=size * len(samples)).reshape(-1, size)


def fit_exact(kernel: Kernel, samples: np.ndarray) -> KpcaModel | list[KpcaModel]:
    """Fit exact KPCA to a sample list.

    Finite-rank kernels take a count route: a sample enters only through its
    atom, so the count fit of the root sqrt(Lambda) psi, whose columns' inner
    products are the kernel, solves a T x T matrix with the nonzero spectrum of
    H K H.  The fit stops at its retained eigenvectors V, sqrt(Lambda) V being
    the eigenfunctions' basis coordinates: past one bincount it costs O(N T^2).
    ``atom_coeffs`` maps V to the atoms on first read and ``dual_coeffs``
    gathers those to the n samples.  Equal to the H K H route within solver
    tolerance; off-atom points raise DomainError.

    A finite-rank (k, n) array is a stack of k sample lists, fitted with one
    eigensolve, giving k models bit-for-bit ``fit_exact(kernel, samples[i])``.
    """
    finite = kernel.kind == "finite_rank"
    samples = np.asarray(samples)
    stacked = finite and samples.ndim == 2
    if stacked:
        rows = _as_index_points(kernel, samples.reshape(-1)).reshape(samples.shape)
    elif finite:
        rows = _as_index_points(kernel, samples)[None]
    n = rows.shape[1] if finite else samples.shape[0]
    if n < 2:
        raise InvalidInput(f"fit_exact: need at least two samples, got {n}")
    if finite:
        counts = _stack_counts(rows, kernel.table.values.shape[1])
        models = [KpcaModel(pts, kernel, sigma / n, counts=c, basis_vectors=v, _sigma=sigma)
                  for pts, c, (sigma, v) in zip(
                      rows, counts, _count_fit(kernel.root, counts, kernel.kappa, "fit_exact"))]
        return models if stacked else models[0]
    k = gram(kernel, samples)
    centered = center_gram(k, np.full(n, 1.0 / n))
    spec = sym_eig(centered)
    lam_hat = spec.eigenvalues / n
    r = _retained_rank(lam_hat, kernel.kappa, n, "fit_exact")
    alphas = spec.eigenvectors[:, :r]
    # The centring and unit scale are no-ops up to rounding but pin the
    # documented normalization.
    alphas = alphas - alphas.mean(axis=0, keepdims=True)
    alphas = alphas / np.linalg.norm(alphas, axis=0, keepdims=True)
    alphas = fix_signs(alphas)
    k_quad = np.sum(alphas * (k @ alphas), axis=0)
    coeffs = alphas * np.sqrt(n * lam_hat[:r] / k_quad)
    return KpcaModel(train_points=samples, kernel=kernel, eigvals=lam_hat[:r].copy(),
                     _dual_coeffs=coeffs.T)


def _atom_coeffs(model: KpcaModel) -> np.ndarray:
    """A finite-rank fit's V mapped to the atoms, then count-weighted centring,
    unit scale, the K-quadratic rescale and first-appearance signing."""
    samples, counts, n = model.train_points, model.counts, model.n
    root = model.kernel.root
    centred = root - (root @ counts / n)[:, None]
    alphas = (centred.T @ model.basis_vectors) / np.sqrt(model._sigma)[None, :]
    alphas = alphas - (counts @ alphas / n)[None, :]
    alphas = alphas / np.sqrt(counts @ alphas**2)[None, :]
    k_quad = np.sum((root @ (counts[:, None] * alphas)) ** 2, axis=0)
    # Signing the sampled atoms in order of first appearance picks the
    # same entries as signing the n gathered rows, ties included.
    first = np.full(counts.shape[0], n)
    np.minimum.at(first, samples, np.arange(n))
    seen = samples[np.sort(first[counts > 0])]
    alphas[seen] = fix_signs(alphas[seen])
    return alphas * np.sqrt(n * model.eigvals / k_quad)


def _eigenfunction_matrix(model: KpcaModel, kernel: Kernel, points: np.ndarray,
                          count: int) -> np.ndarray:
    """Columns f_i(points) for i < count, via one rectangular kernel block."""
    kc = cross_gram(kernel, points, model.train_points)
    scale = 1.0 / np.sqrt(model.n * model.eigvals[:count])
    return (kc @ model.dual_coeffs[:count].T) * scale[None, :]


def embed_exact(model: KpcaModel, kernel: Kernel, points: np.ndarray,
                ell: int) -> np.ndarray:
    """Score matrix (n_points, ell) of the first ell eigenfunctions.

    Points follow the kernel's convention: a 1-d integer array of atom
    positions for finite-rank kernels, an (n, p) array for gaussian ones.
    """
    if ell < 0 or ell > model.rank:
        raise RankError(f"embed_exact: ell={ell} outside [0, {model.rank}]")
    points = np.atleast_1d(np.asarray(points))
    if ell == 0:
        return np.empty((points.shape[0], 0))
    return _eigenfunction_matrix(model, kernel, points, ell)


def fit_rf(features: FeatureSample, samples: np.ndarray) -> RfKpcaModel:
    """Fit KPCA in a random feature space.

    Eigendecomposes the V-statistic sample covariance
    (1/n) sum Phi(x_j) Phi(x_j)' - mean mean'.
    """
    samples = np.asarray(samples)
    n = samples.shape[0]
    if n < 2:
        raise InvalidInput(f"fit_rf: need at least two samples, got {n}")
    f = feature_matrix(features, samples)
    mean = f.mean(axis=0)
    cov = f.T @ f / n - np.outer(mean, mean)
    cov = (cov + cov.T) / 2.0
    spec = sym_eig(cov)
    lam = spec.eigenvalues
    r = _retained_rank(lam, features.kappa_m, n, "fit_rf")
    return RfKpcaModel(
        features=features, train_points=samples, mean=mean,
        eigvals=lam[:r].copy(), components=spec.eigenvectors[:, :r].copy(),
    )


def embed_rf(model: RfKpcaModel, points: np.ndarray, ell: int) -> np.ndarray:
    """Scores <Phi(x), w_i> for i < ell of the uncentered feature vector;
    shape (n_points, ell)."""
    if ell < 0 or ell > model.rank:
        raise RankError(f"embed_rf: ell={ell} outside [0, {model.rank}]")
    points = np.atleast_1d(np.asarray(points))
    if ell == 0:
        return np.empty((points.shape[0], 0))
    return feature_matrix(model.features, points) @ model.components[:, :ell]

