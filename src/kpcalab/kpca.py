"""Exact and random-feature kernel PCA on empirical samples.

Exact KPCA's i-th empirical eigenvalue is eig_i(H K H) / n for the doubly
centered Gram matrix H K H.  The dual vector gamma_i is the centered unit
eigenvector rescaled so that gamma_i' K gamma_i = n lambda_i, which makes
the i-th empirical eigenfunction

    f_i(z) = (n lambda_i)^-1/2 sum_j gamma_ij k(z, x_j)

exactly unit norm in the RKHS.  The fit computes this from the samples'
count vector over the atoms, never forming H K H, and builds gamma from its
T x T eigenvectors only when read.  The count fit reads only a root and the
counts; its noise floor is the root's kappa, its covariance ``_count_gram``.
The random-feature route substitutes a finite feature map and
eigendecomposes the biased (V-statistic) sample covariance of the features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateModel, InvalidInput, RankError, _count
from .features import FeatureSample, feature_matrix
from .kernels import Kernel, _as_index_points, _root_kappa, cross_gram
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
# no signal at all (e.g. a constant kernel, or every sample on one atom).
_DEGENERATE_RTOL = 1e-12


@dataclass
class KpcaModel:
    """The result of an exact KPCA fit: a plain dataclass whose dual
    coefficients are built on first read.

    train_points: the n training atom positions.
    kernel: the training kernel.
    eigvals: retained empirical eigenvalues, descending, length r <= n-1.
    basis_vectors: the retained eigenvectors V (T, r) of the fit's T x T
        matrix, eigenfunction i being psi' sqrt(Lambda) v_i up to sign.
    dual_coeffs: shape (r, n); row i is gamma_i (centered, scaled so
        gamma_i' K gamma_i = n eigvals[i]), built from V on first read, so
        fits that never read them do no per-sample work.
    """

    train_points: np.ndarray
    kernel: Kernel
    eigvals: np.ndarray
    basis_vectors: np.ndarray

    @property
    def n(self) -> int:
        return int(self.train_points.shape[0])

    @property
    def rank(self) -> int:
        return int(self.eigvals.shape[0])

    @cached_property
    def dual_coeffs(self) -> np.ndarray:
        # H K H = (R H)'(R H); centring R before R'V keeps small components' digits
        root = self.kernel.root[:, self.train_points]
        root -= root.mean(axis=1, keepdims=True)
        # H K H's eigenvectors R'V: centred and unit scale (no-ops up to rounding
        # that pin the documented normalization), fix_signs, then scaled
        # to gamma_i' K gamma_i = n eigvals[i]
        alphas = root.T @ self.basis_vectors
        alphas = alphas - alphas.mean(axis=0, keepdims=True)
        alphas = fix_signs(alphas / np.linalg.norm(alphas, axis=0, keepdims=True))
        k_quad = np.sum(alphas * (root.T @ (root @ alphas)), axis=0)
        return (alphas * np.sqrt(self.n * self.eigvals / k_quad)).T


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
    def rank(self) -> int:
        return int(self.eigvals.shape[0])


def _retained_rank(vals: np.ndarray, kappa: float, n: int) -> int:
    """Count of descending ``vals`` above RANK_RTOL times the top one, at most
    n - 1; 0 when the top one sits at kappa's noise floor."""
    if vals.size == 0 or vals[0] <= _DEGENERATE_RTOL * kappa:
        return 0
    return min(int(np.sum(vals > RANK_RTOL * vals[0])), n - 1)


def _count_gram(root: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """W W' for the root (d, N), shared or one per member (k, d, N), centred with
    the counts (N,) or (k, N) as weights and scaled by their square roots: one
    exactly symmetric X X' per member, W W' / n the samples' V-statistic covariance."""
    n = counts.sum(axis=-1, keepdims=True)
    centred = root - np.matmul(root, counts[..., None]) / n[..., None]
    centred *= np.sqrt(counts)[..., None, :]
    return centred @ centred.swapaxes(-1, -2)


def _count_fit(root: np.ndarray, counts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per member i of counts (k, N), the eigenpairs (sigma, V) of ``_count_gram``
    (the nonzero spectrum of the samples' centred Gram matrix) that _retained_rank
    keeps for sigma / n under its root's kappa, from one eigensolve of the k matrices."""
    spec = sym_eig(_count_gram(root, counts))
    n = counts.sum(axis=-1)
    fits = []
    for sigma, vecs, size, kappa in zip(spec.eigenvalues, spec.eigenvectors, n,
                                        np.broadcast_to(_root_kappa(root), n.shape)):
        r = _retained_rank(sigma / size, kappa, int(size))
        fits.append((sigma[:r], vecs[:, :r]))
    return fits


def _stack_counts(samples: np.ndarray, size: int) -> np.ndarray:
    """bincount(row, minlength=size) of every row of a (k, n) sample stack."""
    flat = (samples + size * np.arange(len(samples))[:, None]).ravel()
    return np.bincount(flat, minlength=size * len(samples)).reshape(-1, size)


def fit_exact(kernel: Kernel, samples: np.ndarray) -> KpcaModel | list[KpcaModel]:
    """Fit exact KPCA to a sample list of atom positions.

    A sample enters only through its atom, so the count fit of the root
    sqrt(Lambda) psi, whose columns' inner products are the kernel, solves a
    T x T matrix with the nonzero spectrum of H K H.  The fit stops at its
    retained eigenvectors V, sqrt(Lambda) V being the eigenfunctions' basis
    coordinates: past one bincount it costs O(N T^2).  ``dual_coeffs`` maps V
    to the n samples on first read, in O(n T r).  Equal to the H K H route
    within solver tolerance; off-atom points raise DomainError.

    A (k, n) array is a stack of k sample lists, fitted with one eigensolve,
    giving k models bit-for-bit ``fit_exact(kernel, samples[i])``; a list that
    alone raises DegenerateModel (all on one atom, say) gives a rank-0 model.
    """
    samples = np.asarray(samples)
    stacked = samples.ndim == 2
    if stacked:
        rows = _as_index_points(kernel, samples.reshape(-1)).reshape(samples.shape)
    else:
        rows = _as_index_points(kernel, samples)[None]
    n = rows.shape[1]
    if n < 2:
        raise InvalidInput(f"fit_exact: need at least two samples, got {n}")
    counts = _stack_counts(rows, kernel.table.values.shape[1])
    models = [KpcaModel(pts, kernel, sigma / n, basis_vectors=v)
              for pts, (sigma, v) in zip(rows, _count_fit(kernel.root, counts))]
    if not stacked and models[0].rank == 0:
        raise DegenerateModel("fit_exact: no component above the noise floor")
    return models if stacked else models[0]


def _components(model: KpcaModel | RfKpcaModel, ell: int, op: str, least: int = 0) -> int:
    """``ell`` as a count of the model's components, in [least, model.rank];
    ``op`` names the public function in the error."""
    ell = _count(f"{op}: ell", ell, least=least)
    if ell > model.rank:
        raise RankError(f"{op}: ell={ell} outside [{least}, {model.rank}]")
    return ell


def embed_exact(model: KpcaModel, points: np.ndarray, ell: int) -> np.ndarray:
    """Score matrix (n_points, ell) of the first ell eigenfunctions at a 1-d
    integer array of atom positions, via one block of the model's kernel."""
    ell = _components(model, ell, "embed_exact")
    kc = cross_gram(model.kernel, points, model.train_points)
    scale = 1.0 / np.sqrt(model.n * model.eigvals[:ell])
    return (kc @ model.dual_coeffs[:ell].T) * scale[None, :]


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
    r = _retained_rank(lam, features.kappa_m, n)
    if r == 0:
        raise DegenerateModel("fit_rf: no component above the noise floor")
    return RfKpcaModel(
        features=features, train_points=samples, mean=mean,
        eigvals=lam[:r].copy(), components=spec.eigenvectors[:, :r].copy(),
    )


def embed_rf(model: RfKpcaModel, points: np.ndarray, ell: int) -> np.ndarray:
    """Scores <Phi(x), w_i> for i < ell of the uncentered feature vector;
    shape (n_points, ell)."""
    ell = _components(model, ell, "embed_rf")
    points = np.atleast_1d(np.asarray(points))
    return feature_matrix(model.features, points) @ model.components[:, :ell]

