"""Exact and random-feature kernel PCA on empirical samples.

The exact route eigendecomposes the doubly centered Gram matrix H K H
and scales by 1/n, so the i-th empirical eigenvalue is eig_i(H K H) / n.
The dual vector gamma_i is the centered unit eigenvector rescaled so
that gamma_i' K gamma_i = n lambda_i, which makes the i-th empirical
eigenfunction

    f_i(z) = (n lambda_i)^-1/2 sum_j gamma_ij k(z, x_j)

exactly unit norm in the RKHS.  Finite-rank kernels compute the same fit
from the samples' count vector over the atoms, never forming H K H.  The
random-feature route substitutes a finite feature map and eigendecomposes
the biased (V-statistic) sample covariance of the features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModel, InvalidInput, RankError
from .features import FeatureSample, feature_matrix
from .kernels import Kernel, _as_index_points, center_gram, cross_gram, gram
from .linalg import RANK_RTOL, fix_signs, sym_eig
from .measures import DiscreteMeasure

__all__ = [
    "KpcaModel",
    "RfKpcaModel",
    "fit_exact",
    "eigenfunction_eval",
    "embed_exact",
    "fit_rf",
    "embed_rf",
    "pop_rf_cov",
]

# Top eigenvalue below kappa times this means the centered Gram carries
# no signal at all (e.g. a constant kernel).
_DEGENERATE_RTOL = 1e-12


@dataclass
class KpcaModel:
    """Frozen result of an exact KPCA fit.

    train_points: the n training points (atom positions or vectors).
    kernel: the training kernel.
    eigvals: retained empirical eigenvalues, descending, length r <= n-1.
    counts, atom_coeffs: a finite-rank fit's samples per atom, shape (N,),
        and the coefficients each sample at atom a carries, atom_coeffs[a],
        shape (N, r); None on a gaussian fit.
    dual_coeffs: shape (r, n); row i is gamma_i (centered, scaled so
        gamma_i' K gamma_i = n eigvals[i]), gathered from atom_coeffs on
        first read.  The Gram matrix is materialized lazily too; large
        fits that never touch either stay free of per-sample work.
    """

    train_points: np.ndarray
    kernel: Kernel
    eigvals: np.ndarray
    counts: np.ndarray | None = None
    atom_coeffs: np.ndarray | None = None
    _dual_coeffs: np.ndarray | None = field(default=None, repr=False)
    _gram: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return int(self.train_points.shape[0])

    @property
    def rank(self) -> int:
        return int(self.eigvals.shape[0])

    @property
    def dual_coeffs(self) -> np.ndarray:
        if self._dual_coeffs is None:
            self._dual_coeffs = self.atom_coeffs[self.train_points].T
        return self._dual_coeffs

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = gram(self.kernel, self.train_points)
        return self._gram


@dataclass
class RfKpcaModel:
    """Frozen result of a random-feature KPCA fit.

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


def fit_exact(kernel: Kernel, samples: np.ndarray) -> KpcaModel:
    """Fit exact KPCA to a sample list.

    Finite-rank kernels take a count route: a sample enters only through its
    atom, so with c = bincount(samples) and W the centred, sqrt(lambda)-scaled
    basis values of the N atoms times sqrt(c), the T x T matrix W W' has the
    nonzero spectrum of H K H.  Coefficients, centring, unit norm and the
    K-quadratic rescale are count-weighted sums kept per atom: past one
    bincount and one first-appearance pass the fit costs O(N T^2), and
    ``dual_coeffs`` gathers them to the n samples on first read.  Equal to the
    H K H route within solver tolerance; points off the atoms raise DomainError.
    """
    finite = kernel.kind == "finite_rank"
    samples = _as_index_points(kernel, samples) if finite else np.asarray(samples)
    n = samples.shape[0]
    if n < 2:
        raise InvalidInput(f"fit_exact: need at least two samples, got {n}")
    gram_cache = counts = None
    if finite:
        counts = np.bincount(samples, minlength=kernel.table.values.shape[1])
        root = np.sqrt(kernel.lambdas)[:, None] * kernel.table.values
        centred = root - (root @ counts / n)[:, None]
        # W W' through one X X' product, which is exactly symmetric.
        w = centred * np.sqrt(counts)[None, :]
        small = sym_eig(w @ w.T)
        sigma = small.eigenvalues
        lam_hat = sigma / n
        r = _retained_rank(lam_hat, kernel.kappa, n, "fit_exact")
        alphas = (centred.T @ small.eigenvectors[:, :r]) / np.sqrt(sigma[:r])[None, :]
        alphas = alphas - (counts @ alphas / n)[None, :]
        alphas = alphas / np.sqrt(counts @ alphas**2)[None, :]
        k_quad = np.sum((root @ (counts[:, None] * alphas)) ** 2, axis=0)
        # Signing the sampled atoms in order of first appearance picks the
        # same entries as signing the n gathered rows, ties included.
        first = np.full(counts.shape[0], n)
        np.minimum.at(first, samples, np.arange(n))
        seen = samples[np.sort(first[counts > 0])]
        alphas[seen] = fix_signs(alphas[seen])
    else:
        gram_cache = gram(kernel, samples)
        centered = center_gram(gram_cache, np.full(n, 1.0 / n))
        spec = sym_eig(centered)
        lam_hat = spec.eigenvalues / n
        r = _retained_rank(lam_hat, kernel.kappa, n, "fit_exact")
        alphas = spec.eigenvectors[:, :r]
        alphas = alphas - alphas.mean(axis=0, keepdims=True)
        alphas = alphas / np.linalg.norm(alphas, axis=0, keepdims=True)
        alphas = fix_signs(alphas)
        k_quad = np.sum(alphas * (gram_cache @ alphas), axis=0)

    # The centring and unit scale are no-ops up to rounding but pin the
    # documented normalization.
    lam_kept = lam_hat[:r].copy()
    coeffs = alphas * np.sqrt(n * lam_kept / k_quad)
    return KpcaModel(
        train_points=samples, kernel=kernel, eigvals=lam_kept, counts=counts,
        atom_coeffs=coeffs if finite else None,
        _dual_coeffs=None if finite else coeffs.T, _gram=gram_cache,
    )


def _eigenfunction_matrix(model: KpcaModel, kernel: Kernel, points: np.ndarray,
                          count: int) -> np.ndarray:
    """Columns f_i(points) for i < count, via one rectangular kernel block."""
    kc = cross_gram(kernel, points, model.train_points)
    scale = 1.0 / np.sqrt(model.n * model.eigvals[:count])
    return (kc @ model.dual_coeffs[:count].T) * scale[None, :]


def eigenfunction_eval(model: KpcaModel, kernel: Kernel, i: int,
                       points: np.ndarray) -> np.ndarray:
    """Evaluate the i-th empirical eigenfunction at a list of points.

    Points follow the kernel's convention: a 1-d integer array of atom
    positions for finite-rank kernels, an (n, p) array for gaussian ones.
    Returns a vector of length n.
    """
    if not 0 <= i < model.rank:
        raise RankError(f"eigenfunction_eval: index {i} outside retained rank {model.rank}")
    pts = np.atleast_1d(np.asarray(points))
    return _eigenfunction_matrix(model, kernel, pts, i + 1)[:, i]


def embed_exact(model: KpcaModel, kernel: Kernel, points: np.ndarray,
                ell: int) -> np.ndarray:
    """Score matrix (n_points, ell) of the first ell eigenfunctions."""
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


def embed_rf(model: RfKpcaModel, points: np.ndarray, ell: int,
             centered: bool = False) -> np.ndarray:
    """Scores <Phi(x), w_i> for i < ell; shape (n_points, ell).

    The default leaves the feature vector uncentered.  With
    ``centered=True`` the training mean is subtracted first, making the
    per-component training variance equal the model eigenvalue.
    """
    if ell < 0 or ell > model.rank:
        raise RankError(f"embed_rf: ell={ell} outside [0, {model.rank}]")
    points = np.atleast_1d(np.asarray(points))
    if ell == 0:
        return np.empty((points.shape[0], 0))
    f = feature_matrix(model.features, points)
    if centered:
        f = f - model.mean[None, :]
    return f @ model.components[:, :ell]


def pop_rf_cov(features: FeatureSample, measure: DiscreteMeasure) -> np.ndarray:
    """Population feature covariance under a finitely supported measure."""
    f = feature_matrix(features, measure.atoms)
    w = measure.weights
    mean = w @ f
    cov = (f * w[:, None]).T @ f - np.outer(mean, mean)
    return (cov + cov.T) / 2.0
