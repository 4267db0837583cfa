"""Dense symmetric eigen-tools with a fixed ordering and sign convention.

Everything downstream (kernel centering, covariance spectra, projectors,
perturbation checks) funnels through ``sym_eig`` so that eigenvalue
ordering and eigenvector signs are reproducible across runs and
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigengapError, InvalidInput, NotPositiveSemidefinite, NumericFailure, RankError

__all__ = [
    "Spectrum",
    "sym_eig",
    "matrix_norm",
    "fractional_power",
    "spectral_projector",
    "eigengaps",
    "fix_signs",
]

# Relative threshold under which an eigenvalue counts as numerically zero.
RANK_RTOL = 1e-10
# Absolute gap below which adjacent eigenvalues are treated as tied.
GAP_TOL = 1e-12
_SYMMETRY_ATOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with eigenvalues descending.

    eigenvalues: shape (n,), sorted descending.
    eigenvectors: shape (n, n), column i pairs with eigenvalues[i]; each
        column is normalized so its largest-magnitude entry is positive
        (ties broken by the lowest index).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=float))


def _require_symmetric(a: np.ndarray, op: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{op}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{op}: matrix contains non-finite entries")
    if a.size and np.max(np.abs(a - a.T)) > _SYMMETRY_ATOL:
        raise InvalidInput(
            f"{op}: matrix is not symmetric within {_SYMMETRY_ATOL:g} "
            f"(max asymmetry {np.max(np.abs(a - a.T)):.3e})"
        )
    return a


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each largest-magnitude entry is positive.

    Ties go to the lowest index.  Applied to every eigenvector basis in
    the library so decompositions are reproducible.
    """
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def _eig_solve(solver, a: np.ndarray, op: str):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        # The LAPACK info code (failed iteration count) rides in the message.
        raise NumericFailure(f"{op}: eigensolver did not converge ({exc})") from exc


def sym_eig(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix.

    Raises InvalidInput for non-square, non-finite, or asymmetric input
    and NumericFailure if the underlying solver does not converge.
    """
    a = _require_symmetric(a, "sym_eig")
    vals, vecs = _eig_solve(np.linalg.eigh, a, "sym_eig")
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = fix_signs(vecs[:, order])
    return Spectrum(vals, vecs)


def matrix_norm(a: np.ndarray, kind: str) -> float:
    """Spectral norms of a symmetric matrix, computed without eigenvectors.

    kind: "operator" (max |eigenvalue|), "hilbert_schmidt" (l2 of the
    eigenvalues, computed as the Frobenius norm), or "trace" (l1).
    Raises NumericFailure if the eigenvalue solver does not converge.
    """
    a = _require_symmetric(a, "matrix_norm")
    if kind == "hilbert_schmidt":
        return float(np.linalg.norm(a))
    if kind not in ("operator", "trace"):
        raise InvalidInput(f"matrix_norm: unknown kind {kind!r}")
    vals = np.abs(_eig_solve(np.linalg.eigvalsh, a, "matrix_norm"))
    return float(np.sum(vals) if kind == "trace" else np.max(vals, initial=0.0))


def fractional_power(a: np.ndarray | Spectrum, t: float) -> np.ndarray:
    """A**t for PSD ``a`` and real exponent t >= 0.

    ``a`` may also be its ``sym_eig`` Spectrum, which is then reused as is.
    Eigenvalues in [-RANK_RTOL * ||a||_op, 0) are clamped to zero; more
    negative ones raise NotPositiveSemidefinite.
    """
    if t < 0:
        raise InvalidInput(f"fractional_power: exponent must be >= 0, got {t}")
    spec = a if isinstance(a, Spectrum) else sym_eig(a)
    vals = spec.eigenvalues.copy()
    top = float(np.max(np.abs(vals))) if vals.size else 0.0
    floor = -RANK_RTOL * top
    if np.any(vals < floor):
        raise NotPositiveSemidefinite(
            f"fractional_power: eigenvalue {vals.min():.6e} below PSD tolerance {floor:.6e}"
        )
    vals[vals < 0.0] = 0.0
    out = (spec.eigenvectors * vals**t) @ spec.eigenvectors.T
    return (out + out.T) / 2.0


def spectral_projector(spectrum: Spectrum, ell: int) -> np.ndarray:
    """Orthogonal projector onto the span of the top ``ell`` eigenvectors.

    Requires ell to stay within the numerically retained rank and the gap
    eigenvalue[ell-1] - eigenvalue[ell] to exceed GAP_TOL, so a projector
    never splits a degenerate cluster.
    """
    vals = spectrum.eigenvalues
    if not isinstance(ell, (int, np.integer)) or ell < 1:
        raise InvalidInput(f"spectral_projector: ell must be a positive integer, got {ell!r}")
    top = vals[0] if vals.size else 0.0
    retained = int(np.sum(vals > RANK_RTOL * top)) if top > 0 else 0
    if ell > retained:
        raise RankError(
            f"spectral_projector: ell={ell} exceeds numerically retained rank {retained}"
        )
    if ell < vals.size and vals[ell - 1] - vals[ell] <= GAP_TOL:
        raise EigengapError(
            f"spectral_projector: gap at ell={ell} is "
            f"{vals[ell - 1] - vals[ell]:.3e} <= {GAP_TOL:g}"
        )
    v = spectrum.eigenvectors[:, :ell]
    p = v @ v.T
    return (p + p.T) / 2.0


def eigengaps(spectrum: Spectrum) -> np.ndarray:
    """Half-gaps (lambda_i - lambda_{i+1}) / 2 for i = 1..n-1."""
    vals = spectrum.eigenvalues
    if vals.size < 2:
        raise InvalidInput("eigengaps: need at least two eigenvalues")
    return (vals[:-1] - vals[1:]) / 2.0
