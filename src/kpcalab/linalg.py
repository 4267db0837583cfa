"""Dense symmetric eigen-tools with a fixed ordering and sign convention.

Everything downstream (kernel centering, covariance spectra, projectors,
perturbation checks) funnels through ``sym_eig`` so that eigenvalue
ordering and eigenvector signs are reproducible across runs and
platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EigengapError, InvalidInput, NotPositiveSemidefinite, NumericFailure,
                     RankError, _count, _real)

__all__ = [
    "RANK_RTOL",
    "GAP_TOL",
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
    For a stack of matrices both carry the stack's leading axes, shapes
    (..., n) and (..., n, n), and member k is exactly the Spectrum of
    matrix k decomposed alone.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=float))

    def __getitem__(self, k) -> "Spectrum":
        """Index the stack axes: member k, a sub-stack, or (with None) a stack of one."""
        return Spectrum(self.eigenvalues[k], self.eigenvectors[k])


def _require_symmetric(a: np.ndarray, op: str) -> np.ndarray:
    """``a`` as floats: one square matrix, or a stack of them on the last two axes."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise InvalidInput(
            f"{op}: expected a square matrix or a stack of them, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise InvalidInput(f"{op}: matrix contains non-finite entries")
    if a.size:
        asymmetry = np.abs(a - a.swapaxes(-1, -2)).max()
        if asymmetry > _SYMMETRY_ATOL:
            raise InvalidInput(
                f"{op}: matrix is not symmetric within {_SYMMETRY_ATOL:g} "
                f"(max asymmetry {asymmetry:.3e})"
            )
    return a


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each largest-magnitude entry is positive.

    Ties go to the lowest index.  Applied to every eigenvector basis in
    the library so decompositions are reproducible.  A stack of bases
    (..., rows, columns) is fixed member by member.
    """
    rows, cols = vectors.shape[-2:]
    members = vectors.reshape(math.prod(vectors.shape[:-2]), rows, cols)
    lead = np.abs(members).argmax(axis=1)
    signs = np.sign(members[np.arange(len(members))[:, None], lead, np.arange(cols)])
    signs[signs == 0.0] = 1.0
    return (members * signs[:, None, :]).reshape(vectors.shape)


def _eig_solve(solver, a: np.ndarray, op: str):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        # The LAPACK info code (failed iteration count) rides in the message.
        raise NumericFailure(f"{op}: eigensolver did not converge ({exc})") from exc


def sym_eig(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix or a stack of them.

    Raises InvalidInput for non-square, non-finite, or asymmetric input
    (any member of a stack) and NumericFailure if the underlying solver
    does not converge.
    """
    a = _require_symmetric(a, "sym_eig")
    vals, vecs = _eig_solve(np.linalg.eigh, a, "sym_eig")
    # eigh's eigenvalues ascend, so reversing them sorts them descending.
    # Columns are reversed as rows of the transpose, which leaves each member
    # in the memory layout a 2-D column gather gives, so products downstream
    # round the same way for a stack member as for the matrix alone.
    cols = np.ascontiguousarray(vecs.swapaxes(-1, -2)[..., ::-1, :]).swapaxes(-1, -2)
    return Spectrum(np.ascontiguousarray(vals[..., ::-1]), fix_signs(cols))


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, each bit-for-bit np.linalg.norm of its matrix."""
    flat = a.reshape(*a.shape[:-2], 1, -1)
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def matrix_norm(a: np.ndarray, kind: str | tuple[str, ...]) -> float | np.ndarray | tuple:
    """Spectral norms of a symmetric matrix, computed without eigenvectors.

    kind: "operator" (max |eigenvalue|), "hilbert_schmidt" (l2 of the
    eigenvalues, computed as the Frobenius norm), or "trace" (l1).
    A float for one matrix, an array over the leading axes for a stack.
    A tuple of kinds gives a tuple of norms in that order, and the
    operator and trace norms then share one eigenvalue solve.
    Raises NumericFailure if the eigenvalue solver does not converge.
    """
    a = _require_symmetric(a, "matrix_norm")
    kinds = (kind,) if isinstance(kind, str) else kind
    if not set(kinds) <= {"operator", "hilbert_schmidt", "trace"}:
        raise InvalidInput(f"matrix_norm: unknown kind {kind!r}")
    if set(kinds) - {"hilbert_schmidt"}:
        vals = np.abs(_eig_solve(np.linalg.eigvalsh, a, "matrix_norm"))
    norms = [_frobenius(a) if k == "hilbert_schmidt"
             else vals.sum(axis=-1) if k == "trace" else vals.max(axis=-1, initial=0.0)
             for k in kinds]
    norms = [float(n) for n in norms] if a.ndim == 2 else norms
    return norms[0] if isinstance(kind, str) else tuple(norms)


def fractional_power(a: np.ndarray | Spectrum, t: float) -> np.ndarray:
    """A**t for PSD ``a`` (or each member of a stack) and real exponent t >= 0.

    ``a`` may also be its ``sym_eig`` Spectrum, which is then reused as is.
    Eigenvalues in [-RANK_RTOL * ||a||_op, 0) are clamped to zero; more
    negative ones raise NotPositiveSemidefinite, each member of a stack
    measured against its own floor.
    """
    t = _real("fractional_power: t", t)
    if t < 0:
        raise InvalidInput(f"fractional_power: exponent must be >= 0, got {t}")
    spec = a if isinstance(a, Spectrum) else sym_eig(a)
    vals = spec.eigenvalues.copy()
    floor = -RANK_RTOL * np.abs(vals).max(axis=-1, initial=0.0)
    low = vals.min(axis=-1, initial=np.inf)
    below = low < floor
    if below.any():
        worst = np.argmin(np.where(below, low - floor, np.inf))
        raise NotPositiveSemidefinite(
            f"fractional_power: eigenvalue {low.flat[worst]:.6e} "
            f"below PSD tolerance {floor.flat[worst]:.6e}"
        )
    vals[vals < 0.0] = 0.0
    vecs = spec.eigenvectors
    out = (vecs * vals[..., None, :] ** t) @ vecs.swapaxes(-1, -2)
    return (out + out.swapaxes(-1, -2)) / 2.0


def spectral_projector(spectrum: Spectrum, ell: int) -> np.ndarray:
    """Orthogonal projector onto the span of the top ``ell`` eigenvectors.

    Requires ell to stay within the numerically retained rank and the gap
    eigenvalue[ell-1] - eigenvalue[ell] to exceed GAP_TOL, so a projector
    never splits a degenerate cluster.  A stacked Spectrum gives one
    projector per member, each checked and bit-for-bit the member's alone.
    """
    ell = _check_split(spectrum.eigenvalues, ell)
    v = spectrum.eigenvectors[..., :ell]
    p = v @ v.swapaxes(-1, -2)
    return (p + p.swapaxes(-1, -2)) / 2.0


def _check_split(vals: np.ndarray, ell: int) -> int:
    """spectral_projector's rank and gap checks on descending eigenvalues
    ``vals``; returns ``ell`` as an int."""
    ell = _count("spectral_projector: ell", ell, least=1)
    top = vals[..., :1]
    retained = np.sum((vals > RANK_RTOL * top) & (top > 0), axis=-1)
    if np.any(ell > retained):
        raise RankError(
            f"spectral_projector: ell={ell} exceeds numerically retained rank "
            f"{retained.flat[np.argmax(ell > retained)]}"
        )
    if ell < vals.shape[-1]:
        gap = vals[..., ell - 1] - vals[..., ell]
        if np.any(gap <= GAP_TOL):
            raise EigengapError(
                f"spectral_projector: gap at ell={ell} is "
                f"{gap.flat[np.argmax(gap <= GAP_TOL)]:.3e} <= {GAP_TOL:g}"
            )
    return ell


def eigengaps(spectrum: Spectrum) -> np.ndarray:
    """Half-gaps (lambda_i - lambda_{i+1}) / 2 for i = 1..n-1, per member of a stack."""
    vals = spectrum.eigenvalues
    if vals.shape[-1] < 2:
        raise InvalidInput("eigengaps: need at least two eigenvalues")
    return (vals[..., :-1] - vals[..., 1:]) / 2.0
