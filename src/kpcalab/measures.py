"""Finitely supported probability measures and categorical sampling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, _count
from .rng import generator

__all__ = ["DiscreteMeasure", "discrete_measure", "uniform_measure", "draw_samples"]

_WEIGHT_SUM_ATOL = 1e-12
# Guide-table steps draw_samples takes before it falls back to binary search.
_GUIDE_STEPS = 2


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure on finitely many distinct atoms.

    atoms: shape (N,) integer labels (positions 0..N-1 for kernels defined
        on an index set) or shape (N, p) real vectors.
    weights: shape (N,), finite and strictly positive, summing to one within 1e-12.

    Use :func:`discrete_measure` to build one from unnormalized weights;
    the raw constructor validates but never rescales.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms)
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or atoms.shape[0] != weights.shape[0]:
            raise InvalidInput(
                f"DiscreteMeasure: {atoms.shape[0]} atoms but {weights.shape} weights"
            )
        if weights.size == 0:
            raise InvalidInput("DiscreteMeasure: empty support")
        if not np.all(np.isfinite(weights) & (weights > 0.0)):
            raise InvalidInput("DiscreteMeasure: weights must be finite and strictly positive")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_ATOL:
            raise InvalidInput(
                f"DiscreteMeasure: weights sum to {weights.sum()!r}, not 1 within "
                f"{_WEIGHT_SUM_ATOL:g}"
            )
        flat = atoms.reshape(atoms.shape[0], -1)
        if np.unique(flat, axis=0).shape[0] != atoms.shape[0]:
            raise InvalidInput("DiscreteMeasure: atoms must be pairwise distinct")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray]:
        """draw_samples' normalised CDF and its guide table, built on the first
        draw and kept (read-only) for every later one."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        # Start one bucket below u's own, so rounding in u * N never passes the answer.
        edges = (np.arange(cdf.size + 1) - 1.0) / cdf.size
        guide = cdf.searchsorted(edges, side="right")
        cdf.flags.writeable = guide.flags.writeable = False
        return cdf, guide


def discrete_measure(atoms: np.ndarray, weights: np.ndarray) -> DiscreteMeasure:
    """Build a measure from nonnegative weights.

    Zero-weight atoms are pruned before renormalization, so degenerate
    inputs like (1, 0, 0) collapse to a point mass instead of failing
    the positivity check.
    """
    atoms = np.asarray(atoms)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or atoms.shape[0] != weights.shape[0]:
        raise InvalidInput("discrete_measure: atoms and weights lengths differ")
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise InvalidInput("discrete_measure: weights must be finite and nonnegative")
    keep = weights > 0.0
    if not np.any(keep):
        raise InvalidInput("discrete_measure: all weights are zero")
    atoms = atoms[keep]
    weights = weights[keep]
    return DiscreteMeasure(atoms, weights / weights.sum())


def uniform_measure(n_atoms: int) -> DiscreteMeasure:
    """Uniform measure on the index atoms 0..n_atoms-1."""
    n_atoms = _count("uniform_measure: n_atoms", n_atoms, least=1)
    return DiscreteMeasure(np.arange(n_atoms), np.full(n_atoms, 1.0 / n_atoms))


def draw_samples(measure: DiscreteMeasure, n: int, seed: int) -> np.ndarray:
    """n i.i.d. atoms from the measure, reproducible from the seed alone.

    Equal element for element to ``generator(seed).choice(measure.size, n,
    p=measure.weights)``: the same CDF and uniforms, looked up through a guide
    table of N equal buckets (Chen & Asau, 1974), with binary search for the
    samples a skewed measure leaves more than _GUIDE_STEPS atoms away.  The
    measure builds its CDF and guide table on its first draw and keeps them.
    """
    n = _count("draw_samples: n", n, least=1)
    cdf, guide = measure._guide
    u = generator(seed).random(n)
    idx = guide[(u * cdf.size).astype(np.intp)]
    for _ in range(_GUIDE_STEPS):
        idx += cdf[idx] <= u
    rest = np.flatnonzero(cdf[idx] <= u)
    idx[rest] = cdf.searchsorted(u[rest], side="right")
    return measure.atoms[idx]
