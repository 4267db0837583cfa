"""Deterministic stream derivation for all randomness in the library.

Every sampling routine takes an integer seed and derives a counter-based
bit generator from it, so results never depend on call order, thread
count, or global state.  The seed passes ``errors._count``: 4.0 is seed 4,
while 2.7 or True is a ConfigError, never seed 2 or 1.  Derivation rule:
the master seed and a sequence of labels (strings or integers) are joined
into the byte string ``b"kpcalab|<seed>|<label>|..."``, hashed with
SHA-256, and the first 128 bits of the digest become a Philox key.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import _count

__all__ = ["derive_seed", "generator"]


def derive_seed(master: int, *labels: int | str) -> int:
    """Derive a 128-bit child seed from a master seed and stream labels."""
    parts = ["kpcalab", str(_count("seed", master))] + [str(lab) for lab in labels]
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def generator(seed: int, *labels: int | str) -> np.random.Generator:
    """Generator for the stream named by ``labels`` under ``seed``.

    With no labels the seed is used as the Philox key directly, so
    ``generator(derive_seed(s, "x"))`` and ``generator(s, "x")`` agree.
    """
    key = derive_seed(seed, *labels) if labels else _count("seed", seed) % (1 << 128)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


@functools.cache
def _key_sequence() -> type:
    """Seed sequence that hands Philox its key words: Philox(key=k)'s state, less
    the OS entropy that call draws and discards.  Defined on first use, as
    subclassing imports numpy.random."""

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: int) -> None:
            self.words = np.array([key & (1 << 64) - 1, key >> 64], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # Philox asks for its key: 2 words of uint64

    return KeySequence
