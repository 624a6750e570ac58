"""Deterministic, splittable random streams.

Every random draw in a solver run is keyed by ``(seed, *path)`` where the
path names the iteration and the purpose of the draw (e.g. ``(4, "grad")``).
Streams are pure values: deriving a generator from the same key always
reproduces the same draws, independent of call order. This is what makes
trajectories bitwise reproducible and lets two evaluations share a sample
set by sharing a key.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream"]

_WORD = (1 << 64) - 1


def _require_integer(value, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer: a numpy one, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _digest(parts: tuple) -> int:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands ``Philox`` a fixed 128-bit key.

    ``Philox`` asks its seed sequence for two 64-bit words and uses them as
    its key, so its draws equal those of ``Philox(key=k)``, which splits
    ``k`` low word first. Unlike ``key=``, this builds no entropy-seeded
    ``SeedSequence`` only to override it. The object has no ``spawn``;
    derive sub-streams with :meth:`RngStream.child`.
    """

    def __init__(self, key: int):
        self.words = np.array([key & _WORD, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 words of uint64, asked for {n_words} of {dtype}")
        return self.words.copy()


def _generator(key: int) -> np.random.Generator:
    """A new generator for a 128-bit key; each call returns its own, whose
    ``bit_generator.seed_seq`` is the key's :class:`_PhiloxKey`."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


class RngStream:
    """A keyed source of ``numpy.random.Generator`` objects.

    Parameters
    ----------
    seed : int
        Run-level seed: an integer (a numpy one too), not a bool, float or string.
    path : tuple, optional
        Key components appended by :meth:`child`.
    """

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple = ()):
        _require_integer(seed, "seed")
        self.seed = int(seed)
        self.path = tuple(path)

    def child(self, *parts) -> "RngStream":
        """Derive a sub-stream keyed by extra path components (ints or strings)."""
        return RngStream(self.seed, self.path + tuple(parts))

    def generator(self) -> np.random.Generator:
        """A fresh generator for this key. Same key, same draws."""
        return _generator(_digest((self.seed,) + self.path))

    def point_generator(self, x: np.ndarray) -> np.random.Generator:
        """A generator keyed by this stream *and* the evaluation point.

        Folding the point into the key makes noise draws at bit-identical
        points identical, and draws at distinct points independent, while a
        shared parent key still identifies one logical sample set.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        xdig = hashlib.blake2b(x.tobytes(), digest_size=16).hexdigest()
        return _generator(_digest((self.seed,) + self.path + (xdig,)))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"
