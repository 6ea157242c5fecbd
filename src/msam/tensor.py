"""The deterministic PRNG used everywhere in the library.

Randomness comes from a counter-based SplitMix64 generator with a Box-Muller
normal transform. The exact output stream is part of the reproducibility
contract (identical seeds give identical experiment artifacts byte for byte),
so the generator is pinned here rather than borrowed from numpy:

    out[i] = mix64(seed + (i+1) * 0x9E3779B97F4A7C15)        (i = 0, 1, ...)

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27; z *= 0x94D049BB133111EB
              return z ^ (z >> 31)

with all arithmetic mod 2**64. Uniform doubles in [0, 1) take the top 53 bits
(`raw >> 11` scaled by 2**-53); normals use Box-Muller on uniform pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64_py(z: int) -> int:
    """Pure-python SplitMix64 finalizer, used for seed derivation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integers into a fresh 64-bit seed (order-sensitive).

    Used to split independent streams off one experiment seed, e.g.
    ``derive_seed(seed, epoch)`` for per-epoch shuffles.
    """
    s = len(parts) & _MASK64
    for p in parts:
        s = _mix64_py((s ^ _mix64_py(p & _MASK64)) + _GAMMA)
    return s


class Rng:
    """Counter-based SplitMix64 stream with uniform/normal/permutation draws.

    Stateless apart from a draw counter: the n-th raw output depends only on
    (seed, n), so interleaving differently sized requests never desynchronizes
    parallel replicas of the same seed.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._count = 0

    def raw64(self, n: int) -> np.ndarray:
        """Next n raw uint64 outputs; 2**60 or more is a MemoryError: no array holds them."""
        if n < 0:
            raise UsageError("raw64 needs n >= 0")
        if n >= 1 << 60:
            raise MemoryError(f"a draw of {n} values does not fit in memory")
        base = np.uint64(self.seed)
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = base + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, shape: tuple[int, ...] | int = ()) -> np.ndarray | float:
        """Uniform float64 draws in [0, 1)."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        u = (self.raw64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape: tuple[int, ...] | int = ()) -> np.ndarray | float:
        """Standard normal draws via Box-Muller on uniform pairs."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        m = (n + 1) // 2
        u = (self.raw64(2 * m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log1p(-u[:m]))  # u < 1 so the log argument is > 0
        ang = (2.0 * np.pi) * u[m:]
        z = np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:n]
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, upper: int, size: int) -> np.ndarray:
        """size int64 draws uniform on [0, upper)."""
        if upper <= 0:
            raise UsageError("integers needs upper >= 1")
        u = np.asarray(self.uniform((size,)))
        return np.minimum((u * upper).astype(np.int64), upper - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) (argsort of raw keys)."""
        return np.argsort(self.raw64(n), kind="stable")
