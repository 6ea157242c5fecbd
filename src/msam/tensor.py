"""Dense float64 tensors and the deterministic PRNG used everywhere else.

The `Tensor` wrapper enforces the library-wide numeric contract for stored
parameters: C-contiguous float64 storage, read-only buffers, and a finiteness
check on construction and scaling, so violations surface as library errors
instead of silent NaNs.

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

import numpy as np

from .errors import DimensionError, NumericError, UsageError

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

    def split(self, tag: int) -> "Rng":
        """Child stream keyed by (seed, tag), independent of draws so far."""
        return Rng(derive_seed(self.seed, tag))

    def raw64(self, n: int) -> np.ndarray:
        """Next n raw uint64 outputs."""
        if n < 0:
            raise UsageError("raw64 needs n >= 0")
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
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self.raw64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape: tuple[int, ...] | int = ()) -> np.ndarray | float:
        """Standard normal draws via Box-Muller on uniform pairs."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
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


def _wrap(arr: np.ndarray, op: str) -> "Tensor":
    """Adopt a freshly computed array as a Tensor, checking finiteness."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    t = Tensor.__new__(Tensor)
    t.data = arr
    return t


class Tensor:
    """Immutable dense float64 array.

    Values are validated finite on construction and after `scale`; buffers
    are read-only, so a Tensor can be shared freely once returned.
    """

    __slots__ = ("data",)

    data: np.ndarray

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise NumericError("Tensor values must be finite")
        arr.setflags(write=False)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    def scale(self, c: float) -> "Tensor":
        """Multiply every element by the scalar c."""
        if not np.isfinite(c):
            raise NumericError("scale factor must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            return _wrap(self.data * float(c), "scale")


def randn(rng: Rng, shape: tuple[int, ...]) -> Tensor:
    """Tensor of iid standard normals drawn from rng."""
    return _wrap(np.asarray(rng.normal(tuple(shape))), "randn")
