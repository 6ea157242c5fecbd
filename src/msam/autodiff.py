"""Flat parameter storage and finite-difference gradient checking.

`ParameterVector` stores a model's named parameters in one flat, read-only
float64 buffer, which optimizers snapshot, perturb and restore bitwise as a
whole. `grad_check` compares an analytic gradient against central finite
differences of a loss closure; the model's hand-written backward and the
CLI's `gradcheck` command are verified with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from .errors import DimensionError, NumericError, UsageError
from .tensor import Rng

Array = np.ndarray


class ParameterVector:
    """Ordered named parameters in one flat read-only float64 buffer.

    `view(name)` builds a read-only reshaped view of one parameter's slice on
    each call; only checkpoint reads and writes ask for one. `add_stack`
    registers same-shape parameters that sit at one constant stride as a
    stacked view, one item per parameter; `stacks` holds those views for the
    current buffer, built once per buffer. `flatten`/`load_flat` round-trip
    exactly (same order, same bytes), which is what optimizers rely on to
    snapshot and restore parameters bitwise. `load_flat` swaps in a fresh
    buffer instead of writing into the old one, so arrays handed out earlier
    keep their values. Every stored value is finite: construction and
    `load_flat` share one check.
    """

    def __init__(self, named: Sequence[tuple[str, npt.ArrayLike]]):
        if not named:
            raise UsageError("ParameterVector needs at least one parameter")
        self._names: list[str] = []
        self._shapes: dict[str, tuple[int, ...]] = {}
        self._slices: dict[str, slice] = {}
        self._stack_specs: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
        self.stacks: tuple[Array, ...] = ()
        parts = []
        off = 0
        for name, values in named:
            if name in self._slices:
                raise UsageError(f"duplicate parameter name {name!r}")
            arr = np.asarray(values, dtype=np.float64)
            self._names.append(name)
            self._shapes[name] = arr.shape
            self._slices[name] = slice(off, off + arr.size)
            parts.append(arr.ravel())
            off += arr.size
        self.size = off
        self.load_flat(np.concatenate(parts))

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def view(self, name: str) -> Array:
        """Read-only array view of one named parameter."""
        return self._flat[self._slices[name]].reshape(self._shapes[name])

    def slice_of(self, name: str) -> slice:
        return self._slices[name]

    def flatten(self) -> Array:
        """Writable copy of the flat buffer."""
        return self._flat.copy()

    def load_flat(self, vec: npt.ArrayLike) -> None:
        """Replace every parameter with a copy of the finite vector vec."""
        flat = np.array(vec, dtype=np.float64, order="C")
        if flat.shape != (self.size,):
            raise DimensionError(f"load_flat expects shape ({self.size},), got {flat.shape}")
        if not np.isfinite(flat).all():
            raise NumericError("parameters must be finite")
        flat.setflags(write=False)
        self._flat = flat
        self.stacks = self.stack_views(flat)

    def add_stack(self, names: Sequence[str], item_shape: tuple[int, ...] | None = None) -> int:
        """Register the parameters `names` as one stacked view and return its
        index in `stacks`. They must share a shape and sit at one constant
        stride in the buffer; item r of the view is `names[r]`, reshaped to
        `item_shape` (default: the parameters' own shape)."""
        shape = self._shapes[names[0]]
        item_shape = shape if item_shape is None else tuple(item_shape)
        starts = [self._slices[name].start for name in names]
        stride = starts[1] - starts[0] if len(starts) > 1 else 0
        if (any(self._shapes[name] != shape for name in names)
                or starts != [starts[0] + r * stride for r in range(len(starts))]
                or math.prod(item_shape) != math.prod(shape)):
            raise UsageError(f"parameters {list(names)} do not form one stack")
        inner = tuple(8 * math.prod(item_shape[i + 1:]) for i in range(len(item_shape)))
        spec = ((len(names), *item_shape), 8 * starts[0], (8 * stride, *inner))
        self._stack_specs.append(spec)
        self.stacks += (np.ndarray(spec[0], np.float64, self._flat, *spec[1:]),)
        return len(self.stacks) - 1

    def stack_views(self, buffer: Array) -> tuple[Array, ...]:
        """The registered stacked views into `buffer`, a C-contiguous float64
        array of this vector's size, such as a gradient; each view is
        writable if `buffer` is."""
        return tuple(np.ndarray(shape, np.float64, buffer, offset, strides)
                     for shape, offset, strides in self._stack_specs)


@dataclass
class GradCheckReport:
    """Outcome of a central-difference check on sampled coordinates."""

    max_rel_err: float
    worst_coord: int
    n_checked: int
    passed: bool


def grad_check(
    loss_fn: Callable[[], float],
    params: ParameterVector,
    analytic_grad: Array,
    *,
    h: float = 1e-5,
    tol: float = 1e-4,
    max_coords: int = 100,
    rng: Rng | None = None,
) -> GradCheckReport:
    """Compare `analytic_grad` against central finite differences of `loss_fn`.

    `loss_fn` takes no arguments and returns the scalar loss at the current
    parameters. Relative error per coordinate is |g - fd| / max(1, |g|, |fd|).
    Every coordinate is checked when there are at most `max_coords`,
    otherwise a sample of `max_coords` drawn from `rng` (default `Rng(0)`).
    Parameters are restored to their entry values before returning.
    """
    if not 0.0 < h <= 1e-2:
        raise UsageError(f"step size h must be in (0, 1e-2], got {h}")
    if not 0.0 <= tol < math.inf:
        raise UsageError(f"tol must be finite and >= 0, got {tol}")
    if max_coords < 1:
        raise UsageError(f"max_coords must be >= 1, got {max_coords}")
    g = np.asarray(analytic_grad, dtype=np.float64)
    if g.shape != (params.size,):
        raise DimensionError(f"analytic gradient shape {g.shape} != ({params.size},)")
    base = params.flatten()
    if params.size <= max_coords:
        idxs = np.arange(params.size)
    else:
        idxs = (rng if rng is not None else Rng(0)).permutation(params.size)[:max_coords]
    max_rel = 0.0
    worst = int(idxs[0])
    try:
        for i in idxs:
            i = int(i)
            probe = base.copy()
            probe[i] = base[i] + h
            params.load_flat(probe)
            lp = loss_fn()
            probe[i] = base[i] - h
            params.load_flat(probe)
            lm = loss_fn()
            fd = (lp - lm) / (2.0 * h)
            rel = abs(g[i] - fd) / max(1.0, abs(g[i]), abs(fd))
            if rel > max_rel:
                max_rel, worst = rel, i
    finally:
        params.load_flat(base)
    return GradCheckReport(
        max_rel_err=max_rel,
        worst_coord=worst,
        n_checked=int(idxs.size),
        passed=max_rel <= tol,
    )
