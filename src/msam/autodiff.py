"""Flat parameter storage and finite-difference gradient checking.

`ParameterVector` holds a model's named parameter tensors and gives them one
flat float64 view, which optimizers use to snapshot, perturb and restore the
parameters bitwise. `grad_check` compares an analytic gradient against central
finite differences of a loss closure; the model's hand-written backward and
the CLI's `gradcheck` command are verified with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, UsageError
from .tensor import Rng, Tensor

Array = np.ndarray


class ParameterVector:
    """Ordered named parameter tensors with flat-vector views.

    `flatten`/`load_flat` round-trip exactly (same order, same bytes), which is
    what optimizers rely on to snapshot and restore parameters bitwise.
    """

    def __init__(self, named: Sequence[tuple[str, Tensor]]):
        if not named:
            raise UsageError("ParameterVector needs at least one tensor")
        self._names: list[str] = []
        self._tensors: dict[str, Tensor] = {}
        self._slices: dict[str, slice] = {}
        off = 0
        for name, t in named:
            if name in self._tensors:
                raise UsageError(f"duplicate parameter name {name!r}")
            if not isinstance(t, Tensor):
                t = Tensor(t)
            self._names.append(name)
            self._tensors[name] = t
            self._slices[name] = slice(off, off + t.size)
            off += t.size
        self.size = off

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def tensor(self, name: str) -> Tensor:
        return self._tensors[name]

    def view(self, name: str) -> Array:
        """Read-only array view of one named tensor."""
        return self._tensors[name].data

    def slice_of(self, name: str) -> slice:
        return self._slices[name]

    def group_mask(self, prefix: str) -> Array:
        """Boolean mask over the flat vector for names starting with prefix."""
        mask = np.zeros(self.size, dtype=bool)
        for name in self._names:
            if name.startswith(prefix):
                mask[self._slices[name]] = True
        return mask

    def flatten(self) -> Array:
        out = np.empty(self.size, dtype=np.float64)
        for name in self._names:
            out[self._slices[name]] = self._tensors[name].data.ravel()
        return out

    def load_flat(self, vec: Array) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise DimensionError(f"load_flat expects shape ({self.size},), got {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise NumericError("load_flat rejects non-finite parameters")
        for name in self._names:
            shape = self._tensors[name].shape
            arr = vec[self._slices[name]].reshape(shape).copy()
            arr.setflags(write=False)
            t = Tensor.__new__(Tensor)
            t.data = arr
            self._tensors[name] = t


@dataclass
class GradCheckReport:
    """Outcome of a central-difference check on sampled coordinates."""

    max_rel_err: float
    worst_coord: int
    n_checked: int
    h: float
    tol: float
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
    coords: Sequence[int] | None = None,
) -> GradCheckReport:
    """Compare `analytic_grad` against central finite differences of `loss_fn`.

    `loss_fn` takes no arguments and returns the scalar loss at the current
    parameters. Relative error per coordinate is |g - fd| / max(1, |g|, |fd|).
    Coordinates default to all of them when the parameter count is small,
    otherwise a seeded sample. Parameters are restored to their entry values
    before returning.
    """
    if not 0.0 < h <= 1e-2:
        raise UsageError(f"step size h must be in (0, 1e-2], got {h}")
    g = np.asarray(analytic_grad, dtype=np.float64)
    if g.shape != (params.size,):
        raise DimensionError(f"analytic gradient shape {g.shape} != ({params.size},)")
    base = params.flatten()
    if coords is None:
        if params.size <= max_coords:
            idxs = np.arange(params.size)
        else:
            rng = rng if rng is not None else Rng(0)
            idxs = rng.permutation(params.size)[:max_coords]
    else:
        idxs = np.asarray(list(coords), dtype=np.int64)
        if idxs.size == 0 or idxs.min() < 0 or idxs.max() >= params.size:
            raise UsageError("coords must be non-empty and within the flat parameter range")
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
        h=h,
        tol=tol,
        passed=max_rel <= tol,
    )
