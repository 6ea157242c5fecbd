"""Evaluation metrics: overfitting gap, modality accuracies, loss-landscape
grids, a random-direction sharpness proxy, and gradient-norm convergence
diagnostics.

Everything here is a pure function of a parameter snapshot (the model-facing
helpers restore parameters before returning), so metrics can be computed at
any point of a run without disturbing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, UsageError
from .model import BranchCache, MultimodalModel, accuracies, check_labels, evaluate
from .tensor import Rng

Array = np.ndarray


@dataclass
class MetricRecord:
    """Per-epoch snapshot, one entry per evaluated split.

    `loss`, `acc` and `mono_acc` are keyed by split name; `mean_nu` and
    `dom_freq` summarize the Shapley weights over the epoch's steps (None for
    optimizers that do not attribute); `grad_sq_norm` is the epoch mean of
    the squared gradient norm; `lr`/`rho` are the last step's scheduled
    values.
    """

    epoch: int
    loss: dict[str, float]
    acc: dict[str, float]
    tau: float | None
    mono_acc: dict[str, tuple[float, ...]]
    mean_nu: tuple[float, ...] | None
    dom_freq: float | None
    grad_sq_norm: float
    lr: float
    rho: float


def overfitting_gap(acc_train: float, acc_test: float) -> float | None:
    """Normalized gap |acc_train - acc_test| / acc_test; None when undefined
    (zero test accuracy)."""
    if acc_test == 0.0:
        return None
    return abs(acc_train - acc_test) / acc_test


def relative_gain(acc_method: float, acc_baseline: float) -> float:
    """Percent improvement of a method over a baseline accuracy."""
    if acc_baseline <= 0.0:
        raise UsageError(f"baseline accuracy must be > 0, got {acc_baseline}")
    return (acc_method - acc_baseline) / acc_baseline * 100.0


def mono_modal_accuracy(model: MultimodalModel, xs: Sequence[Array], labels: Array, m: int,
                        cache: BranchCache | None = None) -> float:
    """Accuracy with only modality m active (all others zero-masked); an
    index outside [0, M) is a UsageError. With a `cache` from
    `model.branch_cache(xs, ...)` that holds the singleton {m}, the logits are
    its table row, bit for bit those of the masked forward. Only the
    accuracy is scored, by the `accuracies` call `evaluate` makes."""
    if not 0 <= m < model.n_modalities:
        raise UsageError(f"modality {m} outside [0, {model.n_modalities})")
    logits = model.forward_masked(xs, 1 << m, cache)
    labels = np.asarray(labels)
    check_labels(labels, len(logits), model.classes)
    return float(accuracies(logits, labels))


@dataclass
class LandscapeGrid:
    """Loss surface on a 2-D slice through parameter space."""

    d1: Array
    d2: Array
    alphas: Array
    betas: Array
    losses: Array
    center_loss: float


def _filter_normalized(theta: Array, slices: Sequence[slice], rng: Rng) -> Array:
    """Gaussian direction with each tensor's slice rescaled to that tensor's
    norm (zero tensors get a zero slice)."""
    d = rng.normal(theta.size)
    for sl in slices:
        tn = float(np.linalg.norm(theta[sl]))
        sn = float(np.linalg.norm(d[sl]))
        d[sl] = d[sl] * (tn / sn) if sn > 0.0 else 0.0
    return d


def landscape_grid_flat(
    loss_fn: Callable[[Array], float],
    theta: Array,
    slices: Sequence[slice],
    resolution: int,
    radius: float,
    rng: Rng,
) -> LandscapeGrid:
    """Loss values at theta + alpha*d1 + beta*d2 over a centered grid.

    Directions are filter-normalized Gaussians, with d2 orthogonalized
    against the unit d1 and rescaled back to its pre-orthogonalization norm;
    degenerate draws retry up to 5 times. The center cell is pinned to
    alpha = beta = 0 so it evaluates the unperturbed loss.
    """
    if resolution < 3 or resolution % 2 == 0:
        raise UsageError(f"resolution must be an odd number >= 3, got {resolution}")
    if not 0.0 <= radius < math.inf:
        raise UsageError(f"radius must be finite and >= 0, got {radius}")
    theta = np.asarray(theta, dtype=np.float64)
    for _ in range(5):
        d1 = _filter_normalized(theta, slices, rng)
        n1 = float(np.linalg.norm(d1))
        if n1 < 1e-12:
            continue
        d2 = _filter_normalized(theta, slices, rng)
        pre = float(np.linalg.norm(d2))
        d1_hat = d1 / n1
        d2 = d2 - (d2 @ d1_hat) * d1_hat
        post = float(np.linalg.norm(d2))
        if pre < 1e-12 or post < 1e-10 * pre:
            continue
        d2 = d2 * (pre / post)
        break
    else:
        raise NumericError("could not draw non-degenerate landscape directions in 5 attempts")
    # each coordinate's largest grid value sits at a corner, where it is this reach
    with np.errstate(over="ignore"):
        reach = np.abs(theta) + radius * (np.abs(d1) + np.abs(d2))
    if not np.isfinite(reach).all():
        raise NumericError(f"radius {radius!r} takes the grid outside the finite float range")
    mid = resolution // 2
    alphas = np.linspace(-radius, radius, resolution)
    betas = np.linspace(-radius, radius, resolution)
    alphas[mid] = 0.0
    betas[mid] = 0.0
    losses = np.empty((resolution, resolution), dtype=np.float64)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            losses[i, j] = loss_fn(theta + a * d1 + b * d2)
    return LandscapeGrid(
        d1=d1, d2=d2, alphas=alphas, betas=betas, losses=losses,
        center_loss=float(losses[mid, mid]),
    )


def _model_loss_fn(model: MultimodalModel, xs: Sequence[Array], labels: Array):
    labels = np.asarray(labels)

    def loss_fn(vec: Array) -> float:
        model.params.load_flat(vec)
        loss, _ = evaluate(model, xs, labels)
        return loss

    return loss_fn


def landscape_grid(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    resolution: int,
    radius: float,
    rng: Rng,
) -> LandscapeGrid:
    """2-D loss landscape of a model around its current parameters."""
    base = model.params.flatten()
    slices = [model.params.slice_of(name) for name in model.params.names]
    try:
        return landscape_grid_flat(
            _model_loss_fn(model, xs, labels), base, slices, resolution, radius, rng
        )
    finally:
        model.params.load_flat(base)


def sharpness_proxy_flat(
    loss_fn: Callable[[Array], float],
    theta: Array,
    rho: float,
    n_samples: int,
    rng: Rng,
) -> float:
    """Mean loss increase over random unit-direction perturbations of norm rho."""
    if n_samples < 1:
        raise UsageError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 <= rho < math.inf:
        raise UsageError(f"rho must be finite and >= 0, got {rho}")
    theta = np.asarray(theta, dtype=np.float64)
    base = loss_fn(theta)
    total = 0.0
    for _ in range(n_samples):
        u = rng.normal(theta.size)
        nn = float(np.linalg.norm(u))
        while nn < 1e-12:
            u = rng.normal(theta.size)
            nn = float(np.linalg.norm(u))
        total += loss_fn(theta + (rho / nn) * u) - base
    return total / n_samples


def sharpness_proxy(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    rho: float,
    n_samples: int,
    rng: Rng,
) -> float:
    """Random-direction sharpness of the model's loss at its current parameters."""
    base = model.params.flatten()
    try:
        return sharpness_proxy_flat(
            _model_loss_fn(model, xs, labels), base, rho, n_samples, rng
        )
    finally:
        model.params.load_flat(base)


@dataclass
class ConvergenceReport:
    """Gradient-norm trace against the C*log(T)/sqrt(T) reference curve."""

    sq_norms: Array
    running_avg: Array
    c_fit: float
    g_max: float
    bound: Array
    calibrate_at: int


def convergence_report(grad_norms: Sequence[float], calibrate_at: int | None = None) -> ConvergenceReport:
    """Running average of squared gradient norms plus a calibrated reference.

    The constant C is chosen so that C*log(t)/sqrt(t) equals the running
    average exactly at the calibration index (1-based, >= 2 so the log is
    positive); the default calibrates a quarter of the way in. Finite
    norms whose squares, running average or bound overflow are a
    NumericError naming the first such step.
    """
    norms = np.asarray(list(grad_norms), dtype=np.float64)
    if norms.ndim != 1 or norms.size < 2:
        raise UsageError("need a trace of at least 2 gradient norms")
    if not np.all(np.isfinite(norms)) or np.any(norms < 0):
        raise NumericError("gradient norms must be finite and non-negative")
    t_total = norms.size
    if calibrate_at is None:
        calibrate_at = max(2, t_total // 4)
    if not 2 <= calibrate_at <= t_total:
        raise UsageError(f"calibrate_at must be in [2, {t_total}], got {calibrate_at}")
    t = np.arange(1, t_total + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is named below
        sq = norms**2
        running = np.cumsum(sq) / t
        c_fit = float(running[calibrate_at - 1] * np.sqrt(calibrate_at) / np.log(calibrate_at))
        bound = c_fit * np.log(t) / np.sqrt(t)
    columns = (("squared gradient norm", sq), ("running average", running), ("bound", bound))
    finite = np.isfinite(sq) & np.isfinite(running) & np.isfinite(bound)
    if not finite.all():
        i = int(np.argmin(finite))
        name, value = next((n, v[i]) for n, v in columns if not np.isfinite(v[i]))
        raise NumericError(f"step {i + 1}: {name} {float(value)} is not finite "
                           f"(the gradient norms overflow float64 once squared)")
    return ConvergenceReport(
        sq_norms=sq,
        running_avg=running,
        c_fit=c_fit,
        g_max=float(norms.max()),
        bound=bound,
        calibrate_at=int(calibrate_at),
    )
