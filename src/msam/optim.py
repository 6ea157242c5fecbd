"""Optimizers: SGD with momentum, SAM, and the modality-aware SAM variants.

Every kind takes one update, `_step`: perturb theta by rho_t * a / ||a|| along
an ascent direction a, take the gradient g_p there, restore theta, then

    v <- momentum * v + mix(g_p) + weight_decay * theta;  theta <- theta - lr_t * v

(coupled L2 weight decay). The kinds differ only in a and mix: SGD has
rho = 0; SAM ascends along g and mixes with the identity; M-SAM mixes
nu_d * g_p + (1 - nu_d) * g; per-branch M-SAM ascends along the dominant
branch gradient g_d and mixes g_dp + g_s. A degenerate perturbation (zero
radius or ||a|| below GRAD_NORM_FLOOR) skips the second pass and descends
along the unperturbed gradient itself. That makes the documented degeneracies
exact: with rho = 0, SAM and M-SAM reproduce SGD float for float, and with one
modality the modality-aware kinds reproduce SAM, because nu collapses to
exactly 1.0 and `1.0 * g2 + 0.0 * g1` is bit-exact `g2` for finite gradients.

Step functions mutate parameters in place and return a `StepReport`; the
1-based step index lives in `OptimState` and drives the schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import ParameterVector
from .errors import ConfigError, UsageError
from .model import MultimodalModel, evaluate
from .shapley import TARGETS, VARIANTS, ShapleyAttribution, attribute_batch

Array = np.ndarray

GRAD_NORM_FLOOR = 1e-12

KINDS = ("sgd", "sam", "msam", "msam_branch")
SCHEDULES = ("constant", "inverse_sqrt", "step_decay")


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule, evaluated at 1-based step t.

    constant:      lr_t = lr,                rho_t = rho
    inverse_sqrt:  lr_t = lr / sqrt(t),      rho_t = rho / sqrt(t)
    step_decay:    lr_t = lr * factor**(t // period), rho_t = rho (held)

    Under step decay the radius rho does not decay; only the inverse-sqrt
    schedule shrinks both.
    """

    kind: str = "constant"
    factor: float = 0.1
    period: int = 70

    def __post_init__(self):
        if self.kind not in SCHEDULES:
            raise ConfigError(f"kind must be one of {SCHEDULES}, got {self.kind!r}")
        if not 0.0 < self.factor <= 1.0:
            raise ConfigError(f"factor must be in (0, 1], got {self.factor}")
        if self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")

    def at(self, lr: float, rho: float, t: int) -> tuple[float, float]:
        if t < 1:
            raise UsageError(f"schedule index t must be >= 1, got {t}")
        if self.kind == "constant":
            return lr, rho
        if self.kind == "inverse_sqrt":
            s = 1.0 / np.sqrt(float(t))
            return lr * s, rho * s
        return lr * self.factor ** (t // self.period), rho


@dataclass(frozen=True)
class OptimConfig:
    """Hyperparameters shared by every optimizer kind."""

    kind: str = "sgd"
    lr: float = 0.01
    momentum: float = 0.0
    weight_decay: float = 0.0
    rho: float = 0.05
    schedule: Schedule = Schedule()
    shapley_every: int = 1
    shapley_target: str = "loss"
    shapley_variant: str = "standard"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        # written so that NaN fails every range check
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.rho < np.inf:
            raise ConfigError(f"rho must be finite and >= 0, got {self.rho}")
        if self.shapley_every < 1:
            raise ConfigError(f"shapley_every must be >= 1, got {self.shapley_every}")
        if self.shapley_target not in TARGETS:
            raise ConfigError(f"shapley_target must be one of {TARGETS}, got {self.shapley_target!r}")
        if self.shapley_variant not in VARIANTS:
            raise ConfigError(
                f"shapley_variant must be one of {VARIANTS}, got {self.shapley_variant!r}")


class OptimState:
    """Mutable per-run optimizer state: step count, momentum buffer and the
    last Shapley attribution, whose modality weights later steps reuse."""

    def __init__(self, n_params: int):
        self.t = 0
        self.velocity = np.zeros(n_params, dtype=np.float64)
        self.attribution: ShapleyAttribution | None = None


@dataclass
class StepReport:
    """What one optimizer step saw and did."""

    t: int
    loss: float
    grad_norm: float
    eps_norm: float
    lr: float
    rho: float
    loss_perturbed: float | None = None
    nu: Array | None = None
    dominant: int | None = None
    shapley_recomputed: bool = False


def _step(
    params: ParameterVector,
    state: OptimState,
    cfg: OptimConfig,
    rho: float,
    loss: float,
    g: Array,
    ascent: Array,
    perturbed: Callable[[], tuple[float, Array]],
    mix: Callable[[Array], Array],
    **report,
) -> StepReport:
    """The update of the module docstring. `g` is the unperturbed gradient,
    `perturbed()` evaluates at theta + eps, and `report` holds the
    kind-specific StepReport fields."""
    t = state.t + 1
    lr_t, rho_t = cfg.schedule.at(cfg.lr, rho, t)
    gn = float(np.linalg.norm(g))
    an = gn if ascent is g else float(np.linalg.norm(ascent))
    theta = params.flatten()
    if rho_t > 0.0 and an >= GRAD_NORM_FLOOR:
        eps = (rho_t / an) * ascent
        params.load_flat(theta + eps)
        try:
            loss_p, g_p = perturbed()
        finally:
            params.load_flat(theta)
        direction = mix(g_p) + cfg.weight_decay * theta
        eps_norm = float(np.linalg.norm(eps))
    else:
        loss_p = None
        direction = g + cfg.weight_decay * theta
        eps_norm = 0.0
    state.velocity = cfg.momentum * state.velocity + direction
    params.load_flat(theta - lr_t * state.velocity)
    state.t = t
    return StepReport(t=t, loss=loss, grad_norm=gn, eps_norm=eps_norm, lr=lr_t, rho=rho_t,
                      loss_perturbed=loss_p, **report)


def sgd_step(
    value_and_grad: Callable[[], tuple[float, Array]],
    params: ParameterVector,
    state: OptimState,
    cfg: OptimConfig,
) -> StepReport:
    """Momentum SGD on an arbitrary (loss, grad) closure: the update with rho = 0."""
    loss, g = value_and_grad()
    return _step(params, state, cfg, 0.0, loss, g, g, value_and_grad, lambda g_p: g_p)


def sam_step(
    value_and_grad: Callable[[], tuple[float, Array]],
    params: ParameterVector,
    state: OptimState,
    cfg: OptimConfig,
) -> StepReport:
    """Sharpness-aware step: ascend rho_t along the normalized gradient,
    take the gradient there, descend from the unperturbed parameters.

    The closure is evaluated at whatever `params` currently holds, so it is
    called once at theta and (when the perturbation is non-degenerate) once at
    theta + eps; parameters are restored exactly before the update.
    """
    loss, g = value_and_grad()
    return _step(params, state, cfg, cfg.rho, loss, g, g, value_and_grad, lambda g_p: g_p)


def _current_weights(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    state: OptimState,
    cfg: OptimConfig,
    full_loss: float,
) -> tuple[Array, int, bool]:
    """Cached-or-fresh modality weights according to `shapley_every`; the
    step about to be taken is number state.t + 1."""
    recompute = state.attribution is None or state.t % cfg.shapley_every == 0
    if recompute:
        state.attribution = attribute_batch(
            model, xs, labels,
            target=cfg.shapley_target,
            variant=cfg.shapley_variant,
            full_loss=full_loss,
        )
    return state.attribution.nu, state.attribution.dominant, recompute


def msam_step(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    state: OptimState,
    cfg: OptimConfig,
) -> StepReport:
    """Modality-aware SAM step.

    The batch loss splits into a dominant share nu_d * L and the rest; only
    the dominant share is perturbed. Since grad(nu_d * L) is a positive
    multiple of grad(L), the normalized ascent direction equals g / ||g||
    and is computed that way. The descent direction mixes the perturbed and
    unperturbed gradients by nu_d:

        nu_d * grad L(theta + eps) + (1 - nu_d) * grad L(theta) + wd * theta

    Costs two taped passes (one when the perturbation is degenerate) plus
    the Shapley attribution: 2M branch passes fill one 2**M-row coalition
    table under either fusion mode, then 2**M - 1 coalitions are read from
    it, each counted as a masked forward (the loss target reuses the first
    pass for the full coalition; the accuracy target reads all 2**M rows).
    """
    loss, g = model.loss_value_and_grad(xs, labels)
    nu, dom, recomputed = _current_weights(model, xs, labels, state, cfg, loss)
    nu_d = float(nu[dom])
    return _step(
        model.params, state, cfg, cfg.rho, loss, g, g,
        lambda: model.loss_value_and_grad(xs, labels),
        lambda g_p: nu_d * g_p + (1.0 - nu_d) * g,
        nu=np.array(nu), dominant=dom, shapley_recomputed=recomputed,
    )


def msam_branch_step(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    state: OptimState,
    cfg: OptimConfig,
) -> StepReport:
    """Per-branch variant for late fusion: the objective is the weighted sum
    of single-modality masked losses sum_m nu_m * L_m, the dominant branch
    term is perturbed along its own gradient, and the others contribute their
    unperturbed gradients.

    Reports the full-batch loss under `loss` and ||grad|| of the composite
    objective at theta under `grad_norm`. With one modality the branch
    objective is 1.0 * L, which makes this step coincide with `sam_step`
    exactly.
    """
    if model.fusion.mode != "late":
        raise UsageError("per-branch steps need a late-fusion model")
    total_loss, _ = evaluate(model, xs, labels)
    nu, dom, recomputed = _current_weights(model, xs, labels, state, cfg, total_loss)
    dom_term = ((dom,), float(nu[dom]))
    rest = tuple(((m,), float(nu[m])) for m in range(model.n_modalities) if m != dom)
    _, g_d = model.terms_value_and_grad(xs, labels, (dom_term,))
    _, g_s = model.terms_value_and_grad(xs, labels, rest)
    return _step(
        model.params, state, cfg, cfg.rho, total_loss, g_d + g_s, g_d,
        lambda: model.terms_value_and_grad(xs, labels, (dom_term,)),
        lambda g_dp: g_dp + g_s,
        nu=np.array(nu), dominant=dom, shapley_recomputed=recomputed,
    )


def train_step(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    state: OptimState,
    cfg: OptimConfig,
) -> StepReport:
    """Dispatch one optimizer step of the configured kind."""
    if cfg.kind == "sgd":
        return sgd_step(lambda: model.loss_value_and_grad(xs, labels), model.params, state, cfg)
    if cfg.kind == "sam":
        return sam_step(lambda: model.loss_value_and_grad(xs, labels), model.params, state, cfg)
    if cfg.kind == "msam":
        return msam_step(model, xs, labels, state, cfg)
    return msam_branch_step(model, xs, labels, state, cfg)
