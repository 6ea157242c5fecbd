"""Optimizers: SGD with momentum, SAM, and the modality-aware SAM variants.

All four optimizers funnel through one descent helper (momentum accumulation
plus the parameter write), and the perturbed variants short-circuit to the
plain-gradient direction whenever the perturbation is degenerate (zero radius
or vanishing gradient norm). Together those two choices make the documented
degeneracies exact, not approximate: with rho = 0 the sharpness-aware steps
reproduce SGD's float-for-float trajectory, and with a single modality the
modality-aware step reproduces SAM's, because nu collapses to exactly 1.0 and
`1.0 * g2 + 0.0 * g1` is bit-exact `g2` for finite gradients.

Step functions mutate parameters in place and return a `StepReport`; the
1-based step index lives in `OptimState` and drives the schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import ParameterVector
from .errors import ConfigError, UsageError
from .model import MultimodalModel, loss_and_accuracy
from .shapley import attribute_batch

Array = np.ndarray

GRAD_NORM_FLOOR = 1e-12

_KINDS = ("sgd", "sam", "msam", "msam_branch")
_SCHEDULES = ("constant", "inverse_sqrt", "step_decay")


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
        if self.kind not in _SCHEDULES:
            raise ConfigError(f"schedule kind must be one of {_SCHEDULES}, got {self.kind!r}")
        if not 0.0 < self.factor <= 1.0:
            raise ConfigError(f"decay factor must be in (0, 1], got {self.factor}")
        if self.period < 1:
            raise ConfigError(f"decay period must be >= 1, got {self.period}")

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
        if self.kind not in _KINDS:
            raise ConfigError(f"optimizer kind must be one of {_KINDS}, got {self.kind!r}")
        if self.lr <= 0.0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.rho < 0.0:
            raise ConfigError(f"rho must be >= 0, got {self.rho}")
        if self.shapley_every < 1:
            raise ConfigError(f"shapley_every must be >= 1, got {self.shapley_every}")


class OptimState:
    """Mutable per-run optimizer state: step count, momentum buffer, the last
    perturbation taken, and the cached modality weights."""

    def __init__(self, n_params: int):
        self.t = 0
        self.velocity = np.zeros(n_params, dtype=np.float64)
        self.last_eps = np.zeros(n_params, dtype=np.float64)
        self.last_nu: Array | None = None
        self.last_dominant: int | None = None


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
    branch_loss: float | None = None


def _descend(
    params: ParameterVector,
    theta: Array,
    direction: Array,
    state: OptimState,
    lr_t: float,
    momentum: float,
) -> None:
    # single shared update rule so every optimizer's write path is identical
    state.velocity = momentum * state.velocity + direction
    params.load_flat(theta - lr_t * state.velocity)


def sgd_step(
    value_and_grad: Callable[[], tuple[float, Array]],
    params: ParameterVector,
    state: OptimState,
    cfg: OptimConfig,
) -> StepReport:
    """Momentum SGD on an arbitrary (loss, grad) closure."""
    t = state.t + 1
    lr_t, _ = cfg.schedule.at(cfg.lr, cfg.rho, t)
    loss, g = value_and_grad()
    theta = params.flatten()
    direction = g + cfg.weight_decay * theta
    _descend(params, theta, direction, state, lr_t, cfg.momentum)
    state.last_eps = np.zeros_like(theta)
    state.t = t
    return StepReport(
        t=t, loss=loss, grad_norm=float(np.linalg.norm(g)),
        eps_norm=0.0, lr=lr_t, rho=0.0,
    )


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
    t = state.t + 1
    lr_t, rho_t = cfg.schedule.at(cfg.lr, cfg.rho, t)
    loss, g = value_and_grad()
    gn = float(np.linalg.norm(g))
    theta = params.flatten()
    if rho_t > 0.0 and gn >= GRAD_NORM_FLOOR:
        eps = (rho_t / gn) * g
        params.load_flat(theta + eps)
        loss_p, g_p = value_and_grad()
        params.load_flat(theta)
        direction = g_p + cfg.weight_decay * theta
        eps_norm = float(np.linalg.norm(eps))
    else:
        eps = np.zeros_like(theta)
        loss_p = None
        direction = g + cfg.weight_decay * theta
        eps_norm = 0.0
    _descend(params, theta, direction, state, lr_t, cfg.momentum)
    state.last_eps = eps
    state.t = t
    return StepReport(
        t=t, loss=loss, grad_norm=gn, eps_norm=eps_norm, lr=lr_t, rho=rho_t,
        loss_perturbed=loss_p,
    )


def _current_weights(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    state: OptimState,
    cfg: OptimConfig,
    t: int,
    full_loss: float | None,
) -> tuple[Array, int, bool]:
    """Cached-or-fresh modality weights according to `shapley_every`."""
    recompute = state.last_nu is None or (t - 1) % cfg.shapley_every == 0
    if recompute:
        att = attribute_batch(
            model, xs, labels,
            target=cfg.shapley_target,
            variant=cfg.shapley_variant,
            full_loss=full_loss if cfg.shapley_target == "loss" else None,
        )
        state.last_nu = att.nu
        state.last_dominant = att.dominant
    return state.last_nu, int(state.last_dominant), recompute


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

    Costs two taped passes plus the 2**M - 1 masked forwards of the Shapley
    attribution (the loss target reuses the first pass for the full
    coalition; the accuracy target costs 2**M); one taped pass when the
    perturbation is degenerate.
    """
    t = state.t + 1
    lr_t, rho_t = cfg.schedule.at(cfg.lr, cfg.rho, t)
    loss, g = model.loss_value_and_grad(xs, labels)
    nu, dom, recomputed = _current_weights(model, xs, labels, state, cfg, t, loss)
    nu_d = float(nu[dom])
    gn = float(np.linalg.norm(g))
    theta = model.params.flatten()
    if rho_t > 0.0 and gn >= GRAD_NORM_FLOOR:
        eps = (rho_t / gn) * g
        model.params.load_flat(theta + eps)
        loss_p, g_p = model.loss_value_and_grad(xs, labels)
        model.params.load_flat(theta)
        direction = nu_d * g_p + (1.0 - nu_d) * g + cfg.weight_decay * theta
        eps_norm = float(np.linalg.norm(eps))
    else:
        eps = np.zeros_like(theta)
        loss_p = None
        direction = g + cfg.weight_decay * theta
        eps_norm = 0.0
    _descend(model.params, theta, direction, state, lr_t, cfg.momentum)
    state.last_eps = eps
    state.t = t
    return StepReport(
        t=t, loss=loss, grad_norm=gn, eps_norm=eps_norm, lr=lr_t, rho=rho_t,
        loss_perturbed=loss_p, nu=np.array(nu), dominant=dom,
        shapley_recomputed=recomputed,
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

    Reports the full-batch loss under `loss`, the weighted branch sum under
    `branch_loss`, and ||grad|| of the composite objective at theta under
    `grad_norm`. With one modality the branch objective is 1.0 * L, which
    makes this step coincide with `sam_step` exactly.
    """
    if model.fusion.mode != "late":
        raise UsageError("per-branch steps need a late-fusion model")
    t = state.t + 1
    lr_t, rho_t = cfg.schedule.at(cfg.lr, cfg.rho, t)
    total_loss, _ = loss_and_accuracy(model.forward(xs).logits, np.asarray(labels))
    nu, dom, recomputed = _current_weights(model, xs, labels, state, cfg, t, total_loss)
    nu_d = float(nu[dom])
    dom_term = ((dom,), nu_d)
    rest = tuple(((m,), float(nu[m])) for m in range(model.n_modalities) if m != dom)
    loss_d, g_d = model.terms_value_and_grad(xs, labels, (dom_term,))
    loss_s, g_s = model.terms_value_and_grad(xs, labels, rest)
    gdn = float(np.linalg.norm(g_d))
    theta = model.params.flatten()
    if rho_t > 0.0 and gdn >= GRAD_NORM_FLOOR:
        eps = (rho_t / gdn) * g_d
        model.params.load_flat(theta + eps)
        loss_p, g_dp = model.terms_value_and_grad(xs, labels, (dom_term,))
        model.params.load_flat(theta)
        direction = g_dp + g_s + cfg.weight_decay * theta
        eps_norm = float(np.linalg.norm(eps))
    else:
        eps = np.zeros_like(theta)
        loss_p = None
        direction = g_d + g_s + cfg.weight_decay * theta
        eps_norm = 0.0
    _descend(model.params, theta, direction, state, lr_t, cfg.momentum)
    state.last_eps = eps
    state.t = t
    return StepReport(
        t=t, loss=total_loss, grad_norm=float(np.linalg.norm(g_d + g_s)),
        eps_norm=eps_norm, lr=lr_t, rho=rho_t, loss_perturbed=loss_p,
        nu=np.array(nu), dominant=dom, shapley_recomputed=recomputed,
        branch_loss=loss_d + loss_s,
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
