"""Exact Shapley attribution of a set function over modality coalitions.

For M players the attribution of player m is the weighted sum of marginal
contributions over all coalitions S not containing m:

    phi[m] = sum_S |S|! (M - |S| - 1)! / M! * (v(S + {m}) - v(S))

Every coalition value is computed exactly once and memoized. For a model,
`attribute_batch` first caches each modality's branch on its input and on
zeros, so one attribution costs 2M branch passes, then 2**M assembled
coalitions (one fewer when the caller seeds the full coalition's loss), each
only a fusion and a score. Two variants exist: "standard" sums over all S
including the empty coalition (the classic definition, for which the
efficiency axiom sum(phi) = v(full) - v(empty) holds exactly), and "paper"
drops the empty coalition from the sum, kept for comparison because some
derivations write the formula that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, UsageError
from .model import MultimodalModel, accuracy, check_labels, mean_loss

Array = np.ndarray

MAX_PLAYERS = 8
VARIANTS = ("standard", "paper")
TARGETS = ("loss", "accuracy")


@dataclass
class ShapleyAttribution:
    """Attribution result plus the coalition table it was computed from.

    `baseline` is the empty-coalition value; `coalition_values` maps a
    coalition bitmask (bit m set = modality m active) to its set-function
    value and doubles as the audit table. Modality indices are 0-based.
    """

    phi: Array
    nu: Array
    dominant: int
    baseline: float
    degenerate: bool
    variant: str
    target: str
    coalition_values: dict[int, float] = field(default_factory=dict)


def shapley_exact(
    value_fn: Callable[[frozenset[int]], float],
    n_players: int,
    *,
    variant: str = "standard",
    values: dict[int, float] | None = None,
) -> tuple[Array, dict[int, float]]:
    """Exact Shapley values of `value_fn`; returns (phi, coalition table).

    `values` may pre-seed coalition evaluations (bitmask -> value); anything
    missing is computed via `value_fn(frozenset(members))`.
    """
    if variant not in VARIANTS:
        raise UsageError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not 1 <= n_players <= MAX_PLAYERS:
        raise UsageError(f"n_players must be in [1, {MAX_PLAYERS}], got {n_players}")
    table = dict(values) if values else {}
    for mask in range(1 << n_players):
        if mask not in table:
            members = frozenset(m for m in range(n_players) if mask >> m & 1)
            table[mask] = float(value_fn(members))
        if not math.isfinite(table[mask]):
            raise NumericError(f"coalition {mask:#x} has non-finite value {table[mask]}")
    fact = [math.factorial(k) for k in range(n_players + 1)]
    weight = [fact[s] * fact[n_players - s - 1] / fact[n_players] for s in range(n_players)]
    phi = np.zeros(n_players, dtype=np.float64)
    for m in range(n_players):
        bit = 1 << m
        for mask in range(1 << n_players):
            if mask & bit:
                continue
            if variant == "paper" and mask == 0:
                continue
            phi[m] += weight[mask.bit_count()] * (table[mask | bit] - table[mask])
    return phi, table


def normalize_weights(phi: Array) -> tuple[Array, bool]:
    """Map raw attributions to a probability vector of modality weights.

    Negative attributions clip to zero and a floor of 1e-6 * max(1, max|phi|)
    keeps every weight strictly positive before normalizing. When every
    attribution is exactly zero there is nothing to compare, so the weights
    fall back to uniform and the degeneracy flag is set.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1 or phi.size == 0:
        raise DimensionError(f"phi must be a non-empty vector, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise NumericError("phi contains non-finite values")
    if np.all(phi == 0.0):
        return np.full(phi.size, 1.0 / phi.size), True
    floor = 1e-6 * max(1.0, float(np.abs(phi).max()))
    p = np.maximum(phi, 0.0) + floor
    return p / p.sum(), False


def dominant_modality(nu: Array) -> int:
    """Index of the largest weight; ties resolve to the lowest index."""
    nu = np.asarray(nu)
    if nu.ndim != 1 or nu.size == 0:
        raise DimensionError(f"nu must be a non-empty vector, got shape {nu.shape}")
    return int(np.argmax(nu))


def attribute_batch(
    model: MultimodalModel,
    xs: Sequence[Array],
    labels: Array,
    *,
    target: str = "loss",
    variant: str = "standard",
    full_loss: float | None = None,
) -> ShapleyAttribution:
    """Shapley attribution of one batch over the model's modalities.

    The set function is v(S) = -(mean loss with coalition S active) for
    `target="loss"` (negated so that more helpful modalities score higher),
    or masked accuracy for `target="accuracy"`. Every coalition is assembled
    from one `model.branch_cache` of the batch, by one counted
    `model.forward_masked` call each. `full_loss`, when the caller already
    knows the full-coalition loss, seeds the table and saves one of them.
    """
    if target not in TARGETS:
        raise UsageError(f"target must be one of {TARGETS}, got {target!r}")
    n = model.n_modalities
    cache = model.branch_cache(xs)
    labels = np.asarray(labels)
    check_labels(labels, len(xs[0]), model.classes)

    def value_fn(keep: frozenset[int]) -> float:
        logits = model.forward_masked(xs, keep, cache=cache).logits
        return -mean_loss(logits, labels) if target == "loss" else accuracy(logits, labels)

    seed = None
    if full_loss is not None and target == "loss":
        seed = {(1 << n) - 1: -float(full_loss)}
    # non-finite coalition values are shapley_exact's NumericError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        phi, table = shapley_exact(value_fn, n, variant=variant, values=seed)
    nu, degenerate = normalize_weights(phi)
    return ShapleyAttribution(
        phi=phi,
        nu=nu,
        dominant=dominant_modality(nu),
        baseline=table[0],
        degenerate=degenerate,
        variant=variant,
        target=target,
        coalition_values=table,
    )
