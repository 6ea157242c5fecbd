"""Exact Shapley attribution of a set function over modality coalitions.

For M players the attribution of player m is the weighted sum of marginal
contributions over all coalitions S not containing m:

    phi[m] = sum_S |S|! (M - |S| - 1)! / M! * (v(S + {m}) - v(S))

Every coalition value is computed exactly once, into one float64 vector
indexed by bitmask (bit m set = modality m active). For a model,
`attribute_batch` first caches each modality's branch on its input and on
zeros, so one attribution costs 2M branch passes, which fill one table of
every coalition's logits under either fusion mode, then 2**M counted reads
by bitmask (one fewer when the caller seeds the full coalition's loss),
each a row of that table, on the cache's own `inputs` tuple, which the
cached read accepts by one `is` check. The rows are scored in one stacked
pass (`model.mean_log_probs` or `model.accuracies`) into the vector, and
phi is one vectorized sum over a plan of weights and mask indices cached
per (M, variant): each player's terms add in ascending mask order, as a
plain loop over masks adds them. Two variants exist:
"standard" sums over all S including the empty coalition (the classic
definition, for which the efficiency axiom sum(phi) = v(full) - v(empty)
holds exactly), and "paper" drops the empty coalition from the sum, kept for
comparison because some derivations write the formula that way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, UsageError
from .model import MultimodalModel, accuracies, check_labels, mean_log_probs

Array = np.ndarray

MAX_PLAYERS = 8
VARIANTS = ("standard", "paper")
TARGETS = ("loss", "accuracy")


@dataclass
class ShapleyAttribution:
    """Attribution result plus the coalition values it was computed from.

    `coalition_values[k]` is the value of the coalition with bitmask k (bit m
    set = modality m active), a float64 vector of length 2**M that doubles as
    the audit table. Modality indices are 0-based.
    """

    phi: Array
    nu: Array
    dominant: int
    degenerate: bool
    coalition_values: Array


def _check_players(n_players: int, variant: str) -> None:
    if variant not in VARIANTS:
        raise UsageError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not 1 <= n_players <= MAX_PLAYERS:
        raise UsageError(f"n_players must be in [1, {MAX_PLAYERS}], got {n_players}")


@functools.cache
def _plan(n_players: int, variant: str) -> tuple[Array, Array, Array]:
    """Every Shapley term of one (M, variant), for `_phi`: player m's terms
    are weight[m, t] * (v[hi[m, t]] - v[lo[m, t]]), t in ascending mask
    order after a leading term v[0] - v[0] = 0.0 that starts each sum."""
    fact = [math.factorial(k) for k in range(n_players + 1)]
    weight = [fact[s] * fact[n_players - s - 1] / fact[n_players] for s in range(n_players)]
    masks = np.arange(1 if variant == "paper" else 0, 1 << n_players)
    lo = np.stack([masks[(masks >> m) & 1 == 0] for m in range(n_players)])
    hi = lo | (1 << np.arange(n_players))[:, None]
    w = np.array([[weight[int(mask).bit_count()] for mask in row] for row in lo])
    first = ((0, 0), (1, 0))
    return np.pad(w, first, constant_values=1.0), np.pad(lo, first), np.pad(hi, first)


def _phi(values: Array, variant: str) -> Array:
    """Shapley values from the value of every coalition, indexed by bitmask.

    Each player's terms add one by one from 0.0 in ascending mask order
    (`np.add.accumulate` never reorders), so phi is bit for bit the sum that
    a loop over masks forms.
    """
    finite = np.isfinite(values)
    if not finite.all():
        mask = int(np.argmin(finite))
        raise NumericError(f"coalition {mask:#x} has non-finite value {float(values[mask])}")
    weight, lo, hi = _plan(values.size.bit_length() - 1, variant)
    terms = values[hi]
    terms -= values[lo]
    terms *= weight
    return np.add.accumulate(terms, axis=1)[:, -1].copy()


def shapley_exact(
    value_fn: Callable[[frozenset[int]], float],
    n_players: int,
    *,
    variant: str = "standard",
) -> tuple[Array, Array]:
    """Exact Shapley values of `value_fn`; returns (phi, coalition values).

    `value_fn(frozenset(members))` is called once per coalition, and the
    values come back as a float64 vector indexed by bitmask. A non-finite
    value is a NumericError naming the lowest such coalition.
    """
    _check_players(n_players, variant)
    values = np.array([float(value_fn(frozenset(m for m in range(n_players) if mask >> m & 1)))
                       for mask in range(1 << n_players)])
    return _phi(values, variant), values


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
    or masked accuracy for `target="accuracy"`. Every coalition is a row of
    one `model.branch_cache` table of the batch, read by one counted
    `model.forward_masked` call each, and all of them are scored in one
    stacked pass. `full_loss`, when the caller already knows the
    full-coalition loss, seeds the loss target's last value and saves one
    of them; the accuracy target ignores it.
    """
    if target not in TARGETS:
        raise UsageError(f"target must be one of {TARGETS}, got {target!r}")
    n = model.n_modalities
    _check_players(n, variant)
    cache = model.branch_cache(xs)
    labels = np.asarray(labels)
    check_labels(labels, len(xs[0]), model.classes)
    seeded = full_loss is not None and target == "loss"
    count = (1 << n) - seeded
    # one counted call per coalition, each returning a row of the table, on
    # the cache's own inputs tuple, which the cached path accepts by `is`
    inputs = cache.inputs
    for mask in range(count):
        model.forward_masked(inputs, mask, cache)
    stack = cache.table[:count]
    values = np.empty(1 << n)
    # non-finite coalition values are _phi's NumericError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        score = mean_log_probs if target == "loss" else accuracies
        values[:count] = score(stack, labels)
        if seeded:
            values[-1] = -float(full_loss)
        phi = _phi(values, variant)
    nu, degenerate = normalize_weights(phi)
    return ShapleyAttribution(
        phi=phi,
        nu=nu,
        dominant=dominant_modality(nu),
        degenerate=degenerate,
        coalition_values=values,
    )
