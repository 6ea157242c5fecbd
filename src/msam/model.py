"""Multimodal classifier: per-modality MLP encoders plus a fusion head.

Two fusion modes are supported. Late fusion gives each modality its own small
two-layer head and sums the per-modality logits. Early fusion concatenates the
encoder features and applies a maxout layer (elementwise max over `pieces`
affine maps) followed by a linear head.

One layer-stack forward serves every caller. `forward_masked` runs it for
coalition masking and evaluation and never raises on overflow; the training
passes (`loss_value_and_grad`, `terms_value_and_grad`) run it with every
linear layer checked finite, then apply a hand-written backward to the
activations it returns. A coalition is always the set of modalities that stay
active: everything else has its inputs zeroed before encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autodiff import ParameterVector
from .errors import ConfigError, DimensionError, NumericError, UsageError
from .tensor import Rng, Tensor, derive_seed, randn

Array = np.ndarray

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class EncoderSpec:
    """Shape of one modality's encoder MLP.

    `hidden` lists the layer widths; the activation follows every layer, and
    an empty tuple means the encoder is the identity on the raw input.
    """

    in_dim: int
    hidden: tuple[int, ...] = ()
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1:
            raise ConfigError(f"encoder in_dim must be >= 1, got {self.in_dim}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"encoder hidden widths must be >= 1, got {self.hidden}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.hidden[-1] if self.hidden else self.in_dim


@dataclass(frozen=True)
class FusionSpec:
    """Fusion head shape. `width` is the maxout output width (early) or the
    per-modality head hidden width (late); `pieces` applies to early only."""

    mode: str
    width: int = 8
    pieces: int = 2

    def __post_init__(self):
        if self.mode not in ("early", "late"):
            raise ConfigError(f"fusion mode must be 'early' or 'late', got {self.mode!r}")
        if self.width < 1:
            raise ConfigError(f"fusion width must be >= 1, got {self.width}")
        if self.mode == "early" and self.pieces < 2:
            raise ConfigError(f"early fusion needs >= 2 maxout pieces, got {self.pieces}")


@dataclass
class ForwardTrace:
    """Intermediate values of one forward pass, as the backward reads them.

    `acts[m]` is modality m's masked input followed by the activation of each
    of its encoder layers. `hidden` holds each late-fusion head's hidden
    activation, or for early fusion the concatenated features and the stacked
    maxout pieces. `fused` is the maxout output (early) or the logits (late).
    """

    acts: list[list[Array]]
    hidden: list[Array]
    fused: Array
    logits: Array
    keep: tuple[int, ...]

    @property
    def features(self) -> list[Array]:
        """Each modality's encoder output."""
        return [a[-1] for a in self.acts]


def _relu(z: Array) -> Array:
    return np.maximum(z, 0.0)


_ACT = {"relu": _relu, "tanh": np.tanh}


def _act_backward(name: str, g: Array, a: Array) -> Array:
    """Gradient through relu or tanh, read off the activation `a` it produced."""
    return g * (1.0 - a * a) if name == "tanh" else g * (a > 0.0)


def _log_softmax(z: Array) -> tuple[Array, Array, Array]:
    """Log-sum-exp stabilized log-softmax of rows of `z`, with exp(z - max)
    and its row sums, so no intermediate probability overflows."""
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    sez = ez.sum(axis=1, keepdims=True)
    return zs - np.log(sez), ez, sez


def _cross_entropy(z: Array, labels: Array, onehot: Array, w: float) -> tuple[float, Array]:
    """`w` times the mean softmax cross-entropy of logits `z`, and its gradient
    in the fused (softmax - onehot) / N form."""
    n = z.shape[0]
    logp, ez, sez = _log_softmax(z)
    value = -logp[np.arange(n), labels].mean()
    return value * w, ((ez / sez - onehot) / n) * w


def _check_labels(labels: Array, classes: int) -> None:
    if labels.dtype.kind not in "iu":
        raise UsageError("labels must be integers")
    if labels.min() < 0 or labels.max() >= classes:
        raise UsageError(f"labels must lie in [0, {classes})")


def mask_inputs(xs: Sequence[Array], keep: Iterable[int], n_modalities: int) -> list[Array]:
    """Zero the inputs of every modality not in `keep` (the active coalition)."""
    kept = frozenset(keep)
    for m in kept:
        if not 0 <= m < n_modalities:
            raise UsageError(f"coalition member {m} outside [0, {n_modalities})")
    return [xs[m] if m in kept else np.zeros_like(xs[m]) for m in range(n_modalities)]


class MultimodalModel:
    """Encoders + fusion head with named parameters and pass counters.

    Weights initialize to randn / sqrt(fan_in) from a seed-derived stream,
    biases to zero (omitted entirely when `bias=False`). `counters` counts
    forward/backward passes ("taped") and plain masked forwards so the
    training harness can assert the per-step pass budget.
    """

    def __init__(
        self,
        encoders: Sequence[EncoderSpec],
        fusion: FusionSpec,
        classes: int,
        *,
        bias: bool = True,
        seed: int = 0,
    ):
        if not encoders:
            raise ConfigError("need at least one modality encoder")
        if classes < 2:
            raise ConfigError(f"need at least two classes, got {classes}")
        self.encoders = tuple(encoders)
        self.fusion = fusion
        self.classes = classes
        self.bias = bias
        self.seed = seed
        self.counters = {"taped": 0, "masked_forward": 0}
        rng = Rng(derive_seed(seed, 1))
        items: list[tuple[str, Tensor]] = []

        def linear(name: str, fan_in: int, fan_out: int):
            items.append((f"{name}.w", randn(rng, (fan_in, fan_out)).scale(fan_in**-0.5)))
            if bias:
                items.append((f"{name}.b", Tensor(np.zeros(fan_out))))

        for m, es in enumerate(self.encoders):
            prev = es.in_dim
            for i, h in enumerate(es.hidden):
                linear(f"enc{m}.l{i}", prev, h)
                prev = h
        if fusion.mode == "late":
            for m, es in enumerate(self.encoders):
                linear(f"head{m}.l0", es.out_dim, fusion.width)
                linear(f"head{m}.l1", fusion.width, classes)
        else:
            total = sum(es.out_dim for es in self.encoders)
            for j in range(fusion.pieces):
                linear(f"fusion.p{j}", total, fusion.width)
            linear("head.out", fusion.width, classes)
        self.params = ParameterVector(items)

    @property
    def n_modalities(self) -> int:
        return len(self.encoders)

    @property
    def n_params(self) -> int:
        return self.params.size

    def _check_inputs(self, xs: Sequence[Array], labels: Array | None = None) -> int:
        if len(xs) != self.n_modalities:
            raise DimensionError(f"expected {self.n_modalities} modality arrays, got {len(xs)}")
        n = None
        for m, x in enumerate(xs):
            x = np.asarray(x)
            if x.ndim != 2 or x.shape[1] != self.encoders[m].in_dim:
                raise DimensionError(
                    f"modality {m} expects shape (N, {self.encoders[m].in_dim}), got {x.shape}"
                )
            if n is None:
                n = x.shape[0]
            elif x.shape[0] != n:
                raise DimensionError("modality arrays disagree on batch size")
        if n == 0:
            raise UsageError("batch must be non-empty")
        if labels is not None and np.asarray(labels).shape != (n,):
            raise DimensionError(f"labels shape {np.asarray(labels).shape} != ({n},)")
        return int(n)

    def _linear(self, h: Array, name: str, checked: bool) -> Array:
        z = h @ self.params.view(f"{name}.w")
        if self.bias:
            z = z + self.params.view(f"{name}.b")
        if checked and not np.isfinite(z).all():
            raise NumericError(f"layer {name} produced non-finite values")
        return z

    def _forward(self, masked: list[Array], keep: tuple[int, ...], checked: bool) -> ForwardTrace:
        """The layer stack on already-masked inputs.

        With `checked`, the first linear layer whose output is not finite
        raises NumericError naming it.
        """
        acts = []
        for m, es in enumerate(self.encoders):
            act = _ACT[es.activation]
            a = [masked[m]]
            for i in range(len(es.hidden)):
                a.append(act(self._linear(a[-1], f"enc{m}.l{i}", checked)))
            acts.append(a)
        if self.fusion.mode == "late":
            hidden, logits = [], None
            for m, a in enumerate(acts):
                h = _ACT[self.encoders[m].activation](self._linear(a[-1], f"head{m}.l0", checked))
                hidden.append(h)
                out = self._linear(h, f"head{m}.l1", checked)
                logits = out if logits is None else logits + out
            return ForwardTrace(acts, hidden, logits, logits, keep)
        joint = np.concatenate([a[-1] for a in acts], axis=1)
        pieces = np.stack(
            [self._linear(joint, f"fusion.p{j}", checked) for j in range(self.fusion.pieces)], axis=0)
        fused = pieces.max(axis=0)
        logits = self._linear(fused, "head.out", checked)
        return ForwardTrace(acts, [joint, pieces], fused, logits, keep)

    def _backward(self, trace: ForwardTrace, g: Array) -> Array:
        """Flat parameter gradient of one term, given its logit gradient `g`.

        Each parameter is used once per term, so every slice is written once.
        Maxout routes a tie to its lowest piece. The pieces' gradients reach
        the concatenated features last piece first: floating-point sums
        depend on order, and this one is pinned by the golden gradient bytes.
        """
        flat = np.zeros(self.params.size, dtype=np.float64)
        view, slice_of = self.params.view, self.params.slice_of

        def linear_grads(name: str, h: Array, gz: Array) -> None:
            flat[slice_of(f"{name}.w")] = (h.T @ gz).ravel()
            if self.bias:
                flat[slice_of(f"{name}.b")] = gz.sum(axis=0)

        if self.fusion.mode == "late":
            g_feats = []
            for m, es in enumerate(self.encoders):
                h = trace.hidden[m]
                linear_grads(f"head{m}.l1", h, g)
                gz = _act_backward(es.activation, g @ view(f"head{m}.l1.w").T, h)
                linear_grads(f"head{m}.l0", trace.acts[m][-1], gz)
                g_feats.append(gz @ view(f"head{m}.l0.w").T if es.hidden else None)
        else:
            joint, pieces = trace.hidden
            linear_grads("head.out", trace.fused, g)
            g_fused = g @ view("head.out.w").T
            arg = np.argmax(pieces, axis=0)
            g_joint = None
            for j in reversed(range(self.fusion.pieces)):
                gj = g_fused * (arg == j)
                linear_grads(f"fusion.p{j}", joint, gj)
                contrib = gj @ view(f"fusion.p{j}.w").T
                g_joint = contrib if g_joint is None else g_joint + contrib
            bounds = np.cumsum([0] + [es.out_dim for es in self.encoders])
            g_feats = [g_joint[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        for m, es in enumerate(self.encoders):
            g = g_feats[m]
            for i in reversed(range(len(es.hidden))):
                gz = _act_backward(es.activation, g, trace.acts[m][i + 1])
                linear_grads(f"enc{m}.l{i}", trace.acts[m][i], gz)
                if i:
                    g = gz @ view(f"enc{m}.l{i}.w").T
        return flat

    def _value_and_grad(self, xs: Sequence[Array], labels: Array, terms) -> tuple[float, Array]:
        """Weighted sum of masked mean cross-entropies and its flat gradient.

        Runs one checked forward per (keep, weight) term, a weight of None
        meaning 1, then the backward from the last term to the first, which
        is the summation order the golden gradient bytes pin. The loss and
        the flat gradient are each checked finite once.
        """
        labels = np.asarray(labels)
        n = self._check_inputs(xs, labels)
        _check_labels(labels, self.classes)
        xs = [np.asarray(x, dtype=np.float64) for x in xs]
        onehot = np.zeros((n, self.classes), dtype=np.float64)
        onehot[np.arange(n), labels] = 1.0
        loss, passes, grad = None, [], None
        with np.errstate(over="ignore", invalid="ignore"):
            for keep, weight in terms:
                trace = self._forward(mask_inputs(xs, keep, self.n_modalities), keep, True)
                w = 1.0 if weight is None else float(weight)
                value, g = _cross_entropy(trace.logits, labels, onehot, w)
                loss = value if loss is None else loss + value
                passes.append((trace, g))
            if not np.isfinite(loss):
                raise NumericError(f"loss is non-finite ({float(loss)})")
            for trace, g in reversed(passes):
                flat = self._backward(trace, g)
                grad = flat if grad is None else grad + flat
        if not np.isfinite(grad).all():
            first = int(np.argmin(np.isfinite(grad)))
            name = next(k for k in self.params.names if first < self.params.slice_of(k).stop)
            raise NumericError(f"gradient of {name} is non-finite")
        return float(loss), grad

    def forward_masked(self, xs: Sequence[Array], keep: Iterable[int]) -> ForwardTrace:
        """Plain forward with only the coalition `keep` active.

        Unlike the training passes this never raises on overflow: evaluation
        of a diverged model reports inf/nan values as they are.
        """
        self._check_inputs(xs)
        self.counters["masked_forward"] += 1
        keep = tuple(sorted(frozenset(keep)))
        masked = mask_inputs([np.asarray(x, dtype=np.float64) for x in xs], keep, self.n_modalities)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._forward(masked, keep, False)

    def forward(self, xs: Sequence[Array]) -> ForwardTrace:
        """Plain forward with every modality active."""
        return self.forward_masked(xs, range(self.n_modalities))

    def loss_value_and_grad(self, xs: Sequence[Array], labels: Array) -> tuple[float, Array]:
        """Mean cross-entropy on the full batch and its flat gradient; one taped pass."""
        self.counters["taped"] += 1
        return self._value_and_grad(xs, labels, ((tuple(range(self.n_modalities)), None),))

    def terms_value_and_grad(
        self, xs: Sequence[Array], labels: Array, terms
    ) -> tuple[float, Array]:
        """Weighted sum of masked losses and its flat gradient; one taped pass.

        `terms` is a sequence of (keep, weight) pairs; a weight of None means
        the raw unscaled loss. With an empty term list this is the zero
        function (no pass consumed).
        """
        if not terms:
            return 0.0, np.zeros(self.params.size, dtype=np.float64)
        self.counters["taped"] += 1
        return self._value_and_grad(xs, labels, terms)


def loss_and_accuracy(logits: Array, labels: Array) -> tuple[float, float]:
    """Mean softmax cross-entropy and top-1 accuracy of raw logits.

    Uses the same log-sum-exp arithmetic as the training loss, so plain and
    taped evaluations of one batch agree bit for bit.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise DimensionError(f"got logits {z.shape} with labels {labels.shape}")
    if z.shape[0] == 0:
        raise UsageError("need a non-empty batch")
    _check_labels(labels, z.shape[1])
    # non-finite logits (diverged model) pass through as inf/nan, not errors
    with np.errstate(over="ignore", invalid="ignore"):
        logp, _, _ = _log_softmax(z)
        loss = float(-logp[np.arange(z.shape[0]), labels].mean())
        acc = float(np.mean(np.argmax(z, axis=1) == labels))
    return loss, acc


def evaluate(model: MultimodalModel, xs: Sequence[Array], labels: Array) -> tuple[float, float]:
    """Plain full-coalition loss and accuracy on one batch or split."""
    trace = model.forward(xs)
    return loss_and_accuracy(trace.logits, np.asarray(labels))
