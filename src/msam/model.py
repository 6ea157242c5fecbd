"""Multimodal classifier: per-modality MLP encoders plus a fusion head.

Two fusion modes are supported. Late fusion gives each modality its own small
two-layer head and sums the per-modality logits. Early fusion concatenates the
encoder features and applies a maxout layer (elementwise max over `pieces`
affine maps) followed by a linear head.

One layer-stack forward serves every caller. `forward_masked` runs it for
coalition masking and evaluation, returns the logits and never raises on
overflow; the training passes (`loss_value_and_grad`,
`terms_value_and_grad`) run it with every linear layer checked finite and
record each term's `(acts, head)`, which the hand-written backward reads. A
coalition is always the set of modalities that stay active: everything else
has its inputs zeroed before encoding. Every read names a coalition by its
bitmask (bit m set = modality m active): `mask_inputs` tests its bits, and a
cached `forward_masked` reads the table row it indexes. Only a training
term's `keep` lists members, which `_coalition` folds into a bitmask.

The layer table, built once in `__init__`, groups consecutive modalities
with equal `EncoderSpec` into runs. Their parameter blocks are equal, so each
layer role of a run (`enc{m}.l{i}`, and under late fusion `head{m}.l0` and
`head{m}.l1`) sits at one stride in the flat buffer, and
`ParameterVector.stacks` views it as (R, fan_in, fan_out) without a copy.
Each layer of a run is then one 3-D `np.matmul`, forward and backward; only
a run's first layer, whose inputs are the separate modality arrays, runs one
product per modality into its slice of one stack. The maxout pieces form one
more stack and the output layer a stack of one. Biases and activations are
applied in place. numpy runs a 3-D matmul as one 2-D product per item, so
every logit and gradient bit equals the branch run alone. A model whose
modalities all differ is a set of runs of length 1. A checked pass computes
a run's layers and then names the first non-finite one in per-branch order:
every encoder by modality, then the heads, which is the parameter order.

A modality's branch (its encoder and, under late fusion, its head) sees only
its own input, so `branch_cache` runs each branch once on the input and once
on zeros and builds from their outputs a table of coalition logits by fusion
alone: 2M branch passes, where uncached masking costs M branch passes per
coalition. The full table holds all 2**M coalitions; under late fusion its
rows are prefix sums in modality order (the order `_fuse` adds in), under
early fusion each row is `_fuse`'s maxout head on the coalition's cached
features. A partial table holds only the coalitions a caller names, each
row `_fuse` on that coalition's cached outputs; evaluation reads the full
coalition and the M singletons from one. A cached `forward_masked` returns
the row of the coalition's bitmask: `table[mask]`, or `table[rows[mask]]`
from a partial table; it accepts the cache's own `inputs` tuple, which
attribution passes, by one `is` check, and any other sequence only if it
holds the same arrays. `mean_log_probs` and `accuracies` score such a stack
in one pass, summing the exponentials of fewer than 8 classes as one
`np.add` per class column once the stack holds 256 rows (see
`_label_log_probs`); `evaluate` scores one (N, C) batch with the same two
calls.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .autodiff import ParameterVector
from .errors import ConfigError, DimensionError, NumericError, UsageError
from .tensor import Rng, derive_seed

Array = np.ndarray

ACTIVATIONS = ("relu", "tanh")
FUSIONS = ("early", "late")


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
            raise ConfigError(f"in_dim must be >= 1, got {self.in_dim}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden must hold widths >= 1, got {list(self.hidden)}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

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
        if self.mode not in FUSIONS:  # `mode` is the config's `model.fusion`
            raise ConfigError(f"fusion must be one of {FUSIONS}, got {self.mode!r}")
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if self.mode == "early" and self.pieces < 2:
            raise ConfigError(f"pieces must be >= 2 for early fusion, got {self.pieces}")


class _Layer(NamedTuple):
    """One layer role across a run of R same-shape branches, or an early
    fusion head layer (the maxout pieces as R items, the output layer as
    one). `params.stacks[w]` is its (R, fan_in, fan_out) weight
    view and, with biases, `params.stacks[w + 1]` its (R, 1, fan_out) bias
    view; `names[r]` is the layer's name in item r. `act` names the
    activation that follows it, None for none."""

    names: tuple[str, ...]
    w: int
    act: str | None


class _Run(NamedTuple):
    """Consecutive modalities [start, stop) that share one EncoderSpec. Their
    branch is one chain of `layers`: each encoder layer, then under late
    fusion the head's hidden and output layer. `cols` are the run's columns
    of the early-fusion features."""

    start: int
    stop: int
    layers: tuple[_Layer, ...]
    cols: slice


class BranchCache(NamedTuple):
    """One batch's coalition logits, from `MultimodalModel.branch_cache`.

    A coalition is a bitmask k (bit m set = modality m active). With `rows`
    None the table is full and `table[k]` holds coalition k's logits;
    otherwise `table[rows[k]]` does, for the coalitions `rows` names. The
    table is read-only. `flat` (the parameter buffer, a copy that each
    `load_flat` owns, so no other model's) and `inputs` identify what the
    cache is valid for.
    """

    flat: Array
    inputs: tuple[Array, ...]
    table: Array
    rows: dict[int, int] | None = None


def _relu(z: Array) -> Array:
    return np.maximum(z, 0.0, out=z)


def _tanh(z: Array) -> Array:
    return np.tanh(z, out=z)


_ACT = {"relu": _relu, "tanh": _tanh}  # each applied in place


def _act_backward(name: str, g: Array, a: Array) -> Array:
    """Gradient through relu or tanh, read off the activation `a` it produced."""
    return g * (1.0 - a * a) if name == "tanh" else g * (a > 0.0)


def _label_log_probs(z: Array, labels: Array) -> tuple[Array, Array, Array]:
    """Log-probabilities of `labels` under the log-sum-exp stabilized softmax
    over the last axis of `z`, with exp(z - max) and its sums, so no
    intermediate probability overflows. `z` is one (N, C) batch or a
    (K, N, C) stack, and every slice of a stack comes out bit for bit as
    that slice alone; the picked log-probabilities are made contiguous for
    the caller's mean.

    The exponentials are summed one of two ways, with the same bits. numpy
    sums each row of a C-contiguous last axis (`zs` is made C-contiguous
    for this) in the loop and order it uses for a lone 1-D array: below 8
    terms that is one add after another from +0.0, left to right, and from
    8 terms on it is 8 interleaved accumulators. So with fewer than 8
    classes the sum may instead fold the C columns left to right with
    `np.add`, one call per column over every row at once; starting from
    column 0 rather than +0.0 changes only a row of -0.0 terms, which no
    exponential is. numpy's own sum costs one inner-loop call per row, the
    fold C - 1 calls in all, so the fold runs only on at least 256 rows,
    where the two cross: on a 2-vCPU Xeon (`timeit` minimum of the sum
    alone, C = 6) numpy took 3.0 against 6.6 us on 32 rows, 8.8 against
    8.6 us on 256 rows and 29.1 against 13.3 us on 1024 rows, and on a
    (255, 32, 6) stack of 8-modality coalitions 207 against 51 us. The row
    rule decides speed only, never bits. With 8 or more classes the sum is
    always numpy's.

    The row max folds the C columns with `np.maximum`, because numpy's
    `max` over a short last axis costs about 90 ns a row (0.7 ms for a
    256 x 32 x 6 stack on a 2-vCPU Xeon). Any order gives the same max,
    except which nan or which of +0.0 and -0.0 comes out. Neither changes a
    result: a nan max makes the whole row nan, and a zero max shifts only
    zeros, which exponentiate to 1 either way, in a row with two of them,
    whose log sum is then at least log 2."""
    c = z.shape[-1]
    top = functools.reduce(np.maximum, [z[..., j] for j in range(c)])
    zs = np.subtract(z, top[..., None], order="C")
    picked = np.ascontiguousarray(zs[..., np.arange(z.shape[-2]), labels])
    ez = np.exp(zs, out=zs)
    if c < 8 and ez.size >= 256 * c:
        sez = functools.reduce(np.add, [ez[..., j] for j in range(c)])[..., None]
    else:
        sez = ez.sum(axis=-1, keepdims=True)
    picked -= np.log(sez[..., 0])
    return picked, ez, sez


def _cross_entropy(z: Array, labels: Array, onehot: Array, w: float) -> tuple[float, Array]:
    """`w` times the mean softmax cross-entropy of logits `z`, and its gradient
    in the fused (softmax - onehot) / N form."""
    logp, ez, sez = _label_log_probs(z, labels)
    value = -logp.mean()
    return value * w, ((ez / sez - onehot) / z.shape[0]) * w


def check_labels(labels: Array, n: int, classes: int) -> None:
    """Labels must be `n` integers in [0, classes)."""
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} != ({n},)")
    if labels.dtype.kind not in "iu":
        raise UsageError("labels must be integers")
    if labels.min() < 0 or labels.max() >= classes:
        raise UsageError(f"labels must lie in [0, {classes})")


def _coalition(keep: Iterable[int], n_modalities: int) -> int:
    """The bitmask of `keep` (bit m set = modality m active), built in one
    pass; a repeated member counts once, and numpy integer members give a
    numpy integer mask. A member outside [0, n_modalities) is a UsageError
    naming the smallest such member."""
    mask, bad = 0, None
    for m in keep:
        if 0 <= m < n_modalities:
            mask |= 1 << m
        elif bad is None or m < bad:
            bad = m
    if bad is not None:
        raise UsageError(f"coalition member {bad} outside [0, {n_modalities})")
    return mask


def _mask(mask) -> int:
    """A coalition bitmask as an int; what `operator.index` refuses is a UsageError."""
    try:
        return operator.index(mask)
    except TypeError:
        raise UsageError(f"coalition mask must be an integer, got {mask!r}") from None


def mask_inputs(xs: Sequence[Array], mask: int) -> list[Array]:
    """Zero the inputs of every modality not in the coalition `mask` (bit m
    set = modality m active); a mask outside [0, 2**M) is a UsageError."""
    mask = _mask(mask)
    if not 0 <= mask < 1 << len(xs):
        raise UsageError(f"coalition mask {mask} outside [0, {1 << len(xs)})")
    return [x if mask >> m & 1 else np.zeros_like(x) for m, x in enumerate(xs)]


def _outputs(runs: list[list]) -> list[Array]:
    """Each branch's output, one array per modality, from `_branches`' runs:
    its head's logits under late fusion, its features under early fusion."""
    return [out for run in runs for out in run[-1]]


class MultimodalModel:
    """Encoders + fusion head with named parameters and pass counters.

    Weights initialize to standard normals / sqrt(fan_in) from a seed-derived
    stream, biases to zero (omitted entirely when `bias=False`). `counters`
    counts forward/backward passes ("taped") and plain masked forwards so the
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
        # the layer table: runs of consecutive modalities with equal specs,
        # each with its layer roles (per-item names, fan-in, fan-out,
        # activation) and its columns of the early-fusion features
        spans: list[list[int]] = []
        for m, es in enumerate(self.encoders):
            if m and es == self.encoders[m - 1]:
                spans[-1][1] += 1
            else:
                spans.append([m, m + 1])
        table, lo = [], 0
        for start, stop in spans:
            es, ms = self.encoders[start], range(start, stop)
            dims = (es.in_dim, *es.hidden)
            enc = [(tuple(f"enc{m}.l{i}" for m in ms), dims[i], dims[i + 1], es.activation)
                   for i in range(len(es.hidden))]
            head = [(tuple(f"head{m}.l0" for m in ms), es.out_dim, fusion.width, es.activation),
                    (tuple(f"head{m}.l1" for m in ms), fusion.width, classes, None)]
            table.append((start, stop, enc, head if fusion.mode == "late" else [],
                          slice(lo, lo + len(ms) * es.out_dim)))
            lo += len(ms) * es.out_dim
        fuse = [] if fusion.mode == "late" else [
            (tuple(f"fusion.p{j}" for j in range(fusion.pieces)), lo, fusion.width, None),
            (("head.out",), fusion.width, classes, None)]
        # parameter order: every encoder by modality, then every head by
        # modality (late), or the maxout pieces and the output layer (early)
        blocks = ([(stop - start, enc) for start, stop, enc, _, _ in table]
                  + [(stop - start, head) for start, stop, _, head, _ in table]
                  + [(len(role[0]), [role]) for role in fuse])
        rng = Rng(derive_seed(seed, 1))
        items: list[tuple[str, Array]] = []
        for count, group in blocks:
            for r in range(count):
                for names, fan_in, fan_out, _ in group:
                    items.append((f"{names[r]}.w", rng.normal((fan_in, fan_out)) * fan_in**-0.5))
                    if bias:
                        items.append((f"{names[r]}.b", np.zeros(fan_out)))
        self.params = ParameterVector(items)

        def layer(names: tuple[str, ...], fan_in: int, fan_out: int, act: str | None) -> _Layer:
            w = self.params.add_stack([f"{name}.w" for name in names])
            if bias:
                self.params.add_stack([f"{name}.b" for name in names], (1, fan_out))
            return _Layer(names, w, act)

        self._runs = tuple(_Run(start, stop, tuple(layer(*role) for role in enc + head), cols)
                           for start, stop, enc, head, cols in table)
        self._fusion_layers = tuple(layer(*role) for role in fuse)
        self._piece_ids = np.arange(fusion.pieces)[:, None, None]
        # every backward writes each parameter's slice of this buffer once
        self._grad = np.zeros(self.params.size)
        self._grad_stacks = self.params.stack_views(self._grad)

    @property
    def n_modalities(self) -> int:
        return len(self.encoders)

    @property
    def n_params(self) -> int:
        return self.params.size

    def _check_inputs(self, xs: Sequence[Array]) -> list[Array]:
        """The modality arrays as float64, each checked to be (N >= 1, in_dim)."""
        if len(xs) != self.n_modalities:
            raise DimensionError(f"expected {self.n_modalities} modality arrays, got {len(xs)}")
        out = [np.asarray(x, dtype=np.float64) for x in xs]
        for m, x in enumerate(out):
            if x.ndim != 2 or x.shape[1] != self.encoders[m].in_dim:
                raise DimensionError(
                    f"modality {m} expects shape (N, {self.encoders[m].in_dim}), got {x.shape}"
                )
            if x.shape[0] != out[0].shape[0]:
                raise DimensionError("modality arrays disagree on batch size")
        if out[0].shape[0] == 0:
            raise UsageError("batch must be non-empty")
        return out

    def _finish(self, z: Array, layer: _Layer, bad: list[str] | None) -> None:
        """Complete a stacked layer output in place: add the biases, note in
        `bad` (a checked pass) each item's non-finite layer name, then apply
        the activation."""
        if self.bias:
            z += self.params.stacks[layer.w + 1]
        if bad is not None and not np.isfinite(z).all():
            finite = np.isfinite(z).all(axis=(1, 2))
            bad += [name for name, ok in zip(layer.names, finite) if not ok]
        if layer.act is not None:
            _ACT[layer.act](z)

    def _raise_first(self, bad: list[str]) -> None:
        """NumericError naming the first non-finite layer in `bad`, in the
        order of a per-layer pass: the encoders by modality, then the heads,
        which is the parameter order."""
        first = min(bad, key=lambda name: self.params.slice_of(f"{name}.w").start)
        raise NumericError(f"layer {first} produced non-finite values")

    def _branches(self, inputs: list[Array], checked: bool) -> list[list]:
        """Every run's branch on `inputs`, one list per run: the run's inputs
        (one array per modality), then each layer's output stacked as
        (R, N, width). Under late fusion the last two are the heads' hidden
        activation and logits; under early fusion the last is the features
        (the inputs themselves for identity encoders).

        The first layer of a run writes each modality's product into its
        item of one stack; every later layer is one 3-D matmul, which numpy
        runs as one 2-D product per item, so each item's bits equal that
        branch run alone. With `checked`, the first non-finite layer output
        in per-branch order (every encoder, then every head) raises
        NumericError naming it.
        """
        stacks, n = self.params.stacks, len(inputs[0])
        bad = [] if checked else None
        runs = []
        for run in self._runs:
            a = inputs[run.start:run.stop]
            acts = [a]
            for layer in run.layers:
                w = stacks[layer.w]
                if len(acts) == 1:  # the inputs are separate arrays, one per modality
                    z = np.empty((len(w), n, w.shape[2]))
                    for x, wr, zr in zip(a, w, z):
                        np.matmul(x, wr, out=zr)
                else:
                    z = np.matmul(a, w)
                self._finish(z, layer, bad)
                a = z
                acts.append(z)
            runs.append(acts)
        if bad:
            self._raise_first(bad)
        return runs

    def _fuse(self, outs: list[Array], checked: bool) -> tuple[Array, tuple | None]:
        """Fusion of the branch outputs `outs`, one per modality: the late
        heads' logits summed in modality order, or the early maxout head on
        the concatenated features. After `_branches` this completes the layer
        stack; with `checked`, the first non-finite linear layer output
        raises NumericError naming it. Returns the logits and the `head`
        `_backward` reads: (joint features, maxout pieces, their max) under
        early fusion, None under late."""
        if self.fusion.mode == "late":
            logits = None
            for out in outs:
                logits = out if logits is None else logits + out
            return logits, None
        stacks, (pieces_layer, out_layer) = self.params.stacks, self._fusion_layers
        bad = [] if checked else None
        joint = np.concatenate(outs, axis=1)
        pieces = np.matmul(joint, stacks[pieces_layer.w])
        self._finish(pieces, pieces_layer, bad)
        fused = pieces.max(axis=0)
        logits = np.matmul(fused, stacks[out_layer.w][0])[None]
        self._finish(logits, out_layer, bad)
        if bad:
            self._raise_first(bad)
        return logits[0], (joint, pieces, fused)

    def _backward(self, acts: list[list], head: tuple | None, g: Array) -> Array:
        """Flat parameter gradient of one pass `(acts, head)`, given its logit gradient `g`.

        Each parameter is used once per term, so every slice is written once,
        through the stacked views of one gradient buffer; each weight
        gradient is one 3-D matmul per layer, or one product per modality at
        a run's first layer. Maxout routes a tie to its lowest piece. The
        pieces' gradients reach the concatenated features last piece first:
        floating-point sums depend on order, and this one is pinned by the
        golden gradient bytes.
        """
        stacks, grads, n = self.params.stacks, self._grad_stacks, len(g)
        if self.fusion.mode == "late":
            g_runs = [g] * len(self._runs)  # every head's logits get the full gradient
        else:
            joint, pieces, fused = head
            pieces_layer, out_layer = self._fusion_layers
            np.matmul(fused.T, g, out=grads[out_layer.w][0])
            if self.bias:
                np.sum(g, axis=0, out=grads[out_layer.w + 1][0, 0])
            g_fused = g @ stacks[out_layer.w][0].T
            gz = g_fused * (np.argmax(pieces, axis=0) == self._piece_ids)
            np.matmul(joint.T, gz, out=grads[pieces_layer.w])
            if self.bias:
                np.sum(gz, axis=1, keepdims=True, out=grads[pieces_layer.w + 1])
            contrib = np.matmul(gz, stacks[pieces_layer.w].transpose(0, 2, 1))
            g_joint = contrib[-1]
            for c in contrib[-2::-1]:
                g_joint = g_joint + c
            g_runs = [g_joint[:, run.cols].reshape(n, run.stop - run.start, -1).transpose(1, 0, 2)
                      for run in self._runs]
        for run, run_acts, g in zip(self._runs, acts, g_runs):
            for i in reversed(range(len(run.layers))):
                layer, h = run.layers[i], run_acts[i]
                gz = g if layer.act is None else _act_backward(layer.act, g, run_acts[i + 1])
                gw = grads[layer.w]
                if i:
                    np.matmul(h.transpose(0, 2, 1), gz, out=gw)
                else:
                    for x, gzr, gwr in zip(h, gz, gw):
                        np.matmul(x.T, gzr, out=gwr)
                if self.bias:  # a late head's logit gradient g is one (N, C) for every item
                    grads[layer.w + 1][...] = gz.sum(axis=-2, keepdims=True)
                if i:
                    g = np.matmul(gz, stacks[layer.w].transpose(0, 2, 1))
        return self._grad.copy()

    def _value_and_grad(self, xs: Sequence[Array], labels: Array, terms) -> tuple[float, Array]:
        """Weighted sum of masked mean cross-entropies and its flat gradient.

        Runs one checked forward per (keep, weight) term, a weight of None
        meaning 1, then the backward from the last term to the first, which
        is the summation order the golden gradient bytes pin. The loss and
        the flat gradient are each checked finite once.
        """
        labels = np.asarray(labels)
        xs = self._check_inputs(xs)
        n = len(xs[0])
        check_labels(labels, n, self.classes)
        onehot = np.zeros((n, self.classes), dtype=np.float64)
        onehot[np.arange(n), labels] = 1.0
        loss, passes, grad = None, [], None
        with np.errstate(over="ignore", invalid="ignore"):
            for keep, weight in terms:
                acts = self._branches(mask_inputs(xs, _coalition(keep, len(xs))), True)
                logits, head = self._fuse(_outputs(acts), True)
                w = 1.0 if weight is None else float(weight)
                value, g = _cross_entropy(logits, labels, onehot, w)
                loss = value if loss is None else loss + value
                passes.append((acts, head, g))
            if not np.isfinite(loss):
                raise NumericError(f"loss is non-finite ({float(loss)})")
            for acts, head, g in reversed(passes):
                flat = self._backward(acts, head, g)
                grad = flat if grad is None else grad + flat
        if not np.isfinite(grad).all():
            first = int(np.argmin(np.isfinite(grad)))
            name = next(k for k in self.params.names if first < self.params.slice_of(k).stop)
            raise NumericError(f"gradient of {name} is non-finite")
        return float(loss), grad

    def branch_cache(self, xs: Sequence[Array], masks: Sequence[int] | None = None) -> BranchCache:
        """Coalition logits on this batch, from 2M branch passes.

        A branch is the modality's encoder, followed under late fusion by its
        head; each runs once on zeros and once on its input, and the cache
        keeps only each branch's two outputs. `forward_masked` with this
        cache returns a cached coalition's logits bit for bit as without the
        cache, for as long as the parameters stay unchanged. Like
        `forward_masked`, it never raises on overflow.

        With `masks` None the table holds every coalition, row k for bitmask
        k. Under late fusion it is built by prefix sums: after modality m,
        rows [0, 2**(m+1)) hold the coalitions of modalities 0..m, each row
        the sum `_fuse` forms for it, in the same order. That is about
        2**(M+1) row additions, where summing each coalition alone takes
        (M - 1) * 2**M. Under early fusion row k is `_fuse`'s maxout head on
        coalition k's cached features.

        A list of distinct bitmasks in [0, 2**M) builds a partial table
        instead, one row per mask in list order, each `_fuse` on that
        coalition's cached outputs; an empty list, a mask that is not an
        integer or is out of range, or a repeated mask is a UsageError.
        """
        n_masks = 1 << self.n_modalities
        if masks is not None:
            masks = [_mask(k) for k in masks]
            if not masks:
                raise UsageError("coalition mask list is empty")
            bad = [k for k in masks if not 0 <= k < n_masks]
            if bad:
                raise UsageError(f"coalition mask {bad[0]} outside [0, {n_masks})")
            if len(set(masks)) != len(masks):
                raise UsageError(f"coalition masks repeat: {masks}")
        xs64 = self._check_inputs(xs)
        order = range(n_masks) if masks is None else masks
        with np.errstate(over="ignore", invalid="ignore"):
            sides = (_outputs(self._branches([np.zeros_like(x) for x in xs64], False)),
                     _outputs(self._branches(xs64, False)))
            table = np.empty((len(order), len(xs64[0]), self.classes))
            if masks is None and self.fusion.mode == "late":
                off, on = sides
                table[0], table[1] = off[0], on[0]
                for m in range(1, self.n_modalities):
                    half = 1 << m
                    np.add(table[:half], on[m], out=table[half:2 * half])
                    np.add(table[:half], off[m], out=table[:half])
            else:
                for i, k in enumerate(order):
                    outs = [sides[k >> m & 1][m] for m in range(self.n_modalities)]
                    table[i] = self._fuse(outs, False)[0]
        table.flags.writeable = False  # its rows are handed out as logits
        rows = None if masks is None else {k: i for i, k in enumerate(masks)}
        return BranchCache(self.params._flat, tuple(xs), table, rows)

    def forward_masked(self, xs: Sequence[Array], mask: int,
                       cache: BranchCache | None = None) -> Array:
        """Logits of a plain forward with only the coalition of bitmask `mask` active.

        Unlike the training passes this never raises on overflow: evaluation
        of a diverged model reports inf/nan values as they are. With a
        `cache` from `branch_cache(xs)` nothing runs: the logits are the
        coalition's read-only table row. A mask other than an integer in
        [0, 2**M), a cache built for another model, other inputs or older
        parameters, or a partial cache without this coalition, is a
        UsageError. Only a call that passes every check is counted.
        """
        if cache is None:
            masked = mask_inputs(self._check_inputs(xs), mask)
            self.counters["masked_forward"] += 1
            with np.errstate(over="ignore", invalid="ignore"):
                return self._fuse(_outputs(self._branches(masked, False)), False)[0]
        # unpacked once: attribution makes 2**M - 1 of these reads per batch
        flat, inputs, table, rows = cache
        if flat is not self.params._flat:
            raise UsageError("branch cache was built for another model or older parameters")
        # attribution passes the cache's own tuple: one `is` check for it
        if xs is not inputs and (len(xs) != len(inputs)
                                 or not all(map(operator.is_, xs, inputs))):
            raise UsageError("branch cache was built from other inputs")
        mask = mask if type(mask) is int else _mask(mask)  # attribution reads ints
        # a negative mask must not index from the end, where the full coalition is
        row = mask if rows is None else rows.get(mask, -1)
        if not 0 <= row < len(table):
            raise UsageError(f"coalition mask {mask} is not in the branch cache")
        self.counters["masked_forward"] += 1
        return table[row]

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


def mean_log_probs(logits: Array, labels: Array) -> Array:
    """Mean log-probability of the labels per (N, C) slice of a (K, N, C) stack
    or one (N, C) batch, each bit for bit as that slice alone, inf and nan too."""
    return _label_log_probs(logits, labels)[0].mean(axis=-1)


def accuracies(logits: Array, labels: Array) -> Array:
    """Top-1 accuracy per (N, C) slice of a (K, N, C) stack or one (N, C) batch."""
    return (np.argmax(logits, axis=-1) == labels).mean(axis=-1)


def evaluate(model: MultimodalModel, xs: Sequence[Array], labels: Array,
             cache: BranchCache | None = None) -> tuple[float, float]:
    """Plain full-coalition mean cross-entropy and top-1 accuracy on one
    batch or split.

    The loss uses the same log-sum-exp arithmetic as the training loss, so
    plain and taped evaluations of one batch agree bit for bit. Without a
    `cache` this is one direct forward of every branch; with one from
    `model.branch_cache(xs, ...)` that holds the full coalition, it scores
    that table row, bit for bit the same logits.
    """
    logits = model.forward_masked(xs, (1 << model.n_modalities) - 1, cache)
    labels = np.asarray(labels)
    check_labels(labels, len(logits), model.classes)
    # non-finite logits (diverged model) pass through as inf/nan, not errors
    with np.errstate(over="ignore", invalid="ignore"):
        return float(-mean_log_probs(logits, labels)), float(accuracies(logits, labels))
