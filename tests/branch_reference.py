"""A per-branch reference for `MultimodalModel`'s stacked passes.

This is the model's layer stack written one modality and one named layer at
a time, reading each parameter through `params.view`: the forward, the
checked forward that names its first non-finite layer, and the hand-written
backward. `tests/test_stacked.py` compares the model against it bit for bit.
"""

import numpy as np

from msam.errors import NumericError
from msam.model import _act_backward, _coalition, _cross_entropy, mask_inputs

_ACT = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}


def _linear(model, h, name, checked):
    z = h @ model.params.view(f"{name}.w")
    if model.bias:
        z = z + model.params.view(f"{name}.b")
    if checked and not np.isfinite(z).all():
        raise NumericError(f"layer {name} produced non-finite values")
    return z


def forward(model, inputs, checked):
    """(acts, hidden, fused, logits) of one pass; `acts[m]` is modality m's
    input and each encoder layer's activation."""
    acts = []
    for m, es in enumerate(model.encoders):
        a = [inputs[m]]
        for i in range(len(es.hidden)):
            a.append(_ACT[es.activation](_linear(model, a[-1], f"enc{m}.l{i}", checked)))
        acts.append(a)
    if model.fusion.mode == "late":
        hidden, logits = [], None
        for m, a in enumerate(acts):
            act = _ACT[model.encoders[m].activation]
            h = act(_linear(model, a[-1], f"head{m}.l0", checked))
            hidden.append(h)
            out = _linear(model, h, f"head{m}.l1", checked)
            logits = out if logits is None else logits + out
        return acts, hidden, logits, logits
    joint = np.concatenate([a[-1] for a in acts], axis=1)
    pieces = np.stack([_linear(model, joint, f"fusion.p{j}", checked)
                       for j in range(model.fusion.pieces)], axis=0)
    fused = pieces.max(axis=0)
    return acts, [joint, pieces], fused, _linear(model, fused, "head.out", checked)


def backward(model, trace, g):
    """Flat parameter gradient of one term, given its logit gradient `g`."""
    acts, hidden, fused, _ = trace
    params = model.params
    flat = np.zeros(params.size, dtype=np.float64)

    def linear_grads(name, h, gz):
        flat[params.slice_of(f"{name}.w")] = (h.T @ gz).ravel()
        if model.bias:
            flat[params.slice_of(f"{name}.b")] = gz.sum(axis=0)

    if model.fusion.mode == "late":
        g_feats = []
        for m, es in enumerate(model.encoders):
            h = hidden[m]
            linear_grads(f"head{m}.l1", h, g)
            gz = _act_backward(es.activation, g @ params.view(f"head{m}.l1.w").T, h)
            linear_grads(f"head{m}.l0", acts[m][-1], gz)
            g_feats.append(gz @ params.view(f"head{m}.l0.w").T if es.hidden else None)
    else:
        joint, pieces = hidden
        linear_grads("head.out", fused, g)
        g_fused = g @ params.view("head.out.w").T
        arg = np.argmax(pieces, axis=0)
        g_joint = None
        for j in reversed(range(model.fusion.pieces)):
            gj = g_fused * (arg == j)
            linear_grads(f"fusion.p{j}", joint, gj)
            contrib = gj @ params.view(f"fusion.p{j}.w").T
            g_joint = contrib if g_joint is None else g_joint + contrib
        bounds = np.cumsum([0] + [es.out_dim for es in model.encoders])
        g_feats = [g_joint[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    for m, es in enumerate(model.encoders):
        g = g_feats[m]
        for i in reversed(range(len(es.hidden))):
            gz = _act_backward(es.activation, g, acts[m][i + 1])
            linear_grads(f"enc{m}.l{i}", acts[m][i], gz)
            if i:
                g = gz @ params.view(f"enc{m}.l{i}.w").T
    return flat


def forward_masked(model, xs, keep):
    """Logits with only the coalition `keep` active; never raises on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return forward(model, mask_inputs(xs, _coalition(keep, len(xs))), False)[3]


def value_and_grad(model, xs, labels, terms):
    """Weighted sum of masked mean cross-entropies and its flat gradient,
    with the model's checks and summation order."""
    n = len(xs[0])
    onehot = np.zeros((n, model.classes), dtype=np.float64)
    onehot[np.arange(n), labels] = 1.0
    loss, passes, grad = None, [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for keep, weight in terms:
            trace = forward(model, mask_inputs(xs, _coalition(keep, len(xs))), True)
            w = 1.0 if weight is None else float(weight)
            value, g = _cross_entropy(trace[3], labels, onehot, w)
            loss = value if loss is None else loss + value
            passes.append((trace, g))
        if not np.isfinite(loss):
            raise NumericError(f"loss is non-finite ({float(loss)})")
        for trace, g in reversed(passes):
            flat = backward(model, trace, g)
            grad = flat if grad is None else grad + flat
    if not np.isfinite(grad).all():
        first = int(np.argmin(np.isfinite(grad)))
        name = next(k for k in model.params.names if first < model.params.slice_of(k).stop)
        raise NumericError(f"gradient of {name} is non-finite")
    return float(loss), grad
