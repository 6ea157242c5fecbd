"""Multimodal model tests.

Coalition masking is checked against hand-built numpy forward passes, and the
training loss is checked against the plain evaluation of the same batch.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msam.errors import ConfigError, DimensionError, UsageError
from msam.model import (EncoderSpec, FusionSpec, MultimodalModel, evaluate,
                        loss_and_accuracy, mask_inputs)
from msam.tensor import Rng


def make_batch(model, n=8, seed=100):
    xs = [Rng(seed + m).normal((n, es.in_dim)) for m, es in enumerate(model.encoders)]
    labels = Rng(seed + 99).integers(model.classes, n)
    return xs, labels


def late_model(bias=True, seed=7):
    return MultimodalModel(
        [EncoderSpec(3, (4,)), EncoderSpec(2, (4,))],
        FusionSpec("late", width=5), classes=3, bias=bias, seed=seed)


def early_model(bias=True, seed=7):
    return MultimodalModel(
        [EncoderSpec(3, (4,)), EncoderSpec(2, (4,))],
        FusionSpec("early", width=5, pieces=2), classes=3, bias=bias, seed=seed)


# ------------------------------------------------------------------- structure


def test_parameter_count_late_fusion():
    m = MultimodalModel([EncoderSpec(3, (5,)), EncoderSpec(4, (5,))],
                        FusionSpec("late", width=6), classes=2)
    # enc0 3*5+5, enc1 4*5+5, two heads of (5*6+6) + (6*2+2)
    assert m.n_params == 20 + 25 + 2 * (36 + 14)


def test_parameter_count_early_fusion():
    m = MultimodalModel([EncoderSpec(3, (5,)), EncoderSpec(4, (5,))],
                        FusionSpec("early", width=6, pieces=2), classes=2)
    # enc0 20, enc1 25, two maxout pieces of 10*6+6, head 6*2+2
    assert m.n_params == 20 + 25 + 2 * 66 + 14
    m2 = MultimodalModel([EncoderSpec(3, (5,)), EncoderSpec(4, (5,))],
                         FusionSpec("early", width=6, pieces=2), classes=2, bias=False)
    assert m2.n_params == 15 + 20 + 2 * 60 + 12


def test_identity_encoder_feeds_raw_input():
    m = MultimodalModel([EncoderSpec(3)], FusionSpec("late", width=2), classes=2, bias=False)
    xs = [np.array([[1.0, -2.0, 0.5]])]
    trace = m.forward(xs)
    assert_array_equal(trace.features[0], xs[0])


def test_init_is_seed_deterministic():
    a, b, c = late_model(seed=5), late_model(seed=5), late_model(seed=6)
    assert_array_equal(a.params.flatten(), b.params.flatten())
    assert not np.array_equal(a.params.flatten(), c.params.flatten())


def test_biases_start_at_zero():
    m = late_model()
    assert_array_equal(m.params.view("head0.l0.b"), np.zeros(5))


def test_config_validation():
    with pytest.raises(ConfigError):
        MultimodalModel([], FusionSpec("late"), classes=2)
    with pytest.raises(ConfigError):
        MultimodalModel([EncoderSpec(3)], FusionSpec("late"), classes=1)
    with pytest.raises(ConfigError):
        EncoderSpec(0)
    with pytest.raises(ConfigError):
        EncoderSpec(3, (0,))
    with pytest.raises(ConfigError):
        EncoderSpec(3, activation="gelu")
    with pytest.raises(ConfigError):
        FusionSpec("middle")
    with pytest.raises(ConfigError):
        FusionSpec("late", width=0)
    with pytest.raises(ConfigError):
        FusionSpec("early", pieces=1)


def test_input_validation():
    m = late_model()
    xs, labels = make_batch(m)
    with pytest.raises(DimensionError):
        m.forward([xs[0]])
    with pytest.raises(DimensionError):
        m.forward([xs[0], xs[1][:, :1]])
    with pytest.raises(DimensionError):
        m.forward([xs[0], xs[1][:4]])
    with pytest.raises(UsageError):
        m.forward([xs[0][:0], xs[1][:0]])
    with pytest.raises(DimensionError):
        m.loss_value_and_grad(xs, labels[:3])
    with pytest.raises(UsageError):
        m.forward_masked(xs, {2})


# -------------------------------------------------------------------- masking


def test_mask_inputs_zeroes_inactive():
    xs = [np.ones((2, 3)), np.full((2, 2), 5.0)]
    out = mask_inputs(xs, {1}, 2)
    assert_array_equal(out[0], np.zeros((2, 3)))
    assert out[1] is xs[1]
    with pytest.raises(UsageError):
        mask_inputs(xs, {-1}, 2)


@pytest.mark.parametrize("build", [late_model, early_model])
def test_full_coalition_equals_forward(build):
    m = build()
    xs, _ = make_batch(m)
    assert_array_equal(m.forward_masked(xs, (0, 1)).logits, m.forward(xs).logits)


@pytest.mark.parametrize("build", [late_model, early_model])
def test_empty_coalition_biasfree_logits_are_zero(build):
    m = build(bias=False)
    xs, _ = make_batch(m)
    assert_array_equal(m.forward_masked(xs, ()).logits, np.zeros((8, 3)))


def test_empty_coalition_rows_are_constant():
    m = early_model(bias=True)
    xs, _ = make_batch(m)
    logits = m.forward_masked(xs, ()).logits
    assert_array_equal(logits, np.tile(logits[:1], (8, 1)))


def test_single_branch_oracle_late_biasfree():
    m = late_model(bias=False)
    xs, _ = make_batch(m)
    h = np.maximum(xs[1] @ m.params.view("enc1.l0.w"), 0.0)
    h = np.maximum(h @ m.params.view("head1.l0.w"), 0.0)
    want = h @ m.params.view("head1.l1.w")
    assert_array_equal(m.forward_masked(xs, {1}).logits, want)


@pytest.mark.parametrize("build", [late_model, early_model])
def test_inactive_input_is_irrelevant(build):
    m = build()
    xs, _ = make_batch(m)
    ref = m.forward_masked(xs, {0}).logits
    xs2 = [xs[0], xs[1] + 1000.0]
    assert_array_equal(m.forward_masked(xs2, {0}).logits, ref)


def test_masked_term_grads_vanish_off_coalition():
    m = late_model(bias=False)
    xs, labels = make_batch(m)
    _, grad = m.terms_value_and_grad(xs, labels, [((0,), None)])
    off = m.params.group_mask("enc1.") | m.params.group_mask("head1.")
    assert_array_equal(grad[off], 0.0)
    assert np.abs(grad[~off]).max() > 0.0


def test_maxout_pieces_commute_in_value():
    m = early_model()
    xs, _ = make_batch(m)
    ref = m.forward(xs).logits
    flat = m.params.flatten()
    for name in ("w", "b"):
        s0, s1 = m.params.slice_of(f"fusion.p0.{name}"), m.params.slice_of(f"fusion.p1.{name}")
        flat[s0], flat[s1] = flat[s1].copy(), flat[s0].copy()
    m.params.load_flat(flat)
    assert_array_equal(m.forward(xs).logits, ref)


# ------------------------------------------------------------------ loss paths


def test_zero_logits_loss_is_log_classes():
    labels = np.array([0, 1, 2, 3])
    loss, acc = loss_and_accuracy(np.zeros((4, 4)), labels)
    assert_allclose(loss, np.log(4.0), atol=1e-12)
    assert acc == 0.25  # argmax of zeros is class 0


def test_loss_and_accuracy_validation():
    with pytest.raises(DimensionError):
        loss_and_accuracy(np.zeros(4), np.array([0]))
    with pytest.raises(UsageError):
        loss_and_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(UsageError):
        loss_and_accuracy(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(UsageError):
        loss_and_accuracy(np.zeros((2, 2)), np.array([0.0, 1.0]))


@pytest.mark.parametrize("build", [late_model, early_model])
def test_taped_loss_matches_plain_evaluate(build):
    m = build()
    xs, labels = make_batch(m)
    plain_loss, _ = evaluate(m, xs, labels)
    taped_loss, _ = m.loss_value_and_grad(xs, labels)
    assert_allclose(taped_loss, plain_loss, atol=1e-12)


def test_weighted_terms_combine_linearly():
    m = late_model()
    xs, labels = make_batch(m)
    full = (0, 1)
    l_full, g_full = m.terms_value_and_grad(xs, labels, [(full, None)])
    l_solo, g_solo = m.terms_value_and_grad(xs, labels, [((0,), None)])
    l_mix, g_mix = m.terms_value_and_grad(xs, labels, [(full, 0.3), ((0,), 0.7)])
    assert_allclose(l_mix, 0.3 * l_full + 0.7 * l_solo, atol=1e-12)
    assert_allclose(g_mix, 0.3 * g_full + 0.7 * g_solo, atol=1e-12)


def test_terms_require_nonempty_on_tape():
    m = late_model()
    xs, labels = make_batch(m)
    loss, grad = m.terms_value_and_grad(xs, labels, [])
    assert loss == 0.0
    assert_array_equal(grad, np.zeros(m.n_params))
    with pytest.raises(UsageError):
        m.terms_value_and_grad(xs, labels, [((3,), None)])


def test_pass_counters():
    m = late_model()
    xs, labels = make_batch(m)
    m.forward(xs)
    m.forward_masked(xs, {0})
    m.loss_value_and_grad(xs, labels)
    m.terms_value_and_grad(xs, labels, [])
    m.terms_value_and_grad(xs, labels, [((0,), None)])
    assert m.counters == {"taped": 2, "masked_forward": 2}
