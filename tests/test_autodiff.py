"""Gradient tests: the model's hand-written backward, grad_check, ParameterVector.

Backward correctness is checked two ways: worked examples with closed-form
derivatives, and an independent central-difference loop written here in the
test (not the library's own grad_check, which gets its own tests including a
deliberate fault injection).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msam import autodiff as ad
from msam.errors import DimensionError, NumericError, UsageError
from msam.model import EncoderSpec, FusionSpec, MultimodalModel, evaluate
from msam.tensor import Rng, Tensor, randn


def scalar_params(**values):
    return ad.ParameterVector([(k, Tensor(v)) for k, v in values.items()])


def square_loss(params):
    """sum(theta^2) over the flat vector and its gradient 2 * theta."""
    def loss():
        return float(np.sum(params.flatten() ** 2))
    return loss, 2.0 * params.flatten()


def set_params(model, **named):
    flat = model.params.flatten()
    for name, value in named.items():
        flat[model.params.slice_of(name)] = np.ravel(value)
    model.params.load_flat(flat)


def central_difference(model, xs, labels, h=1e-6):
    """Full-vector central differences of the plain loss, independent of grad_check."""
    base = model.params.flatten()
    fd = np.empty(base.size)
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + h
        model.params.load_flat(probe)
        lp, _ = evaluate(model, xs, labels)
        probe[i] = base[i] - h
        model.params.load_flat(probe)
        lm, _ = evaluate(model, xs, labels)
        fd[i] = (lp - lm) / (2.0 * h)
    model.params.load_flat(base)
    return fd


def batch(model, n, seed, shift=0.0):
    xs = [Rng(seed + m).normal((n, es.in_dim)) + shift for m, es in enumerate(model.encoders)]
    return xs, Rng(seed + 50).integers(model.classes, n)


def one_unit_model(**kw):
    """One raw input, late fusion with a single relu unit and two classes."""
    return MultimodalModel([EncoderSpec(1, **kw)], FusionSpec("late", width=1), classes=2,
                           bias=False)


# ---------------------------------------------------------------- worked cases


def test_zero_logits_cross_entropy_is_log_c():
    c = 4
    m = MultimodalModel([EncoderSpec(2, (3,))], FusionSpec("late", width=3), classes=c)
    m.params.load_flat(np.zeros(m.n_params))
    xs, labels = batch(m, 5, 1)
    loss, _ = m.loss_value_and_grad(xs, labels)
    assert_allclose(loss, np.log(c), atol=1e-12)


def test_softmax_cross_entropy_hand_case():
    # single row: x = 1 -> relu unit 1 -> logits [1, -1], label 0, so
    # loss = log(1 + e^-2) and dL/dlogits = softmax - onehot
    m = one_unit_model()
    set_params(m, **{"head0.l0.w": [[1.0]], "head0.l1.w": [[1.0, -1.0]]})
    loss, grad = m.loss_value_and_grad([np.array([[1.0]])], np.array([0]))
    assert_allclose(loss, np.log1p(np.exp(-2.0)), atol=1e-15)
    p0 = 1.0 / (1.0 + np.exp(-2.0))
    assert_allclose(grad[m.params.slice_of("head0.l1.w")], [p0 - 1.0, 1.0 - p0], atol=1e-15)
    # back through the unit: dL/dw0 = x * (w1 . (softmax - onehot))
    assert_allclose(grad[m.params.slice_of("head0.l0.w")], [2.0 * (p0 - 1.0)], atol=1e-15)


def test_mlp_grad_matches_central_differences():
    m = MultimodalModel([EncoderSpec(4, (5, 3), "tanh"), EncoderSpec(2, (), "tanh")],
                        FusionSpec("late", width=4), classes=3, seed=3)
    set_params(m, **{"enc0.l0.b": Rng(6).normal(5)})
    xs, labels = batch(m, 8, 4)
    _, grad = m.loss_value_and_grad(xs, labels)
    assert_allclose(grad, central_difference(m, xs, labels), atol=1e-7)


def test_relu_maxout_grad_matches_central_differences():
    m = MultimodalModel([EncoderSpec(3, (4,)), EncoderSpec(2, (3,))],
                        FusionSpec("early", width=4, pieces=3), classes=4, seed=9)
    flat = m.params.flatten()
    m.params.load_flat(flat + 0.05 * Rng(12).normal(flat.size))
    # nudge away from kinks so finite differences are valid
    xs, labels = batch(m, 6, 10, shift=0.05)
    _, grad = m.loss_value_and_grad(xs, labels)
    assert_allclose(grad, central_difference(m, xs, labels), atol=1e-6)


def test_grad_is_linear_in_scale():
    m = MultimodalModel([EncoderSpec(3, (4,), "tanh"), EncoderSpec(2, (4,), "tanh")],
                        FusionSpec("early", width=3), classes=3, seed=21)
    xs, labels = batch(m, 7, 22)
    l1, g1 = m.terms_value_and_grad(xs, labels, [((0, 1), None)])
    l3, g3 = m.terms_value_and_grad(xs, labels, [((0, 1), 3.0)])
    assert l3 == 3.0 * l1
    assert_allclose(g3, 3.0 * g1, atol=1e-12)


def test_unused_parameter_grad_is_exactly_zero():
    # modality 1 masked out: zero input, so every weight of its encoder sees
    # an exactly-zero activation below it; the active modality's do not
    for activation in ("relu", "tanh"):
        m = MultimodalModel([EncoderSpec(3, (4, 4), activation), EncoderSpec(2, (4, 3), activation)],
                            FusionSpec("early", width=3), classes=3, bias=False, seed=13)
        xs, labels = batch(m, 6, 14)
        _, grad = m.terms_value_and_grad(xs, labels, [((0,), None)])
        assert_array_equal(grad[m.params.group_mask("enc1.")], 0.0)
        assert np.abs(grad[m.params.group_mask("enc0.")]).max() > 0.0


def test_backward_is_bitwise_repeatable():
    m = MultimodalModel([EncoderSpec(4, (4,)), EncoderSpec(3, (2,))],
                        FusionSpec("early", width=4), classes=3, seed=8)
    xs, labels = batch(m, 5, 12)
    terms = [((0,), 0.25), ((0, 1), 0.75)]
    l1, g1 = m.terms_value_and_grad(xs, labels, terms)
    l2, g2 = m.terms_value_and_grad(xs, labels, terms)
    assert l1 == l2
    assert_array_equal(g1, g2)


def test_maxout_tie_routes_to_lowest_index():
    m = MultimodalModel([EncoderSpec(3, (4,))], FusionSpec("early", width=3, pieces=3),
                        classes=2, seed=5)
    # pieces 1 and 2 equal and above piece 0 everywhere: piece 1 wins each tie
    p1 = m.params.view("fusion.p1.w")
    set_params(m, **{"fusion.p0.w": p1, "fusion.p0.b": np.full(3, -1.0),
                     "fusion.p2.w": p1, "fusion.p2.b": m.params.view("fusion.p1.b")})
    xs, labels = batch(m, 6, 3)
    _, grad = m.loss_value_and_grad(xs, labels)
    for name in ("w", "b"):
        assert_array_equal(grad[m.params.slice_of(f"fusion.p0.{name}")], 0.0)
        assert_array_equal(grad[m.params.slice_of(f"fusion.p2.{name}")], 0.0)
        assert np.abs(grad[m.params.slice_of(f"fusion.p1.{name}")]).max() > 0.0


# ------------------------------------------------------------- numeric errors


def test_forward_overflow_raises_numeric_error():
    m = one_unit_model(hidden=(1,))
    set_params(m, **{"enc0.l0.w": [[1e200]], "head0.l0.w": [[1e200]]})
    xs, labels = [np.array([[1.0]])], np.array([0])
    with pytest.raises(NumericError, match="head0.l0"):
        m.loss_value_and_grad(xs, labels)
    # the plain forward reports the overflow instead of raising
    assert not np.isfinite(m.forward(xs).logits).all()


def test_backward_overflow_raises_numeric_error():
    # the forward stays small (1e300 * 1e-310 = 1e-10, then * 1e10 = 1) but the
    # encoder weight's gradient is x * 1e10 * O(1) = 1e310, which overflows
    m = one_unit_model(hidden=(1,))
    set_params(m, **{"enc0.l0.w": [[1e-310]], "head0.l0.w": [[1e10]],
                     "head0.l1.w": [[1.0, -1.0]]})
    xs, labels = [np.array([[1e300]])], np.array([1])
    with pytest.raises(NumericError, match="enc0.l0.w"):
        m.loss_value_and_grad(xs, labels)
    assert np.isfinite(evaluate(m, xs, labels)[0])


def test_op_shape_errors():
    # the training passes check shapes at the model boundary, before any layer
    m = MultimodalModel([EncoderSpec(3, (4,)), EncoderSpec(2, ())], FusionSpec("early"),
                        classes=3)
    xs, labels = batch(m, 4, 2)
    for bad in ([xs[0]], [xs[0], xs[1][:, :1]], [xs[0], xs[1][:3]], [xs[0], xs[1][0]]):
        with pytest.raises(DimensionError):
            m.loss_value_and_grad(bad, labels)
        with pytest.raises(DimensionError):
            m.terms_value_and_grad(bad, labels, [((0,), 0.5)])
    with pytest.raises(DimensionError):
        m.terms_value_and_grad(xs, labels[:, None], [((0,), 0.5)])
    with pytest.raises(UsageError):
        m.terms_value_and_grad(xs, labels, [((2,), 0.5)])


def test_softmax_cross_entropy_validation():
    m = one_unit_model()
    xs = [np.zeros((3, 1))]
    with pytest.raises(DimensionError):
        m.loss_value_and_grad(xs, np.array([0, 1]))
    with pytest.raises(UsageError):
        m.loss_value_and_grad(xs, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(UsageError):
        m.loss_value_and_grad(xs, np.array([0, 1, 2]))
    with pytest.raises(UsageError):
        m.terms_value_and_grad(xs, np.array([0, -1, 0]), [((0,), 0.5)])
    with pytest.raises(UsageError):
        m.loss_value_and_grad([np.zeros((0, 1))], np.zeros(0, dtype=np.int64))


# ------------------------------------------------------------- ParameterVector


def test_parameter_vector_round_trip():
    rng = Rng(14)
    params = ad.ParameterVector([("w", randn(rng, (3, 2))), ("b", randn(rng, (2,)))])
    flat = params.flatten()
    assert flat.shape == (8,)
    assert_array_equal(flat[params.slice_of("w")].reshape(3, 2), params.view("w"))
    new = np.arange(8, dtype=np.float64)
    params.load_flat(new)
    assert_array_equal(params.flatten(), new)
    assert_array_equal(params.view("b"), [6.0, 7.0])


def test_parameter_vector_validation():
    with pytest.raises(UsageError):
        ad.ParameterVector([])
    with pytest.raises(UsageError):
        ad.ParameterVector([("w", Tensor(1.0)), ("w", Tensor(2.0))])
    params = scalar_params(a=1.0, b=2.0)
    with pytest.raises(DimensionError):
        params.load_flat(np.zeros(3))
    with pytest.raises(NumericError):
        params.load_flat(np.array([1.0, np.nan]))


def test_group_mask_selects_by_prefix():
    params = ad.ParameterVector([
        ("enc0.w", Tensor(np.ones((2, 2)))),
        ("enc1.w", Tensor(np.ones((2, 2)))),
        ("head.b", Tensor(np.ones(3))),
    ])
    mask = params.group_mask("enc1.")
    assert mask.sum() == 4
    assert_array_equal(mask[params.slice_of("enc1.w")], True)
    assert not mask[params.slice_of("head.b")].any()
    assert params.group_mask("nope.").sum() == 0


# ------------------------------------------------------------------ grad_check


def test_grad_check_quadratic_is_near_exact():
    params = ad.ParameterVector([("w", randn(Rng(17), (2, 3)).scale(0.5))])
    loss, g = square_loss(params)
    report = ad.grad_check(loss, params, g)
    assert report.passed
    assert report.n_checked == 6
    assert report.max_rel_err < 1e-9


def test_grad_check_flags_injected_fault():
    params = ad.ParameterVector([("w", randn(Rng(18), (4,)))])
    loss, g = square_loss(params)
    g[2] += 1.0
    report = ad.grad_check(loss, params, g)
    assert not report.passed
    assert report.worst_coord == 2
    assert report.max_rel_err > 0.1


def test_grad_check_restores_parameters():
    params = scalar_params(a=1.25, b=-0.5)
    before = params.flatten()
    loss, g = square_loss(params)
    ad.grad_check(loss, params, g)
    assert_array_equal(params.flatten(), before)


def test_grad_check_samples_when_large():
    params = ad.ParameterVector([("w", randn(Rng(19), (30,)))])
    loss, g = square_loss(params)
    report = ad.grad_check(loss, params, g, max_coords=10, rng=Rng(1))
    assert report.n_checked == 10
    assert report.passed


def test_grad_check_validation():
    params = scalar_params(theta=1.0)
    loss, g = square_loss(params)
    with pytest.raises(UsageError):
        ad.grad_check(loss, params, g, h=0.0)
    with pytest.raises(UsageError):
        ad.grad_check(loss, params, g, h=0.5)
    with pytest.raises(UsageError):
        ad.grad_check(loss, params, g, coords=[])
    with pytest.raises(UsageError):
        ad.grad_check(loss, params, g, coords=[5])
    with pytest.raises(DimensionError):
        ad.grad_check(loss, params, np.zeros(3))
