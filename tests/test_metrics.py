"""Metric tests.

The landscape and sharpness helpers are exercised on quadratics where the
expected values have closed forms, and the convergence report is checked on
synthetic traces whose behavior against the reference curve is known.
"""

import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msam import metrics
from msam.errors import NumericError, UsageError
from msam.metrics import (convergence_report, landscape_grid, landscape_grid_flat,
                          mono_modal_accuracy, overfitting_gap, relative_gain,
                          sharpness_proxy, sharpness_proxy_flat)
from msam.model import EncoderSpec, FusionSpec, MultimodalModel, accuracies
from msam.tensor import Rng


# ------------------------------------------------------------- scalar metrics


@pytest.mark.parametrize("train,test,want", [
    (0.9, 0.9, 0.0),
    (0.9, 0.75, 0.2),
    (0.5, 1.0, 0.5),
    (0.3, 0.6, 0.5),
])
def test_overfitting_gap_examples(train, test, want):
    assert overfitting_gap(train, test) == pytest.approx(want, abs=1e-15)


def test_overfitting_gap_undefined_at_zero_test():
    assert overfitting_gap(0.5, 0.0) is None


def test_relative_gain_examples():
    assert relative_gain(1.1, 1.0) == pytest.approx(10.0, abs=1e-12)
    assert relative_gain(0.5, 1.0) == pytest.approx(-50.0, abs=1e-12)
    assert relative_gain(74.08, 68.41) == pytest.approx(8.288, abs=0.001)
    with pytest.raises(UsageError):
        relative_gain(0.5, 0.0)
    with pytest.raises(UsageError):
        relative_gain(0.5, -1.0)


def test_mono_modal_accuracy_matches_masked_forward():
    model = MultimodalModel([EncoderSpec(3, (4,)), EncoderSpec(2, (4,))],
                            FusionSpec("late", width=4), classes=3, seed=1)
    xs = [Rng(40).normal((10, 3)), Rng(41).normal((10, 2))]
    labels = Rng(42).integers(3, 10)
    for m in range(2):
        want = float(accuracies(model.forward_masked(xs, 1 << m), labels))
        assert mono_modal_accuracy(model, xs, labels, m) == want
    with pytest.raises(UsageError):
        mono_modal_accuracy(model, xs, labels, 2)


def test_rejected_coalition_is_not_counted():
    model = MultimodalModel([EncoderSpec(3, (4,)), EncoderSpec(2, (4,))],
                            FusionSpec("late", width=4), classes=3, seed=1)
    xs = [Rng(40).normal((10, 3)), Rng(41).normal((10, 2))]
    labels = Rng(42).integers(3, 10)
    cache = model.branch_cache(xs)
    before = dict(model.counters)
    for m in (-1, 2):  # 1 << -1 is a ValueError, and 1 << 2 names no modality
        for given in (None, cache):
            with pytest.raises(UsageError, match=rf"^modality {m} outside \[0, 2\)$"):
                mono_modal_accuracy(model, xs, labels, m, given)
    assert model.counters == before


def test_plain_evaluation_builds_no_branch_cache(monkeypatch):
    """The landscape and sharpness loops time direct forwards: none of
    `evaluate`, `landscape_grid` or `sharpness_proxy` may go through a
    coalition cache."""
    model = MultimodalModel([EncoderSpec(3, (4,)), EncoderSpec(2, (4,))],
                            FusionSpec("early", width=4), classes=3, seed=1)
    xs = [Rng(40).normal((10, 3)), Rng(41).normal((10, 2))]
    labels = Rng(42).integers(3, 10)

    def no_cache(*args, **kwargs):
        raise AssertionError("plain evaluation built a branch cache")

    monkeypatch.setattr(MultimodalModel, "branch_cache", no_cache)
    metrics.evaluate(model, xs, labels)
    landscape_grid(model, xs, labels, 3, 0.1, Rng(1))
    sharpness_proxy(model, xs, labels, 0.1, 2, Rng(2))
    assert model.counters["masked_forward"] == 1 + 9 + 3


# ------------------------------------------------------------------- landscape


def quad_loss(center, scale=1.0):
    return lambda v: scale * 0.5 * float((v - center) @ (v - center))


def test_landscape_center_is_unperturbed_loss():
    theta = Rng(1).normal((6,))
    grid = landscape_grid_flat(quad_loss(np.zeros(6)), theta, [slice(0, 6)], 5, 0.3, Rng(2))
    mid = 2
    assert grid.alphas[mid] == 0.0 and grid.betas[mid] == 0.0
    assert grid.center_loss == quad_loss(np.zeros(6))(theta)
    assert grid.losses[mid, mid] == grid.center_loss


def test_landscape_radius_zero_is_flat():
    theta = Rng(3).normal((5,))
    grid = landscape_grid_flat(quad_loss(np.zeros(5)), theta, [slice(0, 5)], 3, 0.0, Rng(4))
    assert_array_equal(grid.losses, np.full((3, 3), grid.center_loss))


def test_landscape_quadratic_closed_form():
    n = 7
    theta = Rng(5).normal((n,))
    grid = landscape_grid_flat(quad_loss(np.zeros(n)), theta, [slice(0, n)], 7, 0.5, Rng(6))
    # the grid is symmetric about a center pinned to exactly 0.0; linspace
    # rounds its steps, so the mirror holds to a unit in the last place
    assert_allclose(grid.alphas, -grid.alphas[::-1], rtol=0, atol=1e-15)
    assert_allclose(grid.betas, -grid.betas[::-1], rtol=0, atol=1e-15)
    assert grid.alphas[3] == 0.0 and grid.betas[3] == 0.0
    for i, a in enumerate(grid.alphas):
        for j, b in enumerate(grid.betas):
            p = theta + a * grid.d1 + b * grid.d2
            assert_allclose(grid.losses[i, j], 0.5 * p @ p, atol=1e-9)


def test_landscape_directions_are_filter_normalized():
    theta = np.concatenate([np.full(4, 2.0), np.full(3, 0.5), np.zeros(2)])
    slices = [slice(0, 4), slice(4, 7), slice(7, 9)]
    grid = landscape_grid_flat(quad_loss(np.zeros(9)), theta, slices, 3, 0.1, Rng(11))
    for sl in slices:
        assert_allclose(np.linalg.norm(grid.d1[sl]), np.linalg.norm(theta[sl]), atol=1e-12)
    # d2 is orthogonalized against d1 then rescaled, so only orthogonality holds
    assert abs(grid.d1 @ grid.d2) <= 1e-8 * np.linalg.norm(grid.d1) * np.linalg.norm(grid.d2)


def test_landscape_validation():
    theta = np.ones(4)
    fn = quad_loss(np.zeros(4))
    with pytest.raises(UsageError):
        landscape_grid_flat(fn, theta, [], 4, 0.1, Rng(0))
    with pytest.raises(UsageError):
        landscape_grid_flat(fn, theta, [], 1, 0.1, Rng(0))
    for radius in (-0.1, np.nan, np.inf):
        with pytest.raises(UsageError, match="radius"):
            landscape_grid_flat(fn, theta, [], 3, radius, Rng(0))


def test_landscape_grid_restores_model_params():
    model = MultimodalModel([EncoderSpec(2, (3,)), EncoderSpec(2, (3,))],
                            FusionSpec("late", width=3), classes=2, seed=3)
    xs = [Rng(50).normal((6, 2)), Rng(51).normal((6, 2))]
    labels = Rng(52).integers(2, 6)
    before = model.params.flatten()
    grid = landscape_grid(model, xs, labels, 3, 0.2, Rng(53))
    assert_array_equal(model.params.flatten(), before)
    assert np.all(np.isfinite(grid.losses))


# ------------------------------------------------------------------- sharpness


def test_sharpness_zero_radius_is_zero():
    theta = Rng(12).normal((5,))
    assert sharpness_proxy_flat(quad_loss(np.zeros(5)), theta, 0.0, 10, Rng(13)) == 0.0


def test_sharpness_quadratic_trace_oracle():
    # at the minimum of 0.5 v'Av, E[L(rho u) - L(0)] = 0.5 rho^2 tr(A)/n
    n = 5
    lam = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

    def loss_fn(v):
        return 0.5 * float(v @ (lam * v))

    got = sharpness_proxy_flat(loss_fn, np.zeros(n), 1.0, 2000, Rng(14))
    want = 0.5 * lam.sum() / n
    assert abs(got - want) < 0.2 * want


def test_sharpness_scales_with_curvature():
    def loss_at(scale):
        return sharpness_proxy_flat(lambda v: scale * 0.5 * float(v @ v),
                                    np.zeros(4), 0.5, 50, Rng(15))

    assert_allclose(loss_at(10.0), 10.0 * loss_at(1.0), rtol=1e-9)


def test_sharpness_monotone_in_radius_for_convex_loss():
    fn = quad_loss(np.zeros(6))
    theta = np.zeros(6)
    small = sharpness_proxy_flat(fn, theta, 0.5, 100, Rng(16))
    large = sharpness_proxy_flat(fn, theta, 1.0, 100, Rng(16))
    assert 0.0 < small < large


def test_sharpness_validation():
    fn = quad_loss(np.zeros(3))
    with pytest.raises(UsageError):
        sharpness_proxy_flat(fn, np.zeros(3), 0.1, 0, Rng(0))
    for rho in (-0.1, np.nan, np.inf):
        with pytest.raises(UsageError, match="rho"):
            sharpness_proxy_flat(fn, np.zeros(3), rho, 5, Rng(0))


def test_sharpness_proxy_restores_model_params():
    model = MultimodalModel([EncoderSpec(2, (3,)), EncoderSpec(2, (3,))],
                            FusionSpec("late", width=3), classes=2, seed=5)
    xs = [Rng(60).normal((6, 2)), Rng(61).normal((6, 2))]
    labels = Rng(62).integers(2, 6)
    before = model.params.flatten()
    val = sharpness_proxy(model, xs, labels, 0.05, 8, Rng(63))
    assert_array_equal(model.params.flatten(), before)
    assert np.isfinite(val)


# ------------------------------------------------------------------ convergence


def test_convergence_squares_and_calibrates_exactly():
    norms = Rng(17).uniform((100,)) + 0.5
    rep = convergence_report(norms, calibrate_at=25)
    assert_array_equal(rep.sq_norms, np.asarray(norms) ** 2)
    assert rep.g_max == norms.max()
    assert rep.calibrate_at == 25
    # the constant is fitted so the curves touch at the calibration index
    assert_allclose(rep.bound[24], rep.running_avg[24], rtol=1e-12)
    assert_allclose(rep.running_avg[9], rep.sq_norms[:10].mean(), rtol=1e-12)


def test_convergence_constant_trace_violates_bound():
    rep = convergence_report(np.full(1000, 2.0), calibrate_at=250)
    assert_allclose(rep.running_avg, 4.0)
    assert rep.running_avg[-1] > rep.bound[-1]


def test_convergence_decaying_trace_respects_bound():
    t = np.arange(1, 2001, dtype=np.float64)
    rep = convergence_report(1.0 / np.sqrt(t), calibrate_at=500)
    assert rep.running_avg[-1] < rep.running_avg[499]
    assert rep.running_avg[-1] < rep.bound[-1]


def test_convergence_default_calibration_index():
    assert convergence_report(np.ones(100)).calibrate_at == 25
    assert convergence_report(np.ones(4)).calibrate_at == 2


def test_convergence_validation():
    with pytest.raises(UsageError):
        convergence_report([1.0])
    with pytest.raises(NumericError):
        convergence_report([1.0, -1.0])
    with pytest.raises(NumericError):
        convergence_report([1.0, np.inf])
    with pytest.raises(UsageError):
        convergence_report(np.ones(10), calibrate_at=1)
    with pytest.raises(UsageError):
        convergence_report(np.ones(10), calibrate_at=11)


@pytest.mark.parametrize("norms, calibrate_at, message", [
    # 1e200 squared overflows at step 1, which also makes C and every bound inf
    ([1e200, 1e200, 1.0], None, "step 1: squared gradient norm inf is not finite"),
    # each square is finite, their sum is not
    ([1.0, 1e154, 1.3e154], 2, "step 3: running average inf is not finite"),
    # the running average is finite, C = avg * sqrt(2) / log(2) is not
    ([1.0, 1.33e154], 2, "step 1: bound nan is not finite"),
])
def test_convergence_rejects_overflowing_squares(norms, calibrate_at, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy must not warn on the way
        with pytest.raises(NumericError, match=re.escape(message)):
            convergence_report(norms, calibrate_at=calibrate_at)
