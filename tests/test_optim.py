"""Optimizer step tests.

The single-parameter quadratic gives closed-form steps for SGD and SAM. The
modality-aware step is checked against a hand-rolled two-pass computation with
the attribution stubbed to fixed weights, and the documented degeneracies
(rho = 0 reproduces SGD, one modality reproduces SAM) are asserted bitwise
over whole trajectories, not approximately.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msam import optim
from msam.autodiff import ParameterVector
from msam.errors import ConfigError, NumericError, UsageError
from msam.model import EncoderSpec, FusionSpec, MultimodalModel, evaluate
from msam.optim import (OptimConfig, OptimState, Schedule, msam_branch_step,
                        msam_step, sam_step, sgd_step, train_step)
from msam.tensor import Rng


def quadratic_setup(theta0=3.0):
    """L(theta) = theta^2 with a live closure over the parameter vector."""
    params = ParameterVector([("theta", np.array(theta0))])

    def value_and_grad():
        th = params.flatten()[0]
        return th * th, np.array([2.0 * th])

    return params, value_and_grad


def small_model(fusion="late", n_mod=2, seed=7):
    encoders = [EncoderSpec(3, (4,)) for _ in range(n_mod)]
    spec = FusionSpec(fusion, width=4, pieces=2) if fusion == "early" else FusionSpec(fusion, width=4)
    return MultimodalModel(encoders, spec, classes=3, seed=seed)


def small_batch(n_mod=2, n=12, seed=30):
    xs = [Rng(seed + m).normal((n, 3)) for m in range(n_mod)]
    labels = Rng(seed + 99).integers(3, n)
    return xs, labels


def run_trajectory(model, step_fn, cfg, n_steps, xs, labels):
    state = OptimState(model.n_params)
    reports = [step_fn(model, xs, labels, state, cfg) for _ in range(n_steps)]
    return model.params.flatten(), reports


# ------------------------------------------------------------------- schedules


def test_schedule_constant():
    assert Schedule().at(0.1, 0.5, 7) == (0.1, 0.5)


def test_schedule_inverse_sqrt_quarters_at_t4():
    lr_t, rho_t = Schedule(kind="inverse_sqrt").at(0.2, 0.1, 4)
    assert_allclose([lr_t, rho_t], [0.1, 0.05], atol=1e-15)


def test_schedule_step_decay_holds_rho():
    s = Schedule(kind="step_decay", factor=0.1, period=70)
    assert s.at(1.0, 0.5, 69) == (1.0, 0.5)
    assert s.at(1.0, 0.5, 70) == pytest.approx((0.1, 0.5))
    assert s.at(1.0, 0.5, 140) == pytest.approx((0.01, 0.5))


def test_schedule_validation():
    with pytest.raises(ConfigError, match="^kind "):
        Schedule(kind="cosine")
    with pytest.raises(ConfigError, match="^factor "):
        Schedule(factor=0.0)
    with pytest.raises(ConfigError, match="^factor "):
        Schedule(factor=1.5)
    with pytest.raises(ConfigError, match="^period "):
        Schedule(period=0)
    with pytest.raises(UsageError):
        Schedule().at(0.1, 0.1, 0)


def test_optim_config_validation():
    with pytest.raises(ConfigError, match="^kind "):
        OptimConfig(kind="adam")
    with pytest.raises(ConfigError, match="^lr "):
        OptimConfig(lr=0.0)
    with pytest.raises(ConfigError, match="^momentum "):
        OptimConfig(momentum=1.0)
    with pytest.raises(ConfigError, match="^weight_decay "):
        OptimConfig(weight_decay=-0.1)
    with pytest.raises(ConfigError, match="^rho "):
        OptimConfig(rho=-0.05)
    with pytest.raises(ConfigError, match="^shapley_every "):
        OptimConfig(shapley_every=0)
    for bad in ({"lr": float("nan")}, {"lr": float("inf")}, {"rho": float("nan")},
                {"weight_decay": float("inf")}, {"shapley_target": "margin"},
                {"shapley_variant": "banzhaf"}):
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} "):
            OptimConfig(**bad)


# ------------------------------------------------------------------- sgd / sam


def test_sgd_quadratic_hand_step():
    params, vag = quadratic_setup(3.0)
    state = OptimState(1)
    report = sgd_step(vag, params, state, OptimConfig(kind="sgd", lr=0.1))
    assert_allclose(params.flatten(), [2.4], atol=1e-15)
    assert report.loss == 9.0
    assert report.grad_norm == 6.0
    assert report.eps_norm == 0.0 and report.rho == 0.0
    assert state.t == 1


def test_sgd_weight_decay_only():
    params = ParameterVector([("theta", np.array(2.0))])
    state = OptimState(1)
    cfg = OptimConfig(kind="sgd", lr=0.5, weight_decay=1.0)
    sgd_step(lambda: (0.0, np.zeros(1)), params, state, cfg)
    assert_allclose(params.flatten(), [1.0], atol=1e-15)


def test_sgd_momentum_accumulates():
    params = ParameterVector([("theta", np.array(0.0))])
    state = OptimState(1)
    cfg = OptimConfig(kind="sgd", lr=1.0, momentum=0.5)
    vag = lambda: (0.0, np.ones(1))
    sgd_step(vag, params, state, cfg)
    assert_allclose(params.flatten(), [-1.0], atol=1e-15)
    sgd_step(vag, params, state, cfg)
    assert_allclose(params.flatten(), [-2.5], atol=1e-15)
    assert_allclose(state.velocity, [1.5], atol=1e-15)


def test_sam_quadratic_hand_step():
    # g = 6 at theta = 3, eps = 0.5 * g/|g| = 0.5, grad at 3.5 is 7,
    # update from the unperturbed point: 3 - 0.1 * 7 = 2.3
    params, vag = quadratic_setup(3.0)
    state = OptimState(1)
    report = sam_step(vag, params, state, OptimConfig(kind="sam", lr=0.1, rho=0.5))
    assert_allclose(params.flatten(), [2.3], atol=1e-12)
    assert report.loss == 9.0
    assert_allclose(report.loss_perturbed, 3.5**2, atol=1e-12)
    assert_allclose(report.eps_norm, 0.5, atol=1e-12)


def test_sam_eps_norm_is_scheduled_rho():
    model = small_model()
    xs, labels = small_batch()
    state = OptimState(model.n_params)
    cfg = OptimConfig(kind="sam", lr=0.05, rho=0.2, schedule=Schedule(kind="inverse_sqrt"))
    for expect in (0.2, 0.2 / np.sqrt(2.0), 0.2 / np.sqrt(3.0)):
        rep = sam_step(lambda: model.loss_value_and_grad(xs, labels), model.params, state, cfg)
        assert_allclose(rep.eps_norm, expect, atol=1e-12)
        assert rep.rho == pytest.approx(expect)


def test_sam_evaluates_at_perturbed_point_and_restores():
    params, _ = quadratic_setup(1.0)
    seen = []

    def vag():
        th = params.flatten()
        seen.append(th.copy())
        return float(th[0] ** 2), 2.0 * th

    state = OptimState(1)
    sam_step(vag, params, state, OptimConfig(kind="sam", lr=0.01, rho=0.25))
    assert len(seen) == 2
    assert_array_equal(seen[0], [1.0])
    # theta + rho * g / ||g|| with theta = 1, g = 2, rho = 0.25
    assert_array_equal(seen[1], [1.25])
    # descent starts from the unperturbed parameters
    g_p = 2.0 * seen[1]
    assert_allclose(params.flatten(), seen[0] - 0.01 * g_p, atol=1e-15)


def test_failed_perturbed_pass_restores_parameters_and_state():
    params = ParameterVector([("theta", np.array([1.0, 2.0]))])
    calls = []

    def vag():
        calls.append(params.flatten())
        if len(calls) == 2:
            raise NumericError("loss is non-finite (nan)")
        return 2.5, np.array([1.0, 0.0])

    state = OptimState(2)
    state.t, state.velocity = 3, np.array([0.25, -0.5])
    with pytest.raises(NumericError):
        sam_step(vag, params, state, OptimConfig(kind="sam", lr=0.1, momentum=0.5, rho=0.5))
    assert_array_equal(calls[1], [1.5, 2.0])
    assert params.flatten().tobytes() == np.array([1.0, 2.0]).tobytes()
    assert state.t == 3
    assert state.velocity.tobytes() == np.array([0.25, -0.5]).tobytes()


def test_sam_zero_grad_skips_second_pass():
    params = ParameterVector([("theta", np.array(2.0))])
    calls = []

    def vag():
        calls.append(True)
        return 0.0, np.zeros(1)

    state = OptimState(1)
    rep = sam_step(vag, params, state, OptimConfig(kind="sam", lr=0.1, rho=0.5))
    assert len(calls) == 1
    assert rep.loss_perturbed is None
    assert rep.eps_norm == 0.0


# ------------------------------------------------------------------ msam steps


def test_msam_matches_stubbed_two_pass_oracle(monkeypatch):
    nu = np.array([0.6, 0.4])
    monkeypatch.setattr(optim, "attribute_batch",
                        lambda *a, **k: SimpleNamespace(nu=nu, dominant=0))
    xs, labels = small_batch()
    cfg = OptimConfig(kind="msam", lr=0.05, rho=0.3)

    model = small_model(seed=9)
    state = OptimState(model.n_params)
    rep = msam_step(model, xs, labels, state, cfg)

    oracle = small_model(seed=9)
    loss, g = oracle.loss_value_and_grad(xs, labels)
    theta = oracle.params.flatten()
    eps = (0.3 / np.linalg.norm(g)) * g
    oracle.params.load_flat(theta + eps)
    loss_p, g_p = oracle.loss_value_and_grad(xs, labels)
    direction = 0.6 * g_p + (1.0 - 0.6) * g + 0.0 * theta
    want = theta - 0.05 * direction

    assert_array_equal(model.params.flatten(), want)
    assert rep.loss == loss and rep.loss_perturbed == loss_p
    assert_array_equal(rep.nu, nu)
    assert rep.dominant == 0
    assert rep.shapley_recomputed


def test_msam_rho_zero_is_bitwise_sgd():
    xs, labels = small_batch()
    m1 = small_model(seed=4)
    final_msam, reps = run_trajectory(
        m1, msam_step, OptimConfig(kind="msam", lr=0.05, momentum=0.9, rho=0.0), 5, xs, labels)
    m2 = small_model(seed=4)
    state = OptimState(m2.n_params)
    cfg = OptimConfig(kind="sgd", lr=0.05, momentum=0.9)
    for _ in range(5):
        sgd_step(lambda: m2.loss_value_and_grad(xs, labels), m2.params, state, cfg)
    assert_array_equal(final_msam, m2.params.flatten())
    assert all(r.loss_perturbed is None for r in reps)
    # one taped pass per step; the Shapley table still costs masked forwards
    assert m1.counters["taped"] == m2.counters["taped"] == 5


def test_sam_rho_zero_is_bitwise_sgd():
    xs, labels = small_batch()
    m1, m2 = small_model(seed=5), small_model(seed=5)
    s1, s2 = OptimState(m1.n_params), OptimState(m2.n_params)
    c1 = OptimConfig(kind="sam", lr=0.1, momentum=0.5, rho=0.0)
    c2 = OptimConfig(kind="sgd", lr=0.1, momentum=0.5)
    for _ in range(5):
        sam_step(lambda: m1.loss_value_and_grad(xs, labels), m1.params, s1, c1)
        sgd_step(lambda: m2.loss_value_and_grad(xs, labels), m2.params, s2, c2)
    assert_array_equal(m1.params.flatten(), m2.params.flatten())


def test_msam_single_modality_is_bitwise_sam():
    xs, labels = small_batch(n_mod=1)
    m1 = small_model(n_mod=1, seed=6)
    final_msam, reps = run_trajectory(
        m1, msam_step, OptimConfig(kind="msam", lr=0.05, momentum=0.9, rho=0.2), 5, xs, labels)
    m2 = small_model(n_mod=1, seed=6)
    state = OptimState(m2.n_params)
    cfg = OptimConfig(kind="sam", lr=0.05, momentum=0.9, rho=0.2)
    for _ in range(5):
        sam_step(lambda: m2.loss_value_and_grad(xs, labels), m2.params, state, cfg)
    assert_array_equal(final_msam, m2.params.flatten())
    assert all(r.nu is not None and r.nu[0] == 1.0 for r in reps)


def test_msam_branch_single_modality_is_bitwise_sam():
    xs, labels = small_batch(n_mod=1)
    m1 = small_model(n_mod=1, seed=8)
    final_branch, _ = run_trajectory(
        m1, msam_branch_step,
        OptimConfig(kind="msam_branch", lr=0.05, momentum=0.9, rho=0.2), 5, xs, labels)
    m2 = small_model(n_mod=1, seed=8)
    state = OptimState(m2.n_params)
    cfg = OptimConfig(kind="sam", lr=0.05, momentum=0.9, rho=0.2)
    for _ in range(5):
        sam_step(lambda: m2.loss_value_and_grad(xs, labels), m2.params, state, cfg)
    assert_array_equal(final_branch, m2.params.flatten())


@pytest.mark.parametrize("kind", ["sgd", "sam", "msam", "msam_branch"])
def test_zero_grad_saddle_skips_perturbed_pass(kind):
    model = MultimodalModel([EncoderSpec(3, (4,)), EncoderSpec(3, (4,))],
                            FusionSpec("late", width=4), classes=3, bias=False, seed=2)
    # all-zero parameters put the bias-free model at an exact saddle: every
    # gradient vanishes although the loss is log(3)
    model.params.load_flat(np.zeros(model.n_params))
    xs, labels = small_batch()
    state = OptimState(model.n_params)
    rep = train_step(model, xs, labels, state, OptimConfig(kind=kind, lr=0.1, rho=0.5))
    assert rep.grad_norm == 0.0
    assert rep.loss_perturbed is None
    assert rep.eps_norm == 0.0
    # msam_branch spends one taped pass per branch group, dominant and rest
    assert model.counters["taped"] == (2 if kind == "msam_branch" else 1)
    assert rep.loss == pytest.approx(np.log(3.0), abs=1e-12)


def test_msam_shapley_every_caches_weights():
    xs, labels = small_batch()
    model = small_model(seed=11)
    cfg = OptimConfig(kind="msam", lr=0.01, rho=0.1, shapley_every=3)
    state = OptimState(model.n_params)
    flags = [msam_step(model, xs, labels, state, cfg).shapley_recomputed for _ in range(7)]
    assert flags == [True, False, False, True, False, False, True]
    # 2**M - 1 masked forwards per recompute (full coalition reuses the first pass)
    assert model.counters["masked_forward"] == 3 * 3


def test_msam_branch_needs_late_fusion():
    model = small_model(fusion="early")
    xs, labels = small_batch()
    with pytest.raises(UsageError):
        msam_branch_step(model, xs, labels, OptimState(model.n_params),
                         OptimConfig(kind="msam_branch"))


def test_msam_branch_reports_the_full_batch_loss():
    model = small_model(seed=13)
    xs, labels = small_batch()
    state = OptimState(model.n_params)
    rep = msam_branch_step(model, xs, labels, state,
                           OptimConfig(kind="msam_branch", lr=0.05, rho=0.1))
    # parameters moved already, so recompute the reference on a twin
    twin = small_model(seed=13)
    full, _ = evaluate(twin, xs, labels)
    assert rep.loss == pytest.approx(full, abs=1e-12)


def test_train_step_dispatch():
    xs, labels = small_batch()
    kinds = {"sgd": None, "sam": None, "msam": None, "msam_branch": None}
    for kind in kinds:
        model = small_model(seed=21)
        state = OptimState(model.n_params)
        kinds[kind] = train_step(model, xs, labels, state,
                                 OptimConfig(kind=kind, lr=0.05, rho=0.1))
    assert kinds["sgd"].nu is None and kinds["sgd"].rho == 0.0
    assert kinds["sam"].nu is None and kinds["sam"].loss_perturbed is not None
    assert kinds["msam"].nu is not None and kinds["msam_branch"].nu is not None
