"""Acceptance gate: the package's headline guarantees, one test per criterion.

Each test prints one `[criterion NN] PASS/FAIL` line (run with `-s` to see
them live). Exact claims (gradients, Shapley values, degeneracy equivalences,
hand arithmetic, determinism) are asserted at tight tolerances; the behavioral
claims (dominance recovery, overfitting gap, sharpness, convergence) run the
shipped presets over fixed seeds with stated majorities and runtime budgets.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msam import harness
from msam.autodiff import ParameterVector, grad_check
from msam.cli import main as cli_main
from msam.data import SyntheticSpec, generate
from msam.metrics import convergence_report, relative_gain, sharpness_proxy
from msam.model import EncoderSpec, FusionSpec, MultimodalModel, evaluate
from msam.optim import OptimConfig, OptimState, sam_step
from msam.shapley import shapley_exact
from msam.tensor import Rng, Tensor, derive_seed


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    all_passed = True
    for i in range(100):
        r = Rng(derive_seed(70, i))
        n_mod = 1 + int(r.integers(3, 1)[0])
        classes = 2 + int(r.integers(3, 1)[0])
        fusion_mode = "early" if i % 2 == 0 else "late"
        activation = "tanh" if i % 3 == 0 else "relu"
        encoders = []
        for m in range(n_mod):
            in_dim = 2 + int(r.integers(3, 1)[0])
            hidden = () if int(r.integers(2, 1)[0]) == 0 else (2 + int(r.integers(3, 1)[0]),)
            encoders.append(EncoderSpec(in_dim, hidden, activation))
        fusion = FusionSpec(fusion_mode, width=2 + int(r.integers(3, 1)[0]), pieces=2)
        model = MultimodalModel(encoders, fusion, classes,
                                bias=bool(i % 2), seed=derive_seed(71, i))
        # zero-init biases can park relu preactivations exactly on the kink
        # (dead tiny encoder -> head preact == b == 0), where central
        # differences are invalid; jitter to a generic nearby model
        flat = model.params.flatten()
        model.params.load_flat(flat + 0.05 * Rng(derive_seed(77, i)).normal((flat.size,)))
        xs = [Rng(derive_seed(72, i, m)).normal((5, e.in_dim)) for m, e in enumerate(encoders)]
        labels = Rng(derive_seed(73, i)).integers(classes, 5)
        _, grad = model.loss_value_and_grad(xs, labels)
        rep = grad_check(lambda: evaluate(model, xs, labels)[0], model.params, grad,
                         h=1e-5, tol=1e-4, max_coords=25, rng=Rng(derive_seed(74, i)))
        worst = max(worst, rep.max_rel_err)
        all_passed = all_passed and rep.passed
    dt = time.perf_counter() - t0
    report(1, all_passed and worst < 1e-4 and dt < 60,
           f"100 random two-fusion models: max rel err {worst:.2e} < 1e-4 in {dt:.1f}s")


def test_criterion_02_shapley_axioms():
    t0 = time.perf_counter()

    def perm_oracle(table, n):
        phi = np.zeros(n)
        for perm in itertools.permutations(range(n)):
            mask = 0
            for m in perm:
                phi[m] += table[mask | (1 << m)] - table[mask]
                mask |= 1 << m
        return phi / math.factorial(n)

    ok = True
    max_err = 0.0
    for i in range(200):
        n = 2 + i % 3
        table = {mask: float(v) for mask, v in enumerate(Rng(derive_seed(75, i)).uniform((1 << n,)))}
        fn = lambda keep: table[sum(1 << m for m in keep)]
        phi, _ = shapley_exact(fn, n)
        max_err = max(max_err, float(np.abs(phi - perm_oracle(table, n)).max()))
        full = (1 << n) - 1
        max_err = max(max_err, abs(phi.sum() - (table[full] - table[0])))
        # symmetry: a game over |S| and |S & {0,1}| must not split players 0, 1
        sym_phi, _ = shapley_exact(lambda keep: len(keep) ** 1.5 + 3.0 * len(keep & {0, 1}), n)
        max_err = max(max_err, abs(sym_phi[0] - sym_phi[1]))
        # dummy: append a player the value never reads
        dummy_phi, _ = shapley_exact(lambda keep: fn(keep - {n}), n + 1)
        ok = ok and dummy_phi[n] == 0.0
        # linearity against a second game
        table_b = {mask: float(v) for mask, v in enumerate(Rng(derive_seed(76, i)).uniform((1 << n,)))}
        fn_b = lambda keep: table_b[sum(1 << m for m in keep)]
        phi_b, _ = shapley_exact(fn_b, n)
        phi_ab, _ = shapley_exact(lambda keep: fn(keep) + fn_b(keep), n)
        max_err = max(max_err, float(np.abs(phi_ab - phi - phi_b).max()))
    dt = time.perf_counter() - t0
    report(2, ok and max_err <= 1e-12 and dt < 10,
           f"200 random games M=2..4: oracle/efficiency/symmetry/dummy/linearity "
           f"max err {max_err:.1e} <= 1e-12 in {dt:.1f}s")


def test_criterion_03_worked_shapley_case():
    table = {0: 0.0, 1: 0.6, 2: 0.2, 3: 1.0}
    phi, _ = shapley_exact(lambda keep: table[sum(1 << m for m in keep)], 2)
    # hand derivation in the same arithmetic: each player averages its two
    # ordering contributions; float rounding makes phi[1] = 0.1 + 0.2
    by_hand = (0.5 * 0.6 + 0.5 * 0.8, 0.5 * 0.2 + 0.5 * 0.4)
    ok = phi[0] == by_hand[0] and phi[1] == by_hand[1]
    ok = ok and abs(phi[0] - 0.7) <= 1e-15 and abs(phi[1] - 0.3) <= 1e-15
    report(3, ok, f"two-player worked case: phi = ({phi[0]:.17g}, {phi[1]:.17g}) "
                  f"matches hand derivation, within 1e-15 of (0.7, 0.3)")


def _degeneracy_config(kind, rho, dims, snr):
    return harness.resolve_config({
        "seed": 0, "epochs": 50, "batch_size": 16,
        "data": {"classes": 3, "dims": dims, "snr": snr,
                 "n_train": 64, "n_val": 16, "n_test": 16},
        "model": {"hidden": [8], "width": 4},
        "optimizer": {"kind": kind, "lr": 0.05, "momentum": 0.9,
                      "weight_decay": 1e-4, "rho": rho},
    })


def test_criterion_04_degeneracy_equivalences():
    pairs = [
        ("msam rho=0 vs sgd",
         _degeneracy_config("msam", 0.0, [6, 6], [2.0, 1.0]),
         _degeneracy_config("sgd", 0.0, [6, 6], [2.0, 1.0])),
        ("msam M=1 vs sam",
         _degeneracy_config("msam", 0.05, [6], [2.0]),
         _degeneracy_config("sam", 0.05, [6], [2.0])),
        ("sam rho=0 vs sgd",
         _degeneracy_config("sam", 0.0, [6, 6], [2.0, 1.0]),
         _degeneracy_config("sgd", 0.0, [6, 6], [2.0, 1.0])),
    ]
    ok = True
    for label, cfg_a, cfg_b in pairs:
        rec_a, rec_b = harness.run(cfg_a), harness.run(cfg_b)
        same = (
            len(rec_a.steps) == len(rec_b.steps) == 200
            and [r.loss for r in rec_a.steps] == [r.loss for r in rec_b.steps]
            and np.array_equal(rec_a.final_params, rec_b.final_params)
        )
        ok = ok and same
    report(4, ok, "200-step trajectories bitwise equal: msam(rho=0)=sgd, msam(M=1)=sam, sam(rho=0)=sgd")


def test_criterion_05_perturbation_geometry(preset_runs):
    rec = preset_runs("smooth", "msam", 0)
    steps = rec.steps[:1000]
    checked = [s for s in steps if s.grad_norm >= 1e-12]
    gap = max(abs(s.eps_norm - s.rho) for s in checked)
    ok = len(steps) == 1000 and len(checked) > 0 and gap <= 1e-9
    report(5, ok,
           f"1000 steps with decaying radius: max | ||eps|| - rho_t | = {gap:.1e} <= 1e-9 "
           f"({len(checked)} steps above the gradient floor)")


def test_criterion_06_sam_hand_arithmetic():
    params = ParameterVector([("theta", Tensor(3.0))])

    def vag():
        th = params.flatten()[0]
        return th * th, np.array([2.0 * th])

    sam_step(vag, params, OptimState(1), OptimConfig(kind="sam", lr=0.1, rho=0.5))
    theta1 = float(params.flatten()[0])
    ok = abs(theta1 - 2.3) <= 1e-12
    report(6, ok, f"one SAM step on theta^2 from 3.0: theta_1 = {theta1!r}, |error| <= 1e-12")


def test_criterion_07_dominance_recovery(preset_runs):
    t0 = time.perf_counter()
    freqs = []
    for seed in range(5):
        rec = preset_runs("dominance", "msam", seed)
        spe = math.ceil(rec.datasets[0].n / 32)
        late = [s.dominant for s in rec.steps if (s.t - 1) // spe >= 2]
        freqs.append(float(np.mean([d == 0 for d in late])))
    dt = time.perf_counter() - t0
    ok = all(f >= 0.9 for f in freqs) and dt < 300
    report(7, ok,
           f"strong modality selected after epoch 2: per-seed rates "
           f"{[round(f, 3) for f in freqs]} all >= 0.9 in {dt:.0f}s")


def test_criterion_08_overfitting_gap(preset_runs):
    wins = 0
    taus = []
    for seed in range(5):
        tau_m = preset_runs("overfit", "msam", seed).records[-1].tau
        tau_s = preset_runs("overfit", "sgd", seed).records[-1].tau
        taus.append((round(tau_m, 3), round(tau_s, 3)))
        wins += tau_m is not None and tau_s is not None and tau_m <= tau_s
    report(8, wins >= 4,
           f"final normalized gap msam <= sgd in {wins}/5 seeds (msam, sgd per seed: {taus})")


def test_criterion_09_sharpness(preset_runs):
    wins = 0
    vals = []
    for seed in range(5):
        pair = {}
        for kind in ("msam", "sgd"):
            rec = preset_runs("overfit", kind, seed)
            train = rec.datasets[0]
            pair[kind] = sharpness_proxy(rec.model, train.modalities, train.labels,
                                         0.05, 1000, Rng(derive_seed(91, seed)))
        vals.append((f"{pair['msam']:.1e}", f"{pair['sgd']:.1e}"))
        wins += pair["msam"] < pair["sgd"]
    report(9, wins >= 4,
           f"sharpness at rho=0.05 over 1000 directions msam < sgd in {wins}/5 seeds "
           f"(msam, sgd per seed: {vals})")


def test_criterion_10_convergence_diagnostic(preset_runs):
    rec = preset_runs("smooth", "msam", 0)
    rep = convergence_report([s.grad_norm for s in rec.steps], calibrate_at=500)
    avg = rep.running_avg
    ok = (
        len(rec.steps) == 2000
        and avg[1999] < avg[499]
        and avg[1999] < rep.bound[1999]
        and rec.wall_clock < 120
    )
    report(10, ok,
           f"running avg of squared gradient norms: {avg[1999]:.3e} at T=2000 < "
           f"{avg[499]:.3e} at T=500 and < calibrated bound {rep.bound[1999]:.3e}, "
           f"run took {rec.wall_clock:.1f}s")


def test_criterion_11_relative_gain_arithmetic():
    gain = relative_gain(74.08, 68.41)
    ok = abs(gain - 8.29) <= 0.01
    report(11, ok, f"relative_gain(74.08, 68.41) = {gain:.4f}%, within 0.01pp of 8.29%")


def test_criterion_12_determinism(tmp_path):
    raw = {
        "seed": 0, "epochs": 3, "batch_size": 8,
        "data": {"classes": 3, "dims": [4, 3], "snr": [2.0, 0.5],
                 "n_train": 24, "n_val": 12, "n_test": 12},
        "model": {"hidden": [6], "width": 4},
        "optimizer": {"kind": "msam", "lr": 0.05, "momentum": 0.9, "rho": 0.1},
    }
    outs = []
    for tag in ("a", "b"):
        cfg = dict(raw, out_dir=str(tmp_path / tag))
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(path)]) == 0
        outs.append((tmp_path / tag / "metrics.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(12, ok, f"train twice on one config: metrics.csv byte-identical ({len(outs[0])} bytes)")
