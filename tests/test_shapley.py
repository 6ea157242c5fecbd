"""Shapley attribution tests.

The closed-form weighted-sum implementation is checked against a brute-force
average of marginal contributions over all player orderings, which is the
definition itself, plus the four classic axioms on random games. Its
vectorized sum is checked bit for bit against a plain loop over masks on
drawn tables, and `attribute_batch` against uncached masked forwards scored
one coalition at a time.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from msam import shapley
from msam.errors import DimensionError, NumericError, UsageError
from msam.model import (EncoderSpec, FusionSpec, MultimodalModel, accuracies, evaluate,
                        mean_log_probs)
from msam.shapley import (ShapleyAttribution, attribute_batch, dominant_modality,
                          normalize_weights, shapley_exact)
from msam.tensor import Rng


def random_game(n, seed):
    vals = Rng(seed).uniform((1 << n,))
    return {mask: float(v) for mask, v in enumerate(vals)}


def table_fn(table):
    return lambda keep: table[sum(1 << m for m in keep)]


def shapley_by_permutations(table, n):
    """Average marginal contribution over all n! orderings."""
    phi = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        mask = 0
        for m in perm:
            phi[m] += table[mask | (1 << m)] - table[mask]
            mask |= 1 << m
    return phi / math.factorial(n)


def shapley_by_loop(table, n, variant="standard"):
    """The weighted sum as a plain loop over masks, each player's terms added
    from 0.0 in ascending mask order: the order `shapley_exact` must keep."""
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    phi = np.zeros(n, dtype=np.float64)
    for m in range(n):
        bit = 1 << m
        for mask in range(1 << n):
            if mask & bit or (variant == "paper" and mask == 0):
                continue
            phi[m] += weight[mask.bit_count()] * (table[mask | bit] - table[mask])
    return phi


# ------------------------------------------------------------- exact formula


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matches_permutation_enumeration(n):
    table = random_game(n, seed=n)
    phi, _ = shapley_exact(table_fn(table), n)
    assert_allclose(phi, shapley_by_permutations(table, n), atol=1e-12)


def test_two_player_worked_case():
    # phi0 = (0.6 + 0.8)/2 = 0.7, phi1 = (0.2 + 0.4)/2 = 0.3
    table = {0: 0.0, 1: 0.6, 2: 0.2, 3: 1.0}
    phi, values = shapley_exact(table_fn(table), 2)
    assert_allclose(phi, [0.7, 0.3], atol=1e-15)
    assert values.dtype == np.float64 and values.tolist() == [0.0, 0.6, 0.2, 1.0]


def test_efficiency_axiom():
    table = random_game(4, seed=11)
    phi, _ = shapley_exact(table_fn(table), 4)
    assert_allclose(phi.sum(), table[0b1111] - table[0], atol=1e-12)


def test_symmetry_axiom():
    # value depends only on |S| and |S & {0, 1}|, so players 0 and 1 are
    # interchangeable and must receive identical attributions
    def v(keep):
        return len(keep) ** 1.5 + 3.0 * len(keep & {0, 1})

    phi, _ = shapley_exact(v, 4)
    assert_allclose(phi[0], phi[1], atol=1e-12)


def test_dummy_player_axiom():
    base = random_game(3, seed=12)

    def v(keep):
        return base[sum(1 << m for m in keep if m != 3)]

    phi, _ = shapley_exact(v, 4)
    assert phi[3] == 0.0


def test_additivity_axiom():
    a, b = random_game(3, seed=13), random_game(3, seed=14)
    phi_a, _ = shapley_exact(table_fn(a), 3)
    phi_b, _ = shapley_exact(table_fn(b), 3)
    both = {m: a[m] + b[m] for m in a}
    phi_ab, _ = shapley_exact(table_fn(both), 3)
    assert_allclose(phi_ab, phi_a + phi_b, atol=1e-12)


def test_paper_variant_drops_empty_coalition_term():
    table = random_game(3, seed=15)
    table[0] = 2.5  # nonzero baseline so the variants must differ
    std, _ = shapley_exact(table_fn(table), 3, variant="standard")
    pap, _ = shapley_exact(table_fn(table), 3, variant="paper")
    # dropping S = {} removes weight 1/M times the singleton marginal
    for m in range(3):
        assert_allclose(pap[m], std[m] - (table[1 << m] - table[0]) / 3.0, atol=1e-12)
    assert not np.allclose(std, pap)


@settings(max_examples=300)
@given(st.integers(1, 8), st.sampled_from(["standard", "paper"]), st.integers(0, 2**32 - 1),
       st.sampled_from(["normal", "integers", "signed-zeros", "huge"]))
def test_exact_sums_in_loop_order(n, variant, seed, kind):
    rng = np.random.default_rng(seed)
    size = 1 << n
    values = {"normal": lambda: rng.normal(size=size) * 10.0 ** rng.integers(-3, 4),
              "integers": lambda: rng.integers(-2, 3, size).astype(np.float64),
              "signed-zeros": lambda: rng.choice([0.0, -0.0, 1.0], size, p=[0.45, 0.45, 0.1]),
              "huge": lambda: rng.choice([-1e308, 1e308, 1.0], size)}[kind]()
    table = dict(enumerate(values.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):  # huge values overflow to inf and nan
        phi, _ = shapley_exact(table_fn(table), n, variant=variant)
        assert phi.tobytes() == shapley_by_loop(table, n, variant).tobytes()


def test_exact_needs_no_numpy2_bit_count(monkeypatch):
    # the package supports numpy 1.x, which has no np.bitwise_count
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    shapley._plan.cache_clear()
    for n in range(1, 9):
        for variant in ("standard", "paper"):
            table = random_game(n, seed=n)
            phi, _ = shapley_exact(table_fn(table), n, variant=variant)
            assert phi.tobytes() == shapley_by_loop(table, n, variant).tobytes()


def test_exact_validation():
    table = random_game(2, seed=17)
    with pytest.raises(UsageError):
        shapley_exact(table_fn(table), 0)
    with pytest.raises(UsageError):
        shapley_exact(table_fn(table), 9)
    with pytest.raises(UsageError):
        shapley_exact(table_fn(table), 2, variant="fast")
    with pytest.raises(NumericError):
        shapley_exact(lambda keep: math.inf, 2)


# ---------------------------------------------------------- weights, dominant


def test_normalize_weights_clips_and_floors():
    nu, degenerate = normalize_weights(np.array([0.8, -0.2]))
    d = 1e-6  # floor: max|phi| < 1, so 1e-6 * 1.0
    assert_allclose(nu, [(0.8 + d) / (0.8 + 2 * d), d / (0.8 + 2 * d)], atol=1e-15)
    assert not degenerate
    assert nu.sum() == pytest.approx(1.0, abs=1e-15)


def test_normalize_weights_all_zero_is_degenerate_uniform():
    nu, degenerate = normalize_weights(np.zeros(4))
    assert_array_equal(nu, np.full(4, 0.25))
    assert degenerate


def test_normalize_weights_all_negative_is_uniform_not_degenerate():
    nu, degenerate = normalize_weights(np.array([-1.0, -3.0]))
    assert_array_equal(nu, [0.5, 0.5])
    assert not degenerate


def test_normalize_weights_validation():
    with pytest.raises(DimensionError):
        normalize_weights(np.zeros(0))
    with pytest.raises(DimensionError):
        normalize_weights(np.zeros((2, 2)))
    with pytest.raises(NumericError):
        normalize_weights(np.array([1.0, np.nan]))


def test_dominant_tie_routes_to_lowest_index():
    assert dominant_modality(np.array([0.4, 0.4, 0.2])) == 0
    assert dominant_modality(np.array([0.1, 0.9])) == 1
    with pytest.raises(DimensionError):
        dominant_modality(np.zeros(0))


# -------------------------------------------------------------- on the model


def three_modality_model(bias=False, seed=3):
    return MultimodalModel(
        [EncoderSpec(2, (3,)), EncoderSpec(2, (3,)), EncoderSpec(2, (3,))],
        FusionSpec("late", width=4), classes=3, bias=bias, seed=seed)


def model_batch(model, n=16, seed=50):
    xs = [Rng(seed + m).normal((n, es.in_dim)) for m, es in enumerate(model.encoders)]
    labels = Rng(seed + 99).integers(model.classes, n)
    return xs, labels


def test_attribute_batch_table_covers_all_coalitions():
    m = three_modality_model()
    xs, labels = model_batch(m)
    before = m.counters["masked_forward"]
    att = attribute_batch(m, xs, labels)
    assert isinstance(att, ShapleyAttribution)
    assert att.coalition_values.shape == (8,)
    assert m.counters["masked_forward"] - before == 8
    # loss target negates, so v(empty) is minus the empty-coalition loss
    assert att.coalition_values[0] == pytest.approx(-np.log(3.0), abs=1e-12)


def test_attribute_batch_zeroed_branch_is_dummy():
    m = three_modality_model(bias=False)
    flat = m.params.flatten()
    for name in m.params.names:
        if name.startswith(("enc2.", "head2.")):
            flat[m.params.slice_of(name)] = 0.0
    m.params.load_flat(flat)
    xs, labels = model_batch(m)
    att = attribute_batch(m, xs, labels)
    assert att.phi[2] == 0.0
    assert np.abs(att.phi[:2]).max() > 0.0


def test_attribute_batch_identical_modalities_share_weight():
    m = MultimodalModel([EncoderSpec(2, (3,)), EncoderSpec(2, (3,))],
                        FusionSpec("late", width=4), classes=3, bias=False, seed=5)
    flat = m.params.flatten()
    for pair in (("enc0.l0.w", "enc1.l0.w"), ("head0.l0.w", "head1.l0.w"),
                 ("head0.l1.w", "head1.l1.w")):
        flat[m.params.slice_of(pair[1])] = flat[m.params.slice_of(pair[0])]
    m.params.load_flat(flat)
    x = Rng(60).normal((16, 2))
    labels = Rng(61).integers(3, 16)
    att = attribute_batch(m, [x, x], labels)
    assert att.phi[0] == pytest.approx(att.phi[1], abs=1e-12)
    assert_allclose(att.nu, [0.5, 0.5], atol=1e-12)


def test_attribute_batch_full_loss_seed_is_equivalent():
    m = three_modality_model(bias=True)
    xs, labels = model_batch(m)
    plain = attribute_batch(m, xs, labels)
    full_loss, _ = evaluate(m, xs, labels)
    before = m.counters["masked_forward"]
    seeded = attribute_batch(m, xs, labels, full_loss=full_loss)
    assert m.counters["masked_forward"] - before == 7  # full coalition reused
    assert_array_equal(seeded.phi, plain.phi)
    assert_array_equal(seeded.nu, plain.nu)


@pytest.mark.parametrize("fusion", ["late", "early"])
@pytest.mark.parametrize("n_modalities", [1, 2, 3, 5, 8])
def test_attribute_batch_counts_calls_and_matches_uncached_coalitions(fusion, n_modalities):
    m = MultimodalModel([EncoderSpec(2, (3,)) for _ in range(n_modalities)],
                        FusionSpec(fusion, width=4, pieces=3), classes=3, seed=n_modalities)
    full = 1 << n_modalities
    # batches below 8 rows, not a multiple of 8, and above numpy's 128-term
    # pairwise block, where the row mean's summation order changes shape
    for rows in (1, 5, 16, 130):
        xs, labels = model_batch(m, n=rows, seed=50 + rows)
        # the reference: one uncached masked forward, scored alone, per coalition
        logits = [m.forward_masked(xs, mask) for mask in range(full)]
        scores = [(float(-mean_log_probs(z, labels)), float(accuracies(z, labels)))
                  for z in logits]
        full_loss, _ = evaluate(m, xs, labels)
        for target in ("loss", "accuracy"):
            want = np.array([-loss if target == "loss" else acc for loss, acc in scores])
            for variant in ("standard", "paper"):
                want_phi = shapley_by_loop(want, n_modalities, variant)
                for seed, calls in ((None, full), (full_loss, full - (target == "loss"))):
                    before = m.counters["masked_forward"]
                    att = attribute_batch(m, xs, labels, target=target, variant=variant,
                                          full_loss=seed)
                    assert m.counters["masked_forward"] - before == calls
                    # entry k is coalition k's score, bit for bit (-0.0 differs from 0.0)
                    values = att.coalition_values
                    assert values.dtype == np.float64 and values.shape == (full,)
                    assert values.tobytes() == want.tobytes()
                    assert att.phi.tobytes() == want_phi.tobytes()


@pytest.mark.parametrize("fusion", ["late", "early"])
def test_cached_reads_check_inputs_by_identity(fusion):
    m = MultimodalModel([EncoderSpec(2, (3,)) for _ in range(3)],
                        FusionSpec(fusion, width=4, pieces=2), classes=3, seed=4)
    xs, _ = model_batch(m)
    cache = m.branch_cache(xs)
    want = m.forward_masked(xs, 0b101).tobytes()
    # the cache's own tuple, a new list of the same arrays, and the caller's list
    for inputs in (cache.inputs, list(cache.inputs), xs):
        before = m.counters["masked_forward"]
        assert m.forward_masked(inputs, 0b101, cache).tobytes() == want
        assert m.counters["masked_forward"] - before == 1
    # equal values in another array, or too few arrays, are other inputs
    before = m.counters["masked_forward"]
    for inputs in ([xs[0], xs[1].copy(), xs[2]], cache.inputs[:2]):
        with pytest.raises(UsageError, match="branch cache was built from other inputs"):
            m.forward_masked(inputs, 0b101, cache)
    assert m.counters["masked_forward"] == before


@pytest.mark.parametrize("n_modalities", [3, 8])
def test_attribute_batch_reads_by_the_cache_inputs(n_modalities, monkeypatch):
    m = MultimodalModel([EncoderSpec(2, (3,)) for _ in range(n_modalities)],
                        FusionSpec("late", width=4), classes=3, seed=n_modalities)
    xs, labels = model_batch(m)
    full_loss, _ = evaluate(m, xs, labels)
    reads = []
    original = m.forward_masked

    def spy(inputs, mask, cache=None):
        reads.append(inputs is cache.inputs)
        return original(inputs, mask, cache)

    monkeypatch.setattr(m, "forward_masked", spy)
    for target, seed, calls in (("loss", full_loss, (1 << n_modalities) - 1),
                                ("accuracy", None, 1 << n_modalities)):
        reads.clear()
        before = m.counters["masked_forward"]
        attribute_batch(m, xs, labels, target=target, full_loss=seed)
        assert m.counters["masked_forward"] - before == calls
        assert reads == [True] * calls


def test_attribute_batch_constant_model_is_degenerate():
    m = three_modality_model(bias=False)
    m.params.load_flat(np.zeros(m.n_params))
    xs, labels = model_batch(m)
    att = attribute_batch(m, xs, labels)
    assert_array_equal(att.phi, np.zeros(3))
    assert att.degenerate
    assert_array_equal(att.nu, np.full(3, 1.0 / 3.0))


def test_attribute_batch_accuracy_target():
    m = three_modality_model(bias=True)
    xs, labels = model_batch(m)
    att = attribute_batch(m, xs, labels, target="accuracy")
    assert np.all((0.0 <= att.coalition_values) & (att.coalition_values <= 1.0))
    # efficiency: attributions account for full-vs-empty accuracy gap
    assert att.phi.sum() == pytest.approx(att.coalition_values[7] - att.coalition_values[0],
                                          abs=1e-12)


def test_attribute_batch_validation():
    m = three_modality_model()
    xs, labels = model_batch(m)
    with pytest.raises(UsageError):
        attribute_batch(m, xs, labels, target="f1")
    with pytest.raises(DimensionError):
        attribute_batch(m, xs, labels[:-1])
    with pytest.raises(UsageError):
        attribute_batch(m, xs, labels.astype(np.float64))
    with pytest.raises(UsageError):
        attribute_batch(m, xs, np.full_like(labels, 3))
    big = MultimodalModel([EncoderSpec(1) for _ in range(9)],
                          FusionSpec("late", width=2), classes=2)
    bxs = [np.ones((2, 1))] * 9
    with pytest.raises(UsageError):
        attribute_batch(big, bxs, np.array([0, 1]))
