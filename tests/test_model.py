"""Multimodal model tests.

Coalition masking is checked against hand-built numpy forward passes, and the
training loss is checked against the plain evaluation of the same batch. The
stacked coalition scorers are checked bit for bit against the single-batch
ones on drawn stacks: they copy numpy's summation order, so a numpy release
that changes that order fails here before it moves a golden hash. One test
pins that order for fewer than 8 terms, which the class-column fold of a
large stack relies on.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from msam.errors import ConfigError, DimensionError, UsageError
from msam.model import (EncoderSpec, FusionSpec, MultimodalModel, accuracies, evaluate,
                        loss_and_accuracy, mask_inputs, mean_log_probs)
from msam.metrics import mono_modal_accuracy
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
    hidden = np.maximum(xs[0] @ m.params.view("head0.l0.w"), 0.0)
    assert_array_equal(m.forward(xs), hidden @ m.params.view("head0.l1.w"))


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
    with pytest.raises(ConfigError, match="^in_dim "):
        EncoderSpec(0)
    with pytest.raises(ConfigError, match="^hidden "):
        EncoderSpec(3, (0,))
    with pytest.raises(ConfigError, match="^activation "):
        EncoderSpec(3, activation="gelu")
    with pytest.raises(ConfigError, match="^fusion "):
        FusionSpec("middle")
    with pytest.raises(ConfigError, match="^width "):
        FusionSpec("late", width=0)
    with pytest.raises(ConfigError, match="^pieces "):
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


@pytest.mark.parametrize("build", [late_model, early_model])
@pytest.mark.parametrize("convert", [
    lambda x: x.tolist(),
    lambda x: np.round(4.0 * x).astype(np.int64),
    lambda x: x.astype(np.float32),
], ids=["nested-list", "int64", "float32"])
def test_non_float64_inputs_match_their_float64_copies(build, convert):
    m = build()
    xs, labels = make_batch(m)
    given = [convert(x) for x in xs]
    copies = [np.asarray(x, dtype=np.float64) for x in given]
    assert_array_equal(m.forward(given), m.forward(copies))
    assert_array_equal(m.forward_masked(given, {1}), m.forward_masked(copies, {1}))
    assert_array_equal(m.branch_cache(given).table, m.branch_cache(copies).table)
    loss, grad = m.loss_value_and_grad(given, labels)
    loss64, grad64 = m.loss_value_and_grad(copies, labels)
    assert loss.hex() == loss64.hex()
    assert grad.tobytes() == grad64.tobytes()


# -------------------------------------------------------------------- masking


def test_mask_inputs_zeroes_inactive():
    xs = [np.ones((2, 3)), np.full((2, 2), 5.0)]
    out = mask_inputs(xs, {1})
    assert_array_equal(out[0], np.zeros((2, 3)))
    assert out[1] is xs[1]
    with pytest.raises(UsageError):
        mask_inputs(xs, {-1})


@pytest.mark.parametrize("build", [late_model, early_model])
def test_full_coalition_equals_forward(build):
    m = build()
    xs, _ = make_batch(m)
    assert_array_equal(m.forward_masked(xs, (0, 1)), m.forward(xs))


@pytest.mark.parametrize("build", [late_model, early_model])
def test_empty_coalition_biasfree_logits_are_zero(build):
    m = build(bias=False)
    xs, _ = make_batch(m)
    assert_array_equal(m.forward_masked(xs, ()), np.zeros((8, 3)))


def test_empty_coalition_rows_are_constant():
    m = early_model(bias=True)
    xs, _ = make_batch(m)
    logits = m.forward_masked(xs, ())
    assert_array_equal(logits, np.tile(logits[:1], (8, 1)))


def test_single_branch_oracle_late_biasfree():
    m = late_model(bias=False)
    xs, _ = make_batch(m)
    h = np.maximum(xs[1] @ m.params.view("enc1.l0.w"), 0.0)
    h = np.maximum(h @ m.params.view("head1.l0.w"), 0.0)
    want = h @ m.params.view("head1.l1.w")
    assert_array_equal(m.forward_masked(xs, {1}), want)


@pytest.mark.parametrize("build", [late_model, early_model])
def test_inactive_input_is_irrelevant(build):
    m = build()
    xs, _ = make_batch(m)
    ref = m.forward_masked(xs, {0})
    xs2 = [xs[0], xs[1] + 1000.0]
    assert_array_equal(m.forward_masked(xs2, {0}), ref)


def random_model(rng, n_modalities, fusion, activation, bias):
    """A random shape: 0-2 hidden layers per encoder, 2-3 maxout pieces."""
    encoders = [EncoderSpec(int(rng.integers(1, 5)),
                            tuple(int(w) for w in rng.integers(1, 6, rng.integers(0, 3))),
                            activation)
                for _ in range(n_modalities)]
    fusion = FusionSpec(fusion, width=int(rng.integers(1, 6)), pieces=int(rng.integers(2, 4)))
    return MultimodalModel(encoders, fusion, classes=int(rng.integers(2, 5)), bias=bias,
                           seed=int(rng.integers(1000)))


@pytest.mark.parametrize("fusion, activation, seed", [
    ("late", "relu", 1), ("late", "tanh", 2), ("early", "relu", 3), ("early", "tanh", 4)])
def test_cached_coalitions_are_bitwise_equal(fusion, activation, seed):
    rng = np.random.default_rng(seed)
    nonfinite = 0
    for bias in (True, False):
        for n_modalities in range(1, 6):
            for scale in (1.0, 1e160):
                m = random_model(rng, n_modalities, fusion, activation, bias)
                flat = m.params.flatten()
                m.params.load_flat(scale * (flat + rng.normal(size=flat.size)))
                xs, _ = make_batch(m, n=int(rng.integers(1, 9)), seed=int(rng.integers(1000)))
                cache = m.branch_cache(xs)
                for mask in range(1 << n_modalities):
                    keep = [k for k in range(n_modalities) if mask >> k & 1]
                    plain = m.forward_masked(xs, keep)
                    cached = m.forward_masked(xs, keep, cache=cache)
                    assert cached.tobytes() == plain.tobytes()
                    with pytest.raises(ValueError, match="read-only"):
                        cached[...] = 0.0
                    nonfinite += not np.isfinite(plain).all()
    # the scaled-up models overflow to inf/nan without raising; tanh bounds
    # the late heads' hidden layer, so their logits stay finite
    assert nonfinite > 0 or (fusion, activation) == ("late", "tanh")


def test_stale_branch_cache_is_rejected():
    m = late_model()
    xs, _ = make_batch(m)
    cache = m.branch_cache(xs)
    assert_array_equal(m.forward_masked(xs, {0}, cache=cache), m.forward_masked(xs, {0}))
    with pytest.raises(UsageError, match="another model"):
        late_model().forward_masked(xs, {0}, cache=cache)
    with pytest.raises(UsageError, match="other inputs"):
        m.forward_masked([x.copy() for x in xs], {0}, cache=cache)
    with pytest.raises(UsageError, match="coalition member"):
        m.forward_masked(xs, {2}, cache=cache)
    m.params.load_flat(m.params.flatten())  # same values, a new buffer
    with pytest.raises(UsageError, match="older parameters"):
        m.forward_masked(xs, {0}, cache=cache)


@st.composite
def partial_cache_cases(draw):
    """A random model (either fusion, 1-5 modalities, 0-2 hidden layers, relu
    or tanh, bias on or off, parameters scaled by 1 or by 1e160 so that
    logits overflow), a batch of 1-600 rows and a list of distinct masks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_modalities = draw(st.integers(1, 5))
    m = random_model(rng, n_modalities, draw(st.sampled_from(["early", "late"])),
                     draw(st.sampled_from(["relu", "tanh"])), draw(st.booleans()))
    flat = m.params.flatten()
    m.params.load_flat(draw(st.sampled_from([1.0, 1e160])) * (flat + rng.normal(size=flat.size)))
    xs, _ = make_batch(m, n=draw(st.integers(1, 600)), seed=int(rng.integers(1000)))
    masks = draw(st.lists(st.integers(0, (1 << n_modalities) - 1), min_size=1, unique=True))
    return m, xs, masks


@settings(max_examples=100, deadline=None)
@given(partial_cache_cases())
def test_partial_cache_rows_are_bitwise_equal(case):
    m, xs, masks = case
    cache = m.branch_cache(xs, masks)
    assert cache.table.shape == (len(masks), len(xs[0]), m.classes)
    with np.errstate(all="ignore"):
        for mask in range(1 << m.n_modalities):
            keep = [k for k in range(m.n_modalities) if mask >> k & 1]
            before = dict(m.counters)
            if mask not in masks:
                with pytest.raises(UsageError, match="not in the branch cache"):
                    m.forward_masked(xs, keep, cache=cache)
                assert m.counters == before
                continue
            cached = m.forward_masked(xs, keep, cache=cache)
            assert m.counters["masked_forward"] == before["masked_forward"] + 1
            assert cached.tobytes() == m.forward_masked(xs, keep).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                cached[...] = 0.0


@pytest.mark.parametrize("masks, message", [
    ([], "empty"), ([0, 4], "mask 4 outside"), ([-1], "mask -1 outside"),
    ([1, 3, 1], "repeat")])
def test_partial_cache_rejects_bad_mask_lists(masks, message):
    m = late_model()
    xs, _ = make_batch(m)
    before = dict(m.counters)
    with pytest.raises(UsageError, match=message):
        m.branch_cache(xs, masks)
    assert m.counters == before


KEEP_FORMS = {
    "list": list, "tuple": tuple, "set": set, "generator": lambda ms: (m for m in ms),
    "range": lambda ms: ms,  # the members of a drawn range are already a range
}


@st.composite
def coalition_reads(draw):
    """A random model with 1-8 modalities (as `random_model`), a batch of 1-40
    rows, a partial cache's mask list, and keeps: lists, tuples, sets and
    generators of unsorted members with repeats, some numpy ints and some
    outside [0, M), or ranges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_modalities = draw(st.integers(1, 8))
    m = random_model(rng, n_modalities, draw(st.sampled_from(["early", "late"])),
                     draw(st.sampled_from(["relu", "tanh"])), draw(st.booleans()))
    flat = m.params.flatten()
    m.params.load_flat(draw(st.sampled_from([1.0, 1e160])) * (flat + rng.normal(size=flat.size)))
    xs, labels = make_batch(m, n=draw(st.integers(1, 40)), seed=int(rng.integers(1000)))
    masks = draw(st.lists(st.integers(0, (1 << n_modalities) - 1), min_size=1, max_size=12,
                          unique=True))
    numpy_int = st.tuples(st.sampled_from([np.int64, np.int32, np.uint8, np.intp]),
                          st.integers(0, n_modalities - 1)).map(lambda p: p[0](p[1]))
    member = st.integers(-2, n_modalities + 1) | numpy_int
    keeps = []
    for _ in range(draw(st.integers(1, 6))):
        form = draw(st.sampled_from(sorted(KEEP_FORMS)))
        if form == "range":
            lo = draw(st.integers(-1, n_modalities))
            members = range(lo, draw(st.integers(lo, n_modalities + 1)))
        else:
            members = draw(st.lists(member, max_size=10))
        keeps.append((form, members))
    return m, xs, labels, masks, keeps


@settings(max_examples=150, deadline=None)
@given(coalition_reads())
def test_coalition_reads_by_bitmask(case):
    m, xs, labels, masks, keeps = case
    n_modalities = m.n_modalities
    full, partial = m.branch_cache(xs), m.branch_cache(xs, masks)
    with np.errstate(all="ignore"):
        for form, members in keeps:
            def keep():  # a fresh iterable per call: a generator reads once
                return KEEP_FORMS[form](members)
            bad = [k for k in members if not 0 <= k < n_modalities]
            mask = None if bad else sum(1 << k for k in {int(k) for k in members})
            for cache in (None, full, partial):
                before = dict(m.counters)
                if bad:
                    message = f"coalition member {min(bad)} outside [0, {n_modalities})"
                    with pytest.raises(UsageError) as err:
                        m.forward_masked(xs, keep(), cache=cache)
                    assert str(err.value) == message
                    assert m.counters == before
                    continue
                if cache is partial and mask not in masks:
                    kept = [k for k in range(n_modalities) if mask >> k & 1]
                    with pytest.raises(UsageError) as err:
                        m.forward_masked(xs, keep(), cache=cache)
                    assert str(err.value) == f"coalition {kept} is not in the branch cache"
                    assert m.counters == before
                    continue
                got = m.forward_masked(xs, keep(), cache=cache)
                assert m.counters == {**before, "masked_forward": before["masked_forward"] + 1}
                want = m.forward_masked(xs, [k for k in range(n_modalities) if mask >> k & 1])
                assert got.tobytes() == want.tobytes()
        for k in range(n_modalities):
            for cache in (None, full) + ((partial,) if 1 << k in masks else ()):
                want = loss_and_accuracy(m.forward_masked(xs, (k,), cache), labels)[1]
                before = dict(m.counters)
                assert mono_modal_accuracy(m, xs, labels, k, cache) == want
                assert m.counters["masked_forward"] == before["masked_forward"] + 1


def test_masked_term_grads_vanish_off_coalition():
    m = late_model(bias=False)
    xs, labels = make_batch(m)
    _, grad = m.terms_value_and_grad(xs, labels, [((0,), None)])
    off = np.zeros(m.n_params, dtype=bool)
    for name in m.params.names:
        if name.startswith(("enc1.", "head1.")):
            off[m.params.slice_of(name)] = True
    assert_array_equal(grad[off], 0.0)
    assert np.abs(grad[~off]).max() > 0.0


def test_maxout_pieces_commute_in_value():
    m = early_model()
    xs, _ = make_batch(m)
    ref = m.forward(xs)
    flat = m.params.flatten()
    for name in ("w", "b"):
        s0, s1 = m.params.slice_of(f"fusion.p0.{name}"), m.params.slice_of(f"fusion.p1.{name}")
        flat[s0], flat[s1] = flat[s1].copy(), flat[s0].copy()
    m.params.load_flat(flat)
    assert_array_equal(m.forward(xs), ref)


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


# ------------------------------------------------------------ stacked scores

# row counts around numpy's pairwise-summation boundaries: 8 accumulators,
# 128-term blocks, and splits at half the length rounded down to 8
EDGE_ROWS = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 135, 136, 255, 256, 257, 1023,
             1024, 1025, 2047, 2048]
SPECIAL = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308, 745.0, -745.0]


@st.composite
def logit_stacks(draw):
    """A (K, N, C) stack of logits and N labels: scaled normals, sometimes
    rounded into ties, with a few entries set to infinities, nan, signed
    zeros or values whose exponentials overflow or underflow. C spans the
    class-column fold (C < 8), one 8-accumulator block of numpy's sum with
    a tail, and two blocks; K * N crosses the fold's 256-row threshold. The
    stack is sometimes a non-contiguous view: every other item of a larger
    stack, or the same values in column-major order."""
    k = draw(st.integers(1, 4))
    n = draw(st.sampled_from(EDGE_ROWS) | st.integers(1, 2048))
    c = draw(st.integers(2, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(k, n, c)) * draw(st.sampled_from([1e-3, 1.0, 40.0, 1e4, 1e300]))
    if draw(st.booleans()):
        z = np.round(z)
    flat = z.reshape(-1)
    for value in draw(st.lists(st.sampled_from(SPECIAL), max_size=6)):
        flat[rng.integers(flat.size)] = value
    layout = draw(st.sampled_from(["contiguous", "every other item", "column-major"]))
    if layout == "every other item":
        big = np.full((2 * k, n, c), np.nan)
        big[::2] = z
        z = big[::2]
    elif layout == "column-major":
        z = np.asfortranarray(z)
    return z, rng.integers(0, c, n)


def test_numpy_sums_fewer_than_8_terms_left_to_right():
    """`_label_log_probs` folds the class columns of a large stack with
    `np.add` instead of calling numpy's sum. That gives the same bits only
    because numpy adds fewer than 8 float64 terms of a contiguous last axis
    one by one, left to right from +0.0. Pinned here, with nan payloads,
    infinities, signed zeros and magnitudes whose sums depend on order, so
    a numpy release that changes this order fails in this one test."""
    rng = np.random.default_rng(8)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        1e308, -1e308, 1e16, -1e16, 1.0, -1.0])
    for c in range(1, 8):
        drawn = rng.normal(size=(4000, c)) * 10.0 ** rng.integers(-20, 20, (4000, c))
        x = np.where(rng.random((4000, c)) < 0.3, rng.choice(special, (4000, c)), drawn)
        columns = [x[:, j] for j in range(c)]
        with np.errstate(all="ignore"):
            got = np.add.reduce(x, axis=-1).view(np.uint64)
            fold = functools.reduce(np.add, columns, np.zeros(len(x))).view(np.uint64)
            # the fold as `_label_log_probs` runs it starts from column 0 instead
            # of +0.0, which changes only a row of -0.0 terms
            seeded = functools.reduce(np.add, columns).view(np.uint64)
        negative_zeros = (x.view(np.uint64) == np.float64(-0.0).view(np.uint64)).all(axis=-1)
        assert (got == fold).all(), f"numpy {np.__version__} sums {c} terms in another order"
        assert (got == seeded)[~negative_zeros].all(), f"numpy {np.__version__}, {c} terms"


def reference_mean_loss(z, labels):
    """Mean cross-entropy in plain log-softmax form, with numpy's own row max."""
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(z)), labels].mean())


@settings(max_examples=300)
@given(logit_stacks())
def test_stacked_scores_equal_single_scores_bitwise(case):
    z, labels = case
    with np.errstate(all="ignore"):
        logps, accs = mean_log_probs(z, labels), accuracies(z, labels)
        for k, row in enumerate(z):
            loss, acc = loss_and_accuracy(row, labels)
            reference = reference_mean_loss(np.ascontiguousarray(row), labels)
            assert float(-logps[k]).hex() == loss.hex() == reference.hex()
            assert float(accs[k]).hex() == acc.hex()
            assert acc.hex() == float(np.mean(np.argmax(row, axis=1) == labels)).hex()
