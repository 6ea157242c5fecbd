"""The stacked layer passes against the per-branch reference, bit for bit.

`MultimodalModel` runs consecutive modalities with one `EncoderSpec` as one
run: each layer of a run is one 3-D matmul over (R, fan_in, fan_out) views
of the flat parameters, forward and backward. Its bits equal the per-branch
reference in `branch_reference.py` only because numpy runs a 3-D matmul as
one 2-D product per stacked item, so every drawn model is compared on
logits, loss and flat gradient byte for byte, and on the layer that a
checked pass names first when huge weights overflow. The explicit examples
and the golden tests run again in a subprocess with one OpenBLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import branch_reference as ref
from msam.errors import NumericError
from msam.model import ACTIVATIONS, EncoderSpec, FusionSpec, MultimodalModel

TESTS = Path(__file__).resolve().parent


class Case(NamedTuple):
    """One drawn model and batch. `encoders` holds (in_dim, hidden,
    activation) per modality; `huge` scales a seeded choice of layers by
    1e160, so that checked passes overflow."""

    encoders: tuple[tuple[int, tuple[int, ...], str], ...]
    fusion: str
    width: int
    pieces: int
    classes: int
    bias: bool
    n: int
    seed: int
    huge: bool


def build(case: Case):
    """The model, its inputs and labels, and up to three weighted terms."""
    rng = np.random.default_rng(case.seed)
    model = MultimodalModel([EncoderSpec(*spec) for spec in case.encoders],
                            FusionSpec(case.fusion, case.width, case.pieces), case.classes,
                            bias=case.bias, seed=case.seed)
    flat = model.params.flatten()
    flat += rng.normal(size=flat.size)
    if case.huge:
        for name in model.params.names:
            if rng.random() < 0.3:
                flat[model.params.slice_of(name)] *= 1e160
    model.params.load_flat(flat)
    xs = [rng.normal(size=(case.n, spec[0])) for spec in case.encoders]
    labels = rng.integers(case.classes, size=case.n)
    m = len(case.encoders)
    terms = [(tuple(k for k in range(m) if rng.random() < 0.6),
              None if rng.random() < 0.3 else float(rng.random()))
             for _ in range(int(rng.integers(1, 4)))]
    return model, xs, labels, terms


def outcome(fn):
    """What a taped pass returns as bytes, or the NumericError it raises."""
    try:
        loss, grad = fn()
    except NumericError as exc:
        return str(exc)
    return np.float64(loss).tobytes(), grad.tobytes()


_SPECS = st.tuples(st.integers(1, 4), st.lists(st.integers(1, 5), max_size=2).map(tuple),
                   st.sampled_from(ACTIVATIONS))


@st.composite
def cases(draw):
    """1-8 modalities drawn from a pool of 1-3 specs (so runs of equal specs
    and mixed models, identity encoders included), relu or tanh, either
    fusion, bias on or off, and 1-2048 rows."""
    pool = draw(st.lists(_SPECS, min_size=1, max_size=3))
    encoders = tuple(draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 8))))
    return Case(encoders, draw(st.sampled_from(["early", "late"])), draw(st.integers(1, 5)),
                draw(st.integers(2, 3)), draw(st.integers(2, 4)), draw(st.booleans()),
                draw(st.integers(1, 2048)), draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


EXAMPLES = [
    # the train-m8-late and train-m2-early shapes, one run each
    Case(((4, (16,), "relu"),) * 8, "late", 6, 2, 6, True, 32, 1, False),
    Case(((8, (16,), "relu"),) * 2, "early", 6, 2, 6, True, 2048, 2, False),
    # mixed runs, identity encoders, tanh, no biases, three pieces, one row
    Case(((3, (5, 4), "tanh"),) * 2 + ((2, (), "relu"),) * 2 + ((4, (3,), "relu"),),
         "early", 4, 3, 3, False, 1, 3, False),
    Case(((3, (), "tanh"),) * 3 + ((2, (1,), "tanh"),), "late", 1, 2, 2, False, 2048, 4, False),
    # widths of one, so every bias gradient sums a single column
    Case(((1, (1, 1), "relu"),) * 3, "late", 1, 2, 2, True, 100, 5, False),
    Case(((2, (1,), "relu"),) * 2, "early", 1, 2, 2, True, 33, 6, False),
    # overflow: the first non-finite layer must be named as per branch
    Case(((3, (4, 4), "relu"),) * 4, "late", 3, 2, 3, True, 16, 7, True),
    Case(((3, (4, 4), "tanh"),) * 3 + ((2, (), "relu"),), "early", 3, 3, 3, True, 16, 8, True),
    Case(((2, (3,), "relu"),) * 5, "early", 2, 2, 2, False, 9, 9, True),
]


def check(case: Case) -> None:
    model, xs, labels, terms = build(case)
    for keep, _ in terms + [(range(model.n_modalities), None)]:
        want = ref.forward_masked(model, xs, keep)
        mask = sum(1 << k for k in keep)
        assert model.forward_masked(xs, mask).tobytes() == want.tobytes()
    assert (outcome(lambda: model.terms_value_and_grad(xs, labels, terms))
            == outcome(lambda: ref.value_and_grad(model, xs, labels, terms)))
    assert (outcome(lambda: model.loss_value_and_grad(xs, labels))
            == outcome(lambda: ref.value_and_grad(model, xs, labels, [(range(len(xs)), None)])))


def _with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=150)
@_with_examples
@given(cases())
def test_stacked_passes_equal_the_per_branch_reference(case):
    check(case)


@pytest.mark.parametrize("huge, named", [
    (("enc0.l1.w", "enc1.l0.w"), "enc0.l1"),
    (("head0.l1.w", "head1.l0.w"), "head0.l1"),
    (("enc1.l0.w", "head0.l0.w"), "enc1.l0")])
def test_checked_pass_names_the_first_layer_in_branch_order(huge, named):
    # a later layer of an earlier branch comes first, although a run
    # computes every branch's first layer before any second layer
    m = MultimodalModel([EncoderSpec(2, (2, 2))] * 2, FusionSpec("late", 2), 2, seed=0)
    flat = np.ones(m.n_params)
    for name in huge:
        flat[m.params.slice_of(name)] = 1e308
    m.params.load_flat(flat)
    xs, labels = [np.full((3, 2), 10.0)] * 2, np.array([0, 1, 0])
    message = f"layer {named} produced non-finite values"
    assert outcome(lambda: m.loss_value_and_grad(xs, labels)) == message
    assert outcome(lambda: ref.value_and_grad(m, xs, labels, [((0, 1), None)])) == message


def test_overflow_examples_name_a_layer():
    # the huge examples raise in the forward, so they pin the naming order
    for case in EXAMPLES:
        if case.huge:
            model, xs, labels, _ = build(case)
            assert outcome(lambda: model.loss_value_and_grad(xs, labels)).startswith("layer ")


def test_bits_hold_with_one_blas_thread():
    """The golden tests and the explicit examples above, in a fresh
    interpreter whose OpenBLAS runs one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(TESTS.parent / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile", "msam-explicit", str(TESTS / "test_golden.py"),
         f"{TESTS / 'test_stacked.py'}::test_stacked_passes_equal_the_per_branch_reference"],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout
