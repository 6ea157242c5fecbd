"""Golden artifacts: the exact bytes of `metrics.csv` and `steps.csv`.

Every preset runs for a few epochs at seed 0, plus the optimizer kinds and
model options the presets leave out. Loss and gradient bytes are pinned too,
for shapes the presets lack (three maxout pieces, three modalities, several
weighted terms), where the order in which contributions are summed shows in
the last bits. The pinned sha256 values were computed once and must never be
edited: a refactor of the model, the optimizers or the harness is
behaviour-preserving only if these bytes stay identical.
"""

import hashlib

import numpy as np
import pytest

from msam import harness
from msam.model import EncoderSpec, FusionSpec, MultimodalModel
from msam.tensor import Rng, derive_seed

CASES = {
    "default": ("default", 4, {}, {}),
    "dominance": ("dominance", 4, {}, {}),
    "overfit": ("overfit", 4, {}, {}),
    "smooth": ("smooth", 20, {}, {}),
    "overfit-sgd": ("overfit", 4, {}, {"kind": "sgd"}),
    "overfit-sam": ("overfit", 4, {}, {"kind": "sam"}),
    "overfit-msam_branch": ("overfit", 4, {}, {"kind": "msam_branch"}),
    "default-nobias-tanh": ("default", 4, {"bias": False, "activation": "tanh"}, {}),
}

GOLDEN = {
    "default": {"metrics.csv": "1ba7740b34408e378f8c41a61913df1bb020b45a2a15ce6dcbaf2be39ed617e3",
        "steps.csv": "d46c13a545a7605d0aba994358b7263f1fc8939215bba2742adb1011a8476bab"},
    "default-nobias-tanh": {"metrics.csv": "34bee2c103e49ea1f094bce9b5e29f5df6b1c91eb778ab78add35d05738a2e1b",
        "steps.csv": "72fcc8095094b9a47402c80249dc99c3e16c38366386cd9f544052a34a146c1f"},
    "dominance": {"metrics.csv": "1d6abcbe6ba49fe3863ba2f5b62068dbfe849750fcda8c147a3ed494fbfaea64",
        "steps.csv": "f7479848d8458851b6a709f16027fdfdc8804a98e0173b7e7363b373793c5fa2"},
    "overfit": {"metrics.csv": "71901ef6be5c1df58671a16df623570337e2fab718ea67fcb97931ff8645dfe0",
        "steps.csv": "2b6508e27ce93bf1924d5cf82f78686f1da8b8c3e73213c253d9e9d3ba8ed7d5"},
    "overfit-msam_branch": {"metrics.csv": "84c1b9962dae740c544c6d90fb71d30e1f21ae8c2f4389664a765cfd6bbab4e6",
        "steps.csv": "644e30d9239e7a59e4fe8d878ccfd0f033b0c4681ab3e4e460a224f30f77641a"},
    "overfit-sam": {"metrics.csv": "27b1baa779ab4fad8acfbc03b582cb7ae1797fd6c90d5d1ac917e5d60bc8ad0e",
        "steps.csv": "5b7d7a72a80af4197fd837e092755c52ebd808ba767b1436ed2c2e14b358d1aa"},
    "overfit-sgd": {"metrics.csv": "7a562a902c6fc6abec14b3a93b83826b4b8f4e10b47c0300b88cc2718afe43f1",
        "steps.csv": "c55ddfdc7e57126240caa384d2f0df3ba1411658e4d6b035ba7c213aae598c99"},
    "smooth": {"metrics.csv": "9759ed9d6c640c91390b22734488d97c586ca74352a71778d3d9aaaca55b7b14",
        "steps.csv": "fb47adcd57d3599794edc77156b9113416e7e711b6a2ba7e330ed92191044cbd"},
}


def artifact_hashes(case, out_dir):
    name, epochs, model, optimizer = CASES[case]
    raw = harness.preset(name, seed=0, epochs=epochs, eval_every=1, out_dir=str(out_dir),
                         model=model, optimizer=optimizer)
    harness.run(harness.resolve_config(raw))
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
            for f in ("metrics.csv", "steps.csv")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_are_byte_identical(case, tmp_path):
    assert artifact_hashes(case, tmp_path) == GOLDEN[case]


GRAD_CASES = {
    "early-relu-bias": ("early", "relu", True),
    "early-tanh-nobias": ("early", "tanh", False),
    "late-relu-bias": ("late", "relu", True),
    "late-tanh-nobias": ("late", "tanh", False),
}

GRAD_GOLDEN = {
    "early-relu-bias": "72f36863211dd26687171f9dda464b90dd71aa9e54e1ac34f83f2f073452f39a",
    "early-tanh-nobias": "6c9d141fabc094dbd18c1d14896783751fdeb575c54c583553995a5f667c54ea",
    "late-relu-bias": "04549f668a6d387199c76ac13902794de0e42d6efc30ccea2de61bb259380cd1",
    "late-tanh-nobias": "9c37f6bdc974ebecfeee76ed3b1d2de78ce9bbe323b607302fe09f4b64898abc",
}


def gradient_hash(case):
    fusion, activation, bias = GRAD_CASES[case]
    encoders = [EncoderSpec(3, (5, 4), activation), EncoderSpec(2, (3,), activation),
                EncoderSpec(4, (), activation)]
    model = MultimodalModel(encoders, FusionSpec(fusion, width=4, pieces=3), classes=3,
                            bias=bias, seed=11)
    flat = model.params.flatten()
    model.params.load_flat(flat + 0.1 * Rng(12).normal(flat.size))
    xs = [Rng(derive_seed(13, m)).normal((16, es.in_dim)) for m, es in enumerate(encoders)]
    labels = Rng(14).integers(3, 16)
    terms = [((0, 1, 2), 0.5), ((0,), 0.25), ((1, 2), 0.125), ((), None)]
    digest = hashlib.sha256()
    for loss, grad in (model.loss_value_and_grad(xs, labels),
                       model.terms_value_and_grad(xs, labels, terms)):
        digest.update(np.float64(loss).tobytes())
        digest.update(grad.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GRAD_CASES))
def test_loss_and_gradient_are_byte_identical(case):
    assert gradient_hash(case) == GRAD_GOLDEN[case]
