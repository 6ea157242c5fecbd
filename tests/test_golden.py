"""Golden artifacts: the exact bytes of `metrics.csv` and `steps.csv`, and of
the CLI's text outputs.

Every preset runs for a few epochs at seed 0, plus the optimizer kinds and
model options the presets leave out, and msam runs with three, four and
eight modalities, whose Shapley coalition tables the presets' two cannot
reach. The CLI's outputs on one small checkpoint are pinned too:
`landscape_<tag>.csv` and its JSON sidecar (hashed in sorted-key form, so
only its keys and values are pinned), `shapley_audit.csv` for the standard
variant with the loss target and the paper variant with the accuracy
target, and `convergence.csv`. Loss and gradient bytes are pinned too, for shapes the presets lack
(three maxout pieces, three modalities, several weighted terms), where the order in which contributions are summed shows in
the last bits. The pinned sha256 values were computed once and must never be
edited: a refactor of the model, the optimizers or the harness is
behaviour-preserving only if these bytes stay identical.
"""

import hashlib
import json

import numpy as np
import pytest

from msam import harness
from msam.cli import main
from msam.model import EncoderSpec, FusionSpec, MultimodalModel
from msam.tensor import Rng, derive_seed

M8_SHORT_DATA = {"dims": [4] * 8, "snr": [2.0, 1.5, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3],
                 "n_train": 250, "n_val": 64, "n_test": 128}

CASES = {
    "default": ("default", 4, {}),
    "dominance": ("dominance", 4, {}),
    "overfit": ("overfit", 4, {}),
    "smooth": ("smooth", 20, {}),
    "overfit-sgd": ("overfit", 4, {"optimizer": {"kind": "sgd"}}),
    "overfit-sam": ("overfit", 4, {"optimizer": {"kind": "sam"}}),
    "overfit-msam_branch": ("overfit", 4, {"optimizer": {"kind": "msam_branch"}}),
    "default-nobias-tanh": ("default", 4, {"model": {"bias": False, "activation": "tanh"}}),
    # coalition assembly beyond two modalities, under both fusion modes
    "dominance-m3-pieces3-accuracy-paper": ("dominance", 4, {
        "data": {"dims": [8, 6, 4], "snr": [2.0, 1.0, 0.5]},
        "model": {"pieces": 3},
        "optimizer": {"shapley_target": "accuracy", "shapley_variant": "paper"}}),
    "overfit-m4-identity-tanh-nobias": ("overfit", 4, {
        "data": {"dims": [8, 6, 4, 3], "snr": [2.0, 1.0, 0.5, 0.25]},
        "model": {"hidden": [[16], [], [8], [6]], "activation": "tanh", "bias": False}}),
    # eight late-fusion modalities with a short last batch (250 = 7 * 32 + 26 rows)
    "overfit-m8-late-short-batch": ("overfit", 3, {"data": M8_SHORT_DATA}),
    "overfit-m8-late-short-batch-accuracy-paper": ("overfit", 3, {
        "data": M8_SHORT_DATA,
        "optimizer": {"shapley_target": "accuracy", "shapley_variant": "paper"}}),
}

GOLDEN = {
    "default": {"metrics.csv": "1ba7740b34408e378f8c41a61913df1bb020b45a2a15ce6dcbaf2be39ed617e3",
        "steps.csv": "d46c13a545a7605d0aba994358b7263f1fc8939215bba2742adb1011a8476bab"},
    "default-nobias-tanh": {"metrics.csv": "34bee2c103e49ea1f094bce9b5e29f5df6b1c91eb778ab78add35d05738a2e1b",
        "steps.csv": "72fcc8095094b9a47402c80249dc99c3e16c38366386cd9f544052a34a146c1f"},
    "dominance-m3-pieces3-accuracy-paper": {
        "metrics.csv": "b3b6018cdad5331f9e200ad481fac03648b3fe5dff3179a2f5436ec8d996136a",
        "steps.csv": "8f925a29f79992fef24a4cb529e8f6e66184d6802c50f3a3abc0fbb246c3ca18"},
    "dominance": {"metrics.csv": "1d6abcbe6ba49fe3863ba2f5b62068dbfe849750fcda8c147a3ed494fbfaea64",
        "steps.csv": "f7479848d8458851b6a709f16027fdfdc8804a98e0173b7e7363b373793c5fa2"},
    "overfit": {"metrics.csv": "71901ef6be5c1df58671a16df623570337e2fab718ea67fcb97931ff8645dfe0",
        "steps.csv": "2b6508e27ce93bf1924d5cf82f78686f1da8b8c3e73213c253d9e9d3ba8ed7d5"},
    "overfit-m4-identity-tanh-nobias": {
        "metrics.csv": "7b8f3686f71cacbe2c21aacd2d9efee3fdfaffd7e656b9be2dfdebe3fbafa7f5",
        "steps.csv": "e07af4027fa1797c22fd1b5c974691943d8fed5bc1f0673eb0e1811b45cf1981"},
    "overfit-m8-late-short-batch": {
        "metrics.csv": "7e585486c715ed89bc49571287c151b6167b45441a4589828487cd4e7a378847",
        "steps.csv": "db4f9e4113c8cc5643c6009bdcdad1d2a58b6ea71d21be245d9893afcf2596d5"},
    "overfit-m8-late-short-batch-accuracy-paper": {
        "metrics.csv": "e2a104876647661fa4102d999ea56ec3d4c2ffddf91e34a8ae45103143561de2",
        "steps.csv": "0460fa09bfe3231578a909532cdfd91fbdbfdbe92100e2f86920f713fff14e25"},
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
    name, epochs, overrides = CASES[case]
    raw = harness.preset(name, seed=0, epochs=epochs, eval_every=1, out_dir=str(out_dir),
                         **overrides)
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


CONFIG_CASES = {
    **{f"preset-{name}": harness.preset(name) for name in sorted(harness._PRESETS)},
    "empty": {},
    "int-lr-epoch-period": {"optimizer": {"lr": 1, "schedule": {
        "kind": "step_decay", "period": 2, "period_unit": "epochs"}}},
}

CONFIG_GOLDEN = {
    "preset-default": "36c9a81b63fd62b21c555115885da18d17ce39fc0d528774f7c18259912afb74",
    "preset-dominance": "23a8efe4b213a3c1922811c40e6f81ffdcba3edd42db45e0c9424e13e6281908",
    "preset-overfit": "28d869c09860b57c0f7cd00b67cfb318b8ba4f641e5cac4ac663ab9beb943c4b",
    "preset-smooth": "7c1643be7e55b279f11b93d350437ebd978a3c161ab6d890db3b542f6446343d",
    "empty": "36c9a81b63fd62b21c555115885da18d17ce39fc0d528774f7c18259912afb74",
    "int-lr-epoch-period": "ecd41fe34699ddfbbeeb6dbb78958eeda9b69bd5236f27a6f96cc99585ed78e5",
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_hash_is_pinned(case):
    cfg = harness.resolve_config(CONFIG_CASES[case])
    assert harness.config_hash(cfg) == CONFIG_GOLDEN[case]


# the small two-epoch run that tests/test_cli.py diagnoses
CLI_CONFIG = {
    "seed": 0, "epochs": 2, "batch_size": 8,
    "data": {"classes": 3, "dims": [4, 3], "snr": [2.0, 0.5],
             "n_train": 24, "n_val": 12, "n_test": 12},
    "model": {"hidden": [6], "width": 4},
    "optimizer": {"kind": "msam", "lr": 0.05, "momentum": 0.9, "rho": 0.1},
}

CLI_GOLDEN = {
    "audit-paper-accuracy.csv": "6b2f25c74dbde34c22e11aa0500ebfc2b7f0de15d3d47c4e354c58b792fe05e8",
    "audit-standard-loss.csv": "752bf252065a74b8313312d99e080354ead471dd6f5a95ff5b8143aacc77bbd0",
    "convergence.csv": "e82112783330a4dede0f3e343835a472b3d29de1c6e2b837c861b1c711df66a6",
    "landscape_t.csv": "dc143110ffe4ce947dbfa1532b932638b81491e0559077695f5e0ee3f7e768b1",
    "landscape_t.json": "717eba22517d0af29f6fb8bce7b5b3a784ac2c5c146cfc8e849b6427a8da27e1",
}


@pytest.fixture(scope="module")
def cli_hashes(tmp_path_factory):
    run = tmp_path_factory.mktemp("cli") / "run"
    cfg = run.parent / "cfg.json"
    cfg.write_text(json.dumps({**CLI_CONFIG, "out_dir": str(run)}))
    ckpt = ["--checkpoint", str(run)]
    for argv in (["train", "--config", str(cfg)],
                 ["landscape", *ckpt, "--radius", "0.5", "--res", "5", "--tag", "t"],
                 ["shapley-audit", *ckpt, "--out", str(run / "audit-standard-loss.csv")],
                 ["shapley-audit", *ckpt, "--variant", "paper", "--target", "accuracy",
                  "--out", str(run / "audit-paper-accuracy.csv")],
                 ["convergence", "--run", str(run)]):
        assert main(argv) == 0
    sidecar = json.dumps(json.loads((run / "landscape_t.json").read_text()), sort_keys=True)
    hashes = {name: hashlib.sha256((run / name).read_bytes()).hexdigest() for name in CLI_GOLDEN}
    hashes["landscape_t.json"] = hashlib.sha256(sidecar.encode()).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_outputs_are_byte_identical(name, cli_hashes):
    assert cli_hashes[name] == CLI_GOLDEN[name]
