"""Workload definitions shared by the benchmark and its set-up probe.

Only the standard library is imported here, so the set-up probe can load this
module before it starts its clock on `import msam`.
"""

from __future__ import annotations

TRAIN_M2 = "train-m2-early"
TRAIN_M8 = "train-m8-late"
DIAGNOSE = "diagnose-landscape"
WORKLOADS = (TRAIN_M2, TRAIN_M8, DIAGNOSE)

# The seed whose artifacts are pinned in `run.PINNED`.
DEFAULT_SEED = 0

# diagnose-landscape: grid and sharpness sizes on the 1024-row test split.
LANDSCAPE_RES = 41
LANDSCAPE_RADIUS = 1.0
SHARPNESS_RHO = 0.05
SHARPNESS_SAMPLES = 320

# Late fusion at the MAX_PLAYERS ceiling: attribution is 255 masked forwards
# per step, which dwarfs the two taped passes.
_M8_LATE = {
    "data": {
        "classes": 6,
        "dims": [4] * 8,
        "snr": [2.0, 1.5, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3],
        "n_train": 256,
        "n_val": 128,
        "n_test": 512,
    },
    "model": {"hidden": [16], "fusion": "late", "width": 6},
    "batch_size": 32,
    "optimizer": {"kind": "msam", "lr": 0.05, "momentum": 0.9,
                  "weight_decay": 0.0, "rho": 0.5},
}


def raw_config(harness, workload: str, seed: int, out_dir: str | None) -> dict:
    """Raw config dict of a workload's training run.

    `diagnose-landscape` trains the `overfit` preset to make its checkpoint.
    `harness` is the `msam.harness` module, passed in so that importing this
    module does not import msam.
    """
    if workload == TRAIN_M2:
        raw = harness.preset("dominance", seed=seed)
    elif workload == TRAIN_M8:
        raw = {**_M8_LATE, "seed": seed}
    elif workload == DIAGNOSE:
        raw = harness.preset("overfit", seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    raw["out_dir"] = out_dir
    return raw
