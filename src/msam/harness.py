"""Config-driven experiment harness.

Configs are JSON trees with a fixed schema; unknown keys anywhere in the tree
are errors so hyperparameter typos cannot pass silently. `resolve_config`
fills defaults and returns a fully-typed `ExperimentConfig`; its canonical
dict form is itself a valid config, is what gets hashed (minus the output
directory), and is what `run` writes back out to each run directory, so a run
directory doubles as a reloadable checkpoint.

A run is deterministic end to end per seed: data generation, model init,
per-epoch shuffles, and every optimizer step use independent streams derived
from the one seed. The training loop asserts the optimizer pass budget every
step (one taped pass for SGD, two for perturbed SAM/M-SAM steps, plus the
2**M or 2**M - 1 masked forwards of a Shapley recomputation).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .data import Dataset, SyntheticSpec, batches, generate
from .errors import ConfigError, MsamError, NumericError
from .metrics import (MetricRecord, convergence_report, ConvergenceReport, mono_modal_accuracy,
                      overfitting_gap)
from .model import EncoderSpec, FusionSpec, MultimodalModel, evaluate
from .optim import KINDS, OptimConfig, OptimState, Schedule, StepReport, train_step
from .shapley import MAX_PLAYERS
from .tensor import derive_seed

Array = np.ndarray


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    seed: int
    epochs: int
    batch_size: int
    eval_every: int
    early_stop_patience: int
    out_dir: str | None
    data: SyntheticSpec
    encoders: tuple[EncoderSpec, ...]
    fusion: FusionSpec
    bias: bool
    optimizer: OptimConfig
    comparison: tuple[str, ...]

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(self.data.n_train / self.batch_size)

    def canonical(self) -> dict:
        """Fully-explicit config dict; valid input to `resolve_config`."""
        hidden = [list(e.hidden) for e in self.encoders]
        return {
            "seed": self.seed,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "eval_every": self.eval_every,
            "early_stop_patience": self.early_stop_patience,
            "data": {
                "classes": self.data.classes,
                "dims": list(self.data.dims),
                "snr": list(self.data.snr),
                "n_train": self.data.n_train,
                "n_val": self.data.n_val,
                "n_test": self.data.n_test,
            },
            "model": {
                "hidden": hidden,
                "activation": self.encoders[0].activation,
                "fusion": self.fusion.mode,
                "width": self.fusion.width,
                "pieces": self.fusion.pieces,
                "bias": self.bias,
            },
            "optimizer": {
                "kind": self.optimizer.kind,
                "lr": self.optimizer.lr,
                "momentum": self.optimizer.momentum,
                "weight_decay": self.optimizer.weight_decay,
                "rho": self.optimizer.rho,
                "schedule": {
                    "kind": self.optimizer.schedule.kind,
                    "factor": self.optimizer.schedule.factor,
                    "period": self.optimizer.schedule.period,
                    "period_unit": "steps",
                },
                "shapley_every": self.optimizer.shapley_every,
                "shapley_target": self.optimizer.shapley_target,
                "shapley_variant": self.optimizer.shapley_variant,
            },
            "comparison": list(self.comparison),
        }


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical config; independent of key order and out_dir."""
    blob = json.dumps(config.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _section(raw: dict, name: str, defaults: dict[str, Any]) -> dict[str, Any]:
    got = raw.get(name, {})
    if not isinstance(got, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(got) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(got)
    return merged


_TOP_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "epochs": 5,
    "batch_size": 32,
    "eval_every": 1,
    "early_stop_patience": 0,
    "out_dir": None,
    "data": {},
    "model": {},
    "optimizer": {},
    "comparison": [],
}

_DATA_DEFAULTS: dict[str, Any] = {
    "classes": 3,
    "dims": [6, 6],
    "snr": [2.0, 1.0],
    "n_train": 256,
    "n_val": 64,
    "n_test": 256,
}

_MODEL_DEFAULTS: dict[str, Any] = {
    "hidden": [16],
    "activation": "relu",
    "fusion": "late",
    "width": 8,
    "pieces": 2,
    "bias": True,
}

_OPTIM_DEFAULTS: dict[str, Any] = {
    "kind": "msam",
    "lr": 0.05,
    "momentum": 0.9,
    "weight_decay": 1e-4,
    "rho": 0.05,
    "schedule": {},
    "shapley_every": 1,
    "shapley_target": "loss",
    "shapley_variant": "standard",
}

_SCHEDULE_DEFAULTS: dict[str, Any] = {
    "kind": "constant",
    "factor": 0.1,
    "period": 70,
    "period_unit": "steps",
}


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict, fill defaults, and type everything.

    Raises ConfigError on unknown keys, bad values, or inconsistent shapes.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_TOP_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    top = dict(_TOP_DEFAULTS)
    top.update(raw)
    d = _section(raw, "data", _DATA_DEFAULTS)
    m = _section(raw, "model", _MODEL_DEFAULTS)
    o = _section(raw, "optimizer", _OPTIM_DEFAULTS)
    s = _section(o, "schedule", _SCHEDULE_DEFAULTS)

    try:
        seed = int(top["seed"])
        epochs = int(top["epochs"])
        batch_size = int(top["batch_size"])
        eval_every = int(top["eval_every"])
        patience = int(top["early_stop_patience"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad scalar in config: {e}") from None
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if eval_every < 1:
        raise ConfigError(f"eval_every must be >= 1, got {eval_every}")
    if patience < 0:
        raise ConfigError(f"early_stop_patience must be >= 0, got {patience}")
    out_dir = top["out_dir"]
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string or null")

    data = SyntheticSpec(
        classes=int(d["classes"]),
        dims=tuple(int(x) for x in d["dims"]),
        snr=tuple(float(x) for x in d["snr"]),
        n_train=int(d["n_train"]),
        n_val=int(d["n_val"]),
        n_test=int(d["n_test"]),
        seed=seed,
    )

    hidden = m["hidden"]
    if not isinstance(hidden, list):
        raise ConfigError("model.hidden must be a list (of widths, or one list per modality)")
    if hidden and all(isinstance(h, list) for h in hidden):
        per_modality = hidden
        if len(per_modality) != data.modalities:
            raise ConfigError(
                f"model.hidden lists {len(per_modality)} modalities, data has {data.modalities}"
            )
    else:
        per_modality = [hidden] * data.modalities
    encoders = tuple(
        EncoderSpec(
            in_dim=data.dims[i],
            hidden=tuple(int(h) for h in per_modality[i]),
            activation=str(m["activation"]),
        )
        for i in range(data.modalities)
    )
    fusion = FusionSpec(mode=str(m["fusion"]), width=int(m["width"]), pieces=int(m["pieces"]))
    bias = bool(m["bias"])

    unit = s["period_unit"]
    if unit not in ("steps", "epochs"):
        raise ConfigError(f"schedule.period_unit must be 'steps' or 'epochs', got {unit!r}")
    period = int(s["period"])
    if period < 1:
        raise ConfigError(f"schedule.period must be >= 1, got {period}")
    if unit == "epochs":
        period *= math.ceil(data.n_train / batch_size)
    schedule = Schedule(kind=str(s["kind"]), factor=float(s["factor"]), period=period)

    optimizer = OptimConfig(
        kind=str(o["kind"]),
        lr=float(o["lr"]),
        momentum=float(o["momentum"]),
        weight_decay=float(o["weight_decay"]),
        rho=float(o["rho"]),
        schedule=schedule,
        shapley_every=int(o["shapley_every"]),
        shapley_target=str(o["shapley_target"]),
        shapley_variant=str(o["shapley_variant"]),
    )

    comparison = top["comparison"]
    if not isinstance(comparison, list) or any(k not in KINDS for k in comparison):
        raise ConfigError(f"comparison must list optimizer kinds from {KINDS}")
    if len(set(comparison)) != len(comparison):
        raise ConfigError(f"comparison lists a kind twice: {comparison}")
    for kind in set(comparison) | {optimizer.kind}:
        if kind == "msam_branch" and fusion.mode != "late":
            raise ConfigError("msam_branch requires late fusion")
        if kind in ("msam", "msam_branch") and data.modalities > MAX_PLAYERS:
            raise ConfigError(f"{kind} attributes at most {MAX_PLAYERS} modalities, "
                              f"data has {data.modalities}")

    return ExperimentConfig(
        seed=seed,
        epochs=epochs,
        batch_size=batch_size,
        eval_every=eval_every,
        early_stop_patience=patience,
        out_dir=out_dir,
        data=data,
        encoders=encoders,
        fusion=fusion,
        bias=bias,
        optimizer=optimizer,
        comparison=tuple(comparison),
    )


def read_json(path: str | Path, what: str = "config") -> Any:
    """Parse a JSON file; a missing file or invalid JSON is a ConfigError naming the path."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    return resolve_config(read_json(path))


@dataclass
class RunRecord:
    """Everything one training run produced.

    `records` holds the per-epoch metric snapshots, `steps` the per-iteration
    reports; `model` and `datasets` are kept so downstream diagnostics
    (landscapes, sharpness, audits) can run on the final state without
    re-deriving anything.
    """

    config_hash: str
    records: list[MetricRecord]
    steps: list[StepReport]
    convergence: ConvergenceReport | None
    wall_clock: float
    final_params: Array
    out_dir: str | None
    model: MultimodalModel
    datasets: tuple[Dataset, Dataset, Dataset]
    stopped_early: bool


def _assert_pass_budget(
    model: MultimodalModel, cfg: OptimConfig, rep: StepReport, taped0: int, masked0: int
) -> None:
    """Verify one step consumed exactly its documented forward-pass budget.

    A Shapley recomputation costs 2**M masked forwards, one fewer when the
    loss target seeds the full coalition with the step's own full-batch loss.
    `msam_branch` spends one masked forward on that loss and one taped pass
    per branch group (dominant, then the rest when M > 1).
    """
    taped = model.counters["taped"] - taped0
    masked = model.counters["masked_forward"] - masked0
    want_taped = 2 if rep.eps_norm > 0.0 else 1
    want_masked = 0
    if rep.shapley_recomputed:
        full = 2**model.n_modalities
        want_masked = full - 1 if cfg.shapley_target == "loss" else full
    if cfg.kind == "msam_branch":
        want_taped += 1 if model.n_modalities > 1 else 0
        want_masked += 1
    if (taped, masked) != (want_taped, want_masked):
        raise MsamError(
            f"step {rep.t}: pass budget violated for {cfg.kind}: "
            f"taped {taped} (want {want_taped}), masked {masked} (want {want_masked})"
        )


def _epoch_record(
    config: ExperimentConfig,
    model: MultimodalModel,
    splits: Sequence[Dataset],
    epoch: int,
    epoch_reports: list[StepReport],
) -> MetricRecord:
    loss: dict[str, float] = {}
    acc: dict[str, float] = {}
    mono: dict[str, tuple[float, ...]] = {}
    for ds in splits:
        loss[ds.split], acc[ds.split] = evaluate(model, ds.modalities, ds.labels)
        mono[ds.split] = tuple(
            mono_modal_accuracy(model, ds.modalities, ds.labels, m)
            for m in range(model.n_modalities)
        )
    tau = overfitting_gap(acc["train"], acc["test"])
    nus = [r.nu for r in epoch_reports if r.nu is not None]
    doms = [r.dominant for r in epoch_reports if r.dominant is not None]
    mean_nu = tuple(np.mean(np.stack(nus), axis=0)) if nus else None
    dom_freq = None
    if doms:
        counts = np.bincount(np.asarray(doms), minlength=model.n_modalities)
        dom_freq = float(counts.max() / len(doms))
    grad_sq = float(np.mean([r.grad_norm**2 for r in epoch_reports]))
    last = epoch_reports[-1]
    return MetricRecord(
        epoch=epoch,
        loss=loss,
        acc=acc,
        tau=tau,
        mono_acc=mono,
        mean_nu=mean_nu,
        dom_freq=dom_freq,
        grad_sq_norm=grad_sq,
        lr=last.lr,
        rho=last.rho,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_metrics_csv(path: Path, records: Sequence[MetricRecord], n_modalities: int) -> None:
    header = (
        ["epoch", "split", "loss", "acc", "tau"]
        + [f"acc_m{m + 1}" for m in range(n_modalities)]
        + [f"nu_m{m + 1}" for m in range(n_modalities)]
        + ["dom_freq", "grad_sq_norm", "lr", "rho"]
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for rec in records:
            nu = rec.mean_nu if rec.mean_nu is not None else [None] * n_modalities
            for split in ("train", "val", "test"):
                row = [str(rec.epoch), split, _fmt(rec.loss[split]), _fmt(rec.acc[split]), _fmt(rec.tau)]
                row += [_fmt(a) for a in rec.mono_acc[split]]
                row += [_fmt(v) for v in nu]
                row += [_fmt(rec.dom_freq), _fmt(rec.grad_sq_norm), _fmt(rec.lr), _fmt(rec.rho)]
                w.writerow(row)


def write_steps_csv(path: Path, steps: Sequence[StepReport], steps_per_epoch: int, n_modalities: int) -> None:
    header = (
        ["t", "epoch", "loss", "loss_perturbed", "grad_norm", "eps_norm", "lr", "rho", "dominant"]
        + [f"nu_m{m + 1}" for m in range(n_modalities)]
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for rep in steps:
            epoch = (rep.t - 1) // steps_per_epoch
            nu = rep.nu if rep.nu is not None else [None] * n_modalities
            row = [
                str(rep.t), str(epoch), _fmt(rep.loss), _fmt(rep.loss_perturbed),
                _fmt(rep.grad_norm), _fmt(rep.eps_norm), _fmt(rep.lr), _fmt(rep.rho),
                "" if rep.dominant is None else str(rep.dominant),
            ]
            row += [_fmt(v) for v in nu]
            w.writerow(row)


def run(config: ExperimentConfig) -> RunRecord:
    """Train once per the config and (if out_dir is set) write all artifacts."""
    t_start = time.perf_counter()
    splits = generate(config.data)
    train, _val, _test = splits
    model = MultimodalModel(
        config.encoders, config.fusion, config.data.classes,
        bias=config.bias, seed=config.seed,
    )
    state = OptimState(model.n_params)
    steps: list[StepReport] = []
    records: list[MetricRecord] = []
    best_val = math.inf
    misses = 0
    stopped = False
    for epoch in range(config.epochs):
        epoch_reports: list[StepReport] = []
        for xs, ys in batches(train, config.batch_size, derive_seed(config.seed, 3, epoch)):
            taped0 = model.counters["taped"]
            masked0 = model.counters["masked_forward"]
            try:
                rep = train_step(model, xs, ys, state, config.optimizer)
            except NumericError as e:
                raise NumericError(f"run aborted at iteration {state.t + 1}: {e}") from e
            _assert_pass_budget(model, config.optimizer, rep, taped0, masked0)
            epoch_reports.append(rep)
            steps.append(rep)
        last_epoch = epoch == config.epochs - 1
        if (epoch + 1) % config.eval_every == 0 or last_epoch:
            rec = _epoch_record(config, model, splits, epoch, epoch_reports)
            records.append(rec)
            if config.early_stop_patience > 0:
                if rec.loss["val"] < best_val:
                    best_val = rec.loss["val"]
                    misses = 0
                else:
                    misses += 1
                    if misses >= config.early_stop_patience:
                        stopped = True
        if stopped:
            break
    grad_norms = [r.grad_norm for r in steps]
    conv = convergence_report(grad_norms) if len(grad_norms) >= 2 else None
    record = RunRecord(
        config_hash=config_hash(config),
        records=records,
        steps=steps,
        convergence=conv,
        wall_clock=time.perf_counter() - t_start,
        final_params=model.params.flatten(),
        out_dir=config.out_dir,
        model=model,
        datasets=splits,
        stopped_early=stopped,
    )
    if config.out_dir is not None:
        _write_artifacts(config, record)
    return record


def _write_artifacts(config: ExperimentConfig, record: RunRecord) -> None:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = config.canonical()
    doc["out_dir"] = config.out_dir
    (out / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    write_metrics_csv(out / "metrics.csv", record.records, record.model.n_modalities)
    write_steps_csv(out / "steps.csv", record.steps, config.steps_per_epoch, record.model.n_modalities)
    params = record.model.params
    np.savez(out / "params.npz", **{name: params.view(name) for name in params.names})
    last = record.records[-1]
    summary = {
        "config_hash": record.config_hash,
        "epochs_run": last.epoch + 1,
        "stopped_early": record.stopped_early,
        "final": {
            "loss": last.loss,
            "acc": last.acc,
            "tau": last.tau,
            "dom_freq": last.dom_freq,
        },
        "convergence": None
        if record.convergence is None
        else {
            "c_fit": record.convergence.c_fit,
            "g_max": record.convergence.g_max,
            "final_running_avg": float(record.convergence.running_avg[-1]),
            "calibrate_at": record.convergence.calibrate_at,
        },
        "wall_clock_sec": record.wall_clock,
        "n_steps": len(record.steps),
    }
    (out / "run_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def compare(config: ExperimentConfig) -> dict[str, RunRecord]:
    """Run each optimizer in the comparison set under identical seed/data."""
    kinds = config.comparison or (config.optimizer.kind,)
    out: dict[str, RunRecord] = {}
    for kind in kinds:
        sub_out = None if config.out_dir is None else str(Path(config.out_dir) / kind)
        sub = replace(
            config,
            optimizer=replace(config.optimizer, kind=kind),
            out_dir=sub_out,
            comparison=(),
        )
        out[kind] = run(sub)
    return out


def load_checkpoint(run_dir: str | Path) -> tuple[ExperimentConfig, MultimodalModel, tuple[Dataset, Dataset, Dataset]]:
    """Rebuild config, model (with trained parameters), and data from a run dir."""
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    npz_path = run_dir / "params.npz"
    if not cfg_path.exists() or not npz_path.exists():
        raise ConfigError(f"{run_dir} is not a checkpoint (need config.json and params.npz)")
    config = load_config(cfg_path)
    model = MultimodalModel(
        config.encoders, config.fusion, config.data.classes,
        bias=config.bias, seed=config.seed,
    )
    with np.load(npz_path) as npz:
        names = set(npz.files)
        if names != set(model.params.names):
            raise ConfigError(f"{npz_path} parameter names do not match the config's model")
        flat = np.empty(model.params.size, dtype=np.float64)
        for name in model.params.names:
            arr = npz[name]
            if arr.shape != model.params.view(name).shape:
                raise ConfigError(f"parameter {name} has shape {arr.shape}, expected "
                                  f"{model.params.view(name).shape}")
            flat[model.params.slice_of(name)] = np.asarray(arr, dtype=np.float64).ravel()
    model.params.load_flat(flat)
    return config, model, generate(config.data)


# Presets: small, fast configurations with known behavior. "dominance" makes
# modality 1 four times stronger than modality 2 so attribution has a ground
# truth; "overfit" uses few samples and a wide model so plain SGD memorizes;
# "smooth" is a tanh model with inverse-sqrt schedules for convergence traces.

# Preset hyperparameters were chosen empirically; see the repo notes that ship
# with each preset in README.md for what every preset is meant to demonstrate.
_PRESETS = {
    "default": {},
    # 4:1 signal ratio with a narrow shared maxout trunk: the dominant modality
    # is unambiguous for the Shapley selector, and the tight fusion bottleneck
    # makes basin choice matter, which is where the perturbed update helps.
    "dominance": {
        "epochs": 60,
        "batch_size": 32,
        "eval_every": 10,
        "data": {"classes": 6, "dims": [8, 8], "snr": [2.0, 0.5],
                 "n_train": 512, "n_val": 256, "n_test": 1024},
        "model": {"hidden": [16], "activation": "relu", "fusion": "early",
                  "width": 6, "pieces": 2},
        "optimizer": {"kind": "msam", "lr": 0.05, "momentum": 0.9,
                      "weight_decay": 0.0, "rho": 0.5},
    },
    # Small sample budget relative to capacity: joint SGD memorizes the train
    # split while the narrow late-fusion heads leave a visible generalization
    # gap for the perturbed optimizer to close.
    "overfit": {
        "epochs": 60,
        "batch_size": 32,
        "eval_every": 10,
        "data": {"classes": 6, "dims": [8, 8], "snr": [2.0, 0.5],
                 "n_train": 256, "n_val": 128, "n_test": 1024},
        "model": {"hidden": [16], "activation": "relu", "fusion": "late", "width": 6},
        "optimizer": {"kind": "msam", "lr": 0.05, "momentum": 0.9,
                      "weight_decay": 0.0, "rho": 0.5},
    },
    # Fully smooth (tanh) model trained full-batch so the recorded gradient
    # norms are exact; paired with inverse-sqrt decay for convergence traces.
    "smooth": {
        "epochs": 2000,
        "batch_size": 128,
        "eval_every": 500,
        "data": {"classes": 3, "dims": [6, 6], "snr": [2.0, 1.0],
                 "n_train": 128, "n_val": 64, "n_test": 256},
        "model": {"hidden": [8], "activation": "tanh", "fusion": "late", "width": 6},
        "optimizer": {"kind": "msam", "lr": 0.2, "momentum": 0.0, "weight_decay": 0.0,
                      "rho": 0.05, "schedule": {"kind": "inverse_sqrt"}},
    },
}


def preset(name: str, seed: int = 0, **overrides) -> dict:
    """Raw config dict for a named preset; overrides merge shallowly per section."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(_PRESETS)}")
    cfg = json.loads(json.dumps(_PRESETS[name]))  # deep copy
    cfg["seed"] = seed
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg
