"""Config-driven experiment harness.

Configs are JSON trees with a fixed schema, `_SCHEMA`: one row per field
with its dotted path, type and default. Every command that reads a config,
`export-data` included, reads it through `resolve_config`. Unknown keys
anywhere in the tree are errors so hyperparameter typos cannot pass silently,
and types are exact: a bool is not an int, an int is accepted for a float and
stored as one, and no string becomes a number. Value rules live in the spec
dataclasses that hold the fields (the table checks only the fields none of
them holds); `resolve_config` builds them and puts the section's path before
their errors, so every bad value is a ConfigError naming its dotted path,
e.g. `model.hidden[0]` or `data.snr`. It fills defaults and returns a
fully-typed `ExperimentConfig`; its canonical dict form, generated from the
same rows, is itself a valid config, is what gets hashed (minus the output
directory), and is what `run` writes back out to each run directory, so a
run directory doubles as a reloadable checkpoint.

A run is deterministic end to end per seed, an integer in [0, 2**64): data
generation, model init, per-epoch shuffles, and every optimizer step use
independent streams derived from the one seed. The training loop asserts the
optimizer pass budget every step (one taped pass for SGD, two for perturbed
SAM/M-SAM steps, plus the 2**M or 2**M - 1 masked forwards of a Shapley
recomputation).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import zipfile
import zlib
from dataclasses import dataclass, replace
from functools import reduce
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Sequence

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

# The seeds a run accepts: every stream reads a seed as a 64-bit word, so
# any other integer would alias one of these.
SEEDS = range(1 << 64)


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
        return -(-self.data.n_train // self.batch_size)

    def epoch_batches(self, train: Dataset, epoch: int):
        """The training batches of one epoch, in the order `run` steps through them."""
        return batches(train, self.batch_size, derive_seed(self.seed, 3, epoch))

    def canonical(self) -> dict:
        """Fully-explicit config dict, all schema rows but out_dir; valid `resolve_config` input."""
        values = {path: read(self) for path, read in _CANONICAL}
        return _nest({p: list(v) if isinstance(v, tuple) else v for p, v in values.items()})


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical config; independent of key order and out_dir."""
    blob = json.dumps(config.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# A schema type takes (value, dotted path) and returns the checked value or
# raises a ConfigError naming the path. It compares exact types, so a bool is
# not an int and no string becomes a number. A check takes the checked value
# and returns what is wrong with it, or None.


def _scalar(what: str, *types: type):
    def of_type(value, path):
        if type(value) not in types:
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        return value
    return of_type


_INT = _scalar("an integer", int)
_STR = _scalar("a string", str)
_NUMBER = _scalar("a number", int, float)


def _float(value, path) -> float:
    """A JSON int or float, stored as float so that `1` hashes like `1.0`."""
    try:
        return float(_NUMBER(value, path))
    except OverflowError:
        raise ConfigError(f"{path} is too large for a float") from None


def _list(item):
    def of_type(value, path):
        if type(value) is not list:
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [item(x, f"{path}[{i}]") for i, x in enumerate(value)]
    return of_type


_WIDTHS = _list(_INT)
_WIDTHS_PER_MODALITY = _list(_WIDTHS)


def _hidden(value, path):
    """One list of widths shared by every encoder, or one list per modality."""
    if type(value) is list and value and all(type(h) is list for h in value):
        return _WIDTHS_PER_MODALITY(value, path)
    return _WIDTHS(value, path)


def _at_least(lo: int):
    return lambda x: None if x >= lo else f"must be >= {lo}"


def _one_of(names: tuple[str, ...]):
    return lambda x: None if x in names else f"must be one of {names}"


def _distinct_kinds(kinds: list[str]) -> str | None:
    ok = set(kinds) <= set(KINDS) and len(set(kinds)) == len(kinds)
    return None if ok else f"must list distinct optimizer kinds from {KINDS}"


def _seed(x: int) -> str | None:
    return None if x in SEEDS else "must be in [0, 2**64)"


# One row per config field: (dotted path, type, default, check). The sections
# are the paths' prefixes. Only the fields that no spec dataclass holds have a
# check; the dataclasses check the rest, and `resolve_config` names the path.
_SCHEMA = (
    ("seed", _INT, 0, _seed),
    ("epochs", _INT, 5, _at_least(1)),
    ("batch_size", _INT, 32, _at_least(1)),
    ("eval_every", _INT, 1, _at_least(1)),
    ("early_stop_patience", _INT, 0, _at_least(0)),
    ("out_dir", _scalar("a string or null", str, type(None)), None,
     lambda x: "must not be empty" if x == "" else None),
    ("comparison", _list(_STR), [], _distinct_kinds),
    ("data.classes", _INT, 3, None),
    ("data.dims", _list(_INT), [6, 6], None),
    ("data.snr", _list(_float), [2.0, 1.0], None),
    ("data.n_train", _INT, 256, None),
    ("data.n_val", _INT, 64, None),
    ("data.n_test", _INT, 256, None),
    ("model.hidden", _hidden, [16], None),
    ("model.activation", _STR, "relu", None),
    ("model.fusion", _STR, "late", None),
    ("model.width", _INT, 8, None),
    ("model.pieces", _INT, 2, None),
    ("model.bias", _scalar("true or false", bool), True, None),
    ("optimizer.kind", _STR, "msam", None),
    ("optimizer.lr", _float, 0.05, None),
    ("optimizer.momentum", _float, 0.9, None),
    ("optimizer.weight_decay", _float, 1e-4, None),
    ("optimizer.rho", _float, 0.05, None),
    ("optimizer.schedule.kind", _STR, "constant", None),
    ("optimizer.schedule.factor", _float, 0.1, None),
    ("optimizer.schedule.period", _INT, 70, None),
    ("optimizer.schedule.period_unit", _STR, "steps", _one_of(("steps", "epochs"))),
    ("optimizer.shapley_every", _INT, 1, None),
    ("optimizer.shapley_target", _STR, "loss", None),
    ("optimizer.shapley_variant", _STR, "standard", None),
)

# How `canonical()` reads the paths that are not attribute paths of an
# ExperimentConfig; the period is stored in steps.
_READERS = {
    "model.hidden": lambda c: [list(e.hidden) for e in c.encoders],
    "model.activation": lambda c: c.encoders[0].activation,
    "model.fusion": lambda c: c.fusion.mode,
    "model.width": lambda c: c.fusion.width,
    "model.pieces": lambda c: c.fusion.pieces,
    "model.bias": lambda c: c.bias,
    "optimizer.schedule.period_unit": lambda c: "steps",
}
_CANONICAL = tuple((path, _READERS.get(path) or attrgetter(path))
                   for path, *_ in _SCHEMA if path != "out_dir")


def _section_keys(rows) -> dict[str, set[str]]:
    """{section path: the keys it holds}, the root section being ''."""
    keys: dict[str, set[str]] = {}
    for path, *_ in rows:
        while path:
            path, _, key = path.rpartition(".")
            keys.setdefault(path, set()).add(key)
    return keys


_SCHEMA_KEYS = _section_keys(_SCHEMA)


def _checked(raw: Any) -> dict[str, dict[str, Any]]:
    """{section path: {key: checked value}} of a raw config tree, defaults
    filled; every section must be an object holding only its schema keys."""
    sections: dict[str, dict] = {}

    def section(path: str) -> dict:
        if path not in sections:
            parent, _, key = path.rpartition(".")
            got = section(parent).get(key, {}) if path else raw
            where = repr(path) if path else "top-level config"
            if type(got) is not dict:
                raise ConfigError(f"{where} must be a JSON object, got {got!r}")
            unknown = set(got) - _SCHEMA_KEYS[path]
            if unknown:
                raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
            sections[path] = got
        return sections[path]

    values: dict[str, dict[str, Any]] = {}
    for path, kind, default, check in _SCHEMA:
        parent, _, key = path.rpartition(".")
        value = kind(section(parent).get(key, default), path)
        values.setdefault(parent, {})[key] = value
        if check and (problem := check(value)):
            raise ConfigError(f"{path} {problem}, got {value!r}")
    return values


def _nest(flat: dict[str, Any]) -> dict:
    """The nested tree of a {dotted path: value} dict."""
    tree: dict = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        reduce(lambda node, name: node.setdefault(name, {}), sections, tree)[key] = value
    return tree


def _build(spec, section: str, *args, **fields):
    """`spec(*args, **fields)`; the spec's ConfigError starts with the field's
    key, and this puts the section's path in front of it."""
    try:
        return spec(*args, **fields)
    except ConfigError as err:
        raise ConfigError(f"{section}{err}") from None


def resolve_config(raw: Any) -> ExperimentConfig:
    """Check a raw config tree against the schema, fill defaults, and type everything.

    Raises ConfigError on unknown keys, bad values, or inconsistent shapes.
    """
    values = _checked(raw)
    top = values[""]
    data = _build(SyntheticSpec, "data.", seed=top["seed"], **values["data"])

    model = values["model"]
    hidden = model["hidden"]
    if hidden and type(hidden[0]) is list:
        if len(hidden) != data.modalities:
            raise ConfigError(
                f"model.hidden lists {len(hidden)} modalities, data has {data.modalities}")
    else:
        hidden = [hidden] * data.modalities
    encoders = tuple(_build(EncoderSpec, "model.", d, tuple(h), model["activation"])
                     for d, h in zip(data.dims, hidden))
    fusion = _build(FusionSpec, "model.", model["fusion"], model["width"], model["pieces"])

    unit = values["optimizer.schedule"].pop("period_unit")
    schedule = _build(Schedule, "optimizer.schedule.", **values["optimizer.schedule"])
    if unit == "epochs":  # checked as written, then stored in steps
        schedule = replace(schedule, period=schedule.period * -(-data.n_train // top["batch_size"]))
    optimizer = _build(OptimConfig, "optimizer.", schedule=schedule, **values["optimizer"])

    top["comparison"] = tuple(top["comparison"])
    kinds = [("optimizer.kind", optimizer.kind)] + [("comparison", k) for k in top["comparison"]]
    for path, kind in kinds:
        if kind == "msam_branch" and fusion.mode != "late":
            raise ConfigError(f"{path} msam_branch requires late fusion")
        if kind in ("msam", "msam_branch") and data.modalities > MAX_PLAYERS:
            raise ConfigError(f"{path} {kind} attributes at most {MAX_PLAYERS} modalities, "
                              f"data has {data.modalities}")
    return ExperimentConfig(**top, data=data, encoders=encoders, fusion=fusion,
                            bias=model["bias"], optimizer=optimizer)


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; a missing file, invalid JSON or an object that
    repeats a key is a ConfigError naming the path."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config file {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(path.read_text(), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as e:  # bad JSON, bad UTF-8, an int too long, deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None


@dataclass
class RunRecord:
    """Everything one training run produced.

    `records` holds the per-epoch metric snapshots, `steps` the per-iteration
    reports; `model` and `datasets` are kept so downstream diagnostics
    (landscapes, sharpness, audits) can run on the final state without
    re-deriving anything.
    """

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
    model: MultimodalModel,
    splits: Sequence[Dataset],
    epoch: int,
    epoch_reports: list[StepReport],
) -> MetricRecord:
    loss: dict[str, float] = {}
    acc: dict[str, float] = {}
    mono: dict[str, tuple[float, ...]] = {}
    # one partial cache per split: the full coalition and the M singletons
    # (one mask when M = 1), 2M branch passes instead of M(M + 1)
    masks = list(dict.fromkeys([(1 << model.n_modalities) - 1,
                                *(1 << m for m in range(model.n_modalities))]))
    for ds in splits:
        cache = model.branch_cache(ds.modalities, masks)
        loss[ds.split], acc[ds.split] = evaluate(model, ds.modalities, ds.labels, cache)
        mono[ds.split] = tuple(
            mono_modal_accuracy(model, ds.modalities, ds.labels, m, cache)
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


def _cell(x) -> str:
    """The one CSV form of a value: floats (most cells, so checked first) as
    `repr(float(x))`, bools as true/false, integers in decimal, None empty,
    and strings as they are."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "" if x is None else x


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Every CSV file msam writes: `header`, then `rows`, each cell as `_cell` gives it."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([_cell(x) for x in row] for row in [header, *rows])


def write_json(path: str | Path, doc: Any) -> None:
    """Every JSON file msam writes: `doc` with sorted keys, indented by 2."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_metrics_csv(path: Path, records: Sequence[MetricRecord], n_modalities: int) -> None:
    header = (
        ["epoch", "split", "loss", "acc", "tau"]
        + [f"acc_m{m + 1}" for m in range(n_modalities)]
        + [f"nu_m{m + 1}" for m in range(n_modalities)]
        + ["dom_freq", "grad_sq_norm", "lr", "rho"]
    )
    write_csv(path, header, (
        [rec.epoch, split, rec.loss[split], rec.acc[split], rec.tau, *rec.mono_acc[split],
         *(rec.mean_nu if rec.mean_nu is not None else [None] * n_modalities),
         rec.dom_freq, rec.grad_sq_norm, rec.lr, rec.rho]
        for rec in records for split in ("train", "val", "test")))


def write_steps_csv(path: Path, steps: Sequence[StepReport], steps_per_epoch: int, n_modalities: int) -> None:
    header = (
        ["t", "epoch", "loss", "loss_perturbed", "grad_norm", "eps_norm", "lr", "rho", "dominant"]
        + [f"nu_m{m + 1}" for m in range(n_modalities)]
    )
    write_csv(path, header, (
        [rep.t, (rep.t - 1) // steps_per_epoch, rep.loss, rep.loss_perturbed, rep.grad_norm,
         rep.eps_norm, rep.lr, rep.rho, rep.dominant,
         *(rep.nu if rep.nu is not None else [None] * n_modalities)]
        for rep in steps))


def _new_model(config: ExperimentConfig) -> MultimodalModel:
    """The freshly initialized model a config describes."""
    return MultimodalModel(config.encoders, config.fusion, config.data.classes,
                           bias=config.bias, seed=config.seed)


def run(config: ExperimentConfig) -> RunRecord:
    """Train once per the config and (if out_dir is set) write all artifacts."""
    t_start = time.perf_counter()
    if config.out_dir is not None:  # an unwritable out_dir fails before the first step
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    splits = generate(config.data)
    train, _val, _test = splits
    model = _new_model(config)
    state = OptimState(model.n_params)
    steps: list[StepReport] = []
    records: list[MetricRecord] = []
    best_val = math.inf
    misses = 0
    stopped = False
    for epoch in range(config.epochs):
        epoch_reports: list[StepReport] = []
        for xs, ys in config.epoch_batches(train, epoch):
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
            rec = _epoch_record(model, splits, epoch, epoch_reports)
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
    write_json(out / "config.json", {**config.canonical(), "out_dir": config.out_dir})
    write_metrics_csv(out / "metrics.csv", record.records, record.model.n_modalities)
    write_steps_csv(out / "steps.csv", record.steps, config.steps_per_epoch, record.model.n_modalities)
    params = record.model.params
    np.savez(out / "params.npz", **{name: params.view(name) for name in params.names})
    last, conv = record.records[-1], record.convergence
    write_json(out / "run_summary.json", {
        "config_hash": config_hash(config),
        "epochs_run": last.epoch + 1,
        "stopped_early": record.stopped_early,
        "final": {"loss": last.loss, "acc": last.acc, "tau": last.tau, "dom_freq": last.dom_freq},
        "convergence": None if conv is None else {
            "c_fit": conv.c_fit, "g_max": conv.g_max,
            "final_running_avg": float(conv.running_avg[-1]), "calibrate_at": conv.calibrate_at},
        "wall_clock_sec": record.wall_clock,
        "n_steps": len(record.steps),
    })


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
    config = resolve_config(read_json(cfg_path))
    model = _new_model(config)
    try:  # TypeError: a .npy file (no context manager); RuntimeError: a damaged zip header
        with np.load(npz_path) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, EOFError, TypeError, ValueError, RuntimeError, zipfile.BadZipFile,
            zlib.error) as err:
        raise ConfigError(f"{npz_path} is not a readable parameter file: {err}") from None
    if set(arrays) != set(model.params.names):
        raise ConfigError(f"{npz_path} parameter names do not match the config's model")
    flat = np.empty(model.params.size, dtype=np.float64)
    for name in model.params.names:
        arr, shape = arrays[name], model.params.view(name).shape
        if arr.shape != shape or arr.dtype != np.float64:
            raise ConfigError(f"{npz_path}: parameter {name} is {arr.dtype} {arr.shape}, "
                              f"expected float64 {shape}")
        flat[model.params.slice_of(name)] = arr.ravel()
    if not np.isfinite(flat).all():
        raise ConfigError(f"{npz_path} holds non-finite parameter values")
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
