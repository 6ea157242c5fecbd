"""Command-line interface.

Exit codes: 0 on success, 1 for anything wrong with configs/flags/paths, and
2 for numeric failures (non-finite values, failed gradient checks).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .autodiff import grad_check
from .data import SyntheticSpec, batches, generate, save_dataset
from .errors import ConfigError, DimensionError, MsamError, NumericError, UsageError
from .harness import (
    ExperimentConfig,
    compare,
    load_checkpoint,
    preset,
    resolve_config,
    run,
)
from .metrics import convergence_report, landscape_grid
from .model import MultimodalModel, evaluate
from .shapley import attribute_batch
from .tensor import Rng, derive_seed


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 (validation), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="msam", description="Modality-aware SAM experiment harness")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    t = sub.add_parser("train", help="train per a config and write artifacts")
    t.add_argument("--config", help="path to a JSON experiment config")
    t.add_argument("--preset", help="named preset instead of a config file")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.add_argument("--out-dir", help="override the output directory")
    t.set_defaults(func=_cmd_train)

    l = sub.add_parser("landscape", help="2-D loss landscape around a checkpoint")
    l.add_argument("--checkpoint", required=True, help="run directory with config.json/params.npz")
    l.add_argument("--radius", type=float, default=1.0)
    l.add_argument("--res", type=int, default=11)
    l.add_argument("--tag", default="main", help="suffix for landscape_<tag>.csv")
    l.add_argument("--seed", type=int, help="direction seed (default: config seed)")
    l.add_argument("--split", choices=("train", "val", "test"), default="train")
    l.set_defaults(func=_cmd_landscape)

    a = sub.add_parser("shapley-audit", help="coalition table and attribution for one batch")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--batch", type=int, default=0, help="index of the train batch to audit")
    a.add_argument("--variant", choices=("standard", "paper"), default="standard")
    a.add_argument("--target", choices=("loss", "accuracy"), default="loss")
    a.add_argument("--out", help="output CSV path (default: <checkpoint>/shapley_audit.csv)")
    a.set_defaults(func=_cmd_audit)

    g = sub.add_parser("gradcheck", help="finite-difference gradient check on a fresh model")
    g.add_argument("--config", help="path to a JSON experiment config (default: built-in)")
    g.add_argument("--preset", help="named preset instead of a config file")
    g.add_argument("--h", type=float, default=1e-5)
    g.add_argument("--tol", type=float, default=1e-4)
    g.add_argument("--coords", type=int, default=100)
    g.set_defaults(func=_cmd_gradcheck)

    c = sub.add_parser("convergence", help="gradient-norm diagnostics for a finished run")
    c.add_argument("--run", required=True, help="run directory containing steps.csv")
    c.add_argument("--calibrate-at", type=int, help="1-based calibration step")
    c.set_defaults(func=_cmd_convergence)

    e = sub.add_parser("export-data", help="generate a dataset and write the binary file")
    e.add_argument("--spec", required=True, help="JSON with classes/dims/snr/counts/seed")
    e.add_argument("--out", required=True, help="output .bin path")
    e.set_defaults(func=_cmd_export)

    return p


def _load_raw(path_str: str) -> dict:
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from None


def _config_from_args(args, default_preset: str) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        raw = _load_raw(args.config)
    else:
        raw = preset(args.preset or default_preset)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "out_dir", None):
        raw["out_dir"] = args.out_dir
    return resolve_config(raw)


def _cmd_train(args) -> int:
    config = _config_from_args(args, "default")
    if config.comparison:
        results = compare(config)
    else:
        results = {config.optimizer.kind: run(config)}
    for kind, rec in results.items():
        last = rec.records[-1]
        tau = "n/a" if last.tau is None else f"{last.tau:.4f}"
        where = f" -> {rec.out_dir}" if rec.out_dir else ""
        print(
            f"{kind}: epochs={last.epoch + 1} train_acc={last.acc['train']:.4f} "
            f"test_acc={last.acc['test']:.4f} tau={tau}{where}"
        )
    return 0


def _cmd_landscape(args) -> int:
    if args.radius < 0:
        raise ConfigError(f"--radius must be >= 0, got {args.radius}")
    config, model, (train, _val, _test) = load_checkpoint(args.checkpoint)
    split = {"train": train, "val": _val, "test": _test}[args.split]
    seed = config.seed if args.seed is None else args.seed
    rng = Rng(derive_seed(seed, 4))
    grid = landscape_grid(model, split.modalities, split.labels, args.res, args.radius, rng)
    out_dir = Path(args.checkpoint)
    csv_path = out_dir / f"landscape_{args.tag}.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha\\beta"] + [repr(float(b)) for b in grid.betas])
        for i, a in enumerate(grid.alphas):
            w.writerow([repr(float(a))] + [repr(float(v)) for v in grid.losses[i]])
    sidecar = {
        "seed": seed,
        "radius": grid.radius,
        "resolution": grid.resolution,
        "split": args.split,
        "center_loss": grid.center_loss,
        "d1_norm": float(np.linalg.norm(grid.d1)),
        "d2_norm": float(np.linalg.norm(grid.d2)),
    }
    (out_dir / f"landscape_{args.tag}.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"landscape: wrote {csv_path} (center loss {grid.center_loss:.6f})")
    return 0


def _pick_batch(config: ExperimentConfig, train, k: int):
    n_batches = -(-train.n // config.batch_size)
    if not 0 <= k < n_batches:
        raise ConfigError(f"--batch must be in [0, {n_batches}), got {k}")
    for i, (xs, ys) in enumerate(batches(train, config.batch_size, derive_seed(config.seed, 3, 0))):
        if i == k:
            return xs, ys
    raise ConfigError(f"batch {k} out of range")  # unreachable


def _cmd_audit(args) -> int:
    config, model, (train, _val, _test) = load_checkpoint(args.checkpoint)
    xs, ys = _pick_batch(config, train, args.batch)
    att = attribute_batch(model, xs, ys, target=args.target, variant=args.variant)
    v_full = att.coalition_values[(1 << model.n_modalities) - 1]
    eff_gap = float(att.phi.sum() - (v_full - att.baseline))
    eff_ok = abs(eff_gap) <= 1e-9
    out = Path(args.out) if args.out else Path(args.checkpoint) / "shapley_audit.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row_type", "key", "value", "ok"])
        for mask in sorted(att.coalition_values):
            members = "+".join(f"m{m + 1}" for m in range(model.n_modalities) if mask >> m & 1)
            w.writerow(["coalition", members or "empty", repr(att.coalition_values[mask]), ""])
        for m, v in enumerate(att.phi):
            w.writerow(["phi", f"m{m + 1}", repr(float(v)), ""])
        for m, v in enumerate(att.nu):
            w.writerow(["nu", f"m{m + 1}", repr(float(v)), ""])
        w.writerow(["dominant", f"m{att.dominant + 1}", repr(float(att.nu[att.dominant])), ""])
        w.writerow(["degenerate", "", str(att.degenerate).lower(), ""])
        w.writerow(["efficiency", "sum_phi - (v_full - v_empty)", repr(eff_gap),
                    "true" if eff_ok else "false"])
    print(
        f"shapley-audit: variant={att.variant} target={att.target} "
        f"dominant=m{att.dominant + 1} nu={np.round(att.nu, 4).tolist()} "
        f"efficiency_ok={str(eff_ok).lower()} -> {out}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    config = _config_from_args(args, "default")
    model = MultimodalModel(
        config.encoders, config.fusion, config.data.classes,
        bias=config.bias, seed=config.seed,
    )
    train, _val, _test = generate(config.data)
    xs, ys = next(batches(train, config.batch_size, derive_seed(config.seed, 3, 0)))
    _, grad = model.loss_value_and_grad(xs, ys)
    report = grad_check(
        lambda: evaluate(model, xs, ys)[0], model.params, grad,
        h=args.h, tol=args.tol, max_coords=args.coords, rng=Rng(derive_seed(config.seed, 5)),
    )
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"gradcheck: max_rel_err={report.max_rel_err:.3e} worst_coord={report.worst_coord} "
        f"checked={report.n_checked} h={report.h:g} tol={report.tol:g} {verdict}"
    )
    if not report.passed:
        raise NumericError(f"gradient check failed: max_rel_err={report.max_rel_err:.3e}")
    return 0


def _cmd_convergence(args) -> int:
    run_dir = Path(args.run)
    steps_path = run_dir / "steps.csv"
    if not steps_path.exists():
        raise ConfigError(f"no steps.csv under {run_dir}")
    norms = []
    with open(steps_path, newline="") as fh:
        for row in csv.DictReader(fh):
            norms.append(float(row["grad_norm"]))
    rep = convergence_report(norms, calibrate_at=args.calibrate_at)
    out = run_dir / "convergence.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "grad_sq_norm", "running_avg", "bound"])
        for i in range(rep.sq_norms.size):
            w.writerow([i + 1, repr(float(rep.sq_norms[i])),
                        repr(float(rep.running_avg[i])), repr(float(rep.bound[i]))])
    print(
        f"convergence: T={rep.sq_norms.size} C={rep.c_fit:.6g} g_max={rep.g_max:.6g} "
        f"avg@{rep.calibrate_at}={rep.running_avg[rep.calibrate_at - 1]:.6g} "
        f"avg@{rep.sq_norms.size}={rep.running_avg[-1]:.6g} -> {out}"
    )
    return 0


def _cmd_export(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise ConfigError(f"spec file not found: {spec_path}")
    try:
        raw = json.loads(spec_path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{spec_path} is not valid JSON: {err}") from None
    allowed = {"classes", "dims", "snr", "n_train", "n_val", "n_test", "seed"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in data spec: {sorted(unknown)}")
    missing = {"classes", "dims", "snr", "n_train", "n_val", "n_test"} - set(raw)
    if missing:
        raise ConfigError(f"data spec missing keys: {sorted(missing)}")
    spec = SyntheticSpec(
        classes=int(raw["classes"]),
        dims=tuple(int(x) for x in raw["dims"]),
        snr=tuple(float(x) for x in raw["snr"]),
        n_train=int(raw["n_train"]),
        n_val=int(raw["n_val"]),
        n_test=int(raw["n_test"]),
        seed=int(raw.get("seed", 0)),
    )
    splits = generate(spec)
    save_dataset(args.out, spec, splits)
    sizes = ", ".join(f"{ds.split}={ds.n}" for ds in splits)
    print(f"export-data: wrote {args.out} ({sizes})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 2
    except (ConfigError, UsageError, DimensionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MsamError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
