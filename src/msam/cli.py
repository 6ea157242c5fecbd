"""Command-line interface.

Exit codes: 0 on success, 1 for anything wrong with configs/flags/paths, and
2 for numeric failures (non-finite values, failed gradient checks).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import itertools
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from .autodiff import grad_check
from .data import generate, save_dataset
from .errors import ConfigError, MsamError, NumericError
from .harness import (
    SEEDS,
    ExperimentConfig,
    _new_model,
    compare,
    load_checkpoint,
    preset,
    read_json,
    resolve_config,
    run,
    write_csv,
    write_json,
)
from .metrics import convergence_report, landscape_grid
from .model import evaluate
from .shapley import TARGETS, VARIANTS, attribute_batch
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
    a.add_argument("--variant", choices=VARIANTS, default="standard")
    a.add_argument("--target", choices=TARGETS, default="loss")
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

    e = sub.add_parser("export-data", help="generate a config's dataset and write the binary file")
    e.add_argument("--config", required=True, help="path to a JSON experiment config")
    e.add_argument("--out", required=True, help="output .bin path")
    e.set_defaults(func=_cmd_export)

    return p


def _config_from_args(args, default_preset: str) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        raw = read_json(args.config)
    else:
        raw = preset(args.preset or default_preset)
    if isinstance(raw, dict):  # anything else is for resolve_config to reject
        if getattr(args, "seed", None) is not None:
            raw["seed"] = args.seed
        if getattr(args, "out_dir", None) is not None:
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


def _check_writable(*paths: Path) -> None:
    """Raise the OSError that writing each of `paths` would, before any work
    is done: an existing directory is IsADirectoryError, and the parent is
    probed with an unnamed temporary file, so nothing is left behind. The
    error names the path, not the probe."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        try:
            with tempfile.TemporaryFile(dir=path.parent):
                pass
        except OSError as err:
            raise type(err)(err.errno, err.strerror, str(path)) from None


@contextlib.contextmanager
def _flag_names(**flags: str):
    """Re-raise a library error whose message starts with one of the argument
    names in `flags` as the same error naming the flag the user typed."""
    try:
        yield
    except MsamError as err:
        for name, flag in flags.items():
            if str(err).startswith(f"{name} "):
                raise type(err)(flag + str(err)[len(name):]) from None
        raise


def _cmd_landscape(args) -> int:
    config, model, (train, _val, _test) = load_checkpoint(args.checkpoint)
    split = {"train": train, "val": _val, "test": _test}[args.split]
    seed = config.seed if args.seed is None else args.seed
    if seed not in SEEDS:
        raise ConfigError(f"--seed must be in [0, 2**64), got {seed}")
    out_dir = Path(args.checkpoint)
    csv_path = out_dir / f"landscape_{args.tag}.csv"
    json_path = out_dir / f"landscape_{args.tag}.json"
    _check_writable(csv_path, json_path)
    rng = Rng(derive_seed(seed, 4))
    with _flag_names(radius="--radius", resolution="--res"):
        grid = landscape_grid(model, split.modalities, split.labels, args.res, args.radius, rng)
    write_csv(csv_path, ["alpha\\beta", *grid.betas],
              ([a, *losses] for a, losses in zip(grid.alphas, grid.losses)))
    write_json(json_path, {
        "seed": seed,
        "radius": args.radius,
        "resolution": args.res,
        "split": args.split,
        "center_loss": grid.center_loss,
        "d1_norm": float(np.linalg.norm(grid.d1)),
        "d2_norm": float(np.linalg.norm(grid.d2)),
    })
    print(f"landscape: wrote {csv_path} (center loss {grid.center_loss:.6f})")
    return 0


def _pick_batch(config: ExperimentConfig, train, k: int):
    n_batches = config.steps_per_epoch
    if not 0 <= k < n_batches:
        raise ConfigError(f"--batch must be in [0, {n_batches}), got {k}")
    return next(itertools.islice(config.epoch_batches(train, 0), k, None))


def _cmd_audit(args) -> int:
    config, model, (train, _val, _test) = load_checkpoint(args.checkpoint)
    xs, ys = _pick_batch(config, train, args.batch)
    out = Path(args.out) if args.out is not None else Path(args.checkpoint) / "shapley_audit.csv"
    _check_writable(out)
    att = attribute_batch(model, xs, ys, target=args.target, variant=args.variant)
    eff_gap = float(att.phi.sum() - (att.coalition_values[-1] - att.coalition_values[0]))
    eff_ok = abs(eff_gap) <= 1e-9
    names = [f"m{m + 1}" for m in range(model.n_modalities)]
    rows = [["coalition", "+".join(n for m, n in enumerate(names) if mask >> m & 1) or "empty",
             v, None] for mask, v in enumerate(att.coalition_values)]
    rows += [[kind, n, v, None] for kind, vs in (("phi", att.phi), ("nu", att.nu))
             for n, v in zip(names, vs)]
    rows += [["dominant", names[att.dominant], att.nu[att.dominant], None],
             ["degenerate", None, att.degenerate, None],
             ["efficiency", "sum_phi - (v_full - v_empty)", eff_gap, eff_ok]]
    write_csv(out, ["row_type", "key", "value", "ok"], rows)
    print(
        f"shapley-audit: variant={args.variant} target={args.target} "
        f"dominant=m{att.dominant + 1} nu={np.round(att.nu, 4).tolist()} "
        f"efficiency_ok={str(eff_ok).lower()} -> {out}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    config = _config_from_args(args, "default")
    model = _new_model(config)
    train, _val, _test = generate(config.data)
    xs, ys = _pick_batch(config, train, 0)
    _, grad = model.loss_value_and_grad(xs, ys)
    with _flag_names(**{"step size h": "--h", "tol": "--tol", "max_coords": "--coords"}):
        report = grad_check(
            lambda: evaluate(model, xs, ys)[0], model.params, grad,
            h=args.h, tol=args.tol, max_coords=args.coords, rng=Rng(derive_seed(config.seed, 5)),
        )
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"gradcheck: max_rel_err={report.max_rel_err:.3e} worst_coord={report.worst_coord} "
        f"checked={report.n_checked} h={args.h:g} tol={args.tol:g} {verdict}"
    )
    if not report.passed:
        raise NumericError(f"gradient check failed: max_rel_err={report.max_rel_err:.3e}")
    return 0


def _cmd_convergence(args) -> int:
    run_dir = Path(args.run)
    steps_path = run_dir / "steps.csv"
    if not steps_path.exists():
        raise ConfigError(f"no steps.csv under {run_dir}")
    try:
        reader = csv.DictReader(steps_path.read_text(encoding="utf-8").splitlines())
    except UnicodeDecodeError as err:
        raise ConfigError(f"{steps_path} is not UTF-8 text: {err}") from None
    if "grad_norm" not in (reader.fieldnames or ()):
        raise ConfigError(f"{steps_path} has no grad_norm column")
    # a plain float literal: `float()` alone also reads `1_0`, ` 2 ` and non-ASCII digits
    literal = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|[+-]?(nan|inf)", re.ASCII)
    norms = []
    for row in reader:
        cell = row["grad_norm"]  # a short row reads None
        norm = float(cell) if cell is not None and literal.fullmatch(cell) else None
        if norm is None or not 0 <= norm < np.inf:  # a completed run writes none of these
            why = "is not a number" if norm is None else "must be finite and >= 0"
            raise ConfigError(f"{steps_path} line {reader.line_num}: grad_norm "
                              f"{row['grad_norm']!r} {why}")
        norms.append(norm)
    if len(norms) < 2:
        raise ConfigError(f"{steps_path} holds {len(norms)} grad_norm rows, need at least 2")
    with _flag_names(calibrate_at="--calibrate-at"):
        rep = convergence_report(norms, calibrate_at=args.calibrate_at)
    out = run_dir / "convergence.csv"
    write_csv(out, ["t", "grad_sq_norm", "running_avg", "bound"],
              zip(itertools.count(1), rep.sq_norms, rep.running_avg, rep.bound))
    print(
        f"convergence: T={rep.sq_norms.size} C={rep.c_fit:.6g} g_max={rep.g_max:.6g} "
        f"avg@{rep.calibrate_at}={rep.running_avg[rep.calibrate_at - 1]:.6g} "
        f"avg@{rep.sq_norms.size}={rep.running_avg[-1]:.6g} -> {out}"
    )
    return 0


def _cmd_export(args) -> int:
    spec = resolve_config(read_json(args.config)).data
    _check_writable(Path(args.out))
    splits = generate(spec)
    save_dataset(args.out, spec, splits)
    sizes = ", ".join(f"{ds.split}={ds.n}" for ds in splits)
    print(f"export-data: wrote {args.out} ({sizes})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():  # "" would name the working directory
            if value == "":
                raise ConfigError(f"--{name.replace('_', '-')} must not be empty")
        return args.func(args)
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # a size that cannot exist, such as n_train 2**62
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1
    except (MsamError, OSError) as err:  # OSError: a path that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
