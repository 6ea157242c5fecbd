"""msam benchmark: one workload per process, single-client closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

  train-m2-early      `harness.run` on the `dominance` preset; taped passes dominate.
  train-m8-late       `harness.run` with 8 late-fused modalities; attribution dominates.
  diagnose-landscape  `landscape_grid` + `sharpness_proxy` on a trained `overfit`
                      checkpoint; large plain forwards dominate.

The benchmark builds its inputs from `--seed`, repeats the workload's main
call until `--seconds` have passed, checks every repetition's outputs (pinned
hashes at the default seed, byte-identical repetitions at any seed) and
prints each metric by name and unit. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, which holds the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. A traced run alternates untraced and traced repetitions; only
traced ones feed the layer metrics, and their ratio of median run times is
`trace.overhead_frac`. End-to-end timings are scaled to a reference machine
speed measured around each timed call (see `speed_probe`). Full results,
the environment and the spans go to `.bench_work/results/` in the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up is timed in this many fresh interpreters per run, spread over the
# run; setup_s is the median.
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120

# On a shared 2-vCPU Xeon VM the same code runs up to about 45% slower for
# stretches of seconds to minutes, in CPU time as well as wall time, through
# contention from outside the process. So every timed call (a repetition, a set-up probe) is bracketed
# by a fixed reference loop: relu(x @ w) in Python on the row count of the
# workload's own forwards (32 for training, 1024 for the diagnostics, where
# BLAS runs threaded). End-to-end timings are scaled by
# REF_PROBE_S / (mean reference time around the call): seconds at the
# reference speed. Raw times are printed beside them and kept in the result.
REF_PROBE_S = 0.02
_PROBE_ITERS = {32: 6000, 1024: 1200}  # about REF_PROBE_S each


def speed_probe(rows: int) -> float:
    """Seconds taken by the fixed reference loop at `rows` rows per matmul."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, rows * 16).reshape(rows, 16)
    w = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)
    acc = 0.0
    t = time.perf_counter()
    for i in range(_PROBE_ITERS[rows]):
        acc += float(np.maximum(x @ w, 0.0)[0, 0]) + 0.5 * i
    return time.perf_counter() - t


def scaled(fn, rows: int = 32):
    """Call `fn` between two reference loops; returns (result, speed scale)."""
    before = speed_probe(rows)
    out = fn()
    return out, 2.0 * REF_PROBE_S / (before + speed_probe(rows))


# Highest tail percentile reported. Fixed, so that a faster program, which fits
# more ops into a run, still reports the same percentile; and no higher,
# because beyond p90 op latency on such a shared VM measures its contention
# more than the program (p99 spread by up to 25% over seeds).
TAIL_CEILING = 90.0

# sha256 of the outputs at seed DEFAULT_SEED. The training workloads pin
# metrics.csv and steps.csv, the diagnose workload the landscape loss grid.
PINNED = {
    wl.TRAIN_M2: {
        "metrics.csv": "307b3fa59e076baa8bfd224da28b3275d3922f0fff39c4758da0b1456223b7a5",
        "steps.csv": "3cd7aba26ac75546655cb707cb44b455d025c7eca46a7f2fa9f1325976f9c744",
    },
    wl.TRAIN_M8: {
        "metrics.csv": "b3cba355c5523f35546863bf5c7966aa167f72db6a61fe29eadc77c51fea3de5",
        "steps.csv": "c0d8a5413970a3658fbe51ee2e723ae2e9a8243722f338c07764a123bdc05778",
    },
    wl.DIAGNOSE: {
        "losses": "e121b14aa867242bdfc91e6f0cb22d0cfd7f83e931c658f7b655f36bcef8f45b",
    },
}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "ops_per_s": "1/s",
    "op_ms.p50": "ms", "op_ms.tail": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s", "data.generate_s": "s", "tensor.rng_s": "s",
    "harness.load_checkpoint_s": "s",
    "model.taped_us.p50": "us", "model.taped.calls_per_op": "count",
    "model.taped.share": "ratio",
    "model.masked_us.p50": "us", "model.masked.calls_per_op": "count",
    "model.masked.rows": "count",
    "shapley.attribute_us.p50": "us", "shapley.self_us.p50": "us",
    "shapley.share": "ratio", "shapley.recomputed_frac": "ratio",
    "optim.self_us.p50": "us", "optim.perturbed_frac": "ratio",
    "metrics.landscape_s": "s", "metrics.sharpness_s": "s", "metrics.self_s": "s",
    "metrics.eval_s": "s", "harness.write_s": "s", "harness.write_bytes": "bytes",
    "harness.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Rep:
    """One repetition of a workload's main call."""

    traced: bool
    spans: list
    op_ms: array = field(default_factory=lambda: array("d"))
    run_s: float = 0.0
    scale: float = 1.0
    ops: int = 0
    failed: int = 0
    digest: dict = field(default_factory=dict)
    write_bytes: int = 0
    error: str | None = None


def _counter_note(args):
    """Op note: the model's pass-counter deltas over the call."""
    counters = args[0].counters
    taped0, masked0 = counters["taped"], counters["masked_forward"]

    def done(result):
        perturbed = recomputed = None
        if hasattr(result, "eps_norm"):
            perturbed, recomputed = result.eps_norm > 0.0, result.shapley_recomputed
        return (counters["taped"] - taped0, counters["masked_forward"] - masked0,
                perturbed, recomputed)

    return done


def _rows_note(args):
    rows = len(args[1][0])
    return lambda _result: rows


class Workload:
    """A workload: its op-boundary and layer patches and one repetition."""

    op_name = ""
    rows = 0  # rows per plain forward, for the reference loop

    def __init__(self, msam, name: str, seed: int, tmp: Path):
        self.msam = msam
        self.name = name
        self.seed = seed
        self.tmp = tmp
        self.checkpoint: Path | None = None

    def patch_ops(self, tracer: sp.Tracer) -> None:
        raise NotImplementedError

    def patch_layers(self, tracer: sp.Tracer) -> None:
        m = self.msam
        model_cls = m.model.MultimodalModel
        tracer.patch(model_cls, "loss_value_and_grad", "model.taped")
        tracer.patch(model_cls, "terms_value_and_grad", "model.taped")
        tracer.patch(model_cls, "forward_masked", "model.masked", note=_rows_note)

    def rep(self, tracer: sp.Tracer, rep: Rep) -> None:
        raise NotImplementedError


class TrainWorkload(Workload):
    op_name = "harness.train_step"
    rows = 32

    def __init__(self, *a):
        super().__init__(*a)
        harness = self.msam.harness
        self.out = self.tmp / "run"
        self.config = harness.resolve_config(
            wl.raw_config(harness, self.name, self.seed, str(self.out)))
        self.n_modalities = len(self.config.encoders)

    def patch_ops(self, tracer):
        tracer.patch(self.msam.harness, "train_step", self.op_name, op=True, note=_counter_note)

    def patch_layers(self, tracer):
        super().patch_layers(tracer)
        m = self.msam
        tracer.patch(m.optim, "attribute_batch", "shapley.attribute")
        tracer.patch(m.harness, "evaluate", "metrics.eval")
        tracer.patch(m.harness, "mono_modal_accuracy", "metrics.eval")
        tracer.patch(m.harness, "_write_artifacts", "harness.write")

    def rep(self, tracer, rep):
        record = tracer.run("harness.run", self.msam.harness.run, self.config)
        rep.run_s = tracer.spans[0].duration
        rep.digest = {f: sha256_file(self.out / f) for f in ("metrics.csv", "steps.csv")}
        rep.write_bytes = sum(p.stat().st_size for p in self.out.iterdir())
        cfg = self.config
        losses = [s.loss for s in record.steps]
        if len(losses) != cfg.epochs * cfg.steps_per_epoch:
            raise AssertionError(f"ran {len(losses)} steps, want {cfg.epochs * cfg.steps_per_epoch}")
        if not all(map(math.isfinite, losses)) or not record.records[-1].loss["train"] < losses[0]:
            raise AssertionError("training loss is not finite or did not decrease")


class DiagnoseWorkload(Workload):
    op_name = "metrics.evaluate"
    rows = 1024

    def prepare(self) -> None:
        """Train the `overfit` checkpoint and load it; not timed."""
        harness = self.msam.harness
        self.checkpoint = self.tmp / "checkpoint"
        harness.run(harness.resolve_config(
            wl.raw_config(harness, self.name, self.seed, str(self.checkpoint))))
        _cfg, self.model, (_tr, _va, test) = harness.load_checkpoint(self.checkpoint)
        self.xs, self.ys = test.modalities, test.labels
        self.theta = self.model.params.flatten()
        self.center_loss, _ = self.msam.model.evaluate(self.model, self.xs, self.ys)
        self.n_modalities = self.model.n_modalities

    def patch_ops(self, tracer):
        tracer.patch(self.msam.metrics, "evaluate", self.op_name, op=True, note=_counter_note)

    def patch_layers(self, tracer):
        super().patch_layers(tracer)
        tracer.patch(self.msam.metrics, "landscape_grid", "metrics.landscape")
        tracer.patch(self.msam.metrics, "sharpness_proxy", "metrics.sharpness")

    def _diagnose(self):
        m = self.msam
        Rng, derive_seed = m.tensor.Rng, m.tensor.derive_seed
        grid = m.metrics.landscape_grid(self.model, self.xs, self.ys, wl.LANDSCAPE_RES,
                                        wl.LANDSCAPE_RADIUS, Rng(derive_seed(self.seed, 4)))
        sharp = m.metrics.sharpness_proxy(self.model, self.xs, self.ys, wl.SHARPNESS_RHO,
                                          wl.SHARPNESS_SAMPLES, Rng(derive_seed(self.seed, 5)))
        return grid, sharp

    def rep(self, tracer, rep):
        import numpy as np

        grid, sharp = tracer.run("diagnose", self._diagnose)
        rep.run_s = tracer.spans[0].duration
        rep.digest = {"losses": hashlib.sha256(grid.losses.tobytes()).hexdigest(),
                      "sharpness": repr(float(sharp))}
        if not np.all(np.isfinite(grid.losses)) or not math.isfinite(sharp):
            raise AssertionError("landscape or sharpness is not finite")
        if grid.center_loss != self.center_loss:
            raise AssertionError("landscape centre differs from the model's loss")
        if not np.array_equal(self.model.params.flatten(), self.theta):
            raise AssertionError("diagnostics did not restore the parameters")


def run_rep(work: Workload, traced: bool) -> Rep:
    tracer = sp.Tracer()
    rep = Rep(traced=traced, spans=tracer.spans)
    work.patch_ops(tracer)
    if traced:
        work.patch_layers(tracer)
    try:
        _, rep.scale = scaled(lambda: work.rep(tracer, rep), work.rows)
    except Exception:  # a failed repetition is counted, reported and the run goes on
        rep.error = traceback.format_exc()
        print(rep.error, file=sys.stderr)
    finally:
        tracer.restore()
    ops = [s for s in rep.spans if s.name == work.op_name]
    rep.ops = len(ops)
    rep.op_ms = array("d", (s.duration * 1e3 for s in ops))
    if rep.error is not None:
        rep.failed = max(1, sum(s.failed for s in ops))
    if not traced:
        rep.spans = []  # keeps this process's peak memory independent of the run length
    return rep


def check_digests(work: Workload, reps: list[Rep]) -> list[str]:
    """Mark repetitions whose outputs differ from the pinned (default seed) or
    the first repetition's hashes; returns the problems found."""
    problems = []
    want = dict(PINNED[work.name]) if work.seed == wl.DEFAULT_SEED else {}
    for rep in reps:
        if rep.error is not None:
            continue
        if not want:
            want = dict(rep.digest)
        bad = [k for k, v in want.items() if rep.digest.get(k) != v]
        if bad:
            rep.failed = rep.ops
            problems.append(f"{'traced' if rep.traced else 'untraced'} repetition: "
                            f"{', '.join(bad)} differ from the expected hash")
    return problems


def measure_setup(work: Workload, trace: bool) -> dict:
    """One set-up probe in a fresh interpreter, with its speed scale."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), "--workload", work.name,
           "--seed", str(work.seed), "--trace", str(int(trace))]
    if work.checkpoint is not None:
        cmd += ["--checkpoint", str(work.checkpoint)]
    proc, scale = scaled(lambda: subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["scale"] = scale
    return out


def end_to_end(work: Workload, reps: list[Rep], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced repetitions, plus sample notes.

    Timings are scaled to the reference speed; the notes give the raw values.
    """
    good = [r for r in reps if r.error is None]

    def timings(scale: bool) -> tuple[dict, int, float]:
        op_ms = [t * (r.scale if scale else 1.0) for r in good for t in r.op_ms]
        run_s = [r.run_s * (r.scale if scale else 1.0) for r in good]
        tail_q = sp.tail_percentile(len(op_ms), TAIL_CEILING)
        return {
            "setup_s": sp.median(c["setup_s"] * (c["scale"] if scale else 1.0) for c in setups),
            "run_s": sp.median(run_s),
            "ops_per_s": sp.median(r.ops / t for r, t in zip(good, run_s)),
            "op_ms.p50": sp.median(op_ms),
            "op_ms.tail": sp.percentile(op_ms, tail_q),
        }, len(op_ms), tail_q

    values, n_ops, tail_q = timings(scale=True)
    raw, _, _ = timings(scale=False)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "run_s": f"median of {len(good)} repetitions",
        "ops_per_s": f"median of {len(good)} repetitions",
        "op_ms.p50": f"n={n_ops}",
        "op_ms.tail": f"p{tail_q:g}, n={n_ops}",
    }
    notes = {k: f"{c}; raw {raw[k]:.6g}" for k, c in counts.items()}
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    return values, notes


def layer_metrics(work: Workload, reps: list[Rep], setups: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced repetitions, plus count-check problems.

    A layer that does not run on this workload reports 0.
    """
    traced = [r for r in reps if r.traced and r.error is None]
    plain = [r for r in reps if not r.traced and r.error is None]
    problems: list[str] = []
    dur: dict[str, list[float]] = defaultdict(list)
    self_dur: dict[str, list[float]] = defaultdict(list)
    per_rep: dict[str, list[float]] = defaultdict(list)
    taped_per_op, masked_per_op, rows = [], [], []
    perturbed = recomputed = 0
    for rep in traced:
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        for s, self_s in zip(rep.spans, sp.self_times(rep.spans)):
            dur[s.name].append(s.duration)
            self_dur[s.name].append(self_s)
            total[s.name] += s.duration
            own[s.name] += self_s
            if s.name in ("model.taped", "model.masked") and s.op >= 0:
                calls[s.op][s.name == "model.masked"] += 1
            if s.name == "model.masked":
                rows.append(s.note)
        for name in ("metrics.eval", "harness.write", "metrics.landscape", "metrics.sharpness"):
            per_rep[name].append(total[name])
        per_rep["harness.self"].append(own["harness.run"])
        per_rep["metrics.self"].append(own["metrics.landscape"] + own["metrics.sharpness"])
        for s in rep.spans:
            if s.name != work.op_name:
                continue
            d_taped, d_masked, pert, recomp = s.note
            seen = tuple(calls[s.op])
            taped_per_op.append(seen[0])
            masked_per_op.append(seen[1])
            perturbed += bool(pert)
            recomputed += bool(recomp)
            if seen != (d_taped, d_masked):
                problems.append(f"op {s.op}: traced calls {seen}, "
                                f"model.counters {(d_taped, d_masked)}")
            budget = (2, 2 ** work.n_modalities - 1)
            if pert and recomp and seen != budget:
                problems.append(f"op {s.op}: {seen} passes, budget {budget}")
    n_ops = max(len(taped_per_op), 1)
    run_total = sum(r.run_s for r in traced) or 1.0
    us = 1e6

    def share(name: str) -> float:
        return sum(dur[name]) / run_total

    def med_setup(key: str) -> float:
        return sp.median(s["layers"][key] for s in setups)

    values = {
        "cli.import_s": med_setup("cli.import_s"),
        "data.generate_s": med_setup("data.generate_s"),
        "tensor.rng_s": med_setup("tensor.rng_s"),
        "harness.load_checkpoint_s": med_setup("harness.load_checkpoint_s"),
        "model.taped_us.p50": sp.median(dur["model.taped"]) * us,
        "model.taped.calls_per_op": sp.median(taped_per_op),
        "model.taped.share": share("model.taped"),
        "model.masked_us.p50": sp.median(dur["model.masked"]) * us,
        "model.masked.calls_per_op": sp.median(masked_per_op),
        "model.masked.rows": sp.median(rows),
        "shapley.attribute_us.p50": sp.median(dur["shapley.attribute"]) * us,
        "shapley.self_us.p50": sp.median(self_dur["shapley.attribute"]) * us,
        "shapley.share": share("shapley.attribute"),
        "shapley.recomputed_frac": recomputed / n_ops,
        "optim.self_us.p50": (sp.median(self_dur[work.op_name]) * us
                              if isinstance(work, TrainWorkload) else 0.0),
        "optim.perturbed_frac": perturbed / n_ops,
        "metrics.landscape_s": sp.median(per_rep["metrics.landscape"]),
        "metrics.sharpness_s": sp.median(per_rep["metrics.sharpness"]),
        "metrics.self_s": sp.median(per_rep["metrics.self"]),
        "metrics.eval_s": sp.median(per_rep["metrics.eval"]),
        "harness.write_s": sp.median(per_rep["harness.write"]),
        "harness.write_bytes": sp.median(r.write_bytes for r in traced),
        "harness.self_s": sp.median(per_rep["harness.self"]),
        "trace.overhead_frac": (sp.median(r.run_s * r.scale for r in traced)
                                / sp.median(r.run_s * r.scale for r in plain) - 1.0
                                if traced and plain else 0.0),
    }
    return values, problems


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, asked from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "msam" / "__init__.py").is_file():
        print(f"bench: no msam package at {SRC / 'msam'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import msam.harness
    import msam.metrics
    import msam.model
    import msam.optim
    import msam.tensor

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tmp = WORK / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        cls = DiagnoseWorkload if args.workload == wl.DIAGNOSE else TrainWorkload
        work = cls(msam, args.workload, args.seed, tmp)
        if isinstance(work, DiagnoseWorkload):
            work.prepare()
        env = environment()

        reps: list[Rep] = []
        setups: list[dict] = []
        start = time.perf_counter()
        while (not reps or time.perf_counter() < start + args.seconds
               or (args.trace and not any(r.traced for r in reps))):
            # set-up probes are spread over the run so they see the same machine load
            due = start + len(setups) * args.seconds / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
                setups.append(measure_setup(work, bool(args.trace)))
            reps.append(run_rep(work, traced=bool(args.trace) and len(reps) % 2 == 1))
        while len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(work, bool(args.trace)))
        problems = check_digests(work, reps)
        count_problems: list[str] = []
        if args.trace:
            values, count_problems = layer_metrics(work, reps, setups)
            problems += count_problems
            units, notes = PER_LAYER, {}
            sp.write_csv(results / f"{tag}-spans.csv", [r.spans for r in reps if r.traced])
        else:
            values, notes = end_to_end(work, reps, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps) + len(count_problems)
    correct = not problems and failed == 0 and attempted > 0
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{k:28s} {m['value']:<16.6g} {m['unit']:6s} {notes.get(k, '')}")
    print(f"{'failed_frac':28s} {failed / max(attempted, 1):<16.6g} {'ratio':6s} "
          f"{failed} of {attempted} ops")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    if len(problems) > 10:
        print(f"problem: ... and {len(problems) - 10} more in {results / (tag + '.json')}")
    print(json.dumps({"env": env}))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics, "notes": notes,
        "problems": problems,
        "reps": [{"traced": r.traced, "run_s": r.run_s, "scale": r.scale, "ops": r.ops,
                  "failed": r.failed, "digest": r.digest, "error": r.error} for r in reps],
        "setups": setups,
    }
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
