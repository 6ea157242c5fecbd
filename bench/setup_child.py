"""Set-up probe: one fresh interpreter importing msam and building a workload.

    python3 bench/setup_child.py --workload NAME --seed N [--checkpoint DIR] [--trace 0|1]

Times `import msam.cli`, then either `resolve_config` + `data.generate` +
model init (training workloads) or `harness.load_checkpoint` (the
diagnose workload), and prints one JSON object: `setup_s`, and with
`--trace 1` the per-layer set-up times. `run.py` starts this script several
times per run and reports the median.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

_RNG_DRAWS = ("normal", "uniform", "integers", "permutation")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    t_import = time.perf_counter()
    import msam.cli  # noqa: F401  (the entry point a user starts)
    import_s = time.perf_counter() - t_import
    from msam import data, harness, model, tensor

    tracer = Tracer()
    if args.trace:
        for draw in _RNG_DRAWS:
            tracer.patch(tensor.Rng, draw, "tensor.rng")
        tracer.patch(data, "generate", "data.generate")
        tracer.patch(harness, "generate", "data.generate")
        tracer.patch(harness, "load_checkpoint", "harness.load_checkpoint")
    try:
        if args.workload == workloads.DIAGNOSE:
            _config, net, _splits = harness.load_checkpoint(args.checkpoint)
        else:
            cfg = harness.resolve_config(
                workloads.raw_config(harness, args.workload, args.seed, None))
            data.generate(cfg.data)
            net = model.MultimodalModel(cfg.encoders, cfg.fusion, cfg.data.classes,
                                        bias=cfg.bias, seed=cfg.seed)
    finally:
        tracer.restore()
    setup_s = time.perf_counter() - T0
    if net.n_params < 1:
        print("set-up built an empty model", file=sys.stderr)
        return 1

    out = {"setup_s": setup_s}
    if args.trace:
        spans = tracer.spans

        def total(name: str) -> float:
            # outermost spans only: a draw may call another draw
            return sum(s.duration for s in spans
                       if s.name == name and (s.parent < 0 or spans[s.parent].name != name))

        out["layers"] = {
            "cli.import_s": import_s,
            "data.generate_s": total("data.generate"),
            "tensor.rng_s": total("tensor.rng"),
            "harness.load_checkpoint_s": total("harness.load_checkpoint"),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
