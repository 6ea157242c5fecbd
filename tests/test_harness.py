"""Experiment harness tests.

Configs are checked for strict key validation, hash semantics (order and
out_dir independent, value dependent), and canonical round-tripping. Runs are
checked for end-to-end determinism including byte-identical CSV artifacts,
checkpoint reload, early stopping, and the divergence abort message. An AST
scan keeps `write_csv` and `write_json` the only code that writes text files.
"""

import ast
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from msam import harness
from msam.errors import ConfigError, MsamError, NumericError
from msam.harness import (compare, config_hash, load_checkpoint, preset, read_json,
                          resolve_config, run)


def tiny_raw(**kw):
    base = {
        "seed": 0,
        "epochs": 2,
        "batch_size": 8,
        "data": {"classes": 3, "dims": [4, 3], "snr": [2.0, 0.5],
                 "n_train": 24, "n_val": 12, "n_test": 12},
        "model": {"hidden": [6], "width": 4},
        "optimizer": {"kind": "msam", "lr": 0.05, "momentum": 0.9, "rho": 0.1},
    }
    base.update(kw)
    return base


# -------------------------------------------------------------------- resolve


def test_resolve_fills_defaults():
    cfg = resolve_config({})
    assert cfg.seed == 0 and cfg.epochs == 5 and cfg.batch_size == 32
    assert cfg.data.classes == 3 and cfg.data.dims == (6, 6)
    assert cfg.optimizer.kind == "msam"
    assert cfg.optimizer.schedule.kind == "constant"
    assert cfg.steps_per_epoch == 8  # ceil(256 / 32)
    assert cfg.out_dir is None
    assert len(cfg.encoders) == 2 and cfg.encoders[0].hidden == (16,)


def test_resolve_rejects_unknown_keys_everywhere():
    with pytest.raises(ConfigError, match="top-level"):
        resolve_config({"lr": 0.1})
    with pytest.raises(ConfigError, match="'data'"):
        resolve_config({"data": {"n": 10}})
    with pytest.raises(ConfigError, match="'model'"):
        resolve_config({"model": {"depth": 3}})
    with pytest.raises(ConfigError, match="'optimizer'"):
        resolve_config({"optimizer": {"nesterov": True}})
    with pytest.raises(ConfigError, match="'optimizer.schedule'"):
        resolve_config({"optimizer": {"schedule": {"warmup": 5}}})
    with pytest.raises(ConfigError, match="top-level"):
        resolve_config({"data.classes": 5})


def test_resolve_scalar_validation():
    with pytest.raises(ConfigError):
        resolve_config({"epochs": 0})
    with pytest.raises(ConfigError):
        resolve_config({"batch_size": 0})
    with pytest.raises(ConfigError):
        resolve_config({"eval_every": 0})
    with pytest.raises(ConfigError):
        resolve_config({"early_stop_patience": -1})
    with pytest.raises(ConfigError):
        resolve_config({"out_dir": 7})
    with pytest.raises(ConfigError):
        resolve_config({"comparison": ["sgd", "adam"]})
    with pytest.raises(ConfigError):
        resolve_config({"comparison": "sgd"})
    with pytest.raises(ConfigError):
        resolve_config({"comparison": ["sgd", "sam", "sgd"]})
    nine = {"dims": [2] * 9, "snr": [1.0] * 9}
    resolve_config({"data": nine, "optimizer": {"kind": "sam"}})
    for raw in ({"optimizer": {"kind": "msam"}}, {"optimizer": {"kind": "msam_branch"}},
                {"optimizer": {"kind": "sgd"}, "comparison": ["sgd", "msam"]}):
        with pytest.raises(ConfigError, match="at most 8"):
            resolve_config({"data": nine, **raw})


@pytest.mark.parametrize("raw, path", [
    ({"model": {"bias": "false"}}, "model.bias"),
    ({"epochs": 2.7}, "epochs"),
    ({"data": {"dims": "66"}}, "data.dims"),
    ({"data": {"dims": None}}, "data.dims"),
    ({"data": {"dims": [6, 6.0]}}, r"data.dims\[1\]"),
    ({"model": {"hidden": ["16"]}}, r"model.hidden\[0\]"),
    ({"model": {"hidden": ["x"]}}, r"model.hidden\[0\]"),
    ({"model": {"hidden": [{"a": 1}]}}, r"model.hidden\[0\]"),
    ({"model": {"hidden": [[8], [True]]}}, r"model.hidden\[1\]\[0\]"),
    ({"seed": True}, "seed"),
    ({"optimizer": {"lr": "0.1"}}, "optimizer.lr"),
    ({"optimizer": {"lr": True}}, "optimizer.lr"),
    ({"optimizer": {"lr": 10**400}}, "optimizer.lr"),
    ({"data": {"classes": 3.9}}, "data.classes"),
    ({"data": {"snr": "21"}}, "data.snr"),
    ({"data": {"snr": [2.0, "1"]}}, r"data.snr\[1\]"),
    ({"model": {"width": True}}, "model.width"),
    ({"model": {"activation": 1}}, "model.activation"),
    ({"optimizer": {"schedule": {"period": 1.5}}}, "optimizer.schedule.period"),
    ({"optimizer": {"schedule": {"period": 0}}}, "optimizer.schedule.period"),
    ({"comparison": [1]}, r"comparison\[0\]"),
    ({"optimizer": {"schedule": []}}, "'optimizer.schedule' must be a JSON object"),
    ([1, 2], "top-level config must be a JSON object"),
    ({"data": {"classes": 1}}, "data.classes"),
    ({"data": {"dims": []}}, "data.dims"),
    ({"data": {"dims": [6, 0]}}, "data.dims"),
    ({"data": {"snr": [2.0, float("nan")]}}, "data.snr"),
    ({"data": {"n_val": 0}}, "data.n_val"),
    ({"model": {"hidden": [[8], [0]]}}, "model.hidden"),
    ({"model": {"activation": "sigmoid"}}, "model.activation"),
    ({"model": {"fusion": "x"}}, "model.fusion"),
    ({"model": {"width": 0}}, "model.width"),
    ({"model": {"fusion": "early", "pieces": 1}}, "model.pieces"),
    ({"optimizer": {"kind": "adam"}}, "optimizer.kind"),
    ({"optimizer": {"lr": 0}}, "optimizer.lr"),
    ({"optimizer": {"lr": float("inf")}}, "optimizer.lr"),
    ({"optimizer": {"momentum": 1.0}}, "optimizer.momentum"),
    ({"optimizer": {"weight_decay": -1e-4}}, "optimizer.weight_decay"),
    ({"optimizer": {"rho": float("nan")}}, "optimizer.rho"),
    ({"optimizer": {"schedule": {"kind": "cosine"}}}, "optimizer.schedule.kind"),
    ({"optimizer": {"schedule": {"factor": 2.0}}}, "optimizer.schedule.factor"),
    ({"optimizer": {"shapley_every": 0}}, "optimizer.shapley_every"),
    ({"optimizer": {"shapley_target": "f1"}}, "optimizer.shapley_target"),
    ({"optimizer": {"shapley_variant": "x"}}, "optimizer.shapley_variant"),
    ({"data": {"dims": [6, 6, 6]}}, "data.snr has 2 entries for 3 modalities$"),
    ({"optimizer": {"schedule": {"period": -1, "period_unit": "epochs"}}},
     "optimizer.schedule.period must be >= 1, got -1$"),
    ({"model": {"fusion": "early"}, "optimizer": {"kind": "msam_branch"}}, "optimizer.kind"),
    ({"model": {"fusion": "early"}, "comparison": ["sgd", "msam_branch"]}, "comparison"),
])
def test_resolve_rejects_wrong_types_naming_the_path(raw, path):
    with pytest.raises(ConfigError, match=f"^{path}"):
        resolve_config(raw)


def test_readme_error_examples_match_resolve_config():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    for raw, message in [
        ({"model": {"hidden": ["x"]}}, "model.hidden[0] must be an integer, got 'x'"),
        ({"optimizer": {"schedule": {"period": 0}}}, "optimizer.schedule.period must be >= 1, got 0"),
        ({"model": {"fusion": "x"}}, "model.fusion must be one of ('early', 'late'), got 'x'"),
        ({"data": {"dims": [6, 6, 6]}}, "data.snr has 2 entries for 3 modalities"),
    ]:
        assert f"`{message}`" in text
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert str(err.value) == message


def test_readme_defaults_match_schema():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("## Configuration"):]
    block = section[section.index("```json") + len("```json"):section.index("```\n\n")]
    defaults = harness._nest({path: default for path, _type, default, _check in harness._SCHEMA})
    assert json.loads(block) == defaults


def test_resolve_per_modality_hidden():
    cfg = resolve_config({"model": {"hidden": [[8], [4, 4]]}})
    assert cfg.encoders[0].hidden == (8,)
    assert cfg.encoders[1].hidden == (4, 4)
    with pytest.raises(ConfigError):
        resolve_config({"model": {"hidden": [[8]]}})  # 1 list for 2 modalities


def test_resolve_branch_variant_needs_late_fusion():
    with pytest.raises(ConfigError):
        resolve_config({"model": {"fusion": "early"}, "optimizer": {"kind": "msam_branch"}})
    with pytest.raises(ConfigError):
        resolve_config({"model": {"fusion": "early"}, "comparison": ["msam_branch"]})


def test_schedule_period_in_epochs_converts_to_steps():
    raw = tiny_raw()
    raw["optimizer"]["schedule"] = {"kind": "step_decay", "period": 2, "period_unit": "epochs"}
    cfg = resolve_config(raw)
    assert cfg.steps_per_epoch == 3
    assert cfg.optimizer.schedule.period == 6
    canon = cfg.canonical()
    assert canon["optimizer"]["schedule"] == {
        "kind": "step_decay", "factor": 0.1, "period": 6, "period_unit": "steps"}
    with pytest.raises(ConfigError):
        resolve_config({"optimizer": {"schedule": {"period_unit": "minutes"}}})


def test_canonical_round_trips():
    cfg = resolve_config(tiny_raw())
    again = resolve_config(cfg.canonical())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_semantics(tmp_path):
    a = resolve_config(tiny_raw())
    # key order cannot matter: json round-trip with sorted keys
    shuffled = json.loads(json.dumps(tiny_raw(), sort_keys=True))
    assert config_hash(resolve_config(shuffled)) == config_hash(a)
    # out_dir does not participate
    with_dir = resolve_config(tiny_raw(out_dir=str(tmp_path / "x")))
    assert config_hash(with_dir) == config_hash(a)
    # any semantic change does
    raw = tiny_raw()
    raw["optimizer"]["lr"] = 0.06
    assert config_hash(resolve_config(raw)) != config_hash(a)
    assert config_hash(resolve_config(tiny_raw(seed=1))) != config_hash(a)


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_raw()))
    assert resolve_config(read_json(path)) == resolve_config(tiny_raw())
    with pytest.raises(ConfigError, match="not found"):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        read_json(bad)
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="bad.json is not valid JSON"):
        read_json(bad)


@pytest.mark.parametrize("text, key", [
    ('{"epochs": 1, "epochs": 2}', "epochs"),
    ('{"data": {"n_train": 32, "n_val": 8, "n_train": 16}}', "n_train"),
])
def test_a_repeated_json_key_is_a_config_error(tmp_path, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        read_json(path)
    assert str(err.value) == f"config file {path} repeats the key {key!r}"


# ------------------------------------------------------------------------ runs


def test_run_is_deterministic():
    a = run(resolve_config(tiny_raw()))
    b = run(resolve_config(tiny_raw()))
    assert_array_equal(a.final_params, b.final_params)
    assert [r.loss for r in a.steps] == [r.loss for r in b.steps]
    assert a.records[-1].acc == b.records[-1].acc
    c = run(resolve_config(tiny_raw(seed=1)))
    assert not np.array_equal(a.final_params, c.final_params)


def test_run_structure_and_budget():
    cfg = resolve_config(tiny_raw())
    rec = run(cfg)
    assert len(rec.steps) == cfg.epochs * cfg.steps_per_epoch == 6
    assert len(rec.records) == 2  # eval_every defaults to 1
    assert rec.convergence is not None
    assert not rec.stopped_early
    # msam with rho > 0: two taped passes per step, 2^M - 1 masked forwards
    # per Shapley recompute plus one per split/modality evaluation pass
    assert rec.model.counters["taped"] == 2 * len(rec.steps)


def test_run_eval_every_keeps_last_epoch():
    rec = run(resolve_config(tiny_raw(epochs=5, eval_every=2)))
    assert [r.epoch for r in rec.records] == [1, 3, 4]


def test_sam_pass_budget():
    raw = tiny_raw()
    raw["optimizer"].update(kind="sam")
    rec = run(resolve_config(raw))
    assert rec.model.counters["taped"] == 2 * len(rec.steps)


def test_sgd_pass_budget():
    raw = tiny_raw()
    raw["optimizer"].update(kind="sgd")
    rec = run(resolve_config(raw))
    assert rec.model.counters["taped"] == len(rec.steps)


@pytest.mark.parametrize("kind", ["msam", "msam_branch"])
@pytest.mark.parametrize("target", ["loss", "accuracy"])
def test_msam_pass_budget_per_shapley_target(kind, target):
    raw = tiny_raw(epochs=1)
    raw["optimizer"].update(kind=kind, shapley_target=target)
    cfg = resolve_config(raw)
    rec = run(cfg)  # asserts the budget after every step
    assert len(rec.steps) == 3 and all(s.shapley_recomputed for s in rec.steps)
    # a step that spent no passes at all is still caught
    counters = rec.model.counters
    with pytest.raises(MsamError, match="pass budget violated"):
        harness._assert_pass_budget(rec.model, cfg.optimizer, rec.steps[-1],
                                    counters["taped"], counters["masked_forward"])


def test_epoch_record_reads_one_partial_cache_per_split(monkeypatch):
    """At M = 8 one eval epoch runs each split's branches twice (inputs and
    zeros), not M + 1 full forwards per split, counts 3 * (M + 1) masked
    forwards and gives the uncached forwards' numbers."""
    raw = tiny_raw(data={"classes": 3, "dims": [2] * 8, "snr": [1.0] * 8,
                         "n_train": 16, "n_val": 8, "n_test": 8},
                   model={"hidden": [3], "fusion": "late", "width": 3})
    cfg = resolve_config(raw)
    model, splits = harness._new_model(cfg), harness.generate(cfg.data)
    report = harness.StepReport(t=0, loss=1.0, grad_norm=1.0, eps_norm=0.0, lr=0.1, rho=0.0)
    calls = []
    branches = harness.MultimodalModel._branches

    def counted(self, *args):
        calls.append(len(args[0][0]))
        return branches(self, *args)

    monkeypatch.setattr(harness.MultimodalModel, "_branches", counted)
    masked0 = model.counters["masked_forward"]
    rec = harness._epoch_record(model, splits, 0, [report])
    assert calls == [ds.n for ds in splits for _ in range(2)]
    assert model.counters["masked_forward"] - masked0 == 3 * 9
    for ds in splits:
        assert (rec.loss[ds.split], rec.acc[ds.split]) == harness.evaluate(
            model, ds.modalities, ds.labels)
        assert rec.mono_acc[ds.split] == tuple(
            harness.mono_modal_accuracy(model, ds.modalities, ds.labels, m) for m in range(8))


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "run1"
    cfg = resolve_config(tiny_raw(out_dir=str(out)))
    rec = run(cfg)
    for name in ("config.json", "metrics.csv", "steps.csv", "params.npz", "run_summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["n_steps"] == len(rec.steps)
    assert summary["epochs_run"] == 2
    saved_cfg = json.loads((out / "config.json").read_text())
    assert saved_cfg["out_dir"] == str(out)
    assert resolve_config(saved_cfg) == replace(cfg, out_dir=str(out))


def test_metrics_csv_is_byte_identical_across_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(resolve_config(tiny_raw(out_dir=str(out_a))))
    run(resolve_config(tiny_raw(out_dir=str(out_b))))
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()


def test_metrics_csv_shape(tmp_path):
    out = tmp_path / "run"
    cfg = resolve_config(tiny_raw(out_dir=str(out)))
    run(cfg)
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["epoch", "split", "loss", "acc", "tau"]
    assert "acc_m1" in header and "nu_m2" in header
    assert len(lines) == 1 + 3 * 2  # header + splits x evaluated epochs


def test_load_checkpoint_round_trip(tmp_path):
    out = tmp_path / "run"
    cfg = resolve_config(tiny_raw(out_dir=str(out)))
    rec = run(cfg)
    cfg2, model2, splits2 = load_checkpoint(out)
    assert replace(cfg2, out_dir=None) == replace(cfg, out_dir=None)
    assert_array_equal(model2.params.flatten(), rec.final_params)
    for a, b in zip(rec.datasets, splits2):
        assert_array_equal(a.labels, b.labels)
        for xa, xb in zip(a.modalities, b.modalities):
            assert_array_equal(xa, xb)
    with pytest.raises(ConfigError, match="checkpoint"):
        load_checkpoint(tmp_path / "nope")


def test_early_stopping_on_rising_val_loss():
    raw = {"seed": 0, "epochs": 40, "eval_every": 1, "early_stop_patience": 2,
           "data": {"n_train": 64, "n_val": 32, "n_test": 32},
           "optimizer": {"kind": "sgd", "lr": 1.0, "momentum": 0.0, "weight_decay": 0.0}}
    rec = run(resolve_config(raw))
    assert rec.stopped_early
    assert len(rec.records) < 40
    # patience counts evaluations without a new best validation loss
    val = [r.loss["val"] for r in rec.records]
    assert min(val) < val[-1]


def test_divergent_run_aborts_with_iteration():
    raw = {"seed": 0, "epochs": 10,
           "data": {"n_train": 64, "n_val": 32, "n_test": 32},
           "optimizer": {"kind": "sgd", "lr": 1e4, "momentum": 0.9, "weight_decay": 0.0}}
    with pytest.raises(NumericError, match="iteration"):
        run(resolve_config(raw))


def test_compare_runs_each_kind(tmp_path):
    raw = tiny_raw(out_dir=str(tmp_path / "cmp"), comparison=["sgd", "sam"])
    out = compare(resolve_config(raw))
    assert sorted(out) == ["sam", "sgd"]
    assert (tmp_path / "cmp" / "sgd" / "metrics.csv").exists()
    assert (tmp_path / "cmp" / "sam" / "metrics.csv").exists()
    assert not np.array_equal(out["sgd"].final_params, out["sam"].final_params)
    # same seed means both kinds trained on bitwise-identical data
    assert_array_equal(out["sgd"].datasets[0].modalities[0],
                       out["sam"].datasets[0].modalities[0])


# --------------------------------------------------------------------- presets


def test_preset_names_and_overrides():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("fastest")
    raw = preset("dominance", seed=3, optimizer={"kind": "sgd"})
    assert raw["seed"] == 3
    assert raw["optimizer"]["kind"] == "sgd"
    # section merge keeps the preset's other optimizer knobs
    assert raw["optimizer"]["rho"] == 0.5
    assert preset("dominance")["optimizer"]["kind"] == "msam"


@pytest.mark.parametrize("name", sorted(harness._PRESETS))
def test_presets_resolve(name):
    cfg = resolve_config(preset(name))
    assert cfg.epochs >= 1


# --------------------------------------------------------------------- writers


def text_writes(source: str) -> list[str]:
    """`function: call` for every text-file write in `source`: an `open` with
    a constant text write mode, a `.write_text` or a `json.dump`. Binary
    modes are outside the scan."""
    found = []

    def is_text_write_mode(arg):
        return (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and re.fullmatch(r"[rwxabt+]+", arg.value) is not None
                and bool(set(arg.value) & set("wax+")) and "b" not in arg.value)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                modes = [*child.args, *(k.value for k in child.keywords if k.arg == "mode")]
                if ((name == "open" and any(map(is_text_write_mode, modes)))
                        or name == "write_text"
                        or (name == "dump" and getattr(f.value, "id", "") == "json")):
                    found.append(f"{where}: {name}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return found


def test_text_write_scan_flags_only_text_writes():
    source = ("import json\n"
              "def a(p):\n    with open(p, 'w', newline='') as fh: json.dump({}, fh)\n"
              "def b(p):\n    p.write_text('x')\n    p.open(mode='a+')\n"
              "def c(p, zf):\n    open(p, 'wb'); open(p); p.open('rb'); zf.open(p); json.dumps({})\n"
              "open('log', 'x')\n")
    assert text_writes(source) == ["a: open", "a: dump", "b: write_text", "b: open",
                                   "<module>: open"]


def test_only_the_writers_write_text_files():
    """Every text file msam writes goes through `write_csv` or `write_json`,
    so how a file is opened and filled is decided in one place each."""
    src = Path(harness.__file__).parent
    found = [f"{path.name} {hit}" for path in sorted(src.glob("*.py"))
             for hit in text_writes(path.read_text())]
    assert found == ["harness.py write_csv: open", "harness.py write_json: write_text"]
