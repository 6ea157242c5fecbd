"""Command-line interface tests.

Every command is invoked through `main(argv)` in-process; exit codes follow
the contract 0 = success, 1 = config/flag/path problems, 2 = numeric failure.
"""

import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest

from msam import cli, harness
from msam.cli import main
from msam.data import load_dataset

# the data section of the small configs that `export-data` tests write
DATA = {"classes": 3, "dims": [4, 3], "snr": [2.0, 0.5], "n_train": 20, "n_val": 10, "n_test": 10}


def write_config(tmp_path, name="cfg.json", **kw):
    raw = {
        "seed": 0,
        "epochs": 2,
        "batch_size": 8,
        "data": {"classes": 3, "dims": [4, 3], "snr": [2.0, 0.5],
                 "n_train": 24, "n_val": 12, "n_test": 12},
        "model": {"hidden": [6], "width": 4},
        "optimizer": {"kind": "msam", "lr": 0.05, "momentum": 0.9, "rho": 0.1},
    }
    raw.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path, raw


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """One finished training run used by the diagnostics commands."""
    out = tmp_path_factory.mktemp("ckpt") / "run"
    path, _ = write_config(out.parent, out_dir=str(out))
    assert main(["train", "--config", str(path)]) == 0
    return out


# ----------------------------------------------------------------------- train


def test_train_config_file(tmp_path, capsys):
    out = tmp_path / "run"
    path, _ = write_config(tmp_path, out_dir=str(out))
    assert main(["train", "--config", str(path)]) == 0
    got = capsys.readouterr().out
    assert "msam:" in got and "train_acc=" in got and str(out) in got
    assert (out / "metrics.csv").exists()


def test_train_preset_with_seed(capsys):
    assert main(["train", "--preset", "default", "--seed", "1"]) == 0
    assert "msam:" in capsys.readouterr().out


def test_train_comparison_prints_each_kind(tmp_path, capsys):
    path, _ = write_config(tmp_path, comparison=["sgd", "msam"])
    assert main(["train", "--config", str(path)]) == 0
    got = capsys.readouterr().out
    assert "sgd:" in got and "msam:" in got


def test_train_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["train", "--config", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("section, value, path", [
    ("model", {"hidden": ["x"]}, "model.hidden[0]"),
    ("data", {"dims": None}, "data.dims"),
    ("seed", True, "seed"),
])
def test_train_config_type_errors_exit_1(tmp_path, capsys, section, value, path):
    cfg, _ = write_config(tmp_path, **{section: value})
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} must be ") and "Traceback" not in err


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(-2**64 + 1)])
def test_out_of_range_seeds_exit_1(tmp_path, capsys, checkpoint, seed):
    # a stream reads its seed mod 2**64, so -1 would silently alias 2**64 - 1
    out = tmp_path / "run"
    assert main(["train", "--preset", "default", "--seed", seed, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert not out.exists()
    assert main(["landscape", "--checkpoint", str(checkpoint), "--seed", seed, "--tag", "s"]) == 1
    assert capsys.readouterr().err == f"error: --seed must be in [0, 2**64), got {seed}\n"
    assert not (checkpoint / "landscape_s.csv").exists()
    cfg, _ = write_config(tmp_path, seed=int(seed))
    assert main(["export-data", "--config", str(cfg), "--out", str(tmp_path / "x.bin")]) == 1
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"


def test_train_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 1
    assert capsys.readouterr().err == "error: top-level config must be a JSON object, got [1, 2]\n"


def test_train_config_and_preset_conflict(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(path), "--preset", "default"]) == 1
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("n_train", [2**64, 2**62])
def test_train_sizes_no_array_can_hold_exit_1(tmp_path, capsys, n_train):
    # the draw is refused before numpy is asked for anything
    path, _ = write_config(tmp_path, epochs=1, data={"n_train": n_train})
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: out of memory: a draw of {n_train} values "
                                       f"does not fit in memory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_train_a_shape_the_dataset_file_cannot_hold_exits_1(tmp_path, capsys, monkeypatch):
    # refused by the config, before any draw, like every other bad data value
    monkeypatch.setattr(harness, "generate", _never_called)
    path, _ = write_config(tmp_path, epochs=1, data={**DATA, "classes": 2**32 + 1})
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("error: data.classes must fit in a u32 field of the "
                                       "dataset file (below 2**32), got 4294967297\n")


@pytest.mark.parametrize("command", ["train", "export-data"])
def test_a_failed_allocation_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # data.classes 2**31 with dims [6, 6] asks numpy for 96 GiB of prototypes;
    # numpy's MemoryError is raised here in place of that request
    def refuse(spec):
        raise MemoryError("Unable to allocate 96.0 GiB for an array with shape (12884901888,) "
                          "and data type uint64")

    monkeypatch.setattr(harness, "generate", refuse)
    monkeypatch.setattr(cli, "generate", refuse)
    path, _ = write_config(tmp_path, epochs=1, data={"classes": 2**31})
    argv = {"train": ["train", "--config", str(path)],
            "export-data": ["export-data", "--config", str(path), "--out", str(tmp_path / "x.bin")]}
    assert main(argv[command]) == 1
    assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 96.0 GiB for an "
                                       "array with shape (12884901888,) and data type uint64\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_train_divergence_exits_2(tmp_path, capsys):
    path, _ = write_config(
        tmp_path,
        epochs=10,
        batch_size=32,
        data={"classes": 3, "dims": [6, 6], "snr": [2.0, 1.0],
              "n_train": 64, "n_val": 32, "n_test": 32},
        model={"hidden": [16], "width": 8},
        optimizer={"kind": "sgd", "lr": 1e4, "momentum": 0.9, "weight_decay": 0.0},
    )
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numeric error" in err and "iteration" in err


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as e:
        main(["train", "--qux"])
    assert e.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as e:
        main(["tune"])
    assert e.value.code == 1


# ------------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_prints(capsys):
    assert main(["gradcheck", "--preset", "default"]) == 0
    assert capsys.readouterr().out == ("gradcheck: max_rel_err=1.775e-11 worst_coord=217 "
                                       "checked=100 h=1e-05 tol=0.0001 PASS\n")


def test_gradcheck_impossible_tol_exits_2(capsys):
    assert main(["gradcheck", "--preset", "default", "--tol", "1e-16"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "numeric error" in captured.err


def test_gradcheck_rejects_bad_h(capsys):
    assert main(["gradcheck", "--preset", "default", "--h", "0.5"]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--coords", "0"), ("--coords", "-3"), ("--tol", "nan"), ("--tol", "-1")])
def test_gradcheck_rejects_bad_coords_and_tol(flag, value, capsys):
    assert main(["gradcheck", "--preset", "default", flag, value]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["landscape", "--radius", "nan"], "--radius must be finite and >= 0, got nan"),
    (["landscape", "--res", "2"], "--res must be an odd number >= 3, got 2"),
    (["gradcheck", "--h", "0"], "--h must be in (0, 1e-2], got 0.0"),
    (["gradcheck", "--tol", "-1"], "--tol must be finite and >= 0, got -1.0"),
    (["gradcheck", "--coords", "0"], "--coords must be >= 1, got 0"),
])
def test_flag_errors_name_the_flag(checkpoint, capsys, argv, message):
    where = ["--checkpoint", str(checkpoint)] if argv[0] == "landscape" else ["--preset", "default"]
    assert main([argv[0], *where, *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ------------------------------------------------------------------- landscape


def test_landscape_writes_grid(checkpoint, capsys):
    assert main(["landscape", "--checkpoint", str(checkpoint),
                 "--radius", "0.5", "--res", "5", "--tag", "t"]) == 0
    assert "center loss" in capsys.readouterr().out
    rows = (checkpoint / "landscape_t.csv").read_text().strip().split("\n")
    assert len(rows) == 6  # header + res
    assert len(rows[1].split(",")) == 6
    sidecar = json.loads((checkpoint / "landscape_t.json").read_text())
    assert sidecar["resolution"] == 5 and sidecar["radius"] == 0.5
    assert np.isfinite(sidecar["center_loss"])


def test_landscape_validation(checkpoint, tmp_path, capsys):
    for radius in ("-1", "nan", "inf"):
        assert main(["landscape", "--checkpoint", str(checkpoint), "--radius", radius]) == 1
        assert "error: --radius must be finite and >= 0" in capsys.readouterr().err
    assert main(["landscape", "--checkpoint", str(tmp_path / "empty")]) == 1
    assert main(["landscape", "--checkpoint", str(checkpoint), "--res", "4"]) == 1


def test_landscape_radius_beyond_the_float_range_names_the_flag(checkpoint, capsys):
    # the grid's corners overflow, which the parameter buffer would reject
    assert main(["landscape", "--checkpoint", str(checkpoint), "--radius", "1e308",
                 "--res", "3", "--tag", "r"]) == 2
    assert capsys.readouterr().err == (
        "numeric error: --radius 1e+308 takes the grid outside the finite float range\n")
    assert not (checkpoint / "landscape_r.csv").exists()


# ---------------------------------------------------------------------- audit


def test_audit_standard_satisfies_efficiency(checkpoint, capsys):
    assert main(["shapley-audit", "--checkpoint", str(checkpoint)]) == 0
    assert capsys.readouterr().out == (
        "shapley-audit: variant=standard target=loss dominant=m1 nu=[0.8761, 0.1239] "
        f"efficiency_ok=true -> {checkpoint / 'shapley_audit.csv'}\n")
    text = (checkpoint / "shapley_audit.csv").read_text()
    assert "coalition,m1+m2" in text
    assert "dominant," in text


def test_audit_paper_variant_differs_and_breaks_efficiency(checkpoint, tmp_path, capsys):
    std_out = tmp_path / "std.csv"
    pap_out = tmp_path / "pap.csv"
    assert main(["shapley-audit", "--checkpoint", str(checkpoint),
                 "--out", str(std_out)]) == 0
    assert main(["shapley-audit", "--checkpoint", str(checkpoint),
                 "--variant", "paper", "--out", str(pap_out)]) == 0
    assert capsys.readouterr().out == (
        "shapley-audit: variant=standard target=loss dominant=m1 nu=[0.8761, 0.1239] "
        f"efficiency_ok=true -> {std_out}\n"
        "shapley-audit: variant=paper target=loss dominant=m1 nu=[0.8911, 0.1089] "
        f"efficiency_ok=false -> {pap_out}\n")
    assert std_out.read_text() != pap_out.read_text()


def test_audit_batch_out_of_range(checkpoint, capsys):
    assert main(["shapley-audit", "--checkpoint", str(checkpoint), "--batch", "99"]) == 1
    assert "--batch" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    "directory", "empty", "garbage", "npy", "object", "text", "nan", "truncated", "compressed"])
def test_audit_rejects_a_damaged_params_file(checkpoint, tmp_path, capsys, damage):
    run = tmp_path / "run"
    shutil.copytree(checkpoint, run)
    npz = run / "params.npz"
    with np.load(npz) as f:
        arrays = dict(f)
    first = next(iter(arrays))
    if damage == "directory":
        npz.unlink()
        npz.mkdir()
    elif damage == "empty":
        npz.write_bytes(b"")
    elif damage == "garbage":
        npz.write_bytes(b"not a parameter file")
    elif damage == "npy":
        with open(npz, "wb") as fh:
            np.save(fh, arrays[first])
    elif damage == "object":
        arrays[first] = arrays[first].astype(object)
        np.savez(npz, **arrays)
    elif damage == "text":
        arrays[first] = arrays[first].astype(str)
        np.savez(npz, **arrays)
    elif damage == "nan":
        arrays[first].flat[0] = np.nan
        np.savez(npz, **arrays)
    elif damage == "truncated":
        npz.write_bytes(npz.read_bytes()[:100])
    else:  # flip bytes inside the first member's deflated data
        np.savez_compressed(npz, **arrays)
        raw = bytearray(npz.read_bytes())
        raw[80:120] = bytes(b ^ 0x5A for b in raw[80:120])
        npz.write_bytes(bytes(raw))
    assert main(["shapley-audit", "--checkpoint", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(npz) in err and "Traceback" not in err


# ----------------------------------------------------------------- convergence


def test_convergence_on_run_dir(checkpoint, capsys):
    assert main(["convergence", "--run", str(checkpoint), "--calibrate-at", "2"]) == 0
    got = capsys.readouterr().out
    assert "avg@2=" in got and "C=" in got
    rows = (checkpoint / "convergence.csv").read_text().strip().split("\n")
    assert rows[0] == "t,grad_sq_norm,running_avg,bound"
    assert len(rows) == 1 + 6  # 2 epochs x 3 steps
    t, sq, avg, bound = rows[1].split(",")
    assert t == "1" and float(sq) >= 0 and float(avg) >= 0 and np.isfinite(float(bound))


@pytest.mark.parametrize("value", ["1", "7"])
def test_convergence_names_the_calibrate_at_flag(checkpoint, capsys, value):
    assert main(["convergence", "--run", str(checkpoint), "--calibrate-at", value]) == 1
    assert capsys.readouterr().err == f"error: --calibrate-at must be in [2, 6], got {value}\n"


def test_convergence_needs_steps_csv(tmp_path, capsys):
    assert main(["convergence", "--run", str(tmp_path)]) == 1
    assert "steps.csv" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("t,grad_norm\n1,0.5\n2,abc\n", "line 3: grad_norm 'abc' is not a number"),
    ("t,grad_norm\n1,0.5\n2\n", "line 3: grad_norm None is not a number"),
    ("t,grad_norm\n1,0.5\n2,1_0\n", "line 3: grad_norm '1_0' is not a number"),
    ("t,grad_norm\n1, 2 \n2,0.5\n", "line 2: grad_norm ' 2 ' is not a number"),
    ("t,loss\n1,0.5\n", "has no grad_norm column"),
    ("", "has no grad_norm column"),
    (b"t,grad_norm\n1,0.5\xff\n", "is not UTF-8 text"),
    ("t,grad_norm\n1,0.5\n2,nan\n", "line 3: grad_norm 'nan' must be finite and >= 0"),
    ("t,grad_norm\n1,0.5\n2,inf\n", "line 3: grad_norm 'inf' must be finite and >= 0"),
    ("t,grad_norm\n1,-1\n2,0.5\n", "line 2: grad_norm '-1' must be finite and >= 0"),
    ("t,grad_norm\n", "holds 0 grad_norm rows, need at least 2"),
    ("t,grad_norm\n1,0.5\n", "holds 1 grad_norm rows, need at least 2"),
])
def test_convergence_rejects_a_damaged_steps_csv(tmp_path, capsys, text, message):
    (tmp_path / "steps.csv").write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["convergence", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "steps.csv") in err and message in err


def test_convergence_rejects_norms_whose_squares_overflow(tmp_path, capsys):
    (tmp_path / "steps.csv").write_text("t,grad_norm\n1,1e200\n2,1e200\n3,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy must not warn on the way
        assert main(["convergence", "--run", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("numeric error: step 1: squared gradient norm inf "
                                       "is not finite (the gradient norms overflow float64 "
                                       "once squared)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["steps.csv"]


# --------------------------------------------------------------- output paths


def _never_called(*args, **kwargs):
    raise AssertionError("the work ran before the output path was checked")


@pytest.mark.parametrize("command", ["export-data", "shapley-audit", "landscape", "train",
                                     "shapley-audit:dir", "landscape:csv-dir",
                                     "landscape:json-dir"])
def test_unwritable_output_path_exits_1(tmp_path, checkpoint, capsys, monkeypatch, command):
    for module, name in (("msam.harness", "train_step"), ("msam.cli", "landscape_grid"),
                         ("msam.cli", "attribute_batch"), ("msam.cli", "generate")):
        monkeypatch.setattr(f"{module}.{name}", _never_called)
    cfg, _ = write_config(tmp_path)
    (tmp_path / "file").write_text("")
    # a copy of the checkpoint whose output paths are existing directories
    run = tmp_path / "run"
    shutil.copytree(checkpoint, run)
    for name in ("audit.csv", "landscape_c.csv", "landscape_j.json"):
        (run / name).mkdir()
    argv = {
        "export-data": ["--config", str(cfg), "--out", str(tmp_path / "missing" / "x.bin")],
        "shapley-audit": ["--checkpoint", str(checkpoint),
                          "--out", str(tmp_path / "missing" / "a.csv")],
        "landscape": ["--checkpoint", str(checkpoint), "--res", "3", "--tag", "a/b"],
        "train": ["--config", str(cfg), "--out-dir", str(tmp_path / "file" / "x")],
        "shapley-audit:dir": ["--checkpoint", str(run), "--out", str(run / "audit.csv")],
        "landscape:csv-dir": ["--checkpoint", str(run), "--res", "3", "--tag", "c"],
        "landscape:json-dir": ["--checkpoint", str(run), "--res", "3", "--tag", "j"],
    }[command]
    before = sorted(tmp_path.rglob("*")) + sorted(checkpoint.rglob("*"))
    assert main([command.split(":")[0], *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if command.endswith("dir"):
        assert "Is a directory" in err
    assert sorted(tmp_path.rglob("*")) + sorted(checkpoint.rglob("*")) == before


@pytest.mark.parametrize("argv, message", [
    (["train", "--config", "given.json", "--out-dir", ""], "--out-dir must not be empty"),
    (["train", "--config", "empty.json"], "out_dir must not be empty, got ''"),
    (["shapley-audit", "--checkpoint", "run", "--out", ""], "--out must not be empty"),
], ids=["train --out-dir", "config out_dir", "shapley-audit --out"])
def test_an_empty_output_path_exits_1_and_writes_nothing(tmp_path, checkpoint, capsys,
                                                         monkeypatch, argv, message):
    write_config(tmp_path, "given.json", out_dir=str(tmp_path / "out"))
    write_config(tmp_path, "empty.json", out_dir="")
    shutil.copytree(checkpoint, tmp_path / "run")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


# every string flag but `train --out-dir` and `shapley-audit --out`, which
# the test above covers
EMPTY_FLAGS = {
    "train --config": ["train", "--config", ""],
    "train --preset": ["train", "--preset", ""],
    "gradcheck --config": ["gradcheck", "--config", ""],
    "gradcheck --preset": ["gradcheck", "--preset", ""],
    "landscape --checkpoint": ["landscape", "--checkpoint", "", "--res", "3"],
    "landscape --tag": ["landscape", "--checkpoint", ".", "--res", "3", "--tag", ""],
    "shapley-audit --checkpoint": ["shapley-audit", "--checkpoint", ""],
    "convergence --run": ["convergence", "--run", ""],
    "export-data --config": ["export-data", "--config", "", "--out", "data.bin"],
    "export-data --out": ["export-data", "--config", "config.json", "--out", ""],
}


@pytest.mark.parametrize("argv", EMPTY_FLAGS.values(), ids=EMPTY_FLAGS.keys())
def test_an_empty_flag_value_exits_1_and_writes_nothing(tmp_path, checkpoint, capsys,
                                                       monkeypatch, argv):
    # run from a copy of a run directory, which an empty path would name
    run = tmp_path / "run"
    shutil.copytree(checkpoint, run)
    monkeypatch.chdir(run)

    def files():
        return {path: path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")}

    before = files()
    assert main(argv) == 1
    flag = argv[argv.index("") - 1]
    assert capsys.readouterr() == ("", f"error: {flag} must not be empty\n")
    assert files() == before


def test_unwritable_output_error_names_the_requested_path(tmp_path, checkpoint, capsys):
    out = tmp_path / "missing" / "a.csv"
    assert main(["shapley-audit", "--checkpoint", str(checkpoint), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert main(["landscape", "--checkpoint", str(checkpoint), "--res", "3", "--tag", "a/b"]) == 1
    out = checkpoint / "landscape_a" / "b.csv"
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


# ----------------------------------------------------------------- export-data


def test_export_data_round_trips(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "data": DATA}))
    out = tmp_path / "data.bin"
    assert main(["export-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"export-data: wrote {out} (train=20, val=10, test=10)\n"
    (classes, dims), splits = load_dataset(out)
    assert classes == 3 and dims == (4, 3)
    assert [ds.n for ds in splits] == [20, 10, 10]
    # the bytes that the same seed and data section have always exported
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9967fad8cc872fa02ba71022053902d0cb396fb7f03d2303ccee3b2cee69a625")


def test_export_data_writes_the_data_a_run_trained_on(tmp_path):
    _, raw = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "run"))
    record = harness.run(harness.resolve_config(raw))
    out = tmp_path / "data.bin"
    assert main(["export-data", "--config", str(tmp_path / "run" / "config.json"),
                 "--out", str(out)]) == 0
    _, splits = load_dataset(out)
    for got, want in zip(splits, record.datasets, strict=True):
        assert got.split == want.split
        assert [x.tobytes() for x in got.modalities] == [x.tobytes() for x in want.modalities]
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()


def test_export_data_of_nine_modalities_needs_a_kind_without_attribution(tmp_path, capsys):
    # the whole config resolves, and the default kind msam attributes at most 8
    data = {**DATA, "dims": [2] * 9, "snr": [1.0] * 9}
    cfg, _ = write_config(tmp_path, data=data, optimizer={})
    out = tmp_path / "x.bin"
    assert main(["export-data", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: optimizer.kind msam attributes at most 8 modalities, data has 9\n")
    assert not out.exists()
    cfg, _ = write_config(tmp_path, data=data, optimizer={"kind": "sgd"})
    assert main(["export-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_dataset(out)[0] == (3, (2,) * 9)


def test_export_data_validation(tmp_path, capsys):
    missing = tmp_path / "no.json"
    assert main(["export-data", "--config", str(missing), "--out", str(tmp_path / "x.bin")]) == 1
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"data": {**DATA, "fraction": 0.5}}))
    assert main(["export-data", "--config", str(extra), "--out", str(tmp_path / "x.bin")]) == 1
    assert capsys.readouterr().err == "error: unknown keys in 'data': ['fraction']\n"
    assert not (tmp_path / "x.bin").exists()


def test_export_data_rejects_a_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 7, "data": {"classes": 3, "dims": [4, 3], "snr": [2.0, 0.5], '
                   '"n_train": 20, "n_val": 10, "n_test": 10, "classes": 4}}')
    assert main(["export-data", "--config", str(cfg), "--out", str(tmp_path / "x.bin")]) == 1
    assert capsys.readouterr().err == f"error: config file {cfg} repeats the key 'classes'\n"
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("spec, message", [
    ({"classes": "abc"}, "classes must be an integer, got 'abc'"),
    ({"n_train": 4.5}, "n_train must be an integer, got 4.5"),
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    pytest.param([1, 2], "top-level config must be a JSON object, got [1, 2]", id="not an object"),
    # the file's header holds these in u32 fields
    ({"classes": 2**32 + 1},
     "classes must fit in a u32 field of the dataset file (below 2**32), got 4294967297"),
    ({"dims": [4, 2**32]},
     "dims must fit in a u32 field of the dataset file (below 2**32), got [4, 4294967296]"),
])
def test_export_data_type_errors_exit_1(tmp_path, capsys, spec, message):
    # `spec` sets the seed or one key of the data section, whose error names
    # it by its dotted path; a list stands for the whole config
    if isinstance(spec, dict):
        (key, value), = spec.items()
        if key == "seed":
            spec = {"seed": value, "data": DATA}
        else:
            spec, message = {"seed": 7, "data": {**DATA, key: value}}, f"data.{message}"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    assert main(["export-data", "--config", str(cfg), "--out", str(tmp_path / "x.bin")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.bin").exists()
