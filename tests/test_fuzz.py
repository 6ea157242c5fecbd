"""Property tests: malformed input is rejected with a library error, never a leak.

`resolve_config` gets arbitrary JSON trees built around the real config keys,
and `load_dataset` arbitrary bytes around a valid file. Either call may only
succeed or raise ConfigError/UsageError, and every config that resolves keeps
its hash through `canonical()` and a JSON round trip. `cli.main` runs every
subcommand with flag and config values around and beyond each range, and
`landscape` and `shapley-audit` also on damaged copies of a checkpoint:
every call exits 0, 1 or 2 without a traceback, and a call that fails leaves
every file as it was. Size fields are drawn below a small cap; the sizes no
array can hold are explicit cases in `test_cli.py`. The runs use the suite's
hypothesis profile (`conftest.py`): derandomized, so the suite sees the same
examples every time.
"""

import contextlib
import csv
import functools
import io
import json
import struct
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from msam import harness
from msam.cli import main
from msam.data import MAGIC, SyntheticSpec, generate, load_dataset, save_dataset
from msam.errors import ConfigError, UsageError

FUZZ = settings(max_examples=200)

DEFAULTS = {path: default for path, _kind, default, _check in harness._SCHEMA}
PATHS = list(DEFAULTS)
KEYS = sorted({part for path in PATHS for part in path.split(".")})
NAMES = ["sgd", "sam", "msam", "msam_branch", "relu", "tanh", "early", "late", "constant",
         "inverse_sqrt", "step_decay", "steps", "epochs", "loss", "accuracy", "standard",
         "paper"]

leaves = (st.none() | st.booleans() | st.integers(-3, 40) | st.integers()
          | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(NAMES)
          | st.text(max_size=4))
trees = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)


def near(default):
    """Values of a default's own JSON type, many of them valid."""
    if isinstance(default, list):
        item = near(default[0]) if default else st.sampled_from(["sgd", "sam", "msam"])
        pair = st.lists(item, min_size=2, max_size=2)
        return pair | st.lists(item, max_size=3) | st.lists(st.lists(item, max_size=2),
                                                            min_size=2, max_size=2)
    if default is None:
        return st.none() | st.text(max_size=3)
    return {bool: st.booleans(), int: st.integers(0, 9), str: st.sampled_from(NAMES),
            float: st.floats(0.0, 1.0) | st.integers(0, 1)}[type(default)]


@st.composite
def configs(draw):
    """The defaults with a few values replaced and sometimes a stray key, or any tree."""
    if draw(st.integers(0, 4)) == 0:
        return draw(trees)
    flat = dict(DEFAULTS)
    for path in draw(st.lists(st.sampled_from(PATHS), max_size=3)):
        flat[path] = draw(trees if draw(st.integers(0, 3)) == 0 else near(DEFAULTS[path]))
    if draw(st.integers(0, 9)) == 0:
        flat[draw(st.sampled_from(["data", "model", "optimizer.schedule"])) + ".extra"] = 1
    return harness._nest(flat)


@FUZZ
@given(configs())
def test_resolve_config_only_succeeds_or_raises_config_error(raw):
    try:
        cfg = harness.resolve_config(raw)
    except ConfigError:
        return
    again = harness.resolve_config(json.loads(json.dumps(cfg.canonical())))
    assert harness.config_hash(again) == harness.config_hash(cfg)


def dataset_bytes(tmp_path_factory):
    spec = SyntheticSpec(classes=3, dims=(2, 1), snr=(1.0, 1.0), n_train=3, n_val=2, n_test=1)
    path = tmp_path_factory.mktemp("valid") / "valid.bin"
    save_dataset(path, spec, generate(spec))
    return path.read_bytes()


@st.composite
def dataset_files(draw, valid):
    """Any bytes, a small header plus noise, or a valid file cut, patched or extended."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.binary(max_size=64))
    if kind == 1:
        small = st.integers(0, 3)
        m = draw(small)
        header = struct.pack(f"<II{m}IQQQ", draw(small), m, *(draw(small) for _ in range(m + 3)))
        return MAGIC + header + draw(st.binary(max_size=80))
    data = bytearray(valid[:draw(st.integers(0, len(valid)))] if kind == 2 else valid)
    for _ in range(draw(st.integers(0, 4))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data) + draw(st.binary(max_size=8))


def test_load_dataset_only_succeeds_or_raises_usage_error(tmp_path_factory):
    valid = dataset_bytes(tmp_path_factory)
    path = tmp_path_factory.mktemp("fuzz") / "data.bin"

    @FUZZ
    @given(dataset_files(valid))
    def check(raw):
        path.write_bytes(raw)
        try:
            load_dataset(path)
        except (ConfigError, UsageError):
            pass

    check()


# ------------------------------------------------------------------ cli flags

CLI_FUZZ = settings(max_examples=120)

# values around and beyond every range: zero, negatives, huge, +-inf, nan
FLOATS = (st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-5, 0.5, 1e200, 1e308, -1e308,
                           float("inf"), float("-inf"), float("nan")])
          | st.floats(allow_nan=True, allow_infinity=True)).map(repr)
INTS = (st.sampled_from([0, -1, 1, 2**63, 2**64, -2**64, 10**30])
        | st.integers()).map(str) | st.sampled_from(["nan", "inf", "-inf", "1.5"])
TAGS = st.sampled_from(["t", "", "..", "a/b", "../t", "x" * 300, "-"])


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """One trained checkpoint (1 epoch, 32 training rows) and its config file."""
    root = tmp_path_factory.mktemp("cli")
    raw = {"seed": 0, "epochs": 1, "batch_size": 16,
           "data": {"classes": 3, "dims": [3, 2], "snr": [2.0, 0.5],
                    "n_train": 32, "n_val": 8, "n_test": 8},
           "model": {"hidden": [4], "width": 3},
           "optimizer": {"kind": "msam", "lr": 0.05, "rho": 0.1},
           "out_dir": str(root / "run")}
    config = root / "config.json"
    config.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(config)]) == 0
    return root


def run_cli(argv, root):
    """`cli.main(argv)` with its output captured, checked against the property:
    it exits 0, 1 or 2 without a traceback or a numpy RuntimeWarning (raised
    here as an error), and a non-zero exit leaves every file under `root` as
    it was. Returns what it wrote to stderr."""
    before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse rejects a value it cannot parse
            code = exit.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        after = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        assert after == before, argv
    return err.getvalue()


@CLI_FUZZ
@given(radius=FLOATS | st.none(), res=st.integers(-3, 5).map(str) | st.none(),
       seed=INTS | st.none(), tag=TAGS)
def test_landscape_flags_exit_cleanly(tiny_run, radius, res, seed, tag):
    # --res stays small: an odd value allocates a res x res grid
    argv = ["landscape", f"--checkpoint={tiny_run / 'run'}", f"--tag={tag}"]
    argv += [f"--{flag}={value}" for flag, value in
             (("radius", radius), ("res", res), ("seed", seed)) if value is not None]
    run_cli(argv, tiny_run)


@CLI_FUZZ
@given(h=FLOATS | st.none(), tol=FLOATS | st.none(), coords=INTS | st.none())
def test_gradcheck_flags_exit_cleanly(tiny_run, h, tol, coords):
    argv = ["gradcheck", f"--config={tiny_run / 'config.json'}"]
    argv += [f"--{flag}={value}" for flag, value in
             (("h", h), ("tol", tol), ("coords", coords)) if value is not None]
    run_cli(argv, tiny_run)


@CLI_FUZZ
@given(batch=st.integers(-3, 4).map(str) | INTS | st.none(),
       variant=st.sampled_from(["standard", "paper", "", "Paper", "exact"]) | st.none(),
       target=st.sampled_from(["loss", "accuracy", "", "f1"]) | st.none(),
       out=TAGS.map(lambda tag: f"audit/{tag}") | st.just("run") | st.none())
def test_shapley_audit_flags_exit_cleanly(tiny_run, batch, variant, target, out):
    # the tiny checkpoint has 2 train batches; every --out stays under tiny_run,
    # and "run" is the checkpoint directory itself
    (tiny_run / "audit").mkdir(exist_ok=True)
    argv = ["shapley-audit", f"--checkpoint={tiny_run / 'run'}"]
    argv += [f"--{flag}={value}" for flag, value in
             (("batch", batch), ("variant", variant), ("target", target),
              ("out", None if out is None else tiny_run / out)) if value is not None]
    run_cli(argv, tiny_run)


# grad_norm cells: zero, subnormals, squares near and beyond the float range,
# +-inf, nan, negatives and text
NORMS = (st.sampled_from(["0", "-0.0", "5e-324", "1e-310", "2.2e-308", "1e-160", "1e150",
                          "1e154", "1.4e154", "1e200", "1e308", "inf", "-inf", "nan", "-1",
                          "abc", "", "1_0", " 2 "])
         | st.floats(1e150, 1e308).map(repr) | st.floats(0.0, 10.0).map(repr)
         | st.text(max_size=4))


@CLI_FUZZ
@given(norms=st.lists(NORMS, max_size=6), calibrate_at=st.integers(-1, 8).map(str) | INTS
       | st.none())
def test_convergence_flags_and_cells_exit_cleanly(tiny_run, norms, calibrate_at):
    run_dir = tiny_run / "conv"
    run_dir.mkdir(exist_ok=True)
    (run_dir / "convergence.csv").unlink(missing_ok=True)
    with open(run_dir / "steps.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "grad_norm"])
        writer.writerows(enumerate(norms, 1))
    argv = ["convergence", f"--run={run_dir}"]
    if calibrate_at is not None:
        argv.append(f"--calibrate-at={calibrate_at}")
    run_cli(argv, tiny_run)


# Values for a config field: any JSON type, integers kept small
SMALL_LEAVES = (st.none() | st.booleans() | st.integers(-3, 12)
                | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(NAMES)
                | st.text(max_size=4))


def drawn_config(draw, raw):
    """`raw` (a nested config) with up to 3 fields set to drawn values."""
    raw = json.loads(json.dumps(raw))
    for path in draw(st.lists(st.sampled_from(PATHS), max_size=3)):
        *sections, key = path.split(".")
        node = functools.reduce(lambda tree, name: tree.setdefault(name, {}), sections, raw)
        if isinstance(node, dict):  # an earlier draw may have replaced a section
            node[key] = draw(near(DEFAULTS[path]) | SMALL_LEAVES)
    return raw


@CLI_FUZZ
@given(data=st.data(), seed=INTS | st.none(), out=TAGS.map(lambda tag: f"out/{tag}") | st.none())
def test_train_flags_and_config_values_exit_cleanly(tiny_run, data, seed, out):
    # every run directory stays under tiny_run/train, away from the shared files
    raw = drawn_config(data.draw, json.loads((tiny_run / "config.json").read_text()))
    raw["out_dir"] = str(tiny_run / "train" / "run")
    config = tiny_run / "train" / "config.json"
    config.parent.mkdir(exist_ok=True)
    config.write_text(json.dumps(raw))
    argv = ["train", f"--config={config}"]
    argv += [f"--{flag}={value}" for flag, value in
             (("seed", seed), ("out-dir", None if out is None else tiny_run / "train" / out))
             if value is not None]
    run_cli(argv, tiny_run)


@CLI_FUZZ
@given(data=st.data(),
       out=TAGS.map(lambda tag: f"export/{tag}") | st.sampled_from(["export", "none/x.bin"]))
def test_export_data_spec_values_and_paths_exit_cleanly(tiny_run, data, out):
    # the tiny run's config with up to 3 fields drawn around their ranges, and
    # sometimes its JSON text cut short
    text = json.dumps(drawn_config(data.draw, json.loads((tiny_run / "config.json").read_text())))
    if data.draw(st.integers(0, 9)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    (tiny_run / "export").mkdir(exist_ok=True)
    path = tiny_run / "export" / "config.json"
    path.write_text(text)
    err = run_cli(["export-data", f"--config={path}", f"--out={tiny_run / out}"], tiny_run)
    assert not err.startswith("usage:"), err  # argparse takes both flags: the command runs


@CLI_FUZZ
@given(data=st.data(), damage=st.sampled_from(["config cut", "config values", "params cut",
                                                "params flip"]))
def test_diagnostics_on_a_damaged_checkpoint_exit_cleanly(tiny_run, data, damage):
    files = {name: (tiny_run / "run" / name).read_bytes() for name in ("config.json", "params.npz")}
    raw = bytearray(files["params.npz"] if damage.startswith("params") else files["config.json"])
    # cuts and flips land anywhere, or in the 40 bytes after a zip signature,
    # where the headers keep the flags, method and version that reading checks
    headers = [j for i in range(len(raw)) if raw.startswith(b"PK", i)
               for j in range(i, min(i + 40, len(raw)))]
    where = st.integers(0, len(raw) - 1) | st.sampled_from(headers or [0])
    if damage.endswith("cut"):
        del raw[data.draw(where):]
    elif damage == "params flip":
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(where)] ^= data.draw(st.integers(1, 255))
    else:
        raw = json.dumps(drawn_config(data.draw, json.loads(raw))).encode()
    files["params.npz" if damage.startswith("params") else "config.json"] = bytes(raw)
    checkpoint = tiny_run / "damaged"
    checkpoint.mkdir(exist_ok=True)
    for name, content in files.items():
        (checkpoint / name).write_bytes(content)
    run_cli(["landscape", f"--checkpoint={checkpoint}", "--res=3"], tiny_run)
    run_cli(["shapley-audit", f"--checkpoint={checkpoint}"], tiny_run)
