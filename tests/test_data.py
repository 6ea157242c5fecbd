"""Synthetic data generator tests.

Statistical properties are checked against the generative recipe itself
(residual noise moments, chance-level accuracy at zero signal, per-modality
separability ordered by signal strength via a nearest-class-mean probe), and
the binary format is checked byte-for-byte including the exact file size.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msam.data import (MAGIC, Dataset, SyntheticSpec, _prototypes, batches, generate,
                       load_dataset, save_dataset)
from msam.errors import ConfigError, DimensionError, UsageError
from msam.tensor import Rng, derive_seed


def small_spec(**kw):
    base = dict(classes=3, dims=(4, 3), snr=(2.0, 0.5),
                n_train=32, n_val=16, n_test=24, seed=1)
    base.update(kw)
    return SyntheticSpec(**base)


def nearest_mean_accuracy(train, test, m):
    """Classify split `test` by the nearest class mean of modality m."""
    means = np.stack([train.modalities[m][train.labels == c].mean(axis=0)
                      for c in range(int(train.labels.max()) + 1)])
    d2 = ((test.modalities[m][:, None, :] - means[None]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == test.labels))


# ------------------------------------------------------------------ generation


def test_generate_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    for da, db in zip(a, b):
        assert_array_equal(da.labels, db.labels)
        for xa, xb in zip(da.modalities, db.modalities):
            assert_array_equal(xa, xb)
    c = generate(small_spec(seed=2))
    assert not np.array_equal(a[0].modalities[0], c[0].modalities[0])


def test_generate_shapes_and_split_names():
    train, val, test = generate(small_spec())
    assert [d.split for d in (train, val, test)] == ["train", "val", "test"]
    assert train.modalities[0].shape == (32, 4)
    assert train.modalities[1].shape == (32, 3)
    assert val.n == 16 and test.n == 24
    assert train.labels.min() >= 0 and train.labels.max() < 3


def test_prototypes_are_unit_norm():
    spec = small_spec()
    protos = _prototypes(spec, Rng(0))
    assert len(protos) == 2
    for p, d in zip(protos, spec.dims):
        assert p.shape == (3, d)
        assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-12)


def test_residual_noise_is_standard_normal():
    spec = small_spec(n_train=2000, dims=(4,), snr=(3.0,))
    train, _, _ = generate(spec)
    # replay the stream: prototypes come out of the seeded rng first
    rng = Rng(derive_seed(spec.seed, 2))
    protos = _prototypes(spec, rng)
    resid = train.modalities[0] - 3.0 * protos[0][train.labels]
    assert abs(resid.mean()) < 0.05
    assert abs(resid.var() - 1.0) < 0.05


def test_zero_signal_is_chance_level():
    spec = small_spec(classes=4, dims=(5, 5), snr=(0.0, 0.0),
                      n_train=600, n_test=1000)
    train, _, test = generate(spec)
    for m in range(2):
        assert nearest_mean_accuracy(train, test, m) <= 0.25 + 0.05


def test_signal_ratio_orders_modalities():
    spec = small_spec(classes=4, dims=(6, 6), snr=(4.0, 1.0),
                      n_train=600, n_test=1000)
    train, _, test = generate(spec)
    strong = nearest_mean_accuracy(train, test, 0)
    weak = nearest_mean_accuracy(train, test, 1)
    assert strong >= weak + 0.10
    assert strong > 0.9


def test_spec_validation():
    with pytest.raises(ConfigError, match="^classes "):
        small_spec(classes=1)
    with pytest.raises(ConfigError, match="^dims "):
        small_spec(dims=())
    with pytest.raises(ConfigError, match="^dims "):
        small_spec(dims=(4, 0))
    with pytest.raises(ConfigError, match="^snr "):
        small_spec(snr=(1.0,))
    with pytest.raises(ConfigError, match="^snr "):
        small_spec(snr=(1.0, -0.5))
    with pytest.raises(ConfigError, match="^snr "):
        small_spec(snr=(1.0, float("nan")))
    with pytest.raises(ConfigError, match="^snr "):
        small_spec(snr=(float("inf"), 1.0))
    with pytest.raises(ConfigError, match="^n_val "):
        small_spec(n_val=0)
    # the dataset file holds classes and dims in u32 fields
    assert small_spec(classes=2**32 - 1, dims=(4, 2**32 - 1)).classes == 2**32 - 1
    with pytest.raises(ConfigError, match="^classes must fit in a u32 field"):
        small_spec(classes=2**32)
    with pytest.raises(ConfigError, match=r"^dims must fit in a u32 .*, got \[4, 4294967296\]$"):
        small_spec(dims=(4, 2**32))


def test_dataset_validation():
    with pytest.raises(DimensionError):
        Dataset(modalities=[np.zeros((3, 2)), np.zeros((4, 2))],
                labels=np.zeros(3, dtype=np.int64), split="train")
    with pytest.raises(DimensionError):
        Dataset(modalities=[np.zeros((3, 2))],
                labels=np.zeros(4, dtype=np.int64), split="train")


# -------------------------------------------------------------------- batching


def test_batches_partition_the_split():
    train, _, _ = generate(small_spec(n_train=10))
    got = list(batches(train, 3, epoch_seed=5))
    assert [len(lb) for _, lb in got] == [3, 3, 3, 1]
    rows = np.concatenate([xs[0] for xs, _ in got])
    assert_array_equal(np.sort(rows, axis=0), np.sort(train.modalities[0], axis=0))
    labels = np.concatenate([lb for _, lb in got])
    assert_array_equal(np.sort(labels), np.sort(train.labels))


def test_batches_are_seed_deterministic():
    train, _, _ = generate(small_spec())
    a = [lb for _, lb in batches(train, 8, epoch_seed=3)]
    b = [lb for _, lb in batches(train, 8, epoch_seed=3)]
    for la, lbb in zip(a, b):
        assert_array_equal(la, lbb)
    c = np.concatenate([lb for _, lb in batches(train, 8, epoch_seed=4)])
    assert not np.array_equal(np.concatenate(a), c)


def test_batches_validation():
    train, _, _ = generate(small_spec())
    with pytest.raises(UsageError):
        list(batches(train, 0, epoch_seed=0))


# --------------------------------------------------------------- binary format


def test_save_load_round_trip_bitwise(tmp_path):
    spec = small_spec()
    splits = generate(spec)
    path = tmp_path / "data.bin"
    save_dataset(path, spec, splits)
    (classes, dims), loaded = load_dataset(path)
    assert classes == 3 and dims == (4, 3)
    for orig, back in zip(splits, loaded):
        assert orig.split == back.split
        assert_array_equal(orig.labels, back.labels)
        for xa, xb in zip(orig.modalities, back.modalities):
            assert_array_equal(xa, xb)


def test_saved_file_has_exact_size(tmp_path):
    spec = small_spec()
    splits = generate(spec)
    path = tmp_path / "data.bin"
    save_dataset(path, spec, splits)
    header = 7 + 8 + 4 * 2 + 24
    per_sample = 8 * (4 + 3) + 4
    assert path.stat().st_size == header + per_sample * (32 + 16 + 24)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTADATASET")
    with pytest.raises(UsageError):
        load_dataset(path)


def test_load_rejects_trailing_bytes(tmp_path):
    spec = small_spec()
    path = tmp_path / "data.bin"
    save_dataset(path, spec, generate(spec))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(UsageError):
        load_dataset(path)


@pytest.mark.parametrize("cut", [10, 30, -3])
def test_load_rejects_truncated_file(tmp_path, cut):
    spec = small_spec()
    path = tmp_path / "data.bin"
    save_dataset(path, spec, generate(spec))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(UsageError, match="data.bin"):
        load_dataset(path)


def test_load_rejects_zero_modalities(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(MAGIC + bytes(32))  # 0 classes, 0 modalities, 0 samples per split
    with pytest.raises(UsageError, match="empty.bin declares no modalities"):
        load_dataset(path)


@pytest.mark.parametrize("bad", [-1, 3])
def test_load_rejects_out_of_range_labels(tmp_path, bad):
    spec = small_spec()
    splits = generate(spec)
    splits[1].labels[0] = bad
    path = tmp_path / "data.bin"
    save_dataset(path, spec, splits)
    with pytest.raises(UsageError, match="val labels"):
        load_dataset(path)


def test_save_validation(tmp_path):
    spec = small_spec()
    splits = generate(spec)
    with pytest.raises(UsageError):
        save_dataset(tmp_path / "x.bin", spec, splits[:2])
    with pytest.raises(DimensionError):
        save_dataset(tmp_path / "x.bin", small_spec(n_train=99), splits)
