"""Synthetic multimodal classification data with a known dominant modality.

Each class y gets one fixed unit-norm prototype per modality; a sample of
class y observes x_m = s_m * mu[y, m] + noise with standard normal noise, so
the per-modality signal strength s_m controls exactly how informative each
modality is. All draws come from the seeded stream in a documented order
(prototypes per modality, then labels and noise per split), which makes
datasets reproducible and splits disjoint by construction.

Datasets round-trip through a flat binary file (see `save_dataset` for the
byte layout).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .tensor import Rng, derive_seed

Array = np.ndarray

MAGIC = b"MSAMDS1"


@dataclass(frozen=True)
class SyntheticSpec:
    """Generation recipe: shapes, per-modality signal strengths, split sizes."""

    classes: int
    dims: tuple[int, ...]
    snr: tuple[float, ...]
    n_train: int
    n_val: int
    n_test: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "snr", tuple(float(s) for s in self.snr))
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if not self.dims or min(self.dims) < 1:
            raise ConfigError(f"dims must be a non-empty list of dims >= 1, got {list(self.dims)}")
        if len(self.snr) != len(self.dims):
            raise ConfigError(f"snr has {len(self.snr)} entries for {len(self.dims)} modalities")
        if not all(0.0 <= s < np.inf for s in self.snr):
            raise ConfigError(f"snr must be finite values >= 0, got {list(self.snr)}")
        for key in ("n_train", "n_val", "n_test"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")

    @property
    def modalities(self) -> int:
        return len(self.dims)


@dataclass
class Dataset:
    """One split: per-modality arrays (N, d_m) plus integer labels (N,)."""

    modalities: list[Array]
    labels: Array
    split: str

    def __post_init__(self):
        n = {x.shape[0] for x in self.modalities}
        if len(n) != 1:
            raise DimensionError("modalities disagree on the sample axis")
        if self.labels.shape != (self.n,):
            raise DimensionError(f"labels shape {self.labels.shape} != ({self.n},)")

    @property
    def n(self) -> int:
        return self.modalities[0].shape[0]


def _prototypes(spec: SyntheticSpec, rng: Rng) -> list[Array]:
    """Unit-norm class prototypes, one (C, d_m) array per modality."""
    protos = []
    for d in spec.dims:
        p = rng.normal((spec.classes, d))
        norms = np.linalg.norm(p, axis=1, keepdims=True)
        while np.any(norms < 1e-12):  # essentially impossible, but stay total
            p = rng.normal((spec.classes, d))
            norms = np.linalg.norm(p, axis=1, keepdims=True)
        protos.append(p / norms)
    return protos


def generate(spec: SyntheticSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Draw (train, val, test) splits; deterministic per spec.seed."""
    rng = Rng(derive_seed(spec.seed, 2))
    protos = _prototypes(spec, rng)
    splits = []
    for name, n in (("train", spec.n_train), ("val", spec.n_val), ("test", spec.n_test)):
        labels = rng.integers(spec.classes, n)
        xs = []
        for m, d in enumerate(spec.dims):
            noise = rng.normal((n, d))
            xs.append(spec.snr[m] * protos[m][labels] + noise)
        splits.append(Dataset(modalities=xs, labels=labels, split=name))
    return tuple(splits)


def batches(
    dataset: Dataset, batch_size: int, epoch_seed: int
) -> Iterator[tuple[list[Array], Array]]:
    """Mini-batches under a deterministic per-(seed) shuffle.

    The whole split appears exactly once per epoch; the last batch may be
    short. Pass a seed derived from (run seed, epoch) to reshuffle per epoch.
    """
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    perm = Rng(epoch_seed).permutation(dataset.n)
    for lo in range(0, dataset.n, batch_size):
        idx = perm[lo:lo + batch_size]
        yield [x[idx] for x in dataset.modalities], dataset.labels[idx]


def save_dataset(path: str | Path, spec: SyntheticSpec,
                 splits: Sequence[Dataset]) -> None:
    """Write splits to one little-endian binary file.

    Layout: magic b"MSAMDS1"; u32 classes; u32 M; M x u32 dims; u64 n_train,
    n_val, n_test; then for each split in (train, val, test): each modality's
    samples as n*d_m float64 row-major, followed by n int32 labels.
    """
    if len(splits) != 3:
        raise UsageError("expected exactly (train, val, test)")
    counts = (spec.n_train, spec.n_val, spec.n_test)
    for ds, n in zip(splits, counts):
        if ds.n != n:
            raise DimensionError(f"{ds.split} split has {ds.n} samples, spec says {n}")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", spec.classes, spec.modalities))
        fh.write(struct.pack(f"<{spec.modalities}I", *spec.dims))
        fh.write(struct.pack("<QQQ", *counts))
        for ds in splits:
            for x in ds.modalities:
                fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(ds.labels, dtype="<i4").tobytes())


def load_dataset(path: str | Path) -> tuple[tuple[int, tuple[int, ...]], tuple[Dataset, Dataset, Dataset]]:
    """Read a file written by `save_dataset`; returns ((classes, dims), splits).

    A file that declares no modalities, whose size disagrees with its header,
    or whose labels fall outside [0, classes), is a UsageError naming the path.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise UsageError(f"{path} is not a dataset file (bad magic)")
    off = len(MAGIC)

    def header(fmt: str) -> tuple[int, ...]:
        nonlocal off
        end = off + struct.calcsize(fmt)
        if end > len(raw):
            raise UsageError(f"{path} is truncated: {len(raw)} bytes, header needs {end}")
        values = struct.unpack_from(fmt, raw, off)
        off = end
        return values

    classes, m = header("<II")
    if m < 1:
        raise UsageError(f"{path} declares no modalities")
    dims = header(f"<{m}I")
    counts = header("<QQQ")
    want = off + sum(counts) * (8 * sum(dims) + 4)
    if want != len(raw):
        raise UsageError(f"{path} has {len(raw)} bytes, its header describes {want}")
    splits = []
    for name, n in zip(("train", "val", "test"), counts):
        xs = []
        for d in dims:
            xs.append(np.frombuffer(raw, dtype="<f8", count=n * d, offset=off)
                      .reshape(n, d).astype(np.float64))
            off += n * d * 8
        labels = np.frombuffer(raw, dtype="<i4", count=n, offset=off).astype(np.int64)
        off += n * 4
        if n and not 0 <= labels.min() <= labels.max() < classes:
            raise UsageError(f"{path}: {name} labels fall outside [0, {classes})")
        splits.append(Dataset(modalities=xs, labels=labels, split=name))
    return (classes, tuple(int(d) for d in dims)), tuple(splits)
