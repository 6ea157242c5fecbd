"""Modality-aware sharpness-aware minimization in plain numpy.

The package trains small multimodal classifiers with SGD, SAM, or the
modality-aware SAM variants, attributing each mini-batch's loss across
modalities with exact Shapley values and steering the sharpness perturbation
by the dominant modality's share. Gradients come from a hand-written backward
through the model's fixed layer stack. Everything is deterministic per seed.
"""

from .autodiff import GradCheckReport, ParameterVector, grad_check
from .data import Dataset, SyntheticSpec, batches, generate, load_dataset, save_dataset
from .errors import ConfigError, DimensionError, MsamError, NumericError, UsageError
from .harness import (
    ExperimentConfig,
    RunRecord,
    compare,
    config_hash,
    load_checkpoint,
    load_config,
    preset,
    resolve_config,
    run,
)
from .metrics import (
    ConvergenceReport,
    LandscapeGrid,
    MetricRecord,
    convergence_report,
    landscape_grid,
    mono_modal_accuracy,
    overfitting_gap,
    relative_gain,
    sharpness_proxy,
)
from .model import (
    EncoderSpec,
    ForwardTrace,
    FusionSpec,
    MultimodalModel,
    evaluate,
    loss_and_accuracy,
    mask_inputs,
)
from .optim import (
    OptimConfig,
    OptimState,
    Schedule,
    StepReport,
    msam_branch_step,
    msam_step,
    sam_step,
    sgd_step,
    train_step,
)
from .shapley import (
    ShapleyAttribution,
    attribute_batch,
    dominant_modality,
    normalize_weights,
    shapley_exact,
)
from .tensor import Rng, Tensor, derive_seed, randn

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DimensionError", "MsamError", "NumericError", "UsageError",
    "Tensor", "Rng", "randn", "derive_seed",
    "ParameterVector", "grad_check", "GradCheckReport",
    "EncoderSpec", "FusionSpec", "MultimodalModel", "ForwardTrace",
    "mask_inputs", "loss_and_accuracy", "evaluate",
    "ShapleyAttribution", "shapley_exact", "normalize_weights",
    "dominant_modality", "attribute_batch",
    "Schedule", "OptimConfig", "OptimState", "StepReport",
    "sgd_step", "sam_step", "msam_step", "msam_branch_step", "train_step",
    "MetricRecord", "LandscapeGrid", "ConvergenceReport",
    "overfitting_gap", "relative_gain", "mono_modal_accuracy",
    "landscape_grid", "sharpness_proxy", "convergence_report",
    "SyntheticSpec", "Dataset", "generate", "batches", "save_dataset", "load_dataset",
    "ExperimentConfig", "RunRecord", "resolve_config", "load_config", "config_hash",
    "run", "compare", "load_checkpoint", "preset",
    "__version__",
]
