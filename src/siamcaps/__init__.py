"""siamcaps: siamese capsule networks for pairwise face verification.

A self-contained numpy implementation: reverse-mode autodiff on an
append-only tape, capsule layers with dynamic routing-by-agreement,
tied-weight siamese encoders, pair-margin losses, the AMSGrad optimizer,
PGM data loading with subject-holdout splits, and a training harness with
binary checkpoints and deterministic artifacts.

Importing the package sets a process-wide malloc policy on glibc (see
``_heap``): freed memory stays in the heap for the next step to reuse.
"""

from . import _heap
from .autodiff import Graph, ShapeError, Tensor, backward, grad_check
from .capsules import (CapsuleLayerParams, PrimaryCapsuleParams,
                       RoutingState, capsule_layer_forward,
                       concrete_dropout_mask, dynamic_route,
                       primary_capsules_forward, squash)
from .checkpoint import (CheckpointError, load_checkpoint,
                         restore_checkpoint, save_checkpoint)
from .data import (FaceDataset, PairBatch, PgmError, SplitSpec, kfold,
                   load_att, load_lfw, load_pgm, preprocess, sample_pairs,
                   save_pgm, split_subjects, synth_dataset)
from .harness import (RunConfig, emit_plot, eval_run, evaluate,
                      gridsearch_run, make_config, train_run)
from .layers import (BatchNormParams, Conv2dParams, DenseParams,
                     batchnorm_forward, conv2d_forward, conv2d_init,
                     dense_forward, dense_init)
from .models import (METRICS, ScnEncoder, StandardEncoder, contrastive_loss,
                     distance, double_margin_loss, predict_match,
                     sweep_threshold, valid_margin)
from .optim import OptimState, amsgrad_step
from .rng import SplitMix64, derive_seed, mix64

_heap.keep_freed_memory()

__version__ = "0.1.0"

__all__ = [
    "Graph", "ShapeError", "Tensor", "backward", "grad_check",
    "CapsuleLayerParams", "PrimaryCapsuleParams", "RoutingState",
    "capsule_layer_forward", "concrete_dropout_mask", "dynamic_route",
    "primary_capsules_forward", "squash",
    "CheckpointError", "load_checkpoint", "restore_checkpoint",
    "save_checkpoint",
    "FaceDataset", "PairBatch", "PgmError", "SplitSpec", "kfold", "load_att",
    "load_lfw", "load_pgm", "preprocess", "sample_pairs", "save_pgm",
    "split_subjects", "synth_dataset",
    "RunConfig", "emit_plot", "eval_run", "evaluate", "gridsearch_run",
    "make_config", "train_run",
    "BatchNormParams", "Conv2dParams", "DenseParams", "batchnorm_forward",
    "conv2d_forward", "conv2d_init", "dense_forward", "dense_init",
    "METRICS", "ScnEncoder", "StandardEncoder", "contrastive_loss",
    "distance", "double_margin_loss", "predict_match", "sweep_threshold",
    "valid_margin",
    "OptimState", "amsgrad_step",
    "SplitMix64", "derive_seed", "mix64",
]
