"""Source-free inductive domain adaptation with dual moving-average pseudo-labeling.

Pipeline: pre-train a classifier on labeled source features, split the
unlabeled target training set by source-model confidence, then fine-tune with
a fixed cross-entropy anchor on the confident subset and moving-average soft
labels (prototype centroids + per-instance label averaging) on the rest.
Evaluation happens on a held-out target test set.
"""

from .datasets import Dataset, DomainShiftSpec, generate_domain_pair, load_csv, save_csv, stratified_split
from .evaluation import Metrics, evaluate
from .losses import labeled_ce, soft_ce
from .model import Model, ModelConfig, SgdMomentum, cosine_lr, load_model, save_model
from .pseudolabel import CentroidBank, SoftLabelStore, class_feature_means
from .splitter import SplitResult, split_diagnostics, split_target
from .trainer import (Benchmark, RunRecord, TrainConfig, adapt, prepare_benchmark,
                      run_experiment, sweep, train_source)

__version__ = "0.1.0"

__all__ = [
    "Benchmark", "CentroidBank", "Dataset", "DomainShiftSpec", "Metrics", "Model",
    "ModelConfig", "RunRecord", "SgdMomentum", "SoftLabelStore", "SplitResult",
    "TrainConfig", "adapt", "class_feature_means", "cosine_lr", "evaluate",
    "generate_domain_pair", "labeled_ce", "load_csv", "load_model", "prepare_benchmark",
    "run_experiment", "save_csv", "save_model", "soft_ce", "split_diagnostics",
    "split_target", "stratified_split", "sweep", "train_source",
]
