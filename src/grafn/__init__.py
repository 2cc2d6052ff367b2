"""Semi-supervised node classification with few labels.

A shared GCN encoder is trained on two stochastically augmented graph
views with three signals: node-wise cosine consistency between the views,
label-guided consistency between soft-nearest-neighbor class assignments
(confidence-filtered, stop-gradient on the weak-view target), and the
supervised cross-entropy on the handful of labeled nodes.

The package exports the documented API below; everything else is imported
from its submodule (`grafn.tape`, `grafn.objective`, ...).
"""

from .config import TrainConfig
from .data import GraphDataset, SplitSpec, generate_splits, load_dataset, write_dataset
from .errors import ConfigError, DataError, DivergenceError, GrafnError, NumericsError
from .evaluation import run_benchmark, sim_at_k
from .model import load_checkpoint, predict, save_checkpoint
from .synthetic import random_dataset
from .trainer import RunResult, fit

__all__ = [
    "TrainConfig", "GraphDataset", "SplitSpec", "load_dataset", "write_dataset",
    "generate_splits", "random_dataset", "fit", "RunResult", "predict",
    "save_checkpoint", "load_checkpoint", "run_benchmark", "sim_at_k",
    "ConfigError", "DataError", "DivergenceError", "GrafnError", "NumericsError",
]

__version__ = "0.1.0"
