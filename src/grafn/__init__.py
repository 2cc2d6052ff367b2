"""Semi-supervised node classification with few labels.

A shared GCN encoder is trained on two stochastically augmented graph
views with three signals: node-wise cosine consistency between the views,
label-guided consistency between soft-nearest-neighbor class assignments
(confidence-filtered, stop-gradient on the weak-view target), and the
supervised cross-entropy on the handful of labeled nodes.
"""

from .augment import augment_view, drop_edges, mask_features
from .config import TrainConfig
from .data import (
    GraphDataset,
    SplitSpec,
    convert_content_cites,
    degree_buckets,
    generate_splits,
    load_dataset,
    write_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    GrafnError,
    NumericsError,
)
from .evaluation import (
    BenchReport,
    ablation_suite,
    degree_accuracy_report,
    run_benchmark,
    sim_at_k,
)
from .gradcheck import finite_diff_check
from .model import (
    GcnEncoder,
    LinearHead,
    build_from_checkpoint,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .objective import (
    SupportSet,
    confident_set,
    label_consistency_loss,
    node_consistency_loss,
    sample_support,
    snn_distribution,
    supervised_loss,
    total_loss,
)
from .sparse import SparseAdjacency, normalize_adjacency
from .sparse_features import SparseFeatures
from .synthetic import random_dataset
from .tape import Parameter, Tape, Tensor
from .trainer import (
    AdamState,
    RunResult,
    StepLosses,
    adam_update,
    build_step_loss,
    fit,
    train_step,
)

__version__ = "0.1.0"
