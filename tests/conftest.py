import numpy as np
import pytest

from grafn import GraphDataset, TrainConfig, fit, generate_splits, random_dataset
from grafn.sparse import SparseAdjacency
from grafn.sparse_features import SparseFeatures


def make_dataset(n, edges, label_ids, num_classes, num_features=None, features=None,
                 name="toy"):
    """Hand-rolled dataset helper for small exact-value tests."""
    label_ids = np.asarray(label_ids, dtype=np.int64)
    if features is None:
        num_features = num_features or num_classes
        features = np.zeros((n, num_features))
        features[np.arange(n), label_ids % num_features] = 1.0
    return GraphDataset(
        adj=SparseAdjacency.from_edges(n, edges),
        features=np.asarray(features, dtype=np.float64),
        labels=label_ids,
        class_count=num_classes,
        name=name,
    )


def sparse_features(x):
    """The CSR of a dense matrix, through the constructor `prepare_features` uses."""
    x = np.asarray(x, dtype=np.float64)
    nonzero = np.flatnonzero(x)
    return SparseFeatures.from_nonzeros(x.shape, nonzero, x.ravel()[nonzero])


# A planted-partition regime where six labeled nodes are not enough for the
# supervised baseline but community structure rewards consistency training;
# the margins asserted in the acceptance analogs were measured here.
SYNTH_KW = dict(
    n=300, num_classes=3, num_features=48, p_in=0.04, p_out=0.008,
    feature_signal=0.25, feature_noise=0.06, seed=7, name="synthetic300",
)
SYNTH_RATE = 0.02
SYNTH_SPLIT_SEED = 11


def synth_train_config(**kw):
    defaults = dict(
        hidden_dim=32, embed_dim=32, max_epochs=300, dropout=0.2,
        learning_rate=0.01, seed=3,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="session")
def synthetic_ds():
    return random_dataset(**SYNTH_KW)


@pytest.fixture(scope="session")
def synthetic_split(synthetic_ds):
    return generate_splits(synthetic_ds, SYNTH_RATE, 1, base_seed=SYNTH_SPLIT_SEED)[0]


@pytest.fixture(scope="session")
def trained_synthetic(synthetic_ds, synthetic_split):
    """One fully trained run shared by the evaluation-level tests."""
    cfg = synth_train_config()
    return cfg, fit(synthetic_ds, synthetic_split, cfg)
