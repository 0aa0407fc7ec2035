"""BAClassifier reproduction: bitcoin address behavior classification.

A from-scratch reproduction of *"Demystifying Bitcoin Address Behavior via
Graph Neural Networks"* (ICDE 2023): a UTXO chain simulator, behaviour-
driven workload generators, the paper's address-graph construction pipeline
(compression + augmentation), a numpy autograd neural substrate, GFN/GCN/
DiffPool graph models, six sequence classification heads, classical ML and
published baselines, and an evaluation harness regenerating every table and
figure in the paper.

Quickstart
----------
>>> from repro import (BAClassifier, BAClassifierConfig, WorldConfig,
...                    generate_world, build_dataset)
>>> world = generate_world(WorldConfig(seed=7, num_blocks=150))
>>> dataset = build_dataset(world, min_transactions=5)
>>> train, test = dataset.split(test_fraction=0.2, seed=0)
>>> clf = BAClassifier(BAClassifierConfig(slice_size=40, gnn_epochs=8,
...                                       head_epochs=15, seed=0))
>>> clf.fit(train.addresses, train.labels, world.index)  # doctest: +SKIP
"""

__version__ = "1.0.0"

from repro.core import BAClassifier, BAClassifierConfig
from repro.datagen import (
    CLASS_NAMES,
    AddressLabel,
    LabeledAddressDataset,
    World,
    WorldConfig,
    build_dataset,
    generate_world,
)
from repro.eval import (
    classification_report,
    confusion_matrix,
    precision_recall_f1,
)
from repro.serve import (
    AddressScore,
    CacheStats,
    SliceGraphCache,
)

__all__ = [
    "__version__",
    "AddressScore",
    "BAClassifier",
    "BAClassifierConfig",
    "CacheStats",
    "SliceGraphCache",
    "CLASS_NAMES",
    "AddressLabel",
    "LabeledAddressDataset",
    "World",
    "WorldConfig",
    "build_dataset",
    "generate_world",
    "classification_report",
    "confusion_matrix",
    "precision_recall_f1",
]
