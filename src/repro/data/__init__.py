"""Dataset substrate: seeded synthetic equivalents of the paper's 23 datasets.

The original evaluation uses public tabular datasets (Kaggle, UCI, LibSVM,
OpenML, AutoML) that are unavailable offline. Each named dataset here is a
deterministic generator matching the paper's task type and (scaled) shape,
whose target depends on *hidden interactions* of the observed features —
products, ratios, logs — which is precisely the structure feature
transformation methods compete to recover. The substitution keeps what the
paper's comparisons depend on (task type, shape, and a target that rewards
the right crossed features) and makes every table regenerable offline and
bit for bit from a seed; absolute scores are not comparable with the
paper's.
"""

from repro.data.registry import DATASET_SPECS, Dataset, dataset_names, load_dataset
from repro.data.synthesis import make_classification, make_detection, make_regression

__all__ = [
    "Dataset",
    "DATASET_SPECS",
    "dataset_names",
    "load_dataset",
    "make_classification",
    "make_regression",
    "make_detection",
]
