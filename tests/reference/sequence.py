"""The seed's feature store: one 1-D array per feature, in a dict.

:class:`repro.core.sequence.FeatureSpace` keeps its columns in one
column-major arena instead. Everything but the storage (provenance,
duplicate detection, pruning, snapshots) is inherited, so the two differ
only in where a column lives; the property tests in
``tests/core/test_sequence.py`` and ``tests/test_properties.py`` prove
their matrices byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.sequence import FeatureNode, FeatureSpace
from repro.ml.preprocessing import sanitize_features

__all__ = ["DictFeatureSpace"]


class DictFeatureSpace(FeatureSpace):
    """``FeatureSpace`` over a dict of columns (fid -> 1-D array)."""

    def __init__(self, X: np.ndarray, feature_names: list[str] | None = None) -> None:
        self._columns: dict[int, np.ndarray] = {}
        super().__init__(X, feature_names)
        self._arena = None

    def _allocate(self, node: FeatureNode, values: np.ndarray) -> int:
        fid = self._next_fid
        self._next_fid += 1
        self._nodes[fid] = FeatureNode(
            fid=fid, op=node.op, children=node.children, source_col=node.source_col
        )
        self._columns[fid] = sanitize_features(values.reshape(-1, 1)).ravel()
        return fid

    def matrix(self, fids: list[int] | None = None) -> np.ndarray:
        fids = self._live if fids is None else fids
        return np.column_stack([self._columns[f] for f in fids])

    def matrix_view(self, fids: list[int] | None = None) -> np.ndarray:
        return self.matrix(fids)

    def values(self, fid: int) -> np.ndarray:
        return self._columns[fid]
