"""Cross-validation utilities: K-fold splitters, train/test split, CV scoring.

The paper evaluates every generated feature set with five-fold cross
validation (train:test = 4:1); :func:`cross_val_score` is the exact routine
the downstream oracle calls. Each fold's score is a pure function of the
estimator template and the (seeded) splitter. A random forest template
fits one clone per fold through :func:`repro.ml.forest.fit_forests`, which
grows every fold's trees in one lockstep; each fold is then predicted and
scored on its own. Such a call never runs the clones' ``fit`` methods, so
tracers that wrap ``RandomForestClassifier.fit`` or
``DecisionTreeClassifier.fit`` see no calls from it. A call runs in one
process; parallelism lives one level up, where the async oracle's workers
run whole calls and the sweep pool and job fleet run whole searches.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, clone
from repro.ml.forest import fit_forests, grows_together

__all__ = ["KFold", "StratifiedKFold", "train_test_split", "cross_val_score"]


class KFold:
    """Split indices into ``n_splits`` contiguous (optionally shuffled) folds."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, seed: int | None = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if n_samples < self.n_splits:
            raise ValueError(f"Cannot split {n_samples} samples into {self.n_splits} folds")
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.seed)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits, dtype=int)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield train, test
            start += size


class StratifiedKFold:
    """K-fold preserving per-class proportions; falls back gracefully for rare classes."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, seed: int | None = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y).ravel()
        n_samples = len(y)
        rng = np.random.default_rng(self.seed)
        fold_of = np.empty(n_samples, dtype=int)
        for cls in np.unique(y):
            members = np.where(y == cls)[0]
            if self.shuffle:
                rng.shuffle(members)
            # Round-robin assignment keeps each fold's class ratio balanced
            # even when a class has fewer members than folds.
            fold_of[members] = np.arange(len(members)) % self.n_splits
        for k in range(self.n_splits):
            test = np.where(fold_of == k)[0]
            train = np.where(fold_of != k)[0]
            if len(test) == 0 or len(train) == 0:
                raise ValueError("Empty fold; reduce n_splits")
            yield train, test


def train_test_split(
    *arrays: np.ndarray,
    test_size: float = 0.2,
    seed: int | None = 0,
    stratify: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Shuffle-split arrays into train/test partitions.

    Returns ``[a_train, a_test, b_train, b_test, ...]`` matching sklearn's
    ordering. When ``stratify`` is given, class proportions are preserved.
    """
    if not arrays:
        raise ValueError("At least one array required")
    n = len(arrays[0])
    for a in arrays:
        if len(a) != n:
            raise ValueError("All arrays must share the first dimension")
    rng = np.random.default_rng(seed)
    n_test = max(1, int(round(n * test_size)))

    if stratify is not None:
        stratify = np.asarray(stratify).ravel()
        test_idx_parts = []
        for cls in np.unique(stratify):
            members = np.where(stratify == cls)[0]
            rng.shuffle(members)
            k = max(1, int(round(len(members) * test_size)))
            test_idx_parts.append(members[:k])
        test_idx = np.concatenate(test_idx_parts)
        mask = np.zeros(n, dtype=bool)
        mask[test_idx] = True
        train_idx, test_idx = np.where(~mask)[0], np.where(mask)[0]
    else:
        perm = rng.permutation(n)
        test_idx, train_idx = perm[:n_test], perm[n_test:]

    out: list[np.ndarray] = []
    for a in arrays:
        a = np.asarray(a)
        out.extend([a[train_idx], a[test_idx]])
    return out


def _fit_score_fold(inputs: tuple, fold: tuple) -> tuple[float, float]:
    """Fit and score one fold; returns (score, fit+score seconds).

    A fold's clone fits alone here when the estimator does not grow
    together with the other folds' clones. ``inputs`` is what every fold
    of one call shares: ``(estimator, X, y, scorer, use_proba)``.
    """
    estimator, X, y, scorer, use_proba = inputs
    train, test = fold
    start = time.perf_counter()
    model = clone(estimator)
    model.fit(X[train], y[train])
    return _score_fold(inputs, model, test, time.perf_counter() - start)


def _fit_score_folds(inputs: tuple, folds: list) -> list[tuple[float, float]]:
    """Fit every fold's clone, then score fold by fold.

    Forests (:func:`~repro.ml.forest.grows_together`) grow all folds'
    trees in one lockstep, and each fold is charged an equal share of that
    fit; other estimators fit fold by fold. Either way a fold's model and
    score equal a fit of a clone on its training rows alone.
    """
    estimator, X, y, _, _ = inputs
    if not grows_together(estimator):
        return [_fit_score_fold(inputs, fold) for fold in folds]
    start = time.perf_counter()
    models = [clone(estimator) for _ in folds]
    X_checked, y_checked = check_X_y(X, y)
    fit_forests(models, X_checked, y_checked, [train for train, _ in folds])
    share = (time.perf_counter() - start) / len(folds)
    return [_score_fold(inputs, model, test, share) for model, (_, test) in zip(models, folds)]


def _score_fold(inputs: tuple, model, test: np.ndarray, fit_seconds: float) -> tuple[float, float]:
    _, X, y, scorer, use_proba = inputs
    start = time.perf_counter()
    if use_proba:
        proba = model.predict_proba(X[test])
        pred = proba[:, -1] if proba.ndim == 2 else proba
    else:
        pred = model.predict(X[test])
    score = scorer(y[test], pred)
    return float(score), fit_seconds + time.perf_counter() - start


def cross_val_score(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: np.ndarray,
    scorer: Callable[[np.ndarray, np.ndarray], float],
    n_splits: int = 5,
    seed: int | None = 0,
    stratified: bool = False,
    use_proba: bool = False,
    return_fold_times: bool = False,
) -> "np.ndarray | tuple[np.ndarray, list[float]]":
    """Fit a clone per fold and score on the held-out fold.

    Parameters
    ----------
    scorer:
        ``scorer(y_true, y_pred_or_score) -> float`` (higher is better).
    use_proba:
        Score with the positive-class probability instead of hard labels
        (needed for AUC on detection tasks).
    return_fold_times:
        Also return each fold's fit+score wall seconds. When a forest's
        folds grow together, a fold's time is its own scoring plus an
        equal share of the joint fit, so the times sum to the call's cost
        but do not tell the folds' fits apart.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    folds = list(
        StratifiedKFold(n_splits, seed=seed).split(y)
        if stratified
        else KFold(n_splits, seed=seed).split(len(y))
    )

    results = _fit_score_folds((estimator, X, y, scorer, use_proba), folds)

    scores = np.asarray([score for score, _ in results], dtype=float)
    if return_fold_times:
        return scores, [seconds for _, seconds in results]
    return scores
