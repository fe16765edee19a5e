"""The lockstep tree builder against the recursive builder it replaced.

:func:`repro.ml.tree._grow` grows every tree of a fit (and, through
:func:`repro.ml.forest.fit_forests`, every fold's trees of an oracle call)
one node per tree per round. ``tests/reference/tree.py`` keeps the
recursive builder and the per-tree forest loop on the per-node presort
engine, which is the previous oracle exactly. These tests hold the two to
the same bytes: each tree's feature, threshold, children and value arrays,
its classes, the importances and the predictions, on generated problems
with ties, duplicate rows, constant columns, rare classes (so bootstraps
miss some) and every hyper-parameter the oracle varies, with both split
dispatch paths forced through ``_SMALL``.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property tests need the hypothesis dev dependency")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.ml.boosting as boosting  # noqa: E402
import repro.ml.split_engine as split_engine  # noqa: E402
from repro.ml.base import clone  # noqa: E402
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor  # noqa: E402
from repro.ml.evaluation import DownstreamEvaluator  # noqa: E402
from repro.ml.forest import (  # noqa: E402
    RandomForestClassifier,
    RandomForestRegressor,
    fit_forests,
)
from repro.ml.metrics import f1_score, one_minus_rae  # noqa: E402
from repro.ml.model_selection import KFold, StratifiedKFold, cross_val_score  # noqa: E402
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor  # noqa: E402
from repro.serve.artifact import PipelineArtifact  # noqa: E402
from tests.reference.split_engine import NaiveEngine  # noqa: E402
from tests.reference.tree import (  # noqa: E402
    ReferenceDecisionTreeClassifier,
    ReferenceDecisionTreeRegressor,
    ReferenceRandomForestClassifier,
    ReferenceRandomForestRegressor,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")

# _SMALL values: every node through the presort filter, the default
# dispatch, and every node through the padded block.
SMALL = (1, 128, 10**9)

FIXTURE = Path(__file__).parent / "fixtures" / "recursive_builder"


def _same(a: np.ndarray, b: np.ndarray, what: str) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def _same_tree(a, b, what: str = "") -> None:
    for attr in TREE_ARRAYS:
        _same(getattr(a.tree_, attr), getattr(b.tree_, attr), f"tree_.{attr} {what}")
    _same(a.feature_importances_, b.feature_importances_, f"importances {what}")
    if hasattr(b, "classes_"):
        _same(a.classes_, b.classes_, f"classes_ {what}")
        assert a.n_classes_ == b.n_classes_, what


def _same_forest(a, b, X) -> None:
    assert len(a.estimators_) == len(b.estimators_)
    for i, (tree_a, tree_b) in enumerate(zip(a.estimators_, b.estimators_)):
        _same_tree(tree_a, tree_b, f"(tree {i})")
    _same(a.feature_importances_, b.feature_importances_, "forest importances")
    if hasattr(b, "predict_proba"):
        _same(a.predict_proba(X), b.predict_proba(X), "predict_proba")
    _same(a.predict(X), b.predict(X), "predict")


def _with_small(value: int):
    return mock.patch.object(split_engine, "_SMALL", value)


def _problem(seed: int, n: int, d: int, n_classes: int, ties: bool, dup_rows: bool):
    """X with the tie structures transformation chains produce, and y:
    codes of ``n_classes`` classes (the last one rare, so bootstraps miss
    it) or a regression target (rounded, so targets tie too)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if ties:
        X[:, 0] = np.round(X[:, 0])
        if d > 2:
            X[:, 1] = X[:, 2]
        if d > 3:
            X[:, -1] = 3.25
    if dup_rows:
        X[n // 2 :] = X[: n - n // 2]
    score = X @ rng.normal(size=d) + 0.3 * rng.normal(size=n)
    if n_classes == 0:
        return X, np.round(score, 1)
    if n_classes == 2:
        return X, (score > np.median(score)).astype(int)
    y = np.searchsorted(np.quantile(score, np.linspace(0, 1, n_classes)[1:-1]), score)
    y[rng.choice(n, size=2, replace=False)] = n_classes - 1
    return X, y


@st.composite
def problems(draw):
    n_classes = draw(st.sampled_from([0, 2, 3, 4, 7, 8, 10]))
    n = draw(st.integers(20, 160))
    d = draw(st.integers(1, 9))
    X, y = _problem(
        draw(st.integers(0, 2**16)), n, d, n_classes, draw(st.booleans()), draw(st.booleans())
    )
    params = dict(
        max_depth=draw(st.sampled_from([None, 8])),
        min_samples_leaf=draw(st.sampled_from([1, 3])),
        max_features=draw(st.sampled_from([None, "sqrt", 2, 0.6])),
        seed=draw(st.integers(0, 2**16)),
    )
    return X, y, n_classes, params, draw(st.sampled_from(SMALL))


class TestAgainstTheRecursiveBuilder:
    @SETTINGS
    @given(problem=problems())
    def test_single_trees(self, problem):
        X, y, n_classes, params, small = problem
        new, reference = (
            (DecisionTreeClassifier, ReferenceDecisionTreeClassifier)
            if n_classes
            else (DecisionTreeRegressor, ReferenceDecisionTreeRegressor)
        )
        with _with_small(small):
            a = new(**params).fit(X, y)
        b = reference(**params).fit(X, y)
        _same_tree(a, b)
        _same(a.predict(X), b.predict(X), "predict")

    @SETTINGS
    @given(problem=problems(), n_trees=st.integers(1, 5), bootstrap=st.booleans())
    def test_forests(self, problem, n_trees, bootstrap):
        X, y, n_classes, params, small = problem
        new, reference = (
            (RandomForestClassifier, ReferenceRandomForestClassifier)
            if n_classes
            else (RandomForestRegressor, ReferenceRandomForestRegressor)
        )
        params = dict(params, n_estimators=n_trees, bootstrap=bootstrap)
        with _with_small(small):
            a = new(**params).fit(X, y)
        _same_forest(a, reference(**params).fit(X, y), X)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(problem=problems())
    def test_gradient_boosting(self, problem):
        X, y, n_classes, params, small = problem
        model = (
            GradientBoostingClassifier(n_estimators=3, max_depth=3, seed=params["seed"])
            if n_classes
            else GradientBoostingRegressor(n_estimators=3, max_depth=3, seed=params["seed"])
        )
        with _with_small(small):
            a = clone(model).fit(X, y)
        with mock.patch.object(boosting, "DecisionTreeRegressor", ReferenceDecisionTreeRegressor):
            b = clone(model).fit(X, y)
        trees_a = [t for r in a.estimators_ for t in (r if isinstance(r, list) else [r])]
        trees_b = [t for r in b.estimators_ for t in (r if isinstance(r, list) else [r])]
        assert len(trees_a) == len(trees_b)
        for tree_a, tree_b in zip(trees_a, trees_b):
            _same_tree(tree_a, tree_b)
        _same(a.predict(X), b.predict(X), "predict")

    @pytest.mark.parametrize("n_classes", [0, 3, 10])
    def test_injected_engine_grows_in_lockstep(self, n_classes):
        # An engine with only best_split is asked node by node, on the
        # shared matrix, with each node's rows in its tree's sample order;
        # the recursive reference fits each tree on its own sample copy.
        X, y = _problem(5, 120, 6, n_classes, True, True)
        cls = (RandomForestRegressor, ReferenceRandomForestRegressor) if n_classes == 0 else (
            RandomForestClassifier, ReferenceRandomForestClassifier)
        params = dict(n_estimators=12, max_depth=8, seed=3)
        forest = cls[0](split_engine=NaiveEngine(), **params).fit(X, y)
        reference = cls[1](split_engine=NaiveEngine(), **params).fit(X, y)
        if n_classes:
            assert any(t.n_classes_ < n_classes for t in reference.estimators_)
        _same_forest(forest, reference, X)

    @pytest.mark.parametrize("n_classes", [3, 10])
    def test_bootstraps_missing_a_class(self, n_classes):
        # Trees whose bootstraps hold different class lists grow in
        # separate lockstep groups, each coded by its own class list.
        X, y = _problem(5, 120, 6, n_classes, True, False)
        params = dict(n_estimators=12, max_depth=8, seed=3)
        reference = ReferenceRandomForestClassifier(**params).fit(X, y)
        assert any(t.n_classes_ < n_classes for t in reference.estimators_)
        assert any(t.n_classes_ == n_classes for t in reference.estimators_)
        for small in SMALL:
            with _with_small(small):
                forest = RandomForestClassifier(**params).fit(X, y)
            _same_forest(forest, reference, X)


def _folds(y, n_splits, stratified):
    if stratified:
        return list(StratifiedKFold(n_splits, seed=0).split(y))
    return list(KFold(n_splits, seed=0).split(len(y)))


class TestCrossValidation:
    @pytest.mark.parametrize("small", SMALL)
    @pytest.mark.parametrize(
        "n_classes, metric", [(2, f1_score), (5, f1_score), (9, f1_score), (0, one_minus_rae)]
    )
    def test_joint_path_equals_fold_by_fold(self, n_classes, metric, small):
        X, y = _problem(7, 150, 7, n_classes, True, True)
        stratified = n_classes > 0
        template = (RandomForestClassifier if n_classes else RandomForestRegressor)(
            n_estimators=4, max_depth=8, seed=2
        )
        folds = _folds(y, 4, stratified)
        with _with_small(small):
            joint = [clone(template) for _ in folds]
            fit_forests(joint, X, y, [train for train, _ in folds])
            for model, (train, _) in zip(joint, folds):
                _same_forest(model, clone(template).fit(X[train], y[train]), X)
            scores = cross_val_score(
                template, X, y, metric, n_splits=4, seed=0, stratified=stratified
            )
        reference = (
            ReferenceRandomForestClassifier if n_classes else ReferenceRandomForestRegressor
        )(n_estimators=4, max_depth=8, seed=2)
        expected = cross_val_score(
            reference, X, y, metric, n_splits=4, seed=0, stratified=stratified
        )
        _same(scores, expected, "fold scores")

    def test_oracle_scores_equal_the_previous_oracle(self):
        X, y = _problem(11, 240, 12, 4, True, False)
        evaluator = DownstreamEvaluator("classification", n_splits=5, seed=0)
        previous = DownstreamEvaluator(
            "classification",
            model=ReferenceRandomForestClassifier(n_estimators=10, max_depth=8, seed=0),
            n_splits=5,
            seed=0,
        )
        assert evaluator.evaluate(X, y) == previous.evaluate(X, y)


class TestSavedArtifacts:
    def test_artifact_saved_by_the_recursive_builder(self):
        """An artifact saved before the lockstep builder loads and predicts
        the bytes it predicted then, and refitting its model on its
        training data grows the same trees."""
        expected = np.load(FIXTURE / "expected.npz")
        artifact = PipelineArtifact.load(FIXTURE / "artifact")
        _same(artifact.predict_proba(expected["query"]), expected["proba"], "predict_proba")
        _same(artifact.predict(expected["query"]), expected["predict"], "predict")
        refit = clone(artifact.model).fit(artifact.transform(expected["X"]), expected["y"])
        _same_forest(refit, artifact.model, artifact.transform(expected["query"]))
        # The refit model holds no engine and drags no training data along.
        assert all(tree.split_engine is None for tree in refit.estimators_)
        assert len(pickle.dumps(refit)) <= len((FIXTURE / "artifact" / "model.pkl").read_bytes())
