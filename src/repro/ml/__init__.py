"""Downstream tabular-ML substrate (scikit-learn stand-in).

FastFT treats the downstream task as a black-box oracle ``A(F, y) -> score``.
This subpackage provides everything that oracle needs, implemented from
scratch on numpy: estimators (trees, forests, boosting, linear models,
SVM, k-NN), metrics, preprocessing, cross-validation and mutual-information
estimators. Only three estimators need scipy, and each imports it on
first use: ``LogisticRegression`` and ``LinearSVMClassifier`` (L-BFGS) on
their first fit, and the ``KNeighbors*`` estimators (``cdist``) on their
first prediction. Importing this package never loads scipy.

The public surface mirrors scikit-learn's API (``fit`` / ``predict`` /
``predict_proba`` / ``get_params``) so examples read like ordinary sklearn
code.
"""

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, clone
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.cache import CachedEvaluator, EvaluationCache
from repro.ml.evaluation import DownstreamEvaluator, default_model_for_task
from repro.ml.feature_selection import SelectKBest, VarianceThreshold, mrmr_select
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import LinearRegression, LogisticRegression, RidgeClassifier, RidgeRegression
from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    mean_absolute_error,
    mean_squared_error,
    one_minus_mae,
    one_minus_mse,
    one_minus_rae,
    precision_score,
    recall_score,
    relative_absolute_error,
    roc_auc_score,
)
from repro.ml.model_selection import KFold, StratifiedKFold, cross_val_score, train_test_split
from repro.ml.mutual_info import mutual_info_features, mutual_info_with_target
from repro.ml.neighbors import KNeighborsClassifier, KNeighborsRegressor
from repro.ml.preprocessing import LabelEncoder, MinMaxScaler, RobustClipper, StandardScaler
from repro.ml.split_engine import PresortEngine, SplitEngine
from repro.ml.svm import LinearSVMClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "RegressorMixin",
    "clone",
    "EvaluationCache",
    "CachedEvaluator",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "LogisticRegression",
    "LinearRegression",
    "RidgeRegression",
    "RidgeClassifier",
    "LinearSVMClassifier",
    "KNeighborsClassifier",
    "KNeighborsRegressor",
    "StandardScaler",
    "MinMaxScaler",
    "RobustClipper",
    "LabelEncoder",
    "KFold",
    "StratifiedKFold",
    "train_test_split",
    "cross_val_score",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "roc_auc_score",
    "mean_absolute_error",
    "mean_squared_error",
    "relative_absolute_error",
    "one_minus_rae",
    "one_minus_mae",
    "one_minus_mse",
    "mutual_info_with_target",
    "mutual_info_features",
    "SelectKBest",
    "VarianceThreshold",
    "mrmr_select",
    "DownstreamEvaluator",
    "default_model_for_task",
    "SplitEngine",
    "PresortEngine",
]
