"""From-scratch classical ML zoo.

The model families AutoSklearn / AutoGluon / H2OAutoML search over,
re-implemented on numpy/scipy: linear models, CART trees, bagged and
extremely-randomized forests, histogram gradient boosting, k-NN, naive
Bayes — plus the metrics, model-selection utilities and preprocessing
the AutoML layer composes them with. Caruana ensemble selection lives in
:mod:`repro.ml.ensemble`.
"""

from repro.ml.base import Estimator, clone
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import ExtraTreesClassifier, RandomForestClassifier
from repro.ml.linear import LinearSVMClassifier, LogisticRegression
from repro.ml.metrics import (
    confusion_matrix,
    f1_score,
    log_loss,
    precision_recall_curve,
    precision_score,
    recall_score,
)
from repro.ml.model_selection import (
    StratifiedKFold,
    cross_val_predict_proba,
    train_test_split,
)
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.preprocessing import SimpleImputer, StandardScaler
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "DecisionTreeClassifier",
    "Estimator",
    "ExtraTreesClassifier",
    "GaussianNaiveBayes",
    "GradientBoostingClassifier",
    "KNeighborsClassifier",
    "LinearSVMClassifier",
    "LogisticRegression",
    "RandomForestClassifier",
    "SimpleImputer",
    "StandardScaler",
    "StratifiedKFold",
    "clone",
    "confusion_matrix",
    "cross_val_predict_proba",
    "f1_score",
    "log_loss",
    "precision_recall_curve",
    "precision_score",
    "recall_score",
    "train_test_split",
]
