"""Competing models and allocation policies from the evaluation section.

Models (Figure 6): linear regression, a single decision tree, a CNN
(NumPy implementation substituting for the paper's PyTorch model), and
a plain random forest ("simple ML").  Policies (Figure 8): no-sharing,
static-best, dCat [31], dynaSprint [12], and simple-ML-driven dynamic
allocation.
"""

from repro.baselines.linreg import RidgeRegression
from repro.baselines.dtree import DecisionTreeBaseline
from repro.baselines.cnn import CNNRegressor
from repro.baselines.ucp import marginal_utility_curve, ucp_partition, ucp_private_mb
from repro.baselines.policies import (
    PolicyDecision,
    RuntimeEvaluator,
    no_sharing_policy,
    static_best_policy,
    dcat_policy,
    dynasprint_policy,
)

__all__ = [
    "RidgeRegression",
    "DecisionTreeBaseline",
    "CNNRegressor",
    "PolicyDecision",
    "RuntimeEvaluator",
    "no_sharing_policy",
    "static_best_policy",
    "dcat_policy",
    "dynasprint_policy",
    "marginal_utility_curve",
    "ucp_partition",
    "ucp_private_mb",
]
