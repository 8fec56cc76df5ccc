"""Deep forest (gcForest-style) implementation from scratch.

No scikit-learn in this environment, so the full stack is built here:
vectorized CART regression trees, random and completely-random forests,
multi-grained scanning (representational learning) and cascade levels
(deep learning), per Zhou & Feng [36] and Section 4.1 of the paper.
"""

from repro.forest.tree import RegressionTree
from repro.forest.ensemble import (
    RandomForestRegressor,
    CompletelyRandomForestRegressor,
)
from repro.forest.mgs import MultiGrainScanner, sliding_windows
from repro.forest.cascade import CascadeForest
from repro.forest.deep_forest import DeepForestRegressor
from repro.forest.fast_inference import PackedForest
from repro.forest.parallel import TreeFitPlan, fit_plans

__all__ = [
    "RegressionTree",
    "RandomForestRegressor",
    "CompletelyRandomForestRegressor",
    "MultiGrainScanner",
    "sliding_windows",
    "CascadeForest",
    "DeepForestRegressor",
    "PackedForest",
    "TreeFitPlan",
    "fit_plans",
]
