"""The paper's primary contribution: the three-stage modeling pipeline.

Stage 1 (:mod:`repro.core.profiler`) profiles collocated workloads and
measures effective cache allocation; Stage 2 (:mod:`repro.core.ea_model`)
trains deep-forest models of EA; Stage 3 (:mod:`repro.core.rt_model`)
converts EA into response time through queueing simulation.  The
:class:`~repro.core.pipeline.StacModel` facade composes the stages and
:mod:`repro.core.policy_search` explores timeout vectors.
"""

from repro.core.ea import ideal_effective_allocation
from repro.core.profile_vec import (
    RuntimeCondition,
    ProfileRow,
    ProfileDataset,
    STATIC_FEATURE_NAMES,
    DYNAMIC_FEATURE_NAMES,
)
from repro.core.sampling import uniform_conditions, stratified_conditions
from repro.core.profiler import Profiler
from repro.core.ea_model import EAModel
from repro.core.rt_model import ResponseTimeModel
from repro.core.pipeline import StacModel
from repro.core.policy_search import (
    explore_timeouts,
    model_driven_policy,
    slo_matching,
)
from repro.core.io import load_dataset, save_dataset

__all__ = [
    "ideal_effective_allocation",
    "RuntimeCondition",
    "ProfileRow",
    "ProfileDataset",
    "STATIC_FEATURE_NAMES",
    "DYNAMIC_FEATURE_NAMES",
    "uniform_conditions",
    "stratified_conditions",
    "Profiler",
    "EAModel",
    "ResponseTimeModel",
    "StacModel",
    "explore_timeouts",
    "model_driven_policy",
    "slo_matching",
    "load_dataset",
    "save_dataset",
]
