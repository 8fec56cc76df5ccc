"""The simulated testbed: Xeon machine specs, collocation layout and the
collocated discrete-event runtime that substitutes for the paper's
CAT-equipped hardware."""

from repro.testbed.machine import XeonSpec, MACHINES, get_machine, default_machine
from repro.testbed.collocation import CollocationConfig, CollocatedService
from repro.testbed.proxy import ProxyService
from repro.testbed.runtime import (
    CollocationRuntime,
    RunResult,
    SegmentTable,
    ServiceResult,
)

__all__ = [
    "XeonSpec",
    "MACHINES",
    "get_machine",
    "default_machine",
    "CollocationConfig",
    "CollocatedService",
    "ProxyService",
    "CollocationRuntime",
    "RunResult",
    "SegmentTable",
    "ServiceResult",
]
