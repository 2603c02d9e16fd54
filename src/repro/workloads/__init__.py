"""Workload generation for online index-build experiments."""

from repro.workloads.generator import OpRecord, WorkloadDriver, WorkloadSpec
from repro.workloads.openloop import (
    OpenLoopDriver,
    OpenLoopSpec,
    ZipfSampler,
    arrival_schedule,
)
from repro.workloads.ridpool import RidPool

__all__ = [
    "OpRecord",
    "OpenLoopDriver",
    "OpenLoopSpec",
    "RidPool",
    "WorkloadDriver",
    "WorkloadSpec",
    "ZipfSampler",
    "arrival_schedule",
]
