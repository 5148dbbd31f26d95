"""The paper's contribution: PIM triangle counting (kernels, host pipeline, API)."""

from .api import PimTriangleCounter
from .dynamic import DynamicPimCounter, DynamicUpdateResult
from .host import PimTcOptions, PimTcPipeline
from .kernel_tc import ReferenceCounts, count_triangles_reference
from .local import LocalCountKernel, local_counts_from_arrays
from .kernel_tc_fast import FastCountResult, KernelCosts, TriangleCountKernel, fast_count
from .orient import OrientStats, orient_and_sort
from .region_index import RegionIndex, build_region_index
from .remap import RemapTable, apply_remap
from .result import KernelAggregate, LocalTcResult, TcResult

__all__ = [
    "PimTriangleCounter",
    "PimTcOptions",
    "PimTcPipeline",
    "TcResult",
    "LocalTcResult",
    "LocalCountKernel",
    "local_counts_from_arrays",
    "KernelAggregate",
    "DynamicPimCounter",
    "DynamicUpdateResult",
    "KernelCosts",
    "TriangleCountKernel",
    "FastCountResult",
    "fast_count",
    "ReferenceCounts",
    "count_triangles_reference",
    "OrientStats",
    "orient_and_sort",
    "RegionIndex",
    "build_region_index",
    "RemapTable",
    "apply_remap",
]
