"""Coverage accounting: bitmaps, reports, gaps, and branch bottlenecks."""

from .bottleneck import BranchConstraintInfo, extract_bottlenecks
from .covmap import CoverageMap, absorb, coverage_record, merge_result
from .report import CoverageReport, disassembly_lines, render_report
from .uncovered import (
    FULLY_UNCOVERED,
    PARTIALLY_COVERED,
    MissingBodyRange,
    UncoveredFunction,
    extract_uncovered_functions,
)

__all__ = [
    "BranchConstraintInfo",
    "CoverageMap",
    "CoverageReport",
    "FULLY_UNCOVERED",
    "MissingBodyRange",
    "PARTIALLY_COVERED",
    "UncoveredFunction",
    "absorb",
    "coverage_record",
    "disassembly_lines",
    "extract_bottlenecks",
    "extract_uncovered_functions",
    "merge_result",
    "render_report",
]
