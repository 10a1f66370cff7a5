"""Experiment drivers and reporting."""

from .report import format_table, write_report
from .speedup import RunPoint, measure, normalized_series, traditional_vs_scoped

__all__ = [
    "RunPoint",
    "format_table",
    "measure",
    "normalized_series",
    "traditional_vs_scoped",
    "write_report",
]
