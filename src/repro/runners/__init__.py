"""The report that regenerates every table and figure, and its runners."""

from . import ablations, adaptation, figures, full_report, parallel
from .report import format_table

__all__ = [
    "ablations", "adaptation", "figures", "full_report", "parallel",
    "format_table",
]
