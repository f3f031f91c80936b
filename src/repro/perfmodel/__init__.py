"""Analytic performance model of the paper's four evaluation machines.

See DESIGN.md §2 (hardware substitution) and §5 (calibration targets)."""

from .model import LaunchCost, PerfModel, classify
from .overheads import OVERHEADS, PortableOverhead, get_overhead
from .profiles import KERNEL_CLASSES, PROFILES, HardwareProfile, get_profile
from .report import Panel, Series, ascii_chart, format_table

__all__ = [
    "KERNEL_CLASSES",
    "LaunchCost",
    "OVERHEADS",
    "PROFILES",
    "Panel",
    "PerfModel",
    "PortableOverhead",
    "HardwareProfile",
    "Series",
    "ascii_chart",
    "classify",
    "format_table",
    "get_overhead",
    "get_profile",
]
