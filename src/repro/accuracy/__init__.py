"""Accuracy measures: RC (the paper's), MAC and F-measure."""

from .fmeasure import FMeasureResult, f_measure
from .mac import MACResult, mac_accuracy, mac_distance
from .rc import (
    RCResult,
    RelevanceCandidate,
    coverage_distance,
    max_coverage_distance,
    rc_accuracy,
    relevance_candidates,
    relevance_distance,
)

__all__ = [
    "FMeasureResult",
    "MACResult",
    "RCResult",
    "RelevanceCandidate",
    "coverage_distance",
    "f_measure",
    "mac_accuracy",
    "mac_distance",
    "max_coverage_distance",
    "rc_accuracy",
    "relevance_candidates",
    "relevance_distance",
]
