"""Measurement: user-perceived utility and statistics."""

from repro.metrics.utility import (
    allocation_utility,
    assignment_utility,
    outcome_utility,
    proposal_utility,
)
from repro.metrics.stats import confidence_interval, describe, mean_ci
from repro.metrics.bootstrap import (
    BootstrapCI,
    bootstrap_ci,
    bootstrap_diff_ci,
)

__all__ = [
    "assignment_utility",
    "proposal_utility",
    "allocation_utility",
    "outcome_utility",
    "confidence_interval",
    "describe",
    "mean_ci",
    "BootstrapCI",
    "bootstrap_ci",
    "bootstrap_diff_ci",
]
