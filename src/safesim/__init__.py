"""Stochastic workplace-safety simulator for benchmarking observer-allocation policies."""

from .engine import EnsembleSummary, Trajectory, run_ensemble, run_replications, run_simulation
from .policies import Policy, make_policy, policy_names, register_policy
from .scenario import (
    Scenario,
    case_study_path,
    load_case_study,
    load_scenario,
    load_scenario_file,
    serialize_scenario,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "EnsembleSummary",
    "Policy",
    "Scenario",
    "Trajectory",
    "case_study_path",
    "load_case_study",
    "load_scenario",
    "load_scenario_file",
    "make_policy",
    "policy_names",
    "register_policy",
    "run_ensemble",
    "run_replications",
    "run_simulation",
    "serialize_scenario",
    "validate_scenario",
]
