"""Differentially private gradient tracking over directed graphs: simulator,
spectral analysis, scheme validation, and closed-form privacy accounting."""

from .graphs import (
    GraphPair,
    SpectralConstants,
    build_graph_pair,
    check_connectivity,
    spectral_constants,
    spectrum,
)
from .objectives import (
    Dataset,
    Objective,
    make_quadratic,
    make_trig,
    verify_constants,
)
from .schemes import (
    S1Params,
    S2Params,
    check_budget_finiteness,
    rates_at,
    theta,
    validate,
    validate_s1,
    validate_s2,
)
from .engine import Trajectory, run, run_ensemble
from .privacy import (
    BudgetReport,
    SensitivityTrace,
    adjacency_constant,
    coupled_pair_run,
    epsilon,
    micro_dp_check,
    sensitivity_trace,
)
from .recursion import (
    ObjectiveConstants,
    build_model,
    certificate_check,
    contraction_check,
    dominance_check,
)
from .experiments import ExperimentConfig, fit_rate, run_experiment, suboptimal_horizon

__version__ = "0.1.0"
