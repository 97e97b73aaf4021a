"""Kinetic Ising metastability toolkit.

Exact low-temperature energy landscapes on small boxes (cycles, cycle
compounds, communication energies, critical droplet constants), kinetic
Monte Carlo in graphical and rejection-free modes with monotone couplings,
space-time cluster tracking, a brute-force isoperimetric oracle, and
desk-scale nucleation/growth experiments.
"""

# kept equal to the version in pyproject.toml (a test checks it)
__version__ = "0.1.0"

from .energy import EnergyValue, MagneticField, NEG_INF_ENERGY
from .lattice import (BoundaryCondition, BoxGeometry, Configuration,
                      LatticeContext, build_context, connected_components,
                      delta_h, flip_rate, hamiltonian, meet_join)
from .landscape import (CriticalConstants, CyclePartition, LandscapeGraph,
                        RestrictedEnsemble, bottom_of, communication_energy,
                        control_inequality_report, critical_constants,
                        domain_hypothesis_check, enumerate_landscape,
                        gamma_continuity_scan, maximal_compounds,
                        maximal_cycles, path_energies, reference_path,
                        reference_profile_pairs, restricted_ensemble,
                        truncate_landscape)
from .wgraph import (RateMatrix, enumerate_wgraphs, exit_oracle_linear,
                     exit_point_law, exitcost_identity_check,
                     expected_exit_time, rate_matrix_from_landscape)
from .kmc import (EventStream, Trajectory, coupled_evolve, evolve_graphical,
                  evolve_rejection_free, evolve_restricted, hitting_time,
                  pred_all_plus, pred_energy_exceeds, pred_exits_set,
                  pred_spin_up_at, pred_volume_exceeds)
from .stc import (StcLedger, crossing_detected, crossing_time,
                  diam_infty_window, discrete_path_clusters,
                  doubling_extraction, track)
from .isoperimetry import (gravity_fall, isoperimetric_check, min_perimeter,
                           project_to_lower_dim)
from .experiments import (RunConfig, arrhenius_fit, run_growth_model,
                          run_infection_microscopic, run_nucleation,
                          run_stc_audit, solve_growth_threshold)

__all__ = [
    "__version__",
    "EnergyValue", "MagneticField", "NEG_INF_ENERGY",
    "BoundaryCondition", "BoxGeometry", "Configuration", "LatticeContext",
    "build_context", "connected_components", "delta_h", "flip_rate",
    "hamiltonian", "meet_join",
    "CriticalConstants", "CyclePartition", "LandscapeGraph",
    "RestrictedEnsemble", "bottom_of", "communication_energy",
    "control_inequality_report", "critical_constants",
    "domain_hypothesis_check", "enumerate_landscape", "gamma_continuity_scan",
    "maximal_compounds", "maximal_cycles", "path_energies", "reference_path",
    "reference_profile_pairs", "restricted_ensemble", "truncate_landscape",
    "RateMatrix", "enumerate_wgraphs", "exit_oracle_linear", "exit_point_law",
    "exitcost_identity_check", "expected_exit_time",
    "rate_matrix_from_landscape",
    "EventStream", "Trajectory", "coupled_evolve",
    "evolve_graphical", "evolve_rejection_free", "evolve_restricted",
    "hitting_time", "pred_all_plus", "pred_energy_exceeds", "pred_exits_set",
    "pred_spin_up_at", "pred_volume_exceeds",
    "StcLedger", "crossing_detected", "crossing_time", "diam_infty_window",
    "discrete_path_clusters", "doubling_extraction", "track",
    "gravity_fall", "isoperimetric_check", "min_perimeter",
    "project_to_lower_dim",
    "RunConfig", "arrhenius_fit", "run_growth_model",
    "run_infection_microscopic", "run_nucleation", "run_stc_audit",
    "solve_growth_threshold",
]
