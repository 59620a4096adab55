"""Desk-scale simulator for nonhomogeneous incompressible nematic liquid
crystal flow: density transport, a penalized director equation, and
variable-density Navier-Stokes with the director elastic stress, on a
staggered grid, with energy-law and long-time-decay diagnostics.
"""

from .density import DensityState, advance_density, cfl_number
from .diagnostics import (DiagContext, DiagRecord, compute_record,
                          convergence_monitor, read_csv, write_csv)
from .director import GLParams, advance_director, gl_residual_l2
from .forcing import ForcingSpec, eval_force
from .grid import (DirectorField, DirectorTrace, GridSpec, MacVelocity,
                   ScalarField, divergence, gradient_to_faces, laplacian,
                   norms)
from .momentum import FlowParams, elastic_force, predict_velocity, project
from .runner import (PRESETS, RunConfig, initial_state, load_config,
                     mms_verify, preset_config, run, step)
from .state import SimState
from .stationary import (RateFit, StationaryResult, decay_rate_fit,
                         lojasiewicz_probe, solve_stationary)

__version__ = "0.1.0"

__all__ = [
    "DensityState", "advance_density", "cfl_number",
    "DiagContext", "DiagRecord", "compute_record", "convergence_monitor",
    "read_csv", "write_csv",
    "GLParams", "advance_director", "gl_residual_l2",
    "ForcingSpec", "eval_force",
    "DirectorField", "DirectorTrace", "GridSpec", "MacVelocity",
    "ScalarField",
    "divergence", "gradient_to_faces", "laplacian", "norms",
    "FlowParams", "elastic_force", "predict_velocity", "project",
    "PRESETS", "RunConfig", "initial_state", "load_config", "mms_verify",
    "preset_config", "run", "step",
    "SimState",
    "RateFit", "StationaryResult", "decay_rate_fit",
    "lojasiewicz_probe", "solve_stationary",
]
