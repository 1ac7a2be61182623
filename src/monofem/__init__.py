"""Finite-element solver for the monodomain cardiac model.

P1 triangles on a uniform rectangle mesh, linearized backward-Euler time
stepping, four reduced ionic models, and a convergence-rate verification
harness.
"""

from .assembly import (
    DiffusionTensor,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_norm,
)
from .ionic import ApParams, IonicModel, MsParams, make_model
from .mesh import TriMesh, build_uniform_mesh
from .solver import MonodomainSolver, SolverConfig, SolverState
from .sparse import DiaMatrix, cg_solve, from_triplets, spmv
from .verification import (
    ConvergenceRecord,
    ManufacturedProblem,
    StudyConfig,
    compute_rates,
    converged_reference,
    convergence_study,
    discrete_cell_trajectory,
    ode_reference,
)

__all__ = [
    "ApParams",
    "ConvergenceRecord",
    "DiaMatrix",
    "DiffusionTensor",
    "IonicModel",
    "ManufacturedProblem",
    "MonodomainSolver",
    "MsParams",
    "SolverConfig",
    "SolverState",
    "StudyConfig",
    "TriMesh",
    "assemble_mass",
    "assemble_stiffness",
    "build_uniform_mesh",
    "cg_solve",
    "compute_rates",
    "converged_reference",
    "convergence_study",
    "discrete_cell_trajectory",
    "from_triplets",
    "interpolate_nodal",
    "l2_norm",
    "make_model",
    "ode_reference",
    "spmv",
]

__version__ = "0.1.0"
