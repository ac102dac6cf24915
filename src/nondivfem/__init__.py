"""2D finite elements for elliptic PDEs in non-divergence form A : grad^2 u = f.

The solver recovers a finite element Hessian (continuous or discontinuous),
solves the resulting matrix-free system with preconditioned GMRES, estimates
the error a posteriori and refines adaptively by newest-vertex bisection.
"""

from .mesh import Mesh, build_rect_mesh, bisect
from .space import (
    QuadratureRule,
    quadrature,
    FunctionSpace,
    FEFunction,
    build_space,
    interpolate,
    boundary_dofs,
)
from .hessian import (
    HessianOperator,
    assemble_mass_W,
    build_hessian_operator,
    recover_hessian,
)
from .operator import (
    ProblemData,
    CordesInfo,
    CordesViolated,
    SystemOperator,
    cordes_analyze,
    build_system,
    assemble_rhs,
    build_preconditioner,
    assemble_nsz,
    make_problem,
)
from .solve import gmres, solve_problem, Solution, SolveReport
from .estimate import (
    ErrorNorms,
    error_norms,
    estimate_level,
    local_estimator,
    eoc,
    ls_slope,
)
from .adapt import doerfler_mark, adaptive_loop, initial_mesh, AdaptiveRecord

__all__ = [
    "Mesh",
    "build_rect_mesh",
    "bisect",
    "QuadratureRule",
    "quadrature",
    "FunctionSpace",
    "FEFunction",
    "build_space",
    "interpolate",
    "boundary_dofs",
    "HessianOperator",
    "assemble_mass_W",
    "build_hessian_operator",
    "recover_hessian",
    "ProblemData",
    "CordesInfo",
    "CordesViolated",
    "SystemOperator",
    "cordes_analyze",
    "build_system",
    "assemble_rhs",
    "build_preconditioner",
    "assemble_nsz",
    "make_problem",
    "gmres",
    "solve_problem",
    "Solution",
    "SolveReport",
    "ErrorNorms",
    "error_norms",
    "local_estimator",
    "estimate_level",
    "eoc",
    "ls_slope",
    "doerfler_mark",
    "adaptive_loop",
    "initial_mesh",
    "AdaptiveRecord",
]
