"""2D finite elements for elliptic PDEs in non-divergence form A : grad^2 u = f.

The solver recovers a finite element Hessian (continuous or discontinuous),
solves the resulting matrix-free system with preconditioned GMRES, estimates
the error a posteriori and refines adaptively by newest-vertex bisection.

The package exports the functions that the acceptance criteria, the
benchmark worker and the README's quick start call.  The types and the
building blocks (``Mesh``, ``FunctionSpace``, ``ProblemData``,
``assemble_mass_W``, ``doerfler_mark``, ...) live in the modules that
define them, e.g. ``from nondivfem.operator import ProblemData``.
"""

from .mesh import bisect, build_rect_mesh
from .space import build_space, interpolate
from .hessian import recover_hessian
from .operator import build_system, cordes_analyze, make_problem
from .solve import gmres, solve_problem
from .estimate import eoc, error_norms, estimate_level, local_estimator, ls_slope
from .adapt import adaptive_loop

__all__ = [
    "adaptive_loop",
    "bisect",
    "build_rect_mesh",
    "build_space",
    "build_system",
    "cordes_analyze",
    "eoc",
    "error_norms",
    "estimate_level",
    "gmres",
    "interpolate",
    "local_estimator",
    "ls_slope",
    "make_problem",
    "recover_hessian",
    "solve_problem",
]
