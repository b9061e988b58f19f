"""Numerical laboratory for touchdown dynamics of an electrostatically
forced elastic membrane.

The governing parabolic problem is

    u_t = lap(u) + lam * f(x) / (1 - u)^2,   u = 0 on the boundary,
    u(x, 0) = 0,

on a slab or a radially symmetric ball.  Subpackages cover meshes and
discrete operators (`mesh`), permittivity profiles (`profiles`), the
steady problem and its fold (`steady`), time integration and quench
detection (`dynamics`), analytic quench-time estimates (`bounds`),
similarity-variable diagnostics (`selfsim`), the CSV artifact writer
(`csvio`), and a command line driver (`cli`).
"""

__version__ = "0.1.0"

from . import bounds, csvio, dynamics, mesh, profiles, selfsim, steady

__all__ = [
    "__version__",
    "bounds",
    "csvio",
    "dynamics",
    "mesh",
    "profiles",
    "selfsim",
    "steady",
]
