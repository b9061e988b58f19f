"""Reference quantities that tests check the product against.

None of these is reached from the `quenchlab` command; each one is an
independent yardstick for something it does compute:

- `apply_laplacian`, the Laplacian stencil applied node by node, against
  which the banded operator of `mesh.laplacian_bands` is checked;
- `liapunov`, the energy that the flow of `dynamics.integrate` lowers;
- `convergence_check`, the distance of a subcritical run to the minimal
  steady state of `steady.minimal_states`;
- `singular_extremal_radial`, the closed-form singular extremal on the
  unit ball in dimensions >= 8, against which the discrete radial
  Laplacian is checked.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from quenchlab.dynamics import TimeConfig, integrate
from quenchlab.mesh import Mesh
from quenchlab.profiles import Profile, evaluate
from quenchlab.steady import minimal_states


def apply_laplacian(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Discrete Laplacian of nodal values u; boundary rows are returned as 0.

    Interior rows use the stored neighbor values, so the stencil is exact
    for quadratics regardless of the boundary data.
    """
    h2 = mesh.h * mesh.h
    out = np.zeros_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
    if mesh.is_radial:
        dim = mesh.geometry.dimension
        r = mesh.nodes[1:-1]
        out[1:-1] += (dim - 1) * (u[2:] - u[:-2]) / (2.0 * mesh.h * r)
        out[0] = 2.0 * dim * (u[1] - u[0]) / h2
    return out


def liapunov(mesh: Mesh, u: np.ndarray, lam: float, profile: Profile) -> float:
    """Energy 1/2 int |grad u|^2 - lam int f/(1-u), by centered differences."""
    grad = np.gradient(u, mesh.h)
    f = np.asarray(evaluate(profile, mesh.nodes), dtype=float)
    density = 0.5 * grad**2 - lam * f / (1.0 - u)
    return float(np.dot(mesh.weights, density))


@dataclass(frozen=True)
class ConvergenceTrace:
    times: Tuple[float, ...]
    distances: Tuple[float, ...]


def convergence_check(lam: float, profile: Profile, mesh: Mesh, cfg: TimeConfig) -> ConvergenceTrace:
    """Sup-distance of u(.,t) to the minimal steady state, per snapshot."""
    state = next(minimal_states([lam], profile, mesh))
    if state is None:
        raise ValueError("no minimal steady state at lam=%g" % lam)
    w = state.w
    traj, _ = integrate(lam, profile, mesh, cfg)
    dists = tuple(float(np.max(np.abs(u - w))) for u in traj.values)
    return ConvergenceTrace(times=tuple(traj.times.tolist()), distances=dists)


class OutOfRange(ValueError):
    """Requested parameters outside the closed-form regime."""


@dataclass(frozen=True)
class SingularExtremal:
    dimension: int
    alpha: float
    beta: float
    lambda_star: float
    alpha_max: float

    def w_star(self, mesh: Mesh) -> np.ndarray:
        return 1.0 - np.abs(mesh.nodes) ** self.beta


def alpha_max(dimension: int) -> float:
    """Largest power-profile exponent for which the singular form is extremal."""
    N = dimension
    return (4.0 - 6.0 * N + 3.0 * np.sqrt(6.0) * (N - 2.0)) / 4.0


def singular_extremal_radial(dimension: int, alpha: float) -> SingularExtremal:
    """Closed-form singular extremal on the unit ball, dimensions >= 8.

    w*(r) = 1 - r^beta with beta = (2+alpha)/3, and the matching
    lam_star = beta (N + beta - 2); valid while alpha <= alpha_max(N).
    """
    if dimension < 8:
        raise OutOfRange("closed form requires dimension >= 8")
    if alpha < 0:
        raise OutOfRange("alpha must be nonnegative")
    amax = alpha_max(dimension)
    if alpha > amax:
        raise OutOfRange("alpha=%g exceeds alpha_max(%d)=%g" % (alpha, dimension, amax))
    beta = (2.0 + alpha) / 3.0
    return SingularExtremal(
        dimension=dimension,
        alpha=float(alpha),
        beta=float(beta),
        lambda_star=float(beta * (dimension + beta - 2.0)),
        alpha_max=float(amax),
    )
