"""The leader's problem: minimize the dual functional over adjoint final data.

The primal problem (smallest leader energy subject to the final state and
velocity landing in prescribed balls) is attacked through its convex dual:

    D(f0, f1) = 1/2 || A* f ||^2  + (value-target - free-value(T), f1)
                - < velocity-target - free-velocity(T), f0 >
                + rho1 ||f0||_H + rho0 |f1|_L2

minimized over pairs (f0, f1) with f0 vanishing at both endpoints.  The
balls are on u(T) and u_t(T), the pair the reach operator returns.  In
coordinates (interior values of f0, then all values of f1) this is

    D(f) = 1/2 f.G f + ell.f + rho1 ||f0||_K + rho0 ||f1||_Omega

with G the Gram matrix of the adjoint traces, K the H^1_0 stiffness behind
the f0 norm and Omega the quadrature weights behind the f1 norm.  Writing
rho ||x|| = min_{c >= 0} ||x||^2 / (2c) + rho^2 c / 2 turns the minimization
into a choice of two scalar multipliers (c, d): for fixed multipliers the
minimizer is f = P g with

    (G P + B) g = -ell,    P = diag(c I, d I),  B = blkdiag(K, Omega),

where ||g0||_K and ||g1||_Omega are the distances of the final state to
the two targets.  The optimal multipliers put the state on the two ball
spheres, or leave a ball's multiplier at zero when that ball already
holds.  This is the two-block trust-region secular equation (More &
Sorensen 1983), solved by a Newton iteration on 1/rho - 1/||g_block||
whose steps are halved until the dual minimized over f at fixed (c, d), a
convex function of the multipliers, does not rise.  G itself is
numerically singular; the system is solved in its symmetric positive
definite form (P^1/2 G P^1/2 + B) h = -P^1/2 ell, which is well posed for
every multiplier pair because B is.

The optimal leader control is recovered as the adjoint trace A* f at the
minimizer, its reach is checked through one honest application of the
reach operator, and optimality is certified through a sampled variational
inequality rather than a bare gradient norm.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, InfeasibleError
from .grid import (
    Mesh,
    PoissonRiesz,
    SpatialProfile,
    Trace,
    trapezoid_weights,
)
from .coupled import FollowerConfig, _cho_factor, _cho_solve, apply_A, cost_J, get_engine
from .wave_core import terminal_adjoint_levels

logger = logging.getLogger(__name__)

__all__ = [
    "TargetSpec",
    "DualPoint",
    "DualOptions",
    "DualReport",
    "dual_functional",
    "dual_subgradient",
    "minimize_dual",
    "vi_residual",
    "check_target_reached",
    "duality_gap",
]

# roundoff guard when comparing a distance against a ball radius
REACHED_RTOL = 1e-9
# the secular equation aims at radii shrunk by this factor, so that the
# state reached through the reach operator itself lands inside the balls
RADIUS_MARGIN = 1.0 - 1e-7
# relative accuracy of the secular equation at which the iteration stops
SECULAR_RTOL = 1e-12
# comparison points of the per-iterate certificate recorded in the history
HISTORY_VI_SAMPLES = 8
# step halvings per Newton iterate, and the round-off allowance on the rise
# of the multipliers' objective that still accepts a step
MAX_HALVINGS = 40
OBJ_RTOL = 1e-10


@dataclass
class TargetSpec:
    """Final-state targets and ball radii (value in L2, velocity in the dual norm)."""

    u_target0: SpatialProfile
    u_target1: SpatialProfile
    rho0: float
    rho1: float

    def __post_init__(self):
        if self.rho0 <= 0.0 or self.rho1 <= 0.0:
            raise ConfigurationError("ball radii must be positive")
        if self.u_target0.mesh.key() != self.u_target1.mesh.key():
            raise ConfigurationError("targets must share a mesh")

    @property
    def mesh(self) -> Mesh:
        return self.u_target0.mesh


@dataclass
class DualPoint:
    """Adjoint final data: f0 with zero endpoints, f1 unconstrained."""

    f0: SpatialProfile
    f1: SpatialProfile

    def __post_init__(self):
        scale = float(np.max(np.abs(self.f0.values))) if self.f0.values.size else 0.0
        if abs(self.f0.values[0]) > 1e-9 * max(1.0, scale) or abs(self.f0.values[-1]) > 1e-9 * max(
            1.0, scale
        ):
            raise ConfigurationError("f0 endpoints must vanish")
        if self.f0.mesh.key() != self.f1.mesh.key():
            raise ConfigurationError("f0 and f1 must share a mesh")

    @classmethod
    def zeros(cls, mesh: Mesh) -> "DualPoint":
        T = mesh.domain.T
        return cls(SpatialProfile.zeros(mesh, T), SpatialProfile.zeros(mesh, T))


@dataclass(frozen=True)
class DualOptions:
    max_iters: int = 20000
    tol_vi: float = 1e-6
    vi_samples: int = 100
    seed: int = 0


@dataclass
class DualReport:
    dual_value: float
    primal_J: float
    gap: float
    gap_rel: float
    vi_residual: float
    dist_L2: float
    dist_Hm1: float
    reached: tuple[bool, bool]
    certified: bool
    iterations: int
    history: list[dict]
    method: str
    notes: list[str] = dc_field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "dual_value": self.dual_value,
            "primal_J": self.primal_J,
            "gap": self.gap,
            "gap_rel": self.gap_rel,
            "vi_residual": self.vi_residual,
            "dist_L2": self.dist_L2,
            "dist_Hm1": self.dist_Hm1,
            "reached": list(self.reached),
            "certified": self.certified,
            "iterations": self.iterations,
            "method": self.method,
            "notes": self.notes,
            "history_length": len(self.history),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# dual model: coordinates, quadratic data, geometry
# ---------------------------------------------------------------------------

class _Point(NamedTuple):
    """A coordinate vector f with the products that every evaluation at f
    shares, each computed once: G f, V f = G f + ell, and the norms
    (||f0||_H, ||f1||_L2)."""

    f: np.ndarray
    Gf: np.ndarray
    Vf: np.ndarray
    norms: tuple


class _DualModel:
    """Coordinates and the materialized quadratic for one dual minimization.

    Coordinate vector: interior values of f0 followed by all values of f1.
    The quadratic's 'dual representation' V(f) = G f + ell satisfies
    <grad, h> = V . h for the (H, L2) inner product after lifting, and
    g = -lift(V(f)) is the vector of the secular equation, whose block norms
    are the two target distances.
    G, the adjoint traces behind it and the norm blocks B depend on the mesh
    and the follower only, and are kept with the follower's engine, as is
    the free state's final pair for the last tracked trajectory; the targets
    enter through ell alone.
    """

    def __init__(self, mesh: Mesh, cfg: FollowerConfig, targets: TargetSpec):
        self.mesh = mesh
        self.cfg = cfg
        self.targets = targets
        self.eng = get_engine(mesh, cfg)
        J = mesh.Ny
        self.n0 = J - 1
        self.n1 = J + 1
        self.m = self.n0 + self.n1
        wy = trapezoid_weights(J + 1, mesh.dy)
        aT = mesh.alphas[-1]
        self.omega = aT * wy
        self.poisson = PoissonRiesz(mesh, mesh.domain.T)
        if self.eng.leader_gram is None:
            self.eng.leader_gram = self._build_gram()
        self.T_cols, self.G, self.B = self.eng.leader_gram
        utilde = cfg.u_tilde2.values if cfg.u_tilde2 is not None else None
        self.u0T, self.u0pT = self.eng.free_terminal(utilde)
        b0 = targets.u_target1.values - self.u0pT
        e1 = targets.u_target0.values - self.u0T
        self.ell = np.concatenate([-self.omega[1:-1] * b0[1:-1], self.omega * e1])

    # -- operator plumbing ---------------------------------------------------

    def _build_gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjoint traces of the unit coordinates, their Gram matrix, and the
        block matrix B = blkdiag(K, Omega) of the two norms.

        Every column comes from one reduced transposed solve on the
        engine's Schur complement, with no wave solve.
        """
        theta1 = np.zeros((self.n1, self.m))
        theta2 = np.zeros((self.n1, self.m))
        theta1[1:-1, : self.n0] = np.diag(self.omega[1:-1])
        theta2[:, self.n0 :] = np.diag(self.omega)
        rho_tails = terminal_adjoint_levels(self.mesh, theta1, theta2)
        _, mu0 = self.eng.schur_adjoint(rho_tails)
        cols = np.where(self.cfg.partition.mask1[:, None], mu0 / self.eng.tau[:, None], 0.0)
        w = self.eng.tau * self.cfg.partition.mask1
        G = cols.T @ (w[:, None] * cols)
        hx = self.poisson.hx
        K = (2.0 * np.eye(self.n0) - np.eye(self.n0, k=1) - np.eye(self.n0, k=-1)) / hx
        B = scipy.linalg.block_diag(K, np.diag(self.omega))
        return cols, 0.5 * (G + G.T), B

    def astar_trace(self, fvec: np.ndarray) -> np.ndarray:
        return self.T_cols @ fvec

    # -- values, gradients, geometry -----------------------------------------

    def at(self, fvec: np.ndarray) -> _Point:
        """``fvec`` with its shared products."""
        Gf = self.G @ fvec
        return _Point(fvec, Gf, Gf + self.ell, self.rho_norms(fvec))

    def rho_norms(self, fvec: np.ndarray) -> tuple:
        """(||f0||_H, ||f1||_L2) of one coordinate vector, or arrays of them
        over the rows of a (count, m) block."""
        f0 = np.zeros(fvec.shape[:-1] + (self.n1,))
        f0[..., 1:-1] = fvec[..., : self.n0]
        n_h = self.poisson.h10_values(f0)
        n_l2 = np.sqrt(np.sum(self.omega * fvec[..., self.n0 :] ** 2, axis=-1))
        return n_h, n_l2

    def value(self, point: _Point) -> float:
        nh, nl = point.norms
        smooth = float(0.5 * point.f @ point.Gf + self.ell @ point.f)
        return smooth + self.targets.rho1 * nh + self.targets.rho0 * nl

    def lift(self, Vstack: np.ndarray) -> np.ndarray:
        """Dual representation -> gradient coordinates in the (H, L2) metric (B^-1)."""
        r0 = np.zeros(self.n1)
        r0[1:-1] = Vstack[: self.n0] / self.omega[1:-1]
        g0 = self.poisson.solve_values(r0)
        g1 = Vstack[self.n0 :] / self.omega
        return np.concatenate([g0[1:-1], g1])

    # -- reached/vi bookkeeping on the materialized state ---------------------

    def state_misfits(self, point: _Point) -> tuple[np.ndarray, np.ndarray]:
        """(velocity misfit u'(T) - target1, value misfit u(T) - target0).

        Endpoint values of the velocity misfit are not represented in the
        coordinate space; they do not enter any of the norms or pairings
        used here.
        """
        Vstack = point.Vf
        ev = np.zeros(self.n1)
        ev[1:-1] = Vstack[: self.n0] / self.omega[1:-1]
        e_val = -Vstack[self.n0 :] / self.omega
        return ev, e_val

    def vi_min(self, point: _Point, hats: np.ndarray) -> float:
        """Smallest normalized inequality defect at ``point`` over the
        comparison points, the rows of ``hats``; 0 when no point moves any
        term."""
        ev, e_val = self.state_misfits(point)
        nh, nl = point.norms
        nh_hat, nl_hat = self.rho_norms(hats)
        dh = hats - point.f
        terms = (
            dh[:, : self.n0] @ (self.omega[1:-1] * ev[1:-1]),
            -(dh[:, self.n0 :] @ (self.omega * e_val)),
            self.targets.rho1 * (nh_hat - nh),
            self.targets.rho0 * (nl_hat - nl),
        )
        lhs = sum(terms)
        den = sum(np.abs(t) for t in terms)
        moved = den != 0.0
        return float(np.min(lhs[moved] / den[moved])) if moved.any() else 0.0


def _h_norm(norms: tuple):
    """The (H, L2) norm from the pair of block norms."""
    nh, nl = norms
    return np.sqrt(nh**2 + nl**2)


def _pack(f: DualPoint) -> np.ndarray:
    return np.concatenate([f.f0.values[1:-1], f.f1.values])


def _unpack(fvec: np.ndarray, mesh: Mesh) -> DualPoint:
    J = mesh.Ny
    f0 = np.zeros(J + 1)
    f0[1:-1] = fvec[: J - 1]
    T = mesh.domain.T
    return DualPoint(SpatialProfile(f0, T, mesh), SpatialProfile(fvec[J - 1 :], T, mesh))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def dual_functional(f: DualPoint, targets: TargetSpec, cfg: FollowerConfig) -> float:
    """Value of the dual objective at ``f``."""
    model = _DualModel(targets.mesh, cfg, targets)
    return model.value(model.at(_pack(f)))


def dual_subgradient(f: DualPoint, targets: TargetSpec, cfg: FollowerConfig) -> DualPoint:
    """An element of the subdifferential, lifted into the (H, L2) geometry.

    At points where a norm vanishes the corresponding shrinkage direction is
    taken as zero (a valid subgradient choice).
    """
    model = _DualModel(targets.mesh, cfg, targets)
    point = model.at(_pack(f))
    fvec = point.f
    grad = model.lift(point.Vf)
    nh, nl = point.norms
    if nh > 0.0:
        grad[: model.n0] += targets.rho1 * fvec[: model.n0] / nh
    if nl > 0.0:
        grad[model.n0 :] += targets.rho0 * fvec[model.n0 :] / nl
    return _unpack(grad, targets.mesh)


def check_target_reached(u_T: SpatialProfile, ut_T: SpatialProfile, targets: TargetSpec):
    """Distances to the two targets and closed-ball membership flags."""
    from .grid import l2_norm_physical, hminus1_norm_physical

    dist0 = l2_norm_physical(u_T - targets.u_target0)
    dist1 = hminus1_norm_physical(ut_T - targets.u_target1)
    reached0 = dist0 <= targets.rho0 * (1.0 + REACHED_RTOL)
    reached1 = dist1 <= targets.rho1 * (1.0 + REACHED_RTOL)
    return dist0, dist1, bool(reached0), bool(reached1)


def _sample_points(model: _DualModel, point: _Point, count: int, rng: np.random.Generator) -> np.ndarray:
    """Candidate comparison points, one per row: point i is fresh random data
    (i % 3 == 0), a local perturbation (1) or a scaling of ``point.f`` (2).

    The random points take one normal vector each, in the order of i; one
    block draw gives the stream of those draws one at a time.
    """
    fvec = point.f
    base = _h_norm(point.norms)
    scale = base if base > 0 else 1.0
    kind = np.arange(count) % 3
    drawn = kind[kind != 2]
    normals = rng.standard_normal((drawn.size, model.m))
    hats = np.empty((count, model.m))
    hats[kind == 0] = normals[drawn == 0] * scale
    direction = normals[drawn == 1]
    hats[kind == 1] = fvec + 0.1 * scale * direction / _h_norm(model.rho_norms(direction))[:, None]
    scalings = np.array((0.0, 0.5, 0.9, 1.1, 2.0))[(np.flatnonzero(kind == 2) // 3) % 5]
    hats[kind == 2] = scalings[:, None] * fvec
    return hats


def _certificate(model: _DualModel, point: _Point, count: int, rng: np.random.Generator) -> float:
    """The sampled certificate at ``point`` over ``count`` comparison points."""
    return model.vi_min(point, _sample_points(model, point, count, rng))


def vi_residual(
    f: DualPoint,
    targets: TargetSpec,
    cfg: FollowerConfig,
    sample_count: int = 100,
    seed: int = 0,
) -> float:
    """Sampled first-order optimality certificate.

    Minimum over comparison points of the normalized inequality defect; at
    the dual minimizer the result is nonnegative up to solver tolerance,
    and a markedly negative value witnesses non-optimality.
    """
    model = _DualModel(targets.mesh, cfg, targets)
    return _certificate(model, model.at(_pack(f)), sample_count, np.random.default_rng(seed))


def _reached(model: _DualModel, w1: Trace) -> tuple[float, float, bool, bool]:
    """:func:`check_target_reached` on the final state that ``w1`` reaches,
    from one honest application of the reach operator."""
    c1, c2 = apply_A(w1, model.cfg)
    mesh, T = model.mesh, model.mesh.domain.T
    u_T = SpatialProfile(model.u0T - c2.values, T, mesh)
    ut_T = SpatialProfile(model.u0pT + c1.values, T, mesh)
    return check_target_reached(u_T, ut_T, model.targets)


def duality_gap(
    w1_star: Trace,
    f_star: DualPoint,
    targets: TargetSpec,
    cfg: FollowerConfig,
) -> float:
    """|primal value + dual value| at a feasible control / dual pair.

    The ball-constraint indicator must be finite, so the control is required
    to reach both targets first.
    """
    model = _DualModel(targets.mesh, cfg, targets)
    d0, d1, r0, r1 = _reached(model, w1_star)
    if not (r0 and r1):
        raise InfeasibleError(
            f"control does not reach the targets (distances {d0:.3e}, {d1:.3e} "
            f"vs radii {targets.rho0:.3e}, {targets.rho1:.3e}); the gap is undefined"
        )
    return abs(cost_J(w1_star) + model.value(model.at(_pack(f_star))))


# ---------------------------------------------------------------------------
# the minimization driver
# ---------------------------------------------------------------------------

def _secular_newton(model: _DualModel, opts: DualOptions, history: list[dict]) -> _Point:
    """Solve the two-block secular equation from zero multipliers.

    Returns the dual point of the iterate with the smallest secular
    residual; appends one history row per iterate.  A block whose ball
    holds with its multiplier at zero stays out of the Newton system.
    Each iterate's products G f, V f and norms are computed once and
    shared by its history row and its Newton step.
    """
    blocks = (slice(0, model.n0), slice(model.n0, model.m))
    radii = RADIUS_MARGIN * np.array([model.targets.rho1, model.targets.rho0])
    best_value = np.inf
    best_res, stall = np.inf, 0

    def solve(cd):
        s = np.sqrt(np.repeat(cd, (model.n0, model.n1)))
        chol = _cho_factor(s[:, None] * model.G * s[None, :] + model.B)
        fvec = s * _cho_solve(chol, -s * model.ell)
        # the dual minimized over f at fixed multipliers: convex in (c, d),
        # with gradient (radius^2 - distance^2) / 2
        obj = 0.5 * float(model.ell @ fvec) + 0.5 * float(radii**2 @ cd)
        return s, chol, fvec, obj

    cd = np.zeros(2)
    s, chol, fvec, obj = solve(cd)
    obj_prev = obj
    for _ in range(max(opts.max_iters, 1)):
        point = model.at(fvec)
        Vf = point.Vf
        g = -model.lift(Vf)
        # block norms of g: the distances to the velocity and value targets
        n = np.sqrt([max(-float(g[b] @ Vf[b]), 0.0) for b in blocks])

        best_value = min(best_value, model.value(point))
        it = len(history) + 1
        rng = np.random.default_rng([opts.seed, it])
        history.append(
            {
                "iter": it,
                "dual_value": best_value,
                "vi_residual": _certificate(model, point, HISTORY_VI_SAMPLES, rng),
                "dist_L2": float(n[1]),
                "dist_Hm1": float(n[0]),
            }
        )

        free = (cd > 0.0) | (n > radii)
        res = float(np.max(np.abs(n[free] / radii[free] - 1.0), initial=0.0))
        # a stall is an iterate that neither halves the best residual so far
        # nor lowers the multipliers' objective beyond round-off: Newton's
        # steps do one or the other until the round-off floor, where tiny new
        # minima must not keep the iteration going
        progress = res < 0.5 * best_res or obj < obj_prev - OBJ_RTOL * abs(obj_prev)
        stall = 0 if progress else stall + 1
        if res < best_res:
            best_res, best = res, point
        # stop when converged, or once round-off keeps the residual from falling
        if res <= SECULAR_RTOL or stall >= 2:
            break

        # Jacobian of the squared block norms: (G P + B) dg = -G E_j g
        jac = np.empty((2, 2))
        for j, bj in enumerate(blocks):
            r = np.zeros(model.m)
            r[bj] = g[bj]
            r = -(model.G @ r)
            u = _cho_solve(chol, s * r)
            dg = model.lift(r - model.G @ (s * u))
            for i, bi in enumerate(blocks):
                jac[i, j] = -2.0 * float(Vf[bi] @ dg[bi])
        # Newton on phi_i = 1/radius_i - 1/n_i over the free multipliers
        phi = 1.0 / radii - 1.0 / n
        jphi = jac / (2.0 * n**3)[:, None]
        idx = np.flatnonzero(free)
        try:
            step = np.linalg.solve(jphi[np.ix_(idx, idx)], -phi[idx])
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        # halve the step until that objective does not rise: a full step can
        # push a multiplier through zero and cycle between two clipped points.
        # Below the control time the multipliers can grow until s G s + B,
        # with G numerically singular, loses definiteness in round-off; such
        # a trial counts as a rise.
        for _ in range(MAX_HALVINGS):
            trial = cd.copy()
            trial[idx] = np.maximum(cd[idx] + step, 0.0)
            try:
                out = solve(trial)
            except np.linalg.LinAlgError:
                out = None
            else:
                if out[-1] <= obj + OBJ_RTOL * abs(obj):
                    break
            step = 0.5 * step
        if out is None:
            # not even the shortest step could be factored: keep the best iterate
            break
        cd, obj_prev = trial, obj
        s, chol, fvec, obj = out
    return best


def minimize_dual(targets: TargetSpec, cfg: FollowerConfig, opts: DualOptions | None = None):
    """Minimize the dual functional and reconstruct the optimal leader.

    Returns (f_star, w1_star, report).  The Gram matrix is built once per
    mesh and follower; the two ball multipliers are then fixed by a Newton
    iteration on the secular equation, each iterate an exact dense solve.
    History values are the best dual value so far, hence non-increasing.
    """
    opts = opts or DualOptions()
    mesh = targets.mesh
    notes: list[str] = []
    if cfg.partition.mode == "time-split":
        notes.append("time_split_experimental")

    model = _DualModel(mesh, cfg, targets)
    history: list[dict] = []
    point = _secular_newton(model, opts, history)
    f_star = _unpack(point.f, mesh)
    w1_star = Trace(model.astar_trace(point.f), cfg.partition.mask1, mesh)
    d0, d1, r0, r1 = _reached(model, w1_star)

    vi = _certificate(model, point, opts.vi_samples, np.random.default_rng(opts.seed))
    certified = bool(vi >= -opts.tol_vi and r0 and r1)
    if not certified:
        notes.append("not_certified")
    D_star = model.value(point)
    primal = cost_J(w1_star)
    gap = abs(primal + D_star)
    gap_rel = gap / max(primal, abs(D_star), 1e-30)
    report = DualReport(
        dual_value=D_star,
        primal_J=primal,
        gap=gap,
        gap_rel=gap_rel,
        vi_residual=vi,
        dist_L2=d0,
        dist_Hm1=d1,
        reached=(r0, r1),
        certified=certified,
        iterations=len(history),
        history=history,
        method="secular-newton",
        notes=notes,
    )
    return f_star, w1_star, report
