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

The iteration runs in whitened coordinates z = R f, with R = blkdiag(R0,
Omega^1/2) the Cholesky factor of B (R0 that of K; Conn, Gould & Toint,
Trust-Region Methods, 2000, ch. 7).  There ||f0||_H = |z0| and ||f1||_L2 =
|z1|, the quadratic has the Gram matrix G^ = R^-T G R^-1 of the whitened
columns C R^-1 and the data term ell^ = R^-T ell, and the system above
becomes (S G^ S + I) y = -S ell^, z = S y, with S = P^1/2.  So each iterate
takes one Cholesky factorization, the distances are the block norms of
G^ z + ell^, and no Poisson solve runs inside the loop.  The public
operations take and return points in f.

The optimal leader control is recovered as the adjoint trace A* f at the
minimizer, its reach is checked through one honest application of the
reach operator, and optimality is certified through a sampled variational
inequality rather than a bare gradient norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from ._lapack import lapack
from .errors import ConfigurationError, InfeasibleError, InstabilityError
from .grid import Mesh, SpatialProfile, Trace
from .coupled import FollowerConfig, _cho_factor, _cho_solve, _utilde_values, apply_A, cost_J, get_engine
from .wave_core import terminal_adjoint_levels

__all__ = [
    "TargetSpec",
    "DualPoint",
    "DualOptions",
    "DualReport",
    "minimize_dual",
    "vi_residual",
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
        if self.u_target0.mesh != self.u_target1.mesh:
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
        if self.f0.mesh != self.f1.mesh:
            raise ConfigurationError("f0 and f1 must share a mesh")


@dataclass(frozen=True)
class DualOptions:
    max_iters: int = 20000
    tol_vi: float = 1e-6
    vi_samples: int = 100
    seed: int = 0

    def __post_init__(self):
        # with no iterate or no comparison point there is nothing to certify
        for name in ("max_iters", "vi_samples"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"optimizer.{name} must be at least 1, got {getattr(self, name)!r}")


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
    notes: list[str] = dc_field(default_factory=list)

    def payload(self) -> dict:
        """The report's JSON document: every scalar field; ``iterations`` is
        the history's length."""
        return {
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
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# dual model: coordinates, quadratic data, geometry
# ---------------------------------------------------------------------------

class _Point(NamedTuple):
    """A whitened coordinate vector z with the products that every evaluation
    at z shares, each computed once: G^ z, V = G^ z + ell^, and the block
    norms (|z0|, |z1|) = (||f0||_H, ||f1||_L2)."""

    z: np.ndarray
    Gz: np.ndarray
    V: np.ndarray
    norms: tuple


class _DualModel:
    """Coordinates and the materialized quadratic for one dual minimization.

    Coordinate vector f: interior values of f0 followed by all values of f1;
    the model works in z = R f.  V(z) = G^ z + ell^ is the gradient of the
    smooth part in z, and its two block norms are the distances of the final
    state to the velocity and value targets.
    The whitened columns, their Gram matrix and R depend on the mesh and the
    follower only; the mesh's operator keeps them for the last follower, and
    the free state's final pair for the last tracked trajectory too
    (:meth:`~hierwave.wave_core.WaveOperator.kept`).  The targets enter
    through ell^ alone.
    """

    def __init__(self, mesh: Mesh, cfg: FollowerConfig, targets: TargetSpec):
        self.eng = get_engine(mesh, cfg)
        self.mesh = mesh = self.eng.mesh
        self.cfg = cfg
        self.targets = targets
        J = mesh.Ny
        self.n0 = J - 1
        self.n1 = J + 1
        self.m = self.n0 + self.n1
        self.blocks = (slice(0, self.n0), slice(self.n0, self.m))
        self.omega = mesh.alphas[-1] * mesh.wy
        key = (self.eng.sigma, cfg.partition.mask1, cfg.partition.mask2)
        self.C, self.G, self.R = self.eng.op.kept("dual_gram", key, self._build_gram)
        self.u0T, self.u0pT = self.eng.free_terminal(_utilde_values(cfg, mesh))
        b0 = targets.u_target1.values - self.u0pT
        e1 = targets.u_target0.values - self.u0T
        ell = np.concatenate([-self.omega[1:-1] * b0[1:-1], self.omega * e1])
        self.ell = _triangular_solve(self.R, ell, trans=1)

    def _build_gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whitened adjoint traces of the coordinates, their Gram matrix, and
        the upper Cholesky factor R of B = blkdiag(K, Omega).

        Every column of C comes from one reduced transposed solve on the
        engine's Schur complement, with no wave solve; C R^-1 takes one
        triangular solve.
        """
        theta1 = np.zeros((self.n1, self.m))
        theta2 = np.zeros((self.n1, self.m))
        theta1[1:-1, : self.n0] = np.diag(self.omega[1:-1])
        theta2[:, self.n0 :] = np.diag(self.omega)
        rho_tails = terminal_adjoint_levels(self.mesh, theta1, theta2)
        mu0 = self.eng.schur_adjoint(rho_tails)
        cols = np.where(self.cfg.partition.mask1[:, None], mu0 / self.eng.tau[:, None], 0.0)
        hx = self.mesh.alphas[-1] * self.mesh.dy
        K = (2.0 * np.eye(self.n0) - np.eye(self.n0, k=1) - np.eye(self.n0, k=-1)) / hx
        R = np.zeros((self.m, self.m))
        # scipy.linalg.cholesky(K): the upper factor, its lower triangle zeroed
        R[: self.n0, : self.n0] = np.triu(_cho_factor(K))
        R[self.n0 :, self.n0 :] = np.diag(np.sqrt(self.omega))
        cols = _triangular_solve(R, cols.T, trans=1).T
        w = self.eng.tau * self.cfg.partition.mask1
        G = cols.T @ (w[:, None] * cols)
        return cols, 0.5 * (G + G.T), R

    # -- the two coordinate systems -------------------------------------------

    def whiten(self, f: DualPoint) -> np.ndarray:
        """z = R f of a dual point."""
        return self.R @ _pack(f)

    def unwhiten(self, z: np.ndarray) -> DualPoint:
        """The dual point f = R^-1 z."""
        return _unpack(_triangular_solve(self.R, z), self.mesh)

    # -- values, geometry -----------------------------------------------------

    def block_norms(self, z: np.ndarray) -> tuple:
        """(|z0|, |z1|) of one vector, or arrays of them over the leading
        axes of a block of vectors."""
        return (
            np.sqrt(np.einsum("...i,...i->...", z[..., : self.n0], z[..., : self.n0])),
            np.sqrt(np.einsum("...i,...i->...", z[..., self.n0 :], z[..., self.n0 :])),
        )

    def at(self, z: np.ndarray) -> _Point:
        """``z`` with its shared products."""
        Gz = self.G @ z
        return _Point(z, Gz, Gz + self.ell, tuple(math.sqrt(z[b] @ z[b]) for b in self.blocks))

    def value(self, point: _Point) -> float:
        nh, nl = point.norms
        smooth = float(0.5 * point.z @ point.Gz + self.ell @ point.z)
        return smooth + self.targets.rho1 * nh + self.targets.rho0 * nl


def _triangular_solve(R: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """R^-1 b, or R^-T b with ``trans=1``, for an upper triangular R: LAPACK
    ``dtrtrs``, as :func:`scipy.linalg.solve_triangular` calls it, without
    that wrapper's per-call cost."""
    return lapack().dtrtrs(R, b, trans=trans)[0]


def _pack(f: DualPoint) -> np.ndarray:
    return np.concatenate([f.f0.values[1:-1], f.f1.values])


def _unpack(fvec: np.ndarray, mesh: Mesh) -> DualPoint:
    J = mesh.Ny
    f0 = np.zeros(J + 1)
    f0[1:-1] = fvec[: J - 1]
    T = mesh.domain.T
    return DualPoint(SpatialProfile(f0, T, mesh), SpatialProfile(fvec[J - 1 :], T, mesh))


# ---------------------------------------------------------------------------
# the sampled certificate
# ---------------------------------------------------------------------------

# the factors of the scaled comparison points, in turn
_SCALINGS = np.array((0.0, 0.5, 0.9, 1.1, 2.0))


def _comparison_points(
    model: _DualModel, Z: np.ndarray, norms: np.ndarray, count: int, rngs: list
) -> np.ndarray:
    """The ``count`` comparison points of each row of ``Z``, shape
    (len(Z), count, m); ``norms`` holds the block norms of the rows of ``Z``.

    Row s takes its points from ``rngs[s]``: point i is fresh random data
    (i % 3 == 0), a local perturbation (1) or a scaling of the row (2).  The
    random points take one normal vector each, in the order of i, from one
    block draw (the stream of those draws one at a time), so the draws
    alternate between the first two kinds; they are the comparison points
    of the f coordinates mapped by R.
    """
    m = model.m
    drawn = np.array([rng.standard_normal((count - count // 3, m)) for rng in rngs]) @ model.R.T
    base = np.hypot(norms[:, 0], norms[:, 1])
    scale = np.where(base > 0, base, 1.0)[:, None, None]
    hats = np.empty((len(Z), count, m))
    hats[:, 0::3] = drawn[:, 0::2] * scale
    direction = drawn[:, 1::2]
    hats[:, 1::3] = Z[:, None] + 0.1 * scale * direction / np.hypot(*model.block_norms(direction))[..., None]
    hats[:, 2::3] = _SCALINGS[np.arange(2, count, 3) // 3 % 5, None] * Z[:, None]
    return hats


def _certificates(model: _DualModel, points: list[_Point], counts: list[int], rngs: list) -> np.ndarray:
    """The sampled certificate at each of ``points``, in one batch per
    distinct count.

    Point s is compared with the ``counts[s]`` points that
    :func:`_comparison_points` draws from ``rngs[s]``.  Its certificate is
    the smallest normalized defect of the variational inequality over those
    points, and 0 when none moves any term.
    """
    counts = np.asarray(counts)
    Z = np.array([p.z for p in points])
    V = np.array([p.V for p in points])
    N = np.array([p.norms for p in points], dtype=float)
    n0 = model.n0
    out = np.zeros(len(points))
    for count in np.unique(counts[counts > 0]).tolist():
        sel = np.flatnonzero(counts == count)
        hats = _comparison_points(model, Z[sel], N[sel], count, [rngs[k] for k in sel])
        dh = hats - Z[sel, None]
        nh_hat, nl_hat = model.block_norms(hats)
        terms = (
            np.einsum("sci,si->sc", dh[..., :n0], V[sel, :n0]),
            np.einsum("sci,si->sc", dh[..., n0:], V[sel, n0:]),
            model.targets.rho1 * (nh_hat - N[sel, 0, None]),
            model.targets.rho0 * (nl_hat - N[sel, 1, None]),
        )
        lhs = sum(terms)
        den = sum(np.abs(t) for t in terms)
        ratio = np.full(lhs.shape, np.inf)
        np.divide(lhs, den, out=ratio, where=den != 0.0)
        out[sel] = ratio.min(axis=1)
    return np.where(np.isinf(out), 0.0, out)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _check_target_reached(u_T: SpatialProfile, ut_T: SpatialProfile, targets: TargetSpec):
    """Distances to the two targets and closed-ball membership flags."""
    from .grid import l2_norm_physical, hminus1_norm_physical

    dist0 = l2_norm_physical(u_T - targets.u_target0)
    dist1 = hminus1_norm_physical(ut_T - targets.u_target1)
    reached0 = dist0 <= targets.rho0 * (1.0 + REACHED_RTOL)
    reached1 = dist1 <= targets.rho1 * (1.0 + REACHED_RTOL)
    return dist0, dist1, bool(reached0), bool(reached1)


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
    if sample_count < 1:
        raise ConfigurationError(f"sample_count must be at least 1, got {sample_count!r}")
    model = _DualModel(targets.mesh, cfg, targets)
    point = model.at(model.whiten(f))
    return float(_certificates(model, [point], [sample_count], [np.random.default_rng(seed)])[0])


def _reached(model: _DualModel, w1: Trace) -> tuple[float, float, bool, bool]:
    """:func:`_check_target_reached` on the final state that ``w1`` reaches,
    from one honest application of the reach operator."""
    c1, c2 = apply_A(w1, model.cfg)
    mesh, T = model.mesh, model.mesh.domain.T
    u_T = SpatialProfile(model.u0T - c2.values, T, mesh)
    ut_T = SpatialProfile(model.u0pT + c1.values, T, mesh)
    return _check_target_reached(u_T, ut_T, model.targets)


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
    return abs(cost_J(w1_star) + model.value(model.at(model.whiten(f_star))))


# ---------------------------------------------------------------------------
# the minimization driver
# ---------------------------------------------------------------------------

def _newton_step(jac: list, n: tuple, radii: tuple, free: tuple) -> tuple | None:
    """Newton's step on phi_i = 1/radius_i - 1/n_i over the free multipliers,
    from the Jacobian ``jac`` of the squared block norms n_i^2, in closed
    form; None when the system is singular or the step is not finite.  The
    rows of a block that is not free do not enter, whatever their values."""
    try:
        # d phi_i / d c_j = (d n_i^2 / d c_j) / (2 n_i^3)
        (a, b), (c, d) = (
            [j / (2.0 * x * x * x) for j in row] if f else (0.0, 0.0) for row, x, f in zip(jac, n, free)
        )
        phi = [1.0 / r - 1.0 / x if f else 0.0 for r, x, f in zip(radii, n, free)]
        if free[0] and free[1]:
            det = a * d - b * c
            step = ((b * phi[1] - d * phi[0]) / det, (c * phi[0] - a * phi[1]) / det)
        else:
            step = (-phi[0] / a, 0.0) if free[0] else (0.0, -phi[1] / d)
    except ZeroDivisionError:
        return None
    return step if all(math.isfinite(x) for x in step) else None


def _secular_newton(model: _DualModel, opts: DualOptions) -> tuple[list[_Point], list[tuple], int, str | None]:
    """Solve the two-block secular equation from zero multipliers.

    Returns every iterate, each with (the best dual value so far, the
    distance to the value target, the distance to the velocity target), the
    index of the iterate with the smallest secular residual, and the note
    naming why Newton's iteration stopped early, or None.  A block
    whose ball holds with its multiplier at zero stays out of the Newton
    system.  A first iterate whose value or distances are not finite raises
    InstabilityError.  The multipliers, distances and radii are pairs of
    floats, block 0 (f0, the velocity target) first.
    """
    n0, m, G, blocks = model.n0, model.m, model.G, model.blocks
    radii = (RADIUS_MARGIN * model.targets.rho1, RADIUS_MARGIN * model.targets.rho0)
    iterates: list[_Point] = []
    rows: list[tuple] = []
    best_value = np.inf
    best_res, best, stall = np.inf, 0, 0

    def solve(cd):
        roots = [math.sqrt(x) for x in cd]
        s = np.repeat(roots, (n0, model.n1))
        # S G^ S + I, block by block: S is sqrt(c) I, then sqrt(d) I
        A = np.empty((m, m))
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                np.multiply(G[bi, bj], roots[i] * roots[j], out=A[bi, bj])
        A.ravel()[:: m + 1] += 1.0
        chol = _cho_factor(A)
        z = s * _cho_solve(chol, -s * model.ell)
        # the dual minimized over z at fixed multipliers: convex in (c, d),
        # with gradient (radius^2 - distance^2) / 2
        obj = 0.5 * float(model.ell @ z) + 0.5 * sum(r * r * c for r, c in zip(radii, cd))
        return s, chol, z, obj

    cd = (0.0, 0.0)
    s, chol, z, obj = solve(cd)
    obj_prev = obj
    for _ in range(opts.max_iters):
        point = model.at(z)
        V = point.V
        # block norms of V: the distances to the velocity and value targets
        n = tuple(math.sqrt(V[b] @ V[b]) for b in blocks)
        value = model.value(point)
        if not iterates:
            for name, x in (("dual_value", value), ("dist_L2", n[1]), ("dist_Hm1", n[0])):
                if not math.isfinite(x):
                    raise InstabilityError(f"leader dual: the first iterate's {name} = {x} is not finite")
        best_value = min(best_value, value)
        iterates.append(point)
        rows.append((best_value, n[1], n[0]))

        free = tuple(c > 0.0 or x > r for c, x, r in zip(cd, n, radii))
        misses = [abs(x / r - 1.0) for x, r, f in zip(n, radii, free) if f]
        res = math.nan if any(map(math.isnan, misses)) else max(misses, default=0.0)
        # a stall is an iterate that neither halves the best residual so far
        # nor lowers the multipliers' objective beyond round-off: Newton's
        # steps do one or the other until the round-off floor, where tiny new
        # minima must not keep the iteration going
        progress = res < 0.5 * best_res or obj < obj_prev - OBJ_RTOL * abs(obj_prev)
        stall = 0 if progress else stall + 1
        if res < best_res or len(iterates) == 1:
            best_res, best = res, len(iterates) - 1
        # stop when converged, or once round-off keeps the residual from falling
        if res <= SECULAR_RTOL or stall >= 2:
            break

        # Jacobian of the squared block norms of g = -V: its derivatives
        # solve (G^ P + I) dg_j = G^ E_j V, one two-column solve with the
        # iterate's factor
        r = np.zeros((m, 2))
        r[:n0, 0] = V[:n0]
        r[n0:, 1] = V[n0:]
        r = G @ r
        try:
            u = _cho_solve(chol, s[:, None] * r)
        except ValueError:  # a right-hand side past the float range
            return iterates, rows, best, "newton_stopped_not_finite"
        dg = r - G @ (s[:, None] * u)
        jac = (-2.0 * np.array([V[b] @ dg[b] for b in blocks])).tolist()
        step = _newton_step(jac, n, radii, free)
        if step is None:
            return iterates, rows, best, "newton_stopped_not_finite"
        # halve the step until that objective does not rise: a full step can
        # push a multiplier through zero and cycle between two clipped points.
        # Below the control time the multipliers can grow until s G^ s + I,
        # with G^ numerically singular, loses definiteness in round-off; such
        # a trial counts as a rise.
        for _ in range(MAX_HALVINGS):
            trial = tuple(max(c + h, 0.0) if f else c for c, h, f in zip(cd, step, free))
            try:
                out = solve(trial)
            except np.linalg.LinAlgError:
                out = None
            else:
                if out[-1] <= obj + OBJ_RTOL * abs(obj):
                    break
            step = tuple(0.5 * h for h in step)
        if out is None:
            # not even the shortest step could be factored: keep the best iterate
            return iterates, rows, best, "newton_stopped_not_factorable"
        cd, obj_prev = trial, obj
        s, chol, z, obj = out
    return iterates, rows, best, None


def minimize_dual(targets: TargetSpec, cfg: FollowerConfig, opts: DualOptions):
    """Minimize the dual functional and reconstruct the optimal leader.

    Returns (f_star, w1_star, report).  The Gram matrix is built once per
    mesh and follower; the two ball multipliers are then fixed by a Newton
    iteration on the secular equation, each iterate an exact dense solve.
    History values are the best dual value so far, hence non-increasing.
    The history's per-iterate certificates (comparison points from the
    stream [seed, iteration]) and the final one (from the stream seed) are
    computed after the iteration, in one batch.
    """
    notes: list[str] = []
    if cfg.partition.mode == "time-split":
        notes.append("time_split_experimental")

    model = _DualModel(targets.mesh, cfg, targets)
    # data near the float range overflows in the products below; a first
    # iterate that is not finite raises, and a later value that is not
    # finite lands in the report, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        iterates, rows, best, stop = _secular_newton(model, opts)
        point = iterates[best]
        f_star = model.unwhiten(point.z)
        w1_star = Trace(model.C @ point.z, cfg.partition.mask1, model.mesh)
        d0, d1, r0, r1 = _reached(model, w1_star)
        vis = _certificates(
            model,
            [*iterates, point],
            [HISTORY_VI_SAMPLES] * len(iterates) + [opts.vi_samples],
            [np.random.default_rng([opts.seed, it]) for it in range(1, len(iterates) + 1)]
            + [np.random.default_rng(opts.seed)],
        )
        D_star = model.value(point)
        primal = cost_J(w1_star)
    history = [
        {"iter": it, "dual_value": value, "vi_residual": float(vi), "dist_L2": dist0, "dist_Hm1": dist1}
        for it, ((value, dist0, dist1), vi) in enumerate(zip(rows, vis), start=1)
    ]
    vi = float(vis[-1])
    certified = bool(vi >= -opts.tol_vi and r0 and r1)
    if stop:
        notes.append(stop)
    if not certified:
        notes.append("not_certified")
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
        notes=notes,
    )
    return f_star, w1_star, report
