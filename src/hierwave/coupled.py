"""Coupled leader/follower optimality systems and the reach operator.

All couplings run through one discrete principle: the state solves the
sparse space-time operator M (the march), the companion (adjoint) field
solves M^T (the exact backward sweep of
:meth:`~hierwave.wave_core.WaveOperator.solve_adjoint`), and the
boundary-derivative trace that closes the loop is read off the transposed
solve.  Neither factors M: both run over its pre-factored tridiagonal step
matrices.  With the quadrature weights fixed once, the discrete
first-order conditions then hold to solver tolerance rather than to scheme
order, and the reach operator and its adjoint are exact transposes of each
other.  Both facts are what the verification suite leans on.

Systems provided (all with zero initial data for the state):

* equilibrium pair (u, p): state driven by both controls, companion driven
  by the tracking misfit; the follower trace is recovered from p.
* free pair (u0, p0) and leader pair (g, q): the same system with a zero
  leader control, or with no tracked trajectory.
* the reach operator's adjoint: the transposed coupled system, of which the
  leader reads only the boundary trace of its first field.

Every system is solved in the follower's boundary trace.  Let S = M^-1 E be
the state's response to unit Dirichlet data at the controlled endpoint and
H = S^T W S (:meth:`~hierwave.wave_core.WaveOperator.boundary_response`,
built once per mesh by one batched march).  On the follower's nodes the
equilibrium trace solves the symmetric positive definite system

    (sigma diag(tau) + H)_22 w2 = (S^T W u_tilde - H chi1 w1)_2,

well posed for every sigma > 0.  For two weights the systems differ by a
diagonal shift, so the mesh's operator keeps one eigendecomposition of the
tau-scaled follower block, D^-1 H_22 D^-1 = Q diag(lam) Q^T with
D = diag(tau_2)^1/2 (:meth:`~hierwave.wave_core.WaveOperator.follower_spectrum`),
and every engine on the mesh solves through it for its own sigma; a sigma
ladder holds one (N+1)^2 factor, not one per weight.  Each solve is exact,
with no iteration, relaxation or fallback.  The state
then takes one forward march and the companion one backward sweep.  The
first-order check along follower directions (``hierwave nash`` samples 8
seeded ones) reads their state responses against the state.  The responses
depend on the mesh and the directions alone, so the mesh's operator keeps
those of the last directions
(:meth:`~hierwave.wave_core.WaveOperator.sample_responses`) and a repeated
sample runs no march; the check still rests on a forward march of the
directions, not on the companion sweep that closed the equilibrium.  The
reach operator needs only the last three time levels of S, and its adjoint
only S^T on them, so neither runs a wave solve.  This is the control-space
(Schur complement) reduction of HUM: Lions, SIAM Review 30 (1988);
Glowinski, Lions & He, Exact and Approximate Controllability for
Distributed Parameter Systems, CUP 2008.

The one cache holds the wave operators of the last meshes (:func:`get_engine`),
each with every value kept for its mesh; a :class:`CoupledEngine` is a view of
one sigma and partition on an operator, built per call, that keeps nothing.

The public functions below take this path and no other.  Two independent
oracles remain as :class:`CoupledEngine` methods, reached by name from the
tests and :mod:`hierwave.verify`: relaxed Picard on the coupling trace
(:meth:`~CoupledEngine.picard_pair`, :meth:`~CoupledEngine.picard_adjoint_pair`)
and one LU of the assembled coupled system (:meth:`~CoupledEngine.direct_pair`,
:meth:`~CoupledEngine.direct_adjoint_pair`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .errors import ConfigurationError, ConvergenceError
from .geometry import SigmaPartition
from .grid import Field, Mesh, SpatialProfile, Trace
from .wave_core import WaveOperator, extract_terminal, terminal_adjoint

__all__ = [
    "PicardOptions",
    "FollowerConfig",
    "NashSolution",
    "solve_nash_system",
    "apply_A",
    "apply_A_star",
    "cost_J",
    "cost_J2",
    "euler_lagrange_residual",
    "CoupledEngine",
    "get_engine",
    "kept_mesh",
]


# the Picard oracle's relaxation: it starts undamped and halves on residual
# growth down to this floor
PICARD_RELAXATION = 1.0
PICARD_MIN_RELAXATION = 0.125
# the coupled LU's memory guard: its factors hold 9.7M nonzeros at Ny = 64
# and 52M at Ny = 128
COUPLED_LU_MAX_NY = 64
# meshes whose wave operator get_engine keeps, least recently used first out
# (each gated bench workload revisits 2); an operator holds every value kept
# for its mesh, H and the follower spectrum's Q among them, 4 MB each at Ny = 128
OPERATOR_CACHE_SIZE = 8


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of a symmetric positive definite ``a``.

    LAPACK ``dpotrf`` called as :func:`scipy.linalg.cho_factor` calls it, so
    the factor is the same to the bit, without that wrapper's per-call cost,
    which dominates on the leader's systems of under a hundred unknowns.  As
    there, a non-finite entry raises ValueError and a matrix that is not
    numerically positive definite raises LinAlgError.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = lapack().dpotrf(a, lower=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with a factor of :func:`_cho_factor` by LAPACK ``dpotrs``, as
    :func:`scipy.linalg.cho_solve` does; ``b`` is (n,) or (n, m)."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    return lapack().dpotrs(c, b, lower=False)[0]


@dataclass(frozen=True)
class PicardOptions:
    """Stopping rule of the relaxed Picard oracle."""

    max_iters: int = 600
    tol: float = 1e-11


@dataclass
class FollowerConfig:
    """Follower cost weight, desired trajectory, and boundary partition."""

    sigma: float
    partition: SigmaPartition
    u_tilde2: Field | None = None

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ConfigurationError(f"follower weight sigma must be positive, got {self.sigma}")


@dataclass
class NashSolution:
    u: Field
    p: Field
    w2: Trace
    residual: float  # sigma times the follower's optimality residual (CoupledEngine.schur_pair)


class CoupledEngine:
    """The coupled solves of one (sigma, partition) pair on the mesh of ``op``.

    The engine keeps nothing: what outlives a call is kept by the mesh's
    :class:`~hierwave.wave_core.WaveOperator` (:meth:`~hierwave.wave_core.WaveOperator.kept`).
    It reads the operator's mesh, so that it shares that mesh's weights.
    """

    def __init__(self, op: WaveOperator, sigma: float, partition: SigmaPartition):
        self.op = op
        self.mesh = mesh = op.mesh
        if partition.mask1.shape != (mesh.Nt + 1,):
            raise ConfigurationError(
                f"partition masks have length {partition.mask1.shape[0]}, grid wants {mesh.Nt + 1}"
            )
        self.sigma = float(sigma)
        self.partition = partition
        self.chi1 = partition.mask1.astype(float)
        self.chi2 = partition.mask2.astype(float)
        self.W, self.tau = mesh.W, mesh.tau
        self._zeros_full = np.zeros(mesh.Ny + 1)
        self._zeros_t = np.zeros(mesh.Nt + 1)
        self._idx2 = np.flatnonzero(partition.mask2)

    # -- elementary solves ---------------------------------------------------

    def state_solve(self, bc_values: np.ndarray) -> np.ndarray:
        """Forward march with Dirichlet data at the fixed endpoint, zero initial data."""
        return self.op.march(bc_values, self._zeros_t, self._zeros_full, self._zeros_full)

    def normal_trace(self, lam: np.ndarray) -> np.ndarray:
        """Operator-consistent outward normal derivative of a companion field
        at the controlled endpoint.

        Multiplier fields enter all first-order conditions through this
        trace; it approximates d(field)/dn = -d(field)/dx at x = 0 and makes
        the discrete optimality identities exact by construction.
        """
        return -lam[0, :] / self.tau

    def companion_field(self, lam: np.ndarray) -> np.ndarray:
        """Normalize a multiplier into nodal values of the companion field.

        The values are the multiplier's cotangent with respect to the
        nodal source, over the quadrature weights: level 0 takes the first
        step's Taylor term dt^2/2 on level 1 of lam, levels 1..N-1 take
        levels 2..N, and the boundary nodes and level N are zero.
        """
        vals = np.zeros_like(lam)
        vals[1:-1, 0] = 0.5 * self.mesh.dt**2 * lam[1:-1, 1]
        vals[1:-1, 1:-1] = lam[1:-1, 2:]
        return vals / self.W

    def terminal_cotangent(self, f0_vals: np.ndarray, f1_vals: np.ndarray) -> np.ndarray:
        """Cotangent that drives the transposed coupled system: the transpose
        of the reach output, paired against final data (f0, f1) on (0, alpha(T))."""
        mesh = self.mesh
        aT = mesh.alphas[-1]
        return terminal_adjoint(mesh, aT * mesh.wy * f0_vals, aT * mesh.wy * f1_vals)

    def trace_norm(self, values: np.ndarray) -> float:
        # overflow to inf is fine here: divergence is detected from the norm
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.sum(self.tau * values**2)))

    # -- the follower reduced to its boundary trace -----------------------------

    def follower_trace(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (sigma tau + H)_22 x_2 = rhs_2; x vanishes off the follower's nodes.

        ``rhs`` has shape (N+1,) or (N+1, m).  With the mesh's follower
        spectrum D^-1 H_22 D^-1 = Q diag(lam) Q^T, D = diag(tau_2)^1/2
        (:meth:`~hierwave.wave_core.WaveOperator.follower_spectrum`),
        x_2 = D^-1 Q (lam + sigma)^-1 Q^T D^-1 rhs_2; the engine keeps no
        factor of its own.  A system that is not numerically positive
        definite, lam_min + sigma <= 0, raises LinAlgError.
        """
        out = np.zeros_like(rhs)
        i = self._idx2
        if i.size == 0:
            return out
        d, lam, Q = self.op.follower_spectrum(i)
        shifted = lam + self.sigma
        if not shifted[0] > 0.0:
            raise np.linalg.LinAlgError(
                f"follower system not positive definite: lam_min + sigma = {shifted[0]:.3e}"
            )
        if rhs.ndim == 2:
            d, shifted = d[:, None], shifted[:, None]
        out[i] = d * (Q @ ((Q.T @ (d * rhs[i])) / shifted))
        return out

    def schur_bc(self, w1_values: np.ndarray, utilde: np.ndarray | None = None):
        """Equilibrium boundary data chi1 w1 + chi2 w2 and the follower trace w2.

        S^T W u_tilde, the boundary row of one transposed sweep, is the only
        wave solve; none when ``utilde`` is None or the mesh's operator
        keeps its row (:meth:`~hierwave.wave_core.WaveOperator.tracked_row`).
        """
        bc1 = self.chi1 * w1_values
        rhs = -(self.op.boundary_response().H @ bc1)
        if utilde is not None:
            rhs += self.op.tracked_row(utilde)
        w2 = self.follower_trace(rhs)
        return bc1 + self.chi2 * w2, w2

    def schur_pair(self, w1_values: np.ndarray, utilde: np.ndarray | None):
        """Equilibrium fields from the reduced solve.

        Returns (state, lam, w2, residual): one forward march for the state,
        one transposed sweep for the multiplier, and the trace residual
        between sigma w2 and chi2 times the multiplier's normal trace, the
        follower's optimality condition multiplied through by sigma, so that
        a small sigma does not scale up its round-off.
        """
        bc, w2 = self.schur_bc(w1_values, utilde)
        state = self.state_solve(bc)
        misfit = state if utilde is None else state - utilde
        lam = self.op.solve_adjoint(self.W * misfit)
        residual = self.trace_norm(self.chi2 * self.normal_trace(lam) - self.sigma * w2)
        return state, lam, w2, residual

    def schur_adjoint(self, rho_tails: np.ndarray):
        """Reduced solves of the transposed coupled system, one per column.

        ``rho_tails`` holds cotangents on the last three time levels, shape
        (J+1, 3, m).  Returns mu0, (N+1, m): the boundary row of the
        multiplier mu, from (sigma tau + H)_22 z_2 = (S^T rho)_2 and
        mu0 = S^T rho - H z; the second field psi has boundary data -z.
        On the follower's nodes mu0 is taken as sigma tau z, the same
        equation's left side, so that sigma psi(0, t) = -mu0 / tau holds
        there exactly.
        """
        resp = self.op.boundary_response()
        y = resp.transpose_tail(rho_tails)
        z = self.follower_trace(y)
        mu0 = y - resp.H @ z
        i = self._idx2
        mu0[i] = (self.sigma * self.tau[i])[:, None] * z[i]
        return mu0

    def free_terminal(self, utilde: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Final value and physical velocity of the zero-leader equilibrium
        tracking ``utilde``; with the tracked row kept, it runs no wave solve.

        The mesh's operator keeps the pair of the last (sigma, partition,
        ``utilde``) (:meth:`~hierwave.wave_core.WaveOperator.kept`); a
        repeated one runs no solve at all.
        """
        if utilde is None:
            zero = np.zeros(self.mesh.Ny + 1)
            return zero, zero.copy()

        def build():
            bc, _ = self.schur_bc(self._zeros_t, utilde)
            vel, neg_val = extract_terminal(self.mesh, self.op.boundary_response().terminal_levels(bc))
            return -neg_val, vel

        return self.op.kept("free_terminal", (self.sigma, self.partition.mask1, self.partition.mask2, utilde), build)

    # -- relaxed Picard on the coupling trace ---------------------------------

    def _relaxed_fixed_point(self, sweep, opts: PicardOptions, scale: float):
        """Drive a trace fixed point: relax, auto-halve on residual growth,
        accept a stall at the round-off floor.

        ``sweep(trace)`` returns (payload, next_trace); the converged payload
        and trace are returned together with the residual history.
        """
        trace = np.zeros(self.mesh.Nt + 1)
        theta = PICARD_RELAXATION
        residuals: list[float] = []
        prev_res = np.inf
        best_res = np.inf
        stall = 0
        for it in range(1, opts.max_iters + 1):
            payload, trace_next = sweep(trace)
            res = self.trace_norm(trace_next - trace)
            residuals.append(res)
            if not np.isfinite(res):
                raise ConvergenceError(
                    f"coupling trace iteration diverged at step {it}",
                    residual_history=residuals,
                )
            level = max(scale, self.trace_norm(trace_next))
            if res <= opts.tol * level or res == 0.0:
                return payload, trace_next, it, residuals
            if res < 0.98 * best_res:
                best_res = res
                stall = 0
            else:
                stall += 1
            if stall >= 40 and res <= 1e-7 * level:
                # round-off floor of the factorized solves
                return payload, trace_next, it, residuals
            if res > prev_res and theta > PICARD_MIN_RELAXATION:
                theta = max(theta / 2.0, PICARD_MIN_RELAXATION)
            prev_res = res
            trace = (1.0 - theta) * trace + theta * trace_next
        raise ConvergenceError(
            f"coupling trace iteration did not converge in {opts.max_iters} steps "
            f"(last residual {residuals[-1]:.3e}, relaxation {theta})",
            residual_history=residuals,
        )

    def picard_pair(
        self,
        w1_values: np.ndarray,
        utilde: np.ndarray | None,
        opts: PicardOptions = PicardOptions(),
    ):
        """Iterate state/companion solves until the coupling trace settles.

        Returns (state, lam, w2, iterations, residuals).  ``utilde`` is the
        tracked trajectory (None means zero, which yields the leader pair
        when w1 is the leader control).
        """
        scale = self.trace_norm(self.chi1 * w1_values)
        if utilde is not None:
            scale += float(np.sqrt(np.sum(self.W * utilde**2)))

        def sweep(w2):
            bc = self.chi1 * w1_values + self.chi2 * w2
            state = self.state_solve(bc)
            misfit = state if utilde is None else state - utilde
            lam = self.op.solve_adjoint(self.W * misfit)
            w2_next = (self.chi2 / self.sigma) * self.normal_trace(lam)
            return (state, lam), w2_next

        (state, lam), w2, it, residuals = self._relaxed_fixed_point(sweep, opts, scale)
        return state, lam, w2, it, residuals

    # -- direct (sparse-factorized) coupled solves ---------------------------

    def coupled_matrix(self) -> scipy.sparse.csc_matrix:
        # only the oracles use scipy.sparse, so production runs never load it
        import scipy.sparse

        M = self.op.matrix()
        size = M.shape[0]
        stride = self.mesh.Ny + 1
        n_idx = np.arange(self.mesh.Nt + 1)
        bc_rows = n_idx * stride
        coupling = scipy.sparse.coo_matrix(
            (self.chi2 / (self.sigma * self.tau), (bc_rows, bc_rows)), shape=(size, size)
        )
        W_flat = np.ascontiguousarray(self.W.T).ravel()
        K = scipy.sparse.bmat(
            [[M, coupling], [-scipy.sparse.diags(W_flat), M.T]], format="csc"
        )
        return K

    def coupled_lu(self):
        """Sparse LU of :meth:`coupled_matrix`, refused above Ny =
        ``COUPLED_LU_MAX_NY``.  Each call factors anew and the engine keeps
        nothing: the factors live only for the solve that asked for them
        (9.7M nonzeros at Ny = 64)."""
        if self.mesh.Ny > COUPLED_LU_MAX_NY:
            raise ConfigurationError(
                f"the coupled LU is limited to Ny <= {COUPLED_LU_MAX_NY}, got {self.mesh.Ny}"
            )
        import scipy.sparse.linalg

        return scipy.sparse.linalg.splu(self.coupled_matrix())

    def coupled_rhs(self, w1_values: np.ndarray, utilde: np.ndarray | None) -> np.ndarray:
        """Right-hand side of :meth:`coupled_matrix` for the leader data and
        the tracked trajectory (None means zero)."""
        size = self.W.size
        rhs = np.zeros(2 * size)
        rhs[np.arange(self.mesh.Nt + 1) * (self.mesh.Ny + 1)] = self.chi1 * w1_values
        if utilde is not None:
            rhs[size:] = -self.op._flatten(self.W * utilde)
        return rhs

    def adjoint_rhs(self, rho_terminal: np.ndarray) -> np.ndarray:
        """Right-hand side of the transposed coupled matrix for a terminal cotangent."""
        return np.concatenate([self.op._flatten(rho_terminal), np.zeros(self.W.size)])

    def direct_pair(self, w1_values: np.ndarray, utilde: np.ndarray | None):
        """Solve the coupled system in one shot.  Same unknowns as the Picard path."""
        sol = self.coupled_lu().solve(self.coupled_rhs(w1_values, utilde))
        size = self.W.size
        state = self.op._unflatten(sol[:size])
        lam = self.op._unflatten(sol[size:])
        w2 = (self.chi2 / self.sigma) * self.normal_trace(lam)
        return state, lam, w2

    def direct_adjoint_pair(self, rho_terminal: np.ndarray):
        """Solve the transposed coupled system driven by a terminal cotangent."""
        sol = self.coupled_lu().solve(self.adjoint_rhs(rho_terminal), trans="T")
        size = self.W.size
        mu = self.op._unflatten(sol[:size])
        psi = self.op._unflatten(sol[size:])
        return mu, psi

    def picard_adjoint_pair(self, rho_terminal: np.ndarray, opts: PicardOptions = PicardOptions()):
        """Picard version of :meth:`direct_adjoint_pair` on the psi boundary trace."""
        scale = float(np.sqrt(np.sum(rho_terminal**2)))

        def sweep(s):
            psi = self.state_solve(s)
            mu = self.op.solve_adjoint(rho_terminal + self.W * psi)
            s_next = (self.chi2 / self.sigma) * self.normal_trace(mu)
            return (mu, psi), s_next

        (mu, psi), s, it, residuals = self._relaxed_fixed_point(sweep, opts, scale)
        return mu, psi, s, it, residuals


_OPERATOR_CACHE: dict[Mesh, WaveOperator] = {}


def get_engine(mesh: Mesh, cfg: FollowerConfig) -> CoupledEngine:
    """A new engine for ``cfg`` on the mesh's cached operator.

    Meshes compare as their grid, so every op on one grid finds the same
    operator and the values it keeps; a mesh not in the cache gets a new
    operator once its CFL condition holds.
    """
    # dict order is the recency order: a hit moves to the back
    op = _OPERATOR_CACHE.pop(mesh, None)
    if op is None:
        mesh.require_cfl()
        op = WaveOperator(mesh)
    _OPERATOR_CACHE[mesh] = op
    while len(_OPERATOR_CACHE) > OPERATOR_CACHE_SIZE:
        del _OPERATOR_CACHE[next(iter(_OPERATOR_CACHE))]
    return CoupledEngine(op, cfg.sigma, cfg.partition)


def kept_mesh(mesh: Mesh) -> Mesh:
    """The mesh of the kept operator that compares equal to ``mesh``, else ``mesh``.

    Objects built on it share its node and weight arrays with the operator,
    so a warm op builds none of them again.
    """
    return _OPERATOR_CACHE[mesh].mesh if mesh in _OPERATOR_CACHE else mesh


def _utilde_values(cfg: FollowerConfig, mesh: Mesh) -> np.ndarray | None:
    if cfg.u_tilde2 is None:
        return None
    if cfg.u_tilde2.mesh != mesh:
        raise ConfigurationError("u_tilde2 lives on a different mesh")
    return cfg.u_tilde2.values


def _masked_values(trace: Trace, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, trace.values, 0.0)


def solve_nash_system(w1: Trace, cfg: FollowerConfig) -> NashSolution:
    """Equilibrium pair for a fixed leader control.

    The follower trace comes from one solve in the boundary trace through
    the mesh's follower spectrum, shared by every sigma on the mesh (see the
    module docstring), the state from one forward march and the companion
    from one backward sweep.
    """
    eng = get_engine(w1.mesh, cfg)
    mesh = eng.mesh
    utilde = _utilde_values(cfg, mesh)
    w1v = _masked_values(w1, cfg.partition.mask1)
    state, lam, w2, residual = eng.schur_pair(w1v, utilde)
    u = Field(state, mesh).check_finite()
    p = Field(eng.companion_field(lam), mesh)
    w2_trace = Trace(w2, cfg.partition.mask2, mesh)
    return NashSolution(u, p, w2_trace, residual)


def apply_A(w1: Trace, cfg: FollowerConfig):
    """Reach operator: leader control to (final velocity, -final value).

    The final levels are S_tail (chi1 w1 + chi2 w2), with no wave solve.
    """
    eng = get_engine(w1.mesh, cfg)
    mesh = eng.mesh
    w1v = _masked_values(w1, cfg.partition.mask1)
    bc, _ = eng.schur_bc(w1v)
    c1, c2 = extract_terminal(mesh, eng.op.boundary_response().terminal_levels(bc))
    T = mesh.domain.T
    return SpatialProfile(c1, T, mesh), SpatialProfile(c2, T, mesh)


def apply_A_star(f0: SpatialProfile, f1: SpatialProfile, cfg: FollowerConfig) -> Trace:
    """Adjoint of the reach operator: the leader's trace of the transposed
    coupled system driven by the final data (f0, f1).

    The trace is minus the boundary derivative of the first adjoint field on
    the leader's part of the boundary, mu0 / tau from the boundary row of
    one reduced solve (:meth:`CoupledEngine.schur_adjoint`), with no wave
    solve.  It satisfies the duality identity against :func:`apply_A`
    exactly (to solver tolerance).
    """
    scale0 = np.max(np.abs(f0.values)) if f0.values.size else 0.0
    if abs(f0.values[0]) > 1e-9 * max(1.0, scale0) or abs(f0.values[-1]) > 1e-9 * max(1.0, scale0):
        raise ConfigurationError("f0 plays the zero-boundary role: endpoints must vanish")
    if f1.mesh != f0.mesh:
        raise ConfigurationError("f0 and f1 must share a mesh")
    eng = get_engine(f0.mesh, cfg)
    mu0 = eng.schur_adjoint(eng.terminal_cotangent(f0.values, f1.values)[:, -3:, None])
    return Trace(mu0[:, 0] / eng.tau, cfg.partition.mask1, eng.mesh)


def cost_J2(u: Field, w2: Trace, cfg: FollowerConfig) -> float:
    """Follower cost: half tracking misfit over the domain plus weighted control energy."""
    mesh = u.mesh
    utilde = _utilde_values(cfg, mesh)
    misfit = u.values if utilde is None else u.values - utilde
    chi2 = cfg.partition.mask2
    return float(
        0.5 * np.sum(mesh.W * misfit**2) + 0.5 * cfg.sigma * np.sum(mesh.tau * chi2 * w2.values**2)
    )


def cost_J(w1: Trace) -> float:
    """Leader cost: half the squared boundary norm of the leader control."""
    return float(0.5 * np.sum(w1.mesh.tau * w1.mask * w1.values**2))


def euler_lagrange_residual(
    sol: NashSolution, cfg: FollowerConfig, directions: Sequence[Trace]
) -> np.ndarray:
    """First variation of the follower cost at ``sol``, one per direction.

    Each is zero (to solver tolerance) exactly when ``sol`` is the
    equilibrium.  The directions' state responses come from one batched
    forward march, independent of the companion sweep that closed the
    equilibrium; the mesh's operator keeps those of the last directions
    (:meth:`~hierwave.wave_core.WaveOperator.sample_responses`), so a
    repeated sample runs no march.
    """
    mesh = sol.u.mesh
    eng = get_engine(mesh, cfg)
    utilde = _utilde_values(cfg, mesh)
    misfit = sol.u.values if utilde is None else sol.u.values - utilde
    # the directions masked to the follower's nodes, one per column
    hat_vals = np.stack([_masked_values(d, cfg.partition.mask2) for d in directions], axis=1)
    # time-major levels (n, j, m), read flattened as (n j, m) by one product
    u_hat = eng.op.sample_responses(hat_vals)
    term1 = (eng.W * misfit).T.ravel() @ u_hat.reshape(-1, u_hat.shape[2])
    term2 = cfg.sigma * ((eng.tau * eng.chi2 * sol.w2.values) @ hat_vals)
    return term1 + term2
