"""Wave solvers on the expanding domain, realized on the reference cylinder.

With y = x / a(t), a(t) = 1 + k t, the physical equation u_tt - u_xx = S
turns into

    v_tt - (2 k y / a) v_yt - ((1 - k^2 y^2) / a^2) v_yy + (2 k^2 y / a^2) v_y = S

on (0,1) x (0,T).  The stepper uses second-order central differences in y,
leapfrog in time, and the centered cross stencil for the mixed derivative.
The cross stencil couples the spatial neighbours of the new time level, so
each step solves a small tridiagonal system (the matrix is I/dt^2 plus an
antisymmetric perturbation and is always invertible); the march remains
local in time.

The march is forward substitution of one sparse space-time operator M,
which is block lower-triangular in time with the step matrices on its
diagonal.  Each operator holds one read-only table of the six step
coefficients (levels n-1 and n at offsets j-1, j, j+1; see
:class:`WaveOperator`), and each step's tridiagonal matrix factored once
(LAPACK dgttrf).  A step is one contraction of its table row with a
strided window of the two previous levels plus one pre-factored solve, for
any number of columns.  M^T lambda = rho is solved exactly by one backward
sweep over the same factors, the reverse (discrete-adjoint) sweep of
Griewank & Walther, Evaluating Derivatives, SIAM 2008, which reads the same
table transposed: each level is again one contraction and one solve.  Both
take O(N J) memory.  The transposed solves are the exact discrete adjoints
that the coupled optimality systems are built from; see
:mod:`hierwave.coupled`.
The same march run on all unit Dirichlet data at y = 0 at once gives the
boundary response S = M^-1 E, reduced to the Gram matrix S^T W S and the
last three time levels of S (:meth:`WaveOperator.boundary_response`).
M itself is assembled only for the independent oracles: its sparse LU
(:meth:`WaveOperator.solve_lu`) in the tests and the direct solves of
:mod:`hierwave.verify`.

Backward problems (data at t = T) are marched by the substitution
tau = T - t, which flips the sign of the mixed-derivative coefficient and
evaluates a at T - tau, then reuses the forward stepper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConfigurationError, InstabilityError
from .grid import Field, Mesh, SpatialProfile, Trace, space_time_weights
from .geometry import alpha

__all__ = [
    "WaveProblem",
    "WaveOperator",
    "BoundaryResponse",
    "solve_forward",
    "solve_backward",
    "trace_normal_derivative",
    "final_value_profile",
    "final_velocity_profile",
    "extract_terminal",
    "terminal_adjoint",
    "terminal_adjoint_levels",
    "profile_derivative_matrix",
]


def content_key(values: np.ndarray) -> tuple:
    """Shape and SHA-256 digest of an array's bytes: the key of a value kept
    for the last input it was computed from."""
    return (values.shape, hashlib.sha256(values.tobytes()).digest())


# ---------------------------------------------------------------------------
# small stencil helpers (interior <-> full-grid index conventions)
# ---------------------------------------------------------------------------

def _dc(z: np.ndarray, dy: float) -> np.ndarray:
    """Central first difference at interior nodes of a full-grid vector."""
    return (z[2:] - z[:-2]) / (2.0 * dy)


def _dyy(z: np.ndarray, dy: float) -> np.ndarray:
    """Central second difference at interior nodes of a full-grid vector."""
    return (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dy**2


def profile_derivative_matrix(n_nodes: int, dy: float) -> np.ndarray:
    """Dense d/dy on a profile: central interior, one-sided 3-point at the ends."""
    D = np.zeros((n_nodes, n_nodes))
    for j in range(1, n_nodes - 1):
        D[j, j - 1] = -1.0 / (2.0 * dy)
        D[j, j + 1] = 1.0 / (2.0 * dy)
    D[0, 0], D[0, 1], D[0, 2] = -3.0 / (2 * dy), 4.0 / (2 * dy), -1.0 / (2 * dy)
    D[-1, -1], D[-1, -2], D[-1, -3] = 3.0 / (2 * dy), -4.0 / (2 * dy), 1.0 / (2 * dy)
    return D


# ---------------------------------------------------------------------------
# the space-time operator
# ---------------------------------------------------------------------------

# time levels per product when H is accumulated
_RESPONSE_BLOCK = 16


@dataclass(frozen=True)
class BoundaryResponse:
    """The march's response to unit Dirichlet data at y = 0, in reduced form.

    Column m of S = M^-1 E is the field driven by a unit datum at time node
    m, with zero initial data and zero data at y = 1.  S itself is never
    held (at Ny = 128 it takes 513 MB); what the coupled systems need is

    * ``H = S^T W S``, shape (N+1, N+1), with W the space-time quadrature
      weights of :func:`~hierwave.grid.space_time_weights`;
    * ``tail``, shape (J+1, 3, N+1): time levels N-2, N-1 and N of S, from
      which final values and velocities are read.
    """

    H: np.ndarray
    tail: np.ndarray

    def terminal_levels(self, bc: np.ndarray) -> np.ndarray:
        """Last three time levels, shape (J+1, 3), of the field S bc."""
        return self.tail @ bc

    def transpose_tail(self, rho_tails: np.ndarray) -> np.ndarray:
        """S^T rho for cotangents living on the last three time levels.

        ``rho_tails`` has shape (J+1, 3, m); column k of the result, shape
        (N+1, m), is the boundary row of M^-T applied to cotangent k.
        """
        J1 = self.tail.shape[0]
        return self.tail.reshape(3 * J1, -1).T @ rho_tails.reshape(3 * J1, -1)


class WaveOperator:
    """Stepper plus sparse space-time matrix for one direction of the sweep.

    ``mirrored=True`` builds the operator for the substitution tau = T - t,
    used to march problems with data at the final time.
    """

    def __init__(self, mesh: Mesh, mirrored: bool = False):
        self.mesh = mesh
        self.mirrored = mirrored
        J, N = mesh.Ny, mesh.Nt
        self.J, self.N = J, N
        self.dy, self.dt = mesh.dy, mesh.dt
        st, self.b0 = self._stencil_table()
        self.stencil = st
        # two views of it, with a trailing axis so that a column batch
        # broadcasts: the interior rows, shape (N+1, 2, 3, J-1, 1), and the
        # table read transposed, shape (N, 2, 3, J+1, 1), whose entry
        # [n, l, o + 1, i] is stencil[n + l, 1 - l, 1 - o, i + 1 + o]
        self._rows = st[:, :, :, 2:-2, None]
        Ss, Sl, So, Sj = st.strides
        self._rows_transposed = np.lib.stride_tricks.as_strided(
            st[0, 1, 2],
            shape=(N, 2, 3, J + 1, 1),
            strides=(Ss, Ss - Sl, Sj - So, Sj, 0),
            writeable=False,
        )
        # the mesh's space-time quadrature weights, shape (J+1, N+1), on its
        # own time nodes; read-only, and shared by every engine on the mesh
        self.W = space_time_weights(mesh)
        self.W.flags.writeable = False
        self._steps = None
        self._matrix = None
        self._lu = None
        self._response = None
        # tracked_row's S^T W u_tilde for the last u_tilde, and
        # sample_responses' levels for the last boundary data, each keyed by
        # content_key
        self._tracked_row: tuple[tuple, np.ndarray] | None = None
        self._sample: tuple[tuple, np.ndarray] | None = None

    def _stencil_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only table of step coefficients, shape (N+1, 2, 3, J+3),
        and b at level 0 on the interior nodes, which the first step's
        velocity term reads.

        Step n, the step to level n+1, reads at interior node j

            v[j, n+1] / dt^2 - q (v[j+1, n+1] - v[j-1, n+1])
              = sum over l = 0, 1 and o = -1, 0, 1 of
                stencil[n, l, o + 1, j + 1] v[j + o, n - 1 + l]  + source,

        with q = stencil[n, 0, 0, j + 1]: level n-1 enters with (q, -1/dt^2,
        -q) and level n with (below, centre, above).  Row 0 holds the first
        step's stencil on level 0, the second-order Taylor term
        dt^2/2 (c v_yy - d v_y).  Node j sits in column j + 1; the columns of
        nodes -1, 0, J and J+1 and the row of step N are zero, so that the
        transposed sweep reads the table as it stands (:meth:`solve_adjoint`).
        """
        J, N, dy, dt = self.J, self.N, self.dy, self.dt
        b, c, d = self._coefficients()
        st = np.zeros((N + 1, 2, 3, J + 3))
        rows = st[:, :, :, 2:-2]
        np.divide(b[1:N], 4.0 * dy * dt, out=rows[1:N, 0, 0])
        rows[1:N, 0, 1] = -1.0 / dt**2
        np.negative(rows[1:N, 0, 0], out=rows[1:N, 0, 2])
        c /= dy**2
        d /= 2.0 * dy
        np.add(c[1:N], d[1:N], out=rows[1:N, 1, 0])
        np.multiply(c[1:N], -2.0, out=rows[1:N, 1, 1])
        rows[1:N, 1, 1] += 2.0 / dt**2
        np.subtract(c[1:N], d[1:N], out=rows[1:N, 1, 2])
        rows[0, 1] = 0.5 * dt**2 * np.stack([c[0] + d[0], -2.0 * c[0], c[0] - d[0]])
        st.flags.writeable = False
        return st, b[0].copy()

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cylinder equation's coefficients b, c, d at the interior
        nodes of every time level, each of shape (N+1, J-1)."""
        mesh = self.mesh
        y, k, t = mesh.y[1:-1], mesh.domain.k, mesh.times
        a = 1.0 + k * ((mesh.domain.T - t) if self.mirrored else t)
        sign = -1.0 if self.mirrored else 1.0
        b = sign * 2.0 * k * y[None, :] / a[:, None]
        c = (1.0 - (k * y[None, :]) ** 2) / a[:, None] ** 2
        d = 2.0 * k**2 * y[None, :] / a[:, None] ** 2
        return b, c, d

    # -- index layout: flat id = n * (J + 1) + j ----------------------------

    def _flatten(self, field_values: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(field_values.T).ravel()

    def _unflatten(self, vec: np.ndarray) -> np.ndarray:
        return vec.reshape(self.N + 1, self.J + 1).T.copy()

    # -- the step matrices, factored once ------------------------------------

    def _step_factors(self) -> list:
        """LAPACK ``dgttrf`` factors of every step's tridiagonal matrix.

        Entry n (1 <= n < N) factors the matrix of the step to level n+1 on
        the interior nodes: 1/dt^2 on the diagonal, -q_n above and q_n below.
        Together they take O(N J) memory; entry 0 is unused.
        """
        if self._steps is None:
            diag = np.full(self.J - 1, 1.0 / self.dt**2)
            steps = [None]
            for n in range(1, self.N):
                q = self.stencil[n, 0, 0, 2:-2]
                *factors, info = scipy.linalg.lapack.dgttrf(q[1:], diag, -q[:-1])
                if info != 0:
                    raise InstabilityError(f"singular step matrix at time step {n + 1}", step=n + 1)
                steps.append(tuple(factors))
            self._steps = steps
        return self._steps

    @staticmethod
    def _windows(levels: np.ndarray, count: int, apart: int = 1) -> np.ndarray:
        """Read-only view, shape (count, 2, 3, K-2) + batch, of a time-major
        buffer of levels of K nodes: entry [n, l, o + 1, j - 1] is node j + o
        of level n + l * apart.  Entry n lines up with one row of the stencil
        table, so their product holds the six terms of a step.  A ring of
        level slots passes the slot distance as ``apart``, which may be
        negative.
        """
        sn, sj = levels.strides[:2]
        return np.lib.stride_tricks.as_strided(
            levels,
            shape=(count, 2, 3, levels.shape[1] - 2) + levels.shape[2:],
            strides=(sn, apart * sn, sj, sj) + levels.strides[2:],
            writeable=False,
        )

    # -- marching (forward substitution of M) -------------------------------

    def march(
        self,
        bc0: np.ndarray,
        bc1: np.ndarray,
        a_init: np.ndarray,
        m_init: np.ndarray,
        source: np.ndarray | None = None,
        time_major: bool = False,
    ) -> np.ndarray:
        """Explicit-in-time sweep.  Inputs are cylinder quantities:

        bc0, bc1: Dirichlet data at y=0 / y=1 over all time nodes;
        a_init:   full initial profile (endpoints must match bc at n=0);
        m_init:   full initial cylinder velocity v_t(y, 0);
        source:   optional (J+1, N+1) nodal source.

        A batch of problems marches at once when ``bc0`` has shape (N+1, m):
        the other inputs then carry the same trailing axis or are shared by
        every column, and the field has shape (J+1, N+1, m).  Each step is
        one contraction of the step's row of the stencil table with levels
        n-1 and n, then one solve with the step's pre-factored tridiagonal
        matrix.

        ``time_major=True`` returns the march's own levels, shape (N+1, J+1)
        or (N+1, J+1, m), with no transposed copy.

        A level past 1e100 times the largest input (over every column), or
        not finite, raises InstabilityError naming the first such step; the
        levels are scanned once after the march, whose steps past an
        overflow run silently.
        """
        J, N, dy, dt = self.J, self.N, self.dy, self.dt
        bc0 = np.asarray(bc0, dtype=float)
        batched = bc0.ndim == 2
        width = bc0.shape[1] if batched else 1

        def columns(x, rows):
            return np.broadcast_to(np.asarray(x, dtype=float).reshape(rows, -1), (rows, width))

        bc0, bc1 = columns(bc0, N + 1), columns(bc1, N + 1)
        a_init, m_init = columns(a_init, J + 1), columns(m_init, J + 1)
        if source is not None:
            source = np.broadcast_to(
                np.asarray(source, dtype=float).reshape(J + 1, N + 1, -1), (J + 1, N + 1, width)
            )
        data_scale = max(
            float(np.max(np.abs(a_init))),
            float(np.max(np.abs(m_init))),
            float(np.max(np.abs(bc0))),
            float(np.max(np.abs(bc1))),
            float(np.max(np.abs(source))) if source is not None else 0.0,
            1.0,
        )
        blowup = 1e100 * data_scale
        # levels are held time-major, so that each step writes one block
        v = np.zeros((N + 1, J + 1, width))
        v[0] = a_init
        v[:, 0], v[:, J] = bc0, bc1
        windows = self._windows(v, N)
        rows = self._rows
        taylor = self.b0[:, None] * _dc(m_init, dy)
        if source is not None:
            taylor += source[1:-1, 0]
        v[1, 1:-1] = (v[0, 1:-1] + dt * m_init[1:-1] + 0.5 * dt**2 * taylor) + np.add.reduce(
            rows[0, 1] * windows[0, 0], axis=0
        )
        # the new level's boundary columns, moved to the right-hand side:
        # rows 0 and J-2 of each step's right-hand side
        edges = np.stack([-rows[:N, 0, 0, 0] * bc0[1:], rows[:N, 0, 0, -1] * bc1[1:]], axis=1)
        terms = np.empty((2, 3, J - 1, width))
        summands = terms.reshape(6, J - 1, width)
        rhs = np.empty((J - 1, width))
        ends = rhs[:: J - 2]

        steps = self._step_factors()
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, N):
                np.multiply(rows[n], windows[n - 1], out=terms)
                np.add.reduce(summands, axis=0, out=rhs)
                if source is not None:
                    rhs += source[1:-1, n]
                ends += edges[n]
                v[n + 1, 1:-1] = scipy.linalg.lapack.dgttrs(*steps[n], rhs)[0]
            # the largest magnitude of each new level; NaN propagates
            inner = v[2:, 1:-1]
            peaks = np.maximum(inner.max(axis=(1, 2)), -inner.min(axis=(1, 2)))
            bad = np.flatnonzero(~np.isfinite(peaks) | (peaks > blowup))
        if bad.size:
            step = int(bad[0]) + 2
            raise InstabilityError(
                f"unstable march at time step {step} (t = {step * dt:.4g}, "
                f"amplitude {peaks[bad[0]]:.3e})",
                step=step,
            )
        if time_major:
            return v if batched else v[:, :, 0]
        field = np.ascontiguousarray(v.transpose(1, 0, 2))
        return field if batched else field[:, :, 0]

    # -- the exact transposed sweep (backward substitution of M^T) ---------

    def solve_adjoint(self, rho: np.ndarray) -> np.ndarray:
        """Multiplier field lambda with M^T lambda = rho (rho full-grid).

        M is block lower-triangular in time, so M^T is solved exactly by one
        backward sweep from t = T: each level takes the transposed factors
        of its own step matrix, after the levels above it have pushed their
        couplings down.  ``rho`` of shape (J+1, N+1, m) solves m cotangents
        at once.

        The couplings are the stencil table read transposed: node i of
        level n takes, at offset o, the row of node i - o of step n (on level
        n+1) and of step n+1 (on level n+2) at the mirrored offset -o.  A
        strided view of the table lines these up with the same windows the
        march reads, so each level is one contraction; the table's zero
        columns and zero last step cover the boundary nodes and the top two
        levels.
        """
        J, N = self.J, self.N
        batched = np.ndim(rho) == 3
        rho = np.asarray(rho, dtype=float).reshape(J + 1, N + 1, -1)
        width = rho.shape[2]
        # time-major, with a zero node at each end and a zero level N+1 for
        # the windows to read; each level is overwritten by its solution
        lam = np.zeros((N + 2, J + 3, width))
        lam[: N + 1, 1:-1] = rho.transpose(1, 0, 2)
        windows = self._windows(lam[1:], N)
        rows = self._rows_transposed
        terms = np.empty((2, 3, J + 1, width))
        summands = terms.reshape(6, J + 1, width)
        coupled = np.empty((J + 1, width))
        steps = self._step_factors()
        r = lam[N, 2:-2]
        r[:] = scipy.linalg.lapack.dgttrs(*steps[N - 1], r, trans="T")[0]
        for n in range(N - 1, -1, -1):
            np.multiply(rows[n], windows[n], out=terms)
            np.add.reduce(summands, axis=0, out=coupled)
            r = lam[n, 1:-1]
            r += coupled
            if n >= 2:
                # level n's own step matrix, transposed
                r[1:-1] = scipy.linalg.lapack.dgttrs(*steps[n - 1], r[1:-1], trans="T")[0]
        # the boundary nodes of levels 2..N, which no lower level reads
        q = self.stencil[1:N, 0, 0, :, None]
        lam[2 : N + 1, 1] -= q[:, 2] * lam[2 : N + 1, 2]
        lam[2 : N + 1, J + 1] += q[:, J] * lam[2 : N + 1, J]
        field = np.ascontiguousarray(lam[: N + 1, 1:-1].transpose(1, 0, 2))
        return field if batched else field[:, :, 0]

    # -- the response to unit boundary data, all columns in one march -------

    def boundary_response(self) -> BoundaryResponse:
        """H = S^T W S and the last three levels of S, built once per operator.

        One march over all N+1 unit data at y = 0 together: each step is one
        banded solve whose right-hand side holds the active columns only
        (level n is nonzero only in columns 0..n, the data already seen).
        H is accumulated level by level, so S is never held whole.
        """
        if self._response is None:
            self._response = self._march_boundary_response()
        return self._response

    def tracked_row(self, utilde: np.ndarray) -> np.ndarray:
        """S^T W u_tilde: the boundary row of the transposed sweep of W u_tilde.

        It depends on the mesh and u_tilde alone, so every engine on the
        mesh shares it; the row of the last u_tilde is kept.
        """
        key = content_key(utilde)
        if self._tracked_row is None or self._tracked_row[0] != key:
            row = self.solve_adjoint(self.W * utilde)[0, :]
            self._tracked_row = (key, row)
        return self._tracked_row[1]

    def sample_responses(self, bc: np.ndarray) -> np.ndarray:
        """Time-major levels, shape (N+1, J+1, m), of the march of the
        Dirichlet data ``bc`` at y = 0, shape (N+1, m), from zero initial data.

        They depend on the mesh and ``bc`` alone, so every engine on the mesh
        shares them; the levels of the last ``bc`` are kept, read-only.
        """
        key = content_key(bc)
        if self._sample is None or self._sample[0] != key:
            zeros_t, zeros = np.zeros(self.N + 1), np.zeros(self.J + 1)
            levels = self.march(bc, zeros_t, zeros, zeros, time_major=True)
            levels.flags.writeable = False
            self._sample = (key, levels)
        return self._sample[1]

    def _unit_levels(self):
        """Yield (n, level) for the march driven by every unit datum at y = 0.

        ``level`` has shape (J+1, N+1), column m being driven by the datum at
        time node m; only columns 0..n are nonzero.  The arrays are reused
        from one step to the next.  The arithmetic is :meth:`march`'s, with
        the active columns as a batch of right-hand sides.
        """
        J, N = self.J, self.N
        # levels n-1, n and n+1 take turns in three slots; windows[s] reads
        # the slot of level n - 1 and that of level n for n % 3 == s
        ring = np.zeros((3, J + 1, N + 1))
        windows = [self._windows(ring[(s - 1) % 3 :], 1, s - (s - 1) % 3)[0] for s in range(3)]
        rows = self._rows
        ring[0, 0, 0] = 1.0
        yield 0, ring[0]
        ring[1, 1:-1, :1] = np.add.reduce(rows[0, 1] * windows[1][0, :, :, :1], axis=0)
        ring[1, 0, 1] = 1.0
        yield 1, ring[1]

        # the six terms are summed one at a time, in the order in which
        # march's np.add.reduce sums them, so every column equals its own
        # march bit for bit; at this width that keeps two (J-1, n+2) arrays
        # live instead of six.  Contiguous buffers: a strided slice of
        # full-width ones makes the build slower.
        acc = np.empty((J - 1) * (N + 1))
        term = np.empty((J - 1) * (N + 1))
        steps = self._step_factors()
        for n in range(1, N):
            a = n + 2
            rhs = acc[: (J - 1) * a].reshape(J - 1, a)
            product = term[: (J - 1) * a].reshape(J - 1, a)
            row, window = rows[n], windows[n % 3][..., :a]
            np.multiply(row[0, 0], window[0, 0], out=rhs)
            for l, o in ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2)):
                np.multiply(row[l, o], window[l, o], out=product)
                rhs += product
            # the new level's own datum, in column n + 1, moved to the right
            rhs[0, n + 1] -= row[0, 0, 0, 0]
            nxt = ring[(n + 1) % 3]
            nxt[1:-1, :a] = scipy.linalg.lapack.dgttrs(*steps[n], rhs)[0]
            nxt[0, :] = 0.0
            nxt[0, n + 1] = 1.0
            yield n + 1, nxt

    def _march_boundary_response(self) -> BoundaryResponse:
        J, N = self.J, self.N
        sqrt_w = np.sqrt(self.W)
        H = np.zeros((N + 1, N + 1))
        tail = np.zeros((J + 1, 3, N + 1))
        # weighted levels enter H a block at a time: one product per level
        # spends most of the build on adding into H
        block = np.zeros((_RESPONSE_BLOCK, J + 1, N + 1))

        def add_block(i, n):
            x = block[: i + 1, :, : n + 1].reshape(-1, n + 1)
            H[: n + 1, : n + 1] += x.T @ x

        for n, level in self._unit_levels():
            i = n % _RESPONSE_BLOCK
            block[i, :, : n + 1] = sqrt_w[:, n, None] * level[:, : n + 1]
            if i == _RESPONSE_BLOCK - 1:
                add_block(i, n)
            if n >= N - 2:
                tail[:, n - (N - 2), :] = level
        # the last, partial block enters once the march has freed its buffers
        if N % _RESPONSE_BLOCK != _RESPONSE_BLOCK - 1:
            add_block(N % _RESPONSE_BLOCK, N)
        if not np.all(np.isfinite(H)):
            raise InstabilityError("unstable march of the boundary response", step=N)
        return BoundaryResponse(0.5 * (H + H.T), tail)

    # -- sparse space-time matrix (the oracles' form of the operator) --------

    def matrix(self) -> scipy.sparse.csc_matrix:
        if self._matrix is not None:
            return self._matrix
        J, N, dy, dt = self.J, self.N, self.dy, self.dt
        b_all, c_all, d_all = self._coefficients()
        stride = J + 1
        rows, cols, vals = [], [], []

        def add(r, c, v):
            r, c, v = np.broadcast_arrays(np.asarray(r), np.asarray(c), np.asarray(v, dtype=float))
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(v.ravel())

        # identity rows: boundaries at all levels, all nodes at level 0
        nn = np.arange(N + 1)
        add(nn * stride, nn * stride, 1.0)
        add(nn * stride + J, nn * stride + J, 1.0)
        jj = np.arange(1, J)
        add(jj, jj, 1.0)
        # first-step rows carry their spatial stencil through the level-0
        # columns so that the matrix captures every dependence on data
        c0, d0 = c_all[0], d_all[0]
        half_dt2 = 0.5 * dt**2
        add(stride + jj, stride + jj, 1.0)
        add(stride + jj, jj, dt**2 * c0 / dy**2)
        add(stride + jj, jj + 1, -half_dt2 * (c0 / dy**2 - d0 / (2.0 * dy)))
        add(stride + jj, jj - 1, -half_dt2 * (c0 / dy**2 + d0 / (2.0 * dy)))

        inv_dt2 = 1.0 / dt**2
        for n in range(1, N):
            b, c, d = b_all[n], c_all[n], d_all[n]
            q = b / (4.0 * dy * dt)
            r = (n + 1) * stride + jj
            # level n+1
            add(r, (n + 1) * stride + jj, np.full(J - 1, inv_dt2))
            add(r, (n + 1) * stride + jj + 1, -q)
            add(r, (n + 1) * stride + jj - 1, q)
            # level n
            add(r, n * stride + jj, -2.0 * inv_dt2 + 2.0 * c / dy**2)
            add(r, n * stride + jj + 1, -c / dy**2 + d / (2.0 * dy))
            add(r, n * stride + jj - 1, -c / dy**2 - d / (2.0 * dy))
            # level n-1
            add(r, (n - 1) * stride + jj, np.full(J - 1, inv_dt2))
            add(r, (n - 1) * stride + jj + 1, q)
            add(r, (n - 1) * stride + jj - 1, -q)

        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        size = (J + 1) * (N + 1)
        self._matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsc()
        return self._matrix

    def lu(self):
        if self._lu is None:
            self._lu = scipy.sparse.linalg.splu(self.matrix())
        return self._lu

    # -- the right-hand side of M v = r -------------------------------------

    def rhs_vector(
        self,
        bc0: np.ndarray,
        bc1: np.ndarray,
        a_interior: np.ndarray,
        m_full: np.ndarray,
        source: np.ndarray | None = None,
    ) -> np.ndarray:
        J, N, dy, dt = self.J, self.N, self.dy, self.dt
        stride = J + 1
        r = np.zeros((N + 1, stride))
        r[:, 0] = bc0
        r[:, J] = bc1
        r[0, 1:-1] = a_interior
        S0 = source[1:-1, 0] if source is not None else 0.0
        r[1, 1:-1] = (
            a_interior
            + dt * m_full[1:-1]
            + 0.5 * dt**2 * (self.b0 * _dc(m_full, dy) + S0)
        )
        if source is not None:
            r[2:, 1:-1] = source[1:-1, 1:N].T
        return r.ravel()

    # -- the LU oracle -------------------------------------------------------

    def solve_lu(self, bc0, bc1, a_interior, m_full, source=None) -> np.ndarray:
        """M^-1 through the sparse LU of M: an independent check on :meth:`march`."""
        r = self.rhs_vector(bc0, bc1, a_interior, m_full, source)
        return self._unflatten(self.lu().solve(r))


# ---------------------------------------------------------------------------
# public solve interface
# ---------------------------------------------------------------------------

@dataclass
class WaveProblem:
    """One forward or backward solve.

    ``data`` holds (value, physical velocity) profiles: initial profiles on
    the unit interval for a forward problem, final profiles on (0, alpha(T))
    for a backward one.  Velocities are physical time derivatives; the
    conversion to cylinder velocities happens inside the solvers.
    """

    direction: str
    bc0: Trace
    bc1: Trace | None = None
    source: Field | None = None
    data: tuple[SpatialProfile, SpatialProfile] | None = None

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ConfigurationError("direction must be 'forward' or 'backward'")
        mesh = self.bc0.mesh
        if self.bc1 is None:
            self.bc1 = Trace.zeros(mesh, side="y=1")
        if self.data is None:
            t0 = 0.0 if self.direction == "forward" else mesh.domain.T
            self.data = (SpatialProfile.zeros(mesh, t0), SpatialProfile.zeros(mesh, t0))
        for part in (self.bc1, self.source, *self.data):
            if part is not None and part.mesh.key() != mesh.key():
                raise ConfigurationError("all problem pieces must share one mesh")
        # corner compatibility between boundary data and initial/final values
        val = self.data[0].values
        n_corner = 0 if self.direction == "forward" else mesh.Nt
        tol = mesh.dy * max(1.0, float(np.max(np.abs(val))) if val.size else 1.0)
        for trace, idx in ((self.bc0, 0), (self.bc1, -1)):
            if abs(trace.values[n_corner] - val[idx]) > tol:
                raise ConfigurationError(
                    "boundary trace and data disagree at the corner "
                    f"(|{trace.values[n_corner]:.3e} - {val[idx]:.3e}| > {tol:.1e})"
                )


def _cylinder_velocity(mesh: Mesh, value: np.ndarray, velocity: np.ndarray, time: float) -> np.ndarray:
    """v_t = u_t + k y u_x evaluated on the reference grid at a fixed time."""
    a = float(alpha(mesh.domain, time))
    D = profile_derivative_matrix(mesh.Ny + 1, mesh.dy)
    return velocity + (mesh.domain.k * mesh.y / a) * (D @ value)


def solve_forward(problem: WaveProblem) -> Field:
    """March the state equation from t = 0."""
    if problem.direction != "forward":
        raise ConfigurationError("solve_forward needs a forward problem")
    mesh = problem.bc0.mesh
    mesh.require_cfl()
    op = WaveOperator(mesh)
    a_full = problem.data[0].values
    m_cyl = _cylinder_velocity(mesh, a_full, problem.data[1].values, 0.0)
    src = problem.source.values if problem.source is not None else None
    vals = op.march(problem.bc0.values, problem.bc1.values, a_full, m_cyl, src)
    return Field(vals, mesh).check_finite()


def solve_backward(problem: WaveProblem) -> Field:
    """March a final-data problem by the reversed-time substitution."""
    if problem.direction != "backward":
        raise ConfigurationError("solve_backward needs a backward problem")
    mesh = problem.bc0.mesh
    mesh.require_cfl()
    op = WaveOperator(mesh, mirrored=True)
    f0 = problem.data[0].values
    v_t_final = _cylinder_velocity(mesh, f0, problem.data[1].values, mesh.domain.T)
    bc0_rev = problem.bc0.values[::-1].copy()
    bc1_rev = problem.bc1.values[::-1].copy()
    src = problem.source.values[:, ::-1].copy() if problem.source is not None else None
    vals = op.march(bc0_rev, bc1_rev, f0, -v_t_final, src)
    return Field(vals[:, ::-1].copy(), mesh).check_finite()


def trace_normal_derivative(field: Field, side: str = "y=0", mask: np.ndarray | None = None) -> Trace:
    """u_x on one lateral boundary: one-sided 3-point difference over 1/alpha."""
    mesh = field.mesh
    v = field.values
    a = mesh.alphas
    if side == "y=0":
        deriv = (-3.0 * v[0, :] + 4.0 * v[1, :] - v[2, :]) / (2.0 * mesh.dy * a)
    elif side == "y=1":
        deriv = (3.0 * v[-1, :] - 4.0 * v[-2, :] + v[-3, :]) / (2.0 * mesh.dy * a)
    else:
        raise ConfigurationError("side must be 'y=0' or 'y=1'")
    if mask is None:
        mask = np.ones(mesh.Nt + 1, dtype=bool)
    return Trace(deriv, mask, mesh, side)


def final_value_profile(field: Field) -> SpatialProfile:
    return field.profile_at(field.mesh.Nt)


def _terminal_velocity(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Physical u_t at t = T from the last three time levels of ``values``:
    one-sided in time minus the moving-frame drift."""
    v_t = (3.0 * values[:, -1] - 4.0 * values[:, -2] + values[:, -3]) / (2.0 * mesh.dt)
    aT = mesh.alphas[-1]
    D = profile_derivative_matrix(mesh.Ny + 1, mesh.dy)
    return v_t - (mesh.domain.k * mesh.y / aT) * (D @ values[:, -1])


def final_velocity_profile(field: Field) -> SpatialProfile:
    """Physical u_t at t = T."""
    mesh = field.mesh
    return SpatialProfile(_terminal_velocity(mesh, field.values), mesh.domain.T, mesh)


def extract_terminal(mesh: Mesh, values: np.ndarray, delta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(u_t(T) + delta u(T), -u(T)) as raw arrays; the reach-operator output.

    Only the last three time levels of ``values`` are read, so a field or
    just those levels (shape (Ny+1, 3)) will do.
    """
    return _terminal_velocity(mesh, values) + delta * values[:, -1], -values[:, -1]


def terminal_first_step(
    mesh: Mesh,
    f0_vals: np.ndarray,
    f1_vals: np.ndarray,
    source_at_T: np.ndarray | None = None,
) -> np.ndarray:
    """Second-order reconstruction of a final-data field one step before T.

    Matches the first step of the reversed-time march; used to fill the
    terminal layer of multiplier-normalized adjoint fields, whose step rows
    stop one level short of the final time.
    """
    dy, dt = mesh.dy, mesh.dt
    D = profile_derivative_matrix(mesh.Ny + 1, dy)
    aT = mesh.alphas[-1]
    k, y = mesh.domain.k, mesh.y[1:-1]
    m_rev = -((k * mesh.y / aT) * (D @ f0_vals) + f1_vals)
    S0 = source_at_T[1:-1] if source_at_T is not None else 0.0
    # the mirrored operator's coefficients b, c, d at its first level, t = T
    acc = (
        (-2.0 * k * y / aT) * _dc(m_rev, dy)
        + ((1.0 - (k * y) ** 2) / aT**2) * _dyy(f0_vals, dy)
        - (2.0 * k**2 * y / aT**2) * _dc(f0_vals, dy)
        + S0
    )
    out = np.zeros_like(f0_vals)
    out[1:-1] = f0_vals[1:-1] + dt * m_rev[1:-1] + 0.5 * dt**2 * acc
    return out


def terminal_adjoint_levels(
    mesh: Mesh, theta1: np.ndarray, theta2: np.ndarray, delta: float = 0.0
) -> np.ndarray:
    """Time levels N-2, N-1 and N of :func:`terminal_adjoint`'s cotangent.

    The cotangent vanishes on every earlier level.  ``theta1`` and
    ``theta2`` have shape (Ny+1,) or (Ny+1, m); the result has shape
    (Ny+1, 3) or (Ny+1, 3, m).
    """
    inv2dt = 1.0 / (2.0 * mesh.dt)
    aT = mesh.alphas[-1]
    D = profile_derivative_matrix(mesh.Ny + 1, mesh.dy)
    drift = (mesh.domain.k * mesh.y / aT).reshape((-1,) + (1,) * (np.ndim(theta1) - 1))
    last = 3.0 * inv2dt * theta1 + delta * theta1 - theta2 - D.T @ (drift * theta1)
    return np.stack([inv2dt * theta1, -4.0 * inv2dt * theta1, last], axis=1)


def terminal_adjoint(mesh: Mesh, theta1: np.ndarray, theta2: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """Exact transpose of :func:`extract_terminal`; returns a cotangent field."""
    rho = np.zeros((mesh.Ny + 1, mesh.Nt + 1))
    rho[:, -3:] = terminal_adjoint_levels(mesh, theta1, theta2, delta)
    return rho
