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
any number of columns.  M^T lambda = rho, one cotangent rho at a time, is
solved exactly by one backward sweep over the same factors, the reverse
(discrete-adjoint) sweep of Griewank & Walther, Evaluating Derivatives,
SIAM 2008, which reads the same table transposed: each level is again one
contraction and one solve.  Both
take O(N J) memory.  The transposed solves are the exact discrete adjoints
that the coupled optimality systems are built from; see
:mod:`hierwave.coupled`.
The same march run on all unit Dirichlet data at y = 0 at once gives the
boundary response S = M^-1 E, reduced to the Gram matrix S^T W S and the
last three time levels of S (:meth:`WaveOperator.boundary_response`); that
march solves each step's wide batch with LAPACK dgtsv, the pre-factored
solve's arithmetic swept a row of the batch at a time.
The operator keeps what later ops ask for again under one rule
(:meth:`WaveOperator.kept`), among it one eigendecomposition of the follower's
block of H (:meth:`WaveOperator.follower_spectrum`) for every follower weight.
M itself is assembled only for the independent oracles: its sparse LU
(:meth:`WaveOperator.solve_lu`) in the tests and the direct solves of
:mod:`hierwave.verify`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, InstabilityError
from .grid import Field, Mesh, SpatialProfile, Trace, read_only
from .geometry import alpha

__all__ = [
    "WaveOperator",
    "BoundaryResponse",
    "solve_forward",
    "trace_normal_derivative",
    "final_value_profile",
    "final_velocity_profile",
    "extract_terminal",
    "terminal_adjoint",
    "terminal_adjoint_levels",
]


# ---------------------------------------------------------------------------
# small stencil helper (interior <-> full-grid index conventions)
# ---------------------------------------------------------------------------

def _dc(z: np.ndarray, dy: float) -> np.ndarray:
    """Central first difference at interior nodes of a full-grid vector."""
    return (z[2:] - z[:-2]) / (2.0 * dy)


# ---------------------------------------------------------------------------
# the space-time operator
# ---------------------------------------------------------------------------

# time levels per product when H is accumulated.  The block of weighted
# levels holds _RESPONSE_BLOCK * (Ny+1) * (Nt+1) doubles: 0.3 MB at Ny = 41,
# 11.6 MB at Ny = 256, 46 MB at Ny = 512.  Four levels per product take
# about as long as sixteen, in a quarter of the memory.
_RESPONSE_BLOCK = 4
# the power of two that lifts the weighted levels out of the subnormal range
# before they enter H's products (see boundary_response)
_RESPONSE_SCALE = 2.0**300


class BoundaryResponse(NamedTuple):
    """The march's response to unit Dirichlet data at y = 0, in reduced form.

    Column m of S = M^-1 E is the field driven by a unit datum at time node
    m, with zero initial data and zero data at y = 1.  S itself is never
    held (at Ny = 128 it takes 513 MB); what the coupled systems need is

    * ``H = S^T W S``, shape (N+1, N+1), with W the mesh's space-time
      quadrature weights, :attr:`~hierwave.grid.Mesh.W`;
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
    """Stepper plus sparse space-time matrix of the forward sweep."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        J, N = mesh.Ny, mesh.Nt
        self.J, self.N = J, N
        self.dy, self.dt = mesh.dy, mesh.dt
        st, self.b0 = self._stencil_table()
        self.stencil = st
        # two views of it: the interior rows, shape (N+1, 2, 3, J-1, 1), with
        # a trailing axis so that the march's column batch broadcasts, and the
        # table read transposed, shape (N, 2, 3, J+1), whose entry
        # [n, l, o + 1, i] is stencil[n + l, 1 - l, 1 - o, i + 1 + o]
        self._rows = st[:, :, :, 2:-2, None]
        Ss, Sl, So, Sj = st.strides
        self._rows_transposed = np.lib.stride_tricks.as_strided(
            st[0, 1, 2],
            shape=(N, 2, 3, J + 1),
            strides=(Ss, Ss - Sl, Sj - So, Sj),
            writeable=False,
        )
        # the mesh's space-time quadrature weights, shape (J+1, N+1), shared
        # by every engine on the mesh
        self.W = mesh.W
        self._steps = None
        self._matrix = None
        self._lu = None
        # kept's values by name, each with a read-only copy of its key
        self._kept: dict[str, tuple[tuple, object]] = {}

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
        return read_only(st), b[0].copy()

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cylinder equation's coefficients b, c, d at the interior
        nodes of every time level, each of shape (N+1, J-1)."""
        mesh = self.mesh
        y, k, a = mesh.y[1:-1], mesh.domain.k, mesh.alphas
        b = 2.0 * k * y[None, :] / a[:, None]
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
        """Multiplier field lambda with M^T lambda = rho, both of shape (J+1, N+1).

        M is block lower-triangular in time, so M^T is solved exactly by one
        backward sweep from t = T: each level takes the transposed factors
        of its own step matrix, after the levels above it have pushed their
        couplings down.

        The couplings are the stencil table read transposed: node i of
        level n takes, at offset o, the row of node i - o of step n (on level
        n+1) and of step n+1 (on level n+2) at the mirrored offset -o.  A
        strided view of the table lines these up with the same windows the
        march reads, so each level is one contraction; the table's zero
        columns and zero last step cover the boundary nodes and the top two
        levels.
        """
        J, N = self.J, self.N
        # time-major, with a zero node at each end and a zero level N+1 for
        # the windows to read; each level is overwritten by its solution
        lam = np.zeros((N + 2, J + 3))
        lam[: N + 1, 1:-1] = np.asarray(rho, dtype=float).T
        windows = self._windows(lam[1:], N)
        rows = self._rows_transposed
        terms = np.empty((2, 3, J + 1))
        summands = terms.reshape(6, J + 1)
        coupled = np.empty(J + 1)
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
        q = self.stencil[1:N, 0, 0]
        lam[2 : N + 1, 1] -= q[:, 2] * lam[2 : N + 1, 2]
        lam[2 : N + 1, J + 1] += q[:, J] * lam[2 : N + 1, J]
        return np.ascontiguousarray(lam[: N + 1, 1:-1].T)

    # -- the response to unit boundary data, all columns in one march -------

    def boundary_response(self) -> BoundaryResponse:
        """H = S^T W S and the last three levels of S, kept once built (:meth:`kept`).

        One march over all N+1 unit data at y = 0 together: each step is one
        LAPACK ``dgtsv`` solve whose right-hand side holds the active columns
        only (level n is nonzero only in columns 0..n, the data already
        seen).  H is accumulated a few levels at a time, one product
        x^T x per block of weighted levels x, so S is never held whole.

        The weights sqrt(W) that form x are multiplied by 2^300, and H is
        divided by 2^600 at the end.  Far ahead of its wave front a unit
        response decays into the subnormal range (about 0.4% of the
        weighted values at Ny = 256), and the BLAS products run far
        slower on subnormal operands.  Scaled, every nonzero operand is
        normal: the smallest level value, 2^-1074, times any weight above
        2^-248 lands above 2^-1022.  Scaling by a power of two changes
        exponents only, so each operand, each product and each partial sum
        is exactly 2^300 or 2^600 times the unscaled one wherever that is
        normal, and the final division is exact too.  Only terms that
        underflowed unscaled change, and those lie below 2^-1022, far under
        the last bit of any entry of H.  A stable march keeps H far from the
        2^423 past which the scaled H would overflow; an unstable one is
        refused either way.
        """
        return self.kept("boundary_response", (), self._march_boundary_response)

    def kept(self, name: str, key: tuple, build):
        """``build()``'s value for the last ``key`` under ``name``, kept read-only.

        A key whose items equal the kept key's as arrays, by value, finds it
        with no build; another frees it first.  The key is kept as read-only
        copies, and the value's arrays (it is one or a tuple) made read-only.
        """
        entry = self._kept.get(name)
        if entry is None or not all(np.array_equal(a, b) for a, b in zip(entry[0], key)):
            self._kept.pop(name, None)
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                read_only(a)
            entry = self._kept[name] = (tuple(read_only(np.array(k)) for k in key), value)
        return entry[1]

    def tracked_row(self, utilde: np.ndarray) -> np.ndarray:
        """S^T W u_tilde: the boundary row of the transposed sweep of W u_tilde.

        It depends on the mesh and u_tilde alone, so every engine on the
        mesh shares it; the row of the last u_tilde is kept (:meth:`kept`).
        """
        return self.kept("tracked_row", (utilde,), lambda: self.solve_adjoint(self.W * utilde)[0, :].copy())

    def sample_responses(self, bc: np.ndarray) -> np.ndarray:
        """Time-major levels, shape (N+1, J+1, m), of the march of the
        Dirichlet data ``bc`` at y = 0, shape (N+1, m), from zero initial data.

        They depend on the mesh and ``bc`` alone, so every engine on the mesh
        shares them; the levels of the last ``bc`` are kept (:meth:`kept`).
        """
        zeros_t, zeros = np.zeros(self.N + 1), np.zeros(self.J + 1)
        return self.kept("sample_responses", (bc,), lambda: self.march(bc, zeros_t, zeros, zeros, time_major=True))

    def follower_spectrum(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d, lam, Q) with D^-1 H_22 D^-1 = Q diag(lam) Q^T, lam ascending.

        H_22 is H on the time nodes ``idx``, D = diag(tau[idx])^1/2 and
        d = 1 / diag(D).  (sigma diag(tau) + H)_22 then equals
        D Q (diag(lam) + sigma) Q^T D for every sigma, so one decomposition
        serves every follower weight on the mesh.  It depends on the mesh and
        ``idx`` alone; that of the last ``idx`` is kept (:meth:`kept`).
        LAPACK dsyevr runs on one scaled copy of H_22, in place; a failed
        call raises LinAlgError.
        """
        def build():
            d = 1.0 / np.sqrt(self.mesh.tau[idx])
            # the fancy-indexed copy is C-ordered and symmetric, so its
            # transpose is the F-ordered array dsyevr overwrites without a copy
            a = self.boundary_response().H[np.ix_(idx, idx)].T
            a *= d
            a *= d[:, None]
            lam, Q, _, _, info = scipy.linalg.lapack.dsyevr(a, overwrite_a=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dsyevr failed with info = {info}")
            return d, lam, Q

        return self.kept("follower_spectrum", (idx,), build)

    def _unit_levels(self):
        """Yield (n, level) for the march driven by every unit datum at y = 0.

        ``level`` has shape (J+1, N+1), column m being driven by the datum at
        time node m; only columns 0..n are nonzero.  The arrays are reused
        from one step to the next.  The arithmetic is :meth:`march`'s, with
        the active columns as a batch of right-hand sides.

        Each step solves its batch with LAPACK ``dgtsv`` on the step's own
        diagonals, where :meth:`march` calls ``dgttrs`` on the kept
        ``dgttrf`` factors.  The diagonal 1/dt^2 dominates q_n under the
        CFL bound (q_n dt^2 <= k / (2 (1 + k)) < 1/2), so neither routine
        swaps a row, and then
        they do the same operations in the same order: every column still
        equals its own march bit for bit.  ``dgtsv``'s forward elimination
        sweeps the whole batch a row at a time, where ``dgttrs`` takes one
        column at a time, which is faster on the wide batches here.
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
        diag = np.full(J - 1, 1.0 / self.dt**2)
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
            # the step's matrix: 1/dt^2 on the diagonal, q_n below, -q_n above
            q = row[0, 0, :, 0]
            *_, x, info = scipy.linalg.lapack.dgtsv(q[1:], diag, -q[:-1], rhs)
            if info != 0:
                raise InstabilityError(f"singular step matrix at time step {n + 1}", step=n + 1)
            nxt = ring[(n + 1) % 3]
            nxt[1:-1, :a] = x
            nxt[0, :] = 0.0
            nxt[0, n + 1] = 1.0
            yield n + 1, nxt

    def _march_boundary_response(self) -> BoundaryResponse:
        J, N = self.J, self.N
        sqrt_w = np.sqrt(self.W) * _RESPONSE_SCALE
        H = np.zeros((N + 1, N + 1))
        tail = np.zeros((J + 1, 3, N + 1))
        # weighted levels enter H a block at a time: one product per level
        # spends most of the build on adding into H
        block = np.zeros((_RESPONSE_BLOCK, J + 1, N + 1))
        # every block's product goes into this one buffer
        product = np.empty((N + 1) ** 2)

        def add_block(i, n):
            x = block[: i + 1, :, : n + 1].reshape(-1, n + 1)
            out = product[: (n + 1) ** 2].reshape(n + 1, n + 1)
            H[: n + 1, : n + 1] += np.matmul(x.T, x, out=out)

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
        H /= _RESPONSE_SCALE**2
        if not np.all(np.isfinite(H)):
            raise InstabilityError("unstable march of the boundary response", step=N)
        # numpy runs x.T @ x as a symmetric rank-k update (BLAS syrk) and
        # mirrors its triangle, so every block, and H, is symmetric to the bit
        return BoundaryResponse(H, tail)

    # -- sparse space-time matrix (the oracles' form of the operator) --------

    def matrix(self) -> scipy.sparse.csc_matrix:
        # scipy.sparse is imported here, not with the module: only the
        # oracles use it, so production runs never load it
        import scipy.sparse

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
        import scipy.sparse.linalg

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

def _cylinder_velocity(mesh: Mesh, value: np.ndarray, velocity: np.ndarray, time: float) -> np.ndarray:
    """v_t = u_t + k y u_x evaluated on the reference grid at a fixed time."""
    a = alpha(mesh.domain, time)
    return velocity + (mesh.domain.k * mesh.y / a) * (mesh.D @ value)


def solve_forward(
    bc0: Trace, bc1: Trace | None = None, data: tuple[SpatialProfile, SpatialProfile] | None = None
) -> Field:
    """March the state equation from t = 0.

    ``bc1`` (Dirichlet data at y = 1) and ``data`` (the initial value and
    physical velocity on the unit interval) are zero when None.  Every piece
    shares ``bc0``'s mesh, and the boundary data meet the initial value at
    both corners.
    """
    mesh = bc0.mesh
    if bc1 is None:
        bc1 = Trace.zeros(mesh, side="y=1")
    if data is None:
        data = (SpatialProfile.zeros(mesh, 0.0), SpatialProfile.zeros(mesh, 0.0))
    for part in (bc1, *data):
        if part.mesh != mesh:
            raise ConfigurationError("all problem pieces must share one mesh")
    val = data[0].values
    tol = mesh.dy * max(1.0, float(np.max(np.abs(val))))
    for trace, idx in ((bc0, 0), (bc1, -1)):
        if abs(trace.values[0] - val[idx]) > tol:
            raise ConfigurationError(
                "boundary trace and data disagree at the corner "
                f"(|{trace.values[0]:.3e} - {val[idx]:.3e}| > {tol:.1e})"
            )
    mesh.require_cfl()
    op = WaveOperator(mesh)
    m_cyl = _cylinder_velocity(mesh, val, data[1].values, 0.0)
    vals = op.march(bc0.values, bc1.values, val, m_cyl)
    return Field(vals, mesh).check_finite()


def trace_normal_derivative(field: Field) -> Trace:
    """u_x at y = 0 at every time level: one-sided 3-point difference over 1/alpha."""
    mesh = field.mesh
    v = field.values
    a = mesh.alphas
    deriv = (-3.0 * v[0, :] + 4.0 * v[1, :] - v[2, :]) / (2.0 * mesh.dy * a)
    return Trace(deriv, np.ones(mesh.Nt + 1, dtype=bool), mesh)


def final_value_profile(field: Field) -> SpatialProfile:
    return field.profile_at(field.mesh.Nt)


def _terminal_velocity(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Physical u_t at t = T from the last three time levels of ``values``:
    one-sided in time minus the moving-frame drift."""
    v_t = (3.0 * values[:, -1] - 4.0 * values[:, -2] + values[:, -3]) / (2.0 * mesh.dt)
    aT = mesh.alphas[-1]
    return v_t - (mesh.domain.k * mesh.y / aT) * (mesh.D @ values[:, -1])


def final_velocity_profile(field: Field) -> SpatialProfile:
    """Physical u_t at t = T."""
    mesh = field.mesh
    return SpatialProfile(_terminal_velocity(mesh, field.values), mesh.domain.T, mesh)


def extract_terminal(mesh: Mesh, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u_t(T), -u(T)) as raw arrays; the reach-operator output.

    Only the last three time levels of ``values`` are read, so a field or
    just those levels (shape (Ny+1, 3)) will do.
    """
    return _terminal_velocity(mesh, values), -values[:, -1]


def terminal_adjoint_levels(mesh: Mesh, theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Time levels N-2, N-1 and N of :func:`terminal_adjoint`'s cotangent.

    The cotangent vanishes on every earlier level.  ``theta1`` and
    ``theta2`` have shape (Ny+1,) or (Ny+1, m); the result has shape
    (Ny+1, 3) or (Ny+1, 3, m).
    """
    inv2dt = 1.0 / (2.0 * mesh.dt)
    aT = mesh.alphas[-1]
    drift = (mesh.domain.k * mesh.y / aT).reshape((-1,) + (1,) * (np.ndim(theta1) - 1))
    last = 3.0 * inv2dt * theta1 - theta2 - mesh.D.T @ (drift * theta1)
    return np.stack([inv2dt * theta1, -4.0 * inv2dt * theta1, last], axis=1)


def terminal_adjoint(mesh: Mesh, theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`extract_terminal`; returns a cotangent field."""
    rho = np.zeros((mesh.Ny + 1, mesh.Nt + 1))
    rho[:, -3:] = terminal_adjoint_levels(mesh, theta1, theta2)
    return rho
