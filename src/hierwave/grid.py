"""Reference-cylinder discretization, containers, and physically weighted norms.

All fields are stored on the unit cylinder (0,1) x (0,T); every inner
product re-applies the Jacobian dx = alpha(t) dy so that norms agree with
the physical expanding domain.  The negative-order norm is realized through
a discrete Dirichlet Poisson solve; the same tridiagonal matrix backs the
norm, the Riesz lift, and the dual-gradient geometry so the three stay
mutually consistent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import ConfigurationError
from .geometry import DomainSpec, alpha

__all__ = [
    "GridSpec",
    "Mesh",
    "Field",
    "SpatialProfile",
    "Trace",
    "trapezoid_weights",
    "space_time_weights",
    "l2_norm_physical",
    "h10_norm_physical",
    "hminus1_norm_physical",
    "duality_pairing",
    "PoissonRiesz",
    "save_profile_csv",
    "load_profile_csv",
    "save_trace_csv",
    "load_trace_csv",
    "save_field_csv",
    "load_field_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the reference cylinder: Ny cells in y, Nt steps in t."""

    Ny: int
    Nt: int
    cfl_safety: float = 0.8

    def __post_init__(self):
        if self.Ny < 8 or self.Nt < 8:
            raise ConfigurationError("need Ny >= 8 and Nt >= 8")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigurationError("cfl_safety must lie in (0, 1]")


@dataclass(frozen=True)
class Mesh:
    """Domain plus grid; the unit of caching for all solvers."""

    domain: DomainSpec
    grid: GridSpec

    @classmethod
    def auto(cls, domain: DomainSpec, Ny: int, cfl_safety: float = 0.8) -> "Mesh":
        """Pick the smallest Nt satisfying dt <= cfl_safety * dy / (1 + k)."""
        if not 0.0 < cfl_safety <= 1.0:
            raise ConfigurationError(f"cfl_safety must lie in (0, 1], got {cfl_safety!r}")
        dy = 1.0 / Ny
        steps = domain.T * (1.0 + domain.k) / (cfl_safety * dy)
        if not np.isfinite(steps):
            raise ConfigurationError(f"cfl_safety {cfl_safety!r} leaves no finite step count Nt")
        Nt = max(int(np.ceil(steps)), 8)
        return cls(domain, GridSpec(Ny=Ny, Nt=Nt, cfl_safety=cfl_safety))

    @property
    def Ny(self) -> int:
        return self.grid.Ny

    @property
    def Nt(self) -> int:
        return self.grid.Nt

    @property
    def dy(self) -> float:
        return 1.0 / self.grid.Ny

    @property
    def dt(self) -> float:
        return self.domain.T / self.grid.Nt

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid.Ny + 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.domain.T, self.grid.Nt + 1)

    @property
    def alphas(self) -> np.ndarray:
        return 1.0 + self.domain.k * self.times

    def cfl_ok(self) -> bool:
        bound = self.grid.cfl_safety * self.dy / (1.0 + self.domain.k)
        return self.dt <= bound * (1.0 + 1e-12)

    def require_cfl(self) -> None:
        if not self.cfl_ok():
            raise ConfigurationError(
                f"CFL violated: dt={self.dt:.3e} exceeds "
                f"{self.grid.cfl_safety} * dy / (1 + k) = "
                f"{self.grid.cfl_safety * self.dy / (1 + self.domain.k):.3e}"
            )

    def key(self) -> tuple:
        return (self.grid.Ny, self.grid.Nt, *self.domain.key())


def trapezoid_weights(n_nodes: int, spacing: float) -> np.ndarray:
    w = np.full(n_nodes, spacing, dtype=float)
    w[0] = w[-1] = spacing / 2.0
    return w


def space_time_weights(mesh: Mesh) -> np.ndarray:
    """Quadrature weights for integrals over the expanding space-time domain.

    Shape (Ny+1, Nt+1); entry (j, n) multiplies a nodal value in the
    trapezoid approximation of the physical double integral.
    """
    wy = trapezoid_weights(mesh.Ny + 1, mesh.dy)
    wt = trapezoid_weights(mesh.Nt + 1, mesh.dt) * mesh.alphas
    return np.outer(wy, wt)


class Field:
    """Nodal values of a scalar function on the reference cylinder."""

    def __init__(self, values: np.ndarray, mesh: Mesh):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.Ny + 1, mesh.Nt + 1):
            raise ConfigurationError(
                f"field shape {values.shape} does not match grid "
                f"({mesh.Ny + 1}, {mesh.Nt + 1})"
            )
        self.values = values
        self.mesh = mesh

    @classmethod
    def zeros(cls, mesh: Mesh) -> "Field":
        return cls(np.zeros((mesh.Ny + 1, mesh.Nt + 1)), mesh)

    def check_finite(self) -> "Field":
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field contains non-finite entries")
        return self

    def profile_at(self, n: int) -> "SpatialProfile":
        return SpatialProfile(self.values[:, n].copy(), float(self.mesh.times[n]), self.mesh)


class SpatialProfile:
    """Values over y at one fixed time; physically lives on (0, alpha(t))."""

    def __init__(self, values: np.ndarray, time: float, mesh: Mesh):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.Ny + 1,):
            raise ConfigurationError(
                f"profile length {values.shape} does not match grid ({mesh.Ny + 1},)"
            )
        self.values = values
        self.time = float(time)
        self.mesh = mesh

    @classmethod
    def zeros(cls, mesh: Mesh, time: float) -> "SpatialProfile":
        return cls(np.zeros(mesh.Ny + 1), time, mesh)

    @property
    def alpha(self) -> float:
        return float(alpha(self.mesh.domain, self.time))

    def with_values(self, values: np.ndarray) -> "SpatialProfile":
        return SpatialProfile(values, self.time, self.mesh)

    def __sub__(self, other: "SpatialProfile") -> "SpatialProfile":
        _require_same_profile_grid(self, other)
        return self.with_values(self.values - other.values)

    def __add__(self, other: "SpatialProfile") -> "SpatialProfile":
        _require_same_profile_grid(self, other)
        return self.with_values(self.values + other.values)

    def __mul__(self, c: float) -> "SpatialProfile":
        return self.with_values(self.values * float(c))

    __rmul__ = __mul__


class Trace:
    """A boundary time series on one side of the cylinder, zero off its mask."""

    def __init__(self, values: np.ndarray, mask: np.ndarray, mesh: Mesh, side: str = "y=0"):
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if values.shape != (mesh.Nt + 1,) or mask.shape != (mesh.Nt + 1,):
            raise ConfigurationError("trace and mask must have length Nt + 1")
        if side not in ("y=0", "y=1"):
            raise ConfigurationError("side must be 'y=0' or 'y=1'")
        self.values = np.where(mask, values, 0.0)
        self.mask = mask
        self.mesh = mesh
        self.side = side

    @classmethod
    def zeros(cls, mesh: Mesh, mask: np.ndarray | None = None, side: str = "y=0") -> "Trace":
        if mask is None:
            mask = np.ones(mesh.Nt + 1, dtype=bool)
        return cls(np.zeros(mesh.Nt + 1), mask, mesh, side)

    def norm(self) -> float:
        """Time-trapezoid L2 norm over the masked boundary piece."""
        w = trapezoid_weights(self.mesh.Nt + 1, self.mesh.dt)
        return float(np.sqrt(np.sum(w * self.mask * self.values**2)))


def _require_same_profile_grid(f: SpatialProfile, g: SpatialProfile) -> None:
    if f.mesh.key() != g.mesh.key() or abs(f.time - g.time) > 1e-12 * max(1.0, f.mesh.domain.T):
        raise ConfigurationError("profiles live on different grids or times")


def l2_norm_physical(f: SpatialProfile) -> float:
    """sqrt(alpha * trapezoid(f^2) over y): the L2 norm on (0, alpha(t))."""
    w = trapezoid_weights(f.mesh.Ny + 1, f.mesh.dy)
    return float(np.sqrt(f.alpha * np.sum(w * f.values**2)))


def h10_norm_physical(f: SpatialProfile) -> float:
    """First-difference energy norm, equal to the integral of f_x^2 in x.

    Requires Dirichlet-compatible endpoint values (both zero).
    """
    scale = np.max(np.abs(f.values)) if f.values.size else 0.0
    if abs(f.values[0]) > 1e-10 * max(1.0, scale) or abs(f.values[-1]) > 1e-10 * max(1.0, scale):
        raise ConfigurationError("h10 norm requires zero endpoint values")
    hx = f.alpha * f.mesh.dy
    d = np.diff(f.values)
    return float(np.sqrt(np.sum(d * d) / hx))


def duality_pairing(f: SpatialProfile, g: SpatialProfile) -> float:
    """Physical-coordinate trapezoid of f * g on (0, alpha(t)): the L2 inner
    product, and the pairing of a rough f against g with zero ends."""
    _require_same_profile_grid(f, g)
    w = trapezoid_weights(f.mesh.Ny + 1, f.mesh.dy)
    return float(f.alpha * np.sum(w * f.values * g.values))


# one rule, two names: the name says which pairing a caller means
l2_inner_physical = duality_pairing


class PoissonRiesz:
    """Dirichlet Poisson solve on (0, alpha(t)); the single source of the
    negative-norm geometry.

    solve(f) returns v with -v_xx = f and v = 0 at both ends; the pairing
    of f against any zero-ended g then equals the first-difference inner
    product of v and g exactly, which is what keeps descent directions and
    norms consistent downstream.
    """

    def __init__(self, mesh: Mesh, time: float):
        self.mesh = mesh
        self.time = float(time)
        self.hx = float(alpha(mesh.domain, time)) * mesh.dy
        n = mesh.Ny - 1
        # sub-, main and super-diagonal of tridiag(-1, 2, -1) / hx^2
        off = np.full(n - 1, -1.0 / self.hx**2)
        self._diagonals = (off, np.full(n, 2.0 / self.hx**2), off)

    def solve_values(self, f_values: np.ndarray) -> np.ndarray:
        """Nodal solution of -v_xx = f with v(0) = v(alpha) = 0.

        LAPACK ``dgtsv`` on copies of the kept diagonals: the routine and
        arguments that ``scipy.linalg.solve_banded((1, 1), ...)`` uses, so
        the same bits, without that wrapper's per-call cost.  A non-finite
        value raises ValueError, as there.
        """
        b = np.asarray(f_values[1:-1], float)
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        v = np.zeros_like(f_values, dtype=float)
        v[1:-1] = scipy.linalg.lapack.dgtsv(*self._diagonals, b)[3]
        return v

    def solve(self, f: SpatialProfile) -> SpatialProfile:
        return f.with_values(self.solve_values(f.values))

    def pairing_values(self, f_values: np.ndarray, g_values: np.ndarray) -> float:
        return float(self.hx * np.sum(f_values[1:-1] * g_values[1:-1]))

    def h10_values(self, g_values: np.ndarray):
        """First-difference norm of nodal values; row-wise over a 2-D block."""
        d = np.diff(g_values, axis=-1)
        return np.sqrt(np.sum(d * d, axis=-1) / self.hx)

    def hminus1_values(self, f_values: np.ndarray) -> float:
        v = self.solve_values(f_values)
        val = self.pairing_values(f_values, v)
        return float(np.sqrt(max(val, 0.0)))


def hminus1_norm_physical(f: SpatialProfile) -> float:
    """Negative-order norm via the Riesz map: sqrt(<f, (-d_xx)^{-1} f>)."""
    return PoissonRiesz(f.mesh, f.time).hminus1_values(f.values)


# ---------------------------------------------------------------------------
# CSV import/export: header comment lines starting with '#', then a header
# row, then rows of 17-significant-digit decimals.
# ---------------------------------------------------------------------------

def _row_template(coords: np.ndarray, tail: str = "%.17g") -> str:
    """One row per coordinate: its 17 significant digits, then ``tail``.

    A mesh's writes format the same coordinates each time, so the rows are
    kept, keyed by the coordinates' bytes.
    """
    return _formatted_rows(np.asarray(coords, dtype=float).tobytes(), tail)


@functools.lru_cache(maxsize=32)
def _formatted_rows(coords: bytes, tail: str) -> str:
    """:func:`_row_template` of the float64 array whose bytes are ``coords``."""
    return "".join(f"{c:.17g},{tail}\r\n" for c in np.frombuffer(coords).tolist())


def _write_csv(path, header_comments: dict | None, columns: list[str], template: str, values: np.ndarray) -> None:
    """Comment lines, a header row, then ``template`` filled with ``values``.

    The template holds one "%.17g" slot per value in row order ("%.17g" % x
    gives the bytes of f"{x:.17g}").  Rows end in "\r\n" and comment lines
    in "\n": byte for byte what csv.writer wrote, as no cell needs quoting.
    Comment lines stay outside the template, so a "%" in them is kept.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [f"# {key}: {val}\n" for key, val in (header_comments or {}).items()]
    parts.append(",".join(columns) + "\r\n")
    parts.append(template % tuple(np.asarray(values, dtype=float).ravel().tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("".join(parts))


def _read_csv(path) -> tuple[dict, list[str], np.ndarray]:
    comments: dict[str, str] = {}
    rows = []
    with open(path, newline="") as fh:
        header: list[str] | None = None
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, val = body.split(":", 1)
                    comments[key.strip()] = val.strip()
                continue
            if not line.strip():
                continue
            parts = [p.strip() for p in line.strip().split(",")]
            if header is None:
                header = parts
                continue
            rows.append([float(p) for p in parts])
    if header is None:
        raise ConfigurationError(f"{path}: empty CSV")
    return comments, header, np.asarray(rows, dtype=float)


def save_profile_csv(path, profile: SpatialProfile, extra_header: dict | None = None) -> None:
    header = {"kind": "profile", "time": f"{profile.time:.17g}", "Ny": profile.mesh.Ny}
    header.update(extra_header or {})
    x = profile.alpha * profile.mesh.y
    _write_csv(path, header, ["coordinate", "value"], _row_template(x), profile.values)


def load_profile_csv(path, mesh: Mesh, time: float) -> SpatialProfile:
    _, _, data = _read_csv(path)
    if data.shape[0] != mesh.Ny + 1:
        raise ConfigurationError(
            f"{path}: expected {mesh.Ny + 1} profile rows, found {data.shape[0]}"
        )
    prof = SpatialProfile(data[:, 1], time, mesh)
    x_expect = prof.alpha * mesh.y
    if not np.allclose(data[:, 0], x_expect, atol=1e-8 * max(1.0, prof.alpha)):
        raise ConfigurationError(f"{path}: coordinate column does not match the grid")
    return prof


def save_trace_csv(path, trace: Trace, extra_header: dict | None = None) -> None:
    header = {"kind": "trace", "side": trace.side, "Nt": trace.mesh.Nt}
    header.update(extra_header or {})
    _write_csv(path, header, ["coordinate", "value"], _row_template(trace.mesh.times), trace.values)


def load_trace_csv(path, mesh: Mesh, mask: np.ndarray | None = None, side: str = "y=0") -> Trace:
    _, _, data = _read_csv(path)
    if data.shape[0] != mesh.Nt + 1:
        raise ConfigurationError(
            f"{path}: expected {mesh.Nt + 1} trace rows, found {data.shape[0]}"
        )
    if not np.allclose(data[:, 0], mesh.times, atol=1e-8 * max(1.0, mesh.domain.T)):
        raise ConfigurationError(f"{path}: time column does not match the grid")
    if mask is None:
        mask = np.ones(mesh.Nt + 1, dtype=bool)
    return Trace(data[:, 1], mask, mesh, side)


def load_field_csv(path, mesh: Mesh) -> Field:
    _, _, data = _read_csv(path)
    n_expect = (mesh.Ny + 1) * (mesh.Nt + 1)
    if data.shape[0] != n_expect:
        raise ConfigurationError(f"{path}: expected {n_expect} field rows, found {data.shape[0]}")
    y_col, t_col, vals = (data[:, c].reshape(mesh.Nt + 1, mesh.Ny + 1) for c in range(3))
    if not np.allclose(y_col, mesh.y[None, :], atol=1e-8):
        raise ConfigurationError(f"{path}: y column does not match the grid")
    if not np.allclose(t_col, mesh.times[:, None], atol=1e-8 * max(1.0, mesh.domain.T)):
        raise ConfigurationError(f"{path}: t column does not match the grid")
    return Field(vals.T.copy(), mesh)


def save_field_csv(path, fld: Field, extra_header: dict | None = None) -> None:
    header = {"kind": "field", "Ny": fld.mesh.Ny, "Nt": fld.mesh.Nt}
    header.update(extra_header or {})
    # rows run over j fastest, then n: one time level's rows are formatted
    # once, and each time is stamped into its copy
    level = _row_template(fld.mesh.y, "\x00,%.17g")
    template = "".join(level.replace("\x00", f"{t:.17g}") for t in fld.mesh.times.tolist())
    _write_csv(path, header, ["y", "t", "value"], template, fld.values.T)
