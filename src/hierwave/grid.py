"""Reference-cylinder discretization, containers, and physically weighted norms.

All fields are stored on the unit cylinder (0,1) x (0,T); every inner
product re-applies the Jacobian dx = alpha(t) dy so that norms agree with
the physical expanding domain.  The negative-order norm, in which the
leader checks how far its final velocity lies from the target, is realized
through a discrete Dirichlet Poisson solve, tridiag(-1, 2, -1) / hx^2.  The
leader's dual takes its geometry from the Cholesky factor R0 of K =
tridiag(-1, 2, -1) / hx, built from the same stencil in
``leader_dual._DualModel._build_gram``.

Every output file is written here: CSVs by the ``save_*_csv`` functions,
:func:`save_table_csv` for tables of rows, a field in NumPy's binary format
by :func:`save_field_npy`, and JSON documents by :func:`save_json`.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._lapack import lapack
from .errors import ConfigurationError
from .geometry import DomainSpec, alpha

__all__ = [
    "GridSpec",
    "Mesh",
    "Field",
    "SpatialProfile",
    "Trace",
    "trapezoid_weights",
    "l2_norm_physical",
    "hminus1_norm_physical",
    "duality_pairing",
    "PoissonRiesz",
    "save_profile_csv",
    "load_profile_csv",
    "save_trace_csv",
    "load_trace_csv",
    "save_field_csv",
    "save_field_npy",
    "load_field_csv",
    "save_table_csv",
    "save_json",
    "check_out_dir",
]


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the reference cylinder: Ny cells in y, Nt steps in t."""

    Ny: int
    Nt: int
    cfl_safety: float = field(default=0.8, compare=False)

    def __post_init__(self):
        if self.Ny < 8 or self.Nt < 8:
            raise ConfigurationError(f"grid needs Ny >= 8 and Nt >= 8, got Ny={self.Ny}, Nt={self.Nt}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigurationError("cfl_safety must lie in (0, 1]")


@dataclass(frozen=True)
class Mesh:
    """Domain plus grid; the unit of caching for all solvers.

    Meshes compare (and hash) as their grid, k, T, Ny and Nt:
    ``cfl_safety`` and ``allow_k_zero`` only validate.
    """

    domain: DomainSpec
    grid: GridSpec

    def __post_init__(self):
        # steps hold 2/dt^2; dt * dt, as dt**2 raises OverflowError on a huge dt
        dt2 = self.dt * self.dt
        if dt2 == 0.0 or not np.isfinite(2.0 / dt2):
            raise ConfigurationError(
                f"domain.T = {self.domain.T!r} over Nt = {self.grid.Nt} steps gives "
                f"dt = {self.dt:.3e}, too short a step for the stepper: 2/dt^2 is not finite"
            )

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

    # the node arrays, the quadrature weights of every integral on
    # (0, alpha(t)) x (0, T) and the moving frame's d/dy are computed once
    # per mesh and read by every layer, so they are read-only; the cache
    # lives in the instance dict, outside the fields

    @functools.cached_property
    def y(self) -> np.ndarray:
        return read_only(np.linspace(0.0, 1.0, self.grid.Ny + 1))

    @functools.cached_property
    def times(self) -> np.ndarray:
        return read_only(np.linspace(0.0, self.domain.T, self.grid.Nt + 1))

    @functools.cached_property
    def alphas(self) -> np.ndarray:
        return read_only(1.0 + self.domain.k * self.times)

    @functools.cached_property
    def tau(self) -> np.ndarray:
        """Trapezoid weights in t, shape (Nt+1,)."""
        return read_only(trapezoid_weights(self.grid.Nt + 1, self.dt))

    @functools.cached_property
    def wy(self) -> np.ndarray:
        """Trapezoid weights in y, shape (Ny+1,); alpha(t) wy are those in x."""
        return read_only(trapezoid_weights(self.grid.Ny + 1, self.dy))

    @functools.cached_property
    def W(self) -> np.ndarray:
        """Space-time weights, shape (Ny+1, Nt+1): entry (j, n) multiplies a
        nodal value in the trapezoid rule for the physical double integral,
        dx dt = alpha(t) dy dt."""
        return read_only(np.outer(self.wy, self.tau * self.alphas))

    @functools.cached_property
    def D(self) -> np.ndarray:
        """Dense d/dy on a profile: central inside, one-sided 3-point at the ends."""
        n, h = self.grid.Ny + 1, 2.0 * self.dy
        D = np.zeros((n, n))
        inside = np.arange(1, n - 1)
        D[inside, inside - 1] = -1.0 / h
        D[inside, inside + 1] = 1.0 / h
        D[0, :3] = np.array([-3.0, 4.0, -1.0]) / h
        D[-1, -3:] = np.array([1.0, -4.0, 3.0]) / h
        return read_only(D)

    def require_cfl(self) -> None:
        bound = self.grid.cfl_safety * self.dy / (1.0 + self.domain.k)
        if not self.dt <= bound * (1.0 + 1e-12):
            raise ConfigurationError(
                f"CFL violated: dt={self.dt:.3e} exceeds "
                f"{self.grid.cfl_safety} * dy / (1 + k) = {bound:.3e}"
            )


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a value shared or kept, which no caller may change."""
    a.flags.writeable = False
    return a


def trapezoid_weights(n_nodes: int, spacing: float) -> np.ndarray:
    w = np.full(n_nodes, spacing, dtype=float)
    w[0] = w[-1] = spacing / 2.0
    return w


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
        return alpha(self.mesh.domain, self.time)

    def __sub__(self, other: "SpatialProfile") -> "SpatialProfile":
        _require_same_profile_grid(self, other)
        return SpatialProfile(self.values - other.values, self.time, self.mesh)


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


def _require_same_profile_grid(f: SpatialProfile, g: SpatialProfile) -> None:
    if f.mesh != g.mesh or abs(f.time - g.time) > 1e-12 * max(1.0, f.mesh.domain.T):
        raise ConfigurationError("profiles live on different grids or times")


def l2_norm_physical(f: SpatialProfile) -> float:
    """sqrt(alpha * trapezoid(f^2) over y): the L2 norm on (0, alpha(t))."""
    return float(np.sqrt(f.alpha * np.sum(f.mesh.wy * f.values**2)))


def duality_pairing(f: SpatialProfile, g: SpatialProfile) -> float:
    """Physical-coordinate trapezoid of f * g on (0, alpha(t)): the L2 inner
    product, and the pairing of a rough f against g with zero ends."""
    _require_same_profile_grid(f, g)
    return float(f.alpha * np.sum(f.mesh.wy * f.values * g.values))


class PoissonRiesz:
    """Dirichlet Poisson solve on (0, alpha(t)), behind :func:`hminus1_norm_physical`.

    solve_values(f) returns v with -v_xx = f and v = 0 at both ends; the
    pairing of f against any zero-ended g then equals the first-difference
    inner product of v and g exactly, so the H^-1 norm of f is the H^1_0
    norm of v.  The leader checks the distance of the final velocity to
    its target with this norm, independently of the dual's factor R0.
    """

    def __init__(self, mesh: Mesh, time: float):
        self.hx = alpha(mesh.domain, time) * mesh.dy
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
        v[1:-1] = lapack().dgtsv(*self._diagonals, b)[3]
        return v


def hminus1_norm_physical(f: SpatialProfile) -> float:
    """sqrt(<f, (-d_xx)^{-1} f>): f paired with its Poisson lift over the interior nodes."""
    pr = PoissonRiesz(f.mesh, f.time)
    v = pr.solve_values(f.values)
    val = float(pr.hx * np.sum(f.values[1:-1] * v[1:-1]))
    return float(np.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# Bulk "%.17g": the bytes of f"{x:.17g}" for a whole float64 array, after
# Loitsch, "Printing floating-point numbers quickly and accurately with
# integers" (PLDI 2010): a fast approximate digit generator, a test that
# rejects the values it may get wrong, and Python's exact formatting for
# those.
#
# |x| is scaled by 10^k, k = 16 - e with e its decimal exponent, in long
# double, so that s = |x| 10^k lies in [1e16, 1e17) and the 17 digits are
# those of the integer nearest s.  10^k is the nearest long double, which
# for 0 <= k <= 27 is exact; the product is rounded once.  With a 64-bit
# significand the computed s is then within 2^-63 s < 0.011 of the exact
# one, and within half an ulp, 2^-8, when 10^k is exact.  A value whose s
# lies within _G17_MARGIN (or _G17_MARGIN_EXACT) of a half-integer is
# rejected, so the nearest integer is the exact one's for the rest.  At
# the ends of the range both scales round to the same digits, carry
# included.  Non-finite values are rejected too, and so is every value
# when long double is narrower (_BULK_G17 is False), so the output is
# Python's by construction.
#
# Each value is laid out in a cell of six 8-byte words:
#     word 0     "-0.000", digit 0, "."
#     words 1-4  digits 1-16 in groups of four, each digit followed by "."
#     word 5     "e", the exponent's sign and three digits, zero bytes
# and a table of 0xFF/0x00 masks, one per layout class, keeps the bytes
# that f"{x:.17g}" shows.  A class is the exponent (fixed notation for
# -4..16, then exponent notation with two or three exponent digits), the
# number of digits left once trailing zeros are dropped, and the sign.
# The other bytes are zeroed; the writer drops zero bytes.
# ---------------------------------------------------------------------------

_BULK_G17 = np.finfo(np.longdouble).nmant >= 63
_G17_MARGIN = 0.0125
_G17_MARGIN_EXACT = 0.005
_G17_WIDTH = 48
_G17_BLOCK = 4096  # values per block: a block's scratch stays near 1 MB
_G17_POW = (-300, 350)  # the range of k over every nonzero double
_G17_EXP = 330  # |e| < _G17_EXP over every double


def _pow10_longdouble() -> np.ndarray:
    """The long double nearest 10^k, ties to even, for k in _G17_POW.

    10^k = 5^k 2^k, so its 64-bit significand q is the integer nearest 5^k,
    or 2^m / 5^-k, scaled into [2^63, 2^64]; built from exact integers.
    """
    sig, exp2 = [], []
    for k in range(*_G17_POW):
        five = 5 ** abs(k)
        if k >= 0:
            cut = five.bit_length() - 64
            if cut <= 0:
                q = five << -cut
            else:
                q, r = divmod(five, 1 << cut)
                half = 1 << (cut - 1)
                q += r > half or (r == half and q & 1)
        else:  # five is odd, so there is no tie
            cut = -63 - five.bit_length()
            q, r = divmod(1 << -cut, five)
            q += 2 * r > five
        sig.append(q)
        exp2.append(k + cut)
    high = np.array([q >> 32 for q in sig], dtype=np.longdouble)
    low = np.array([q & 0xFFFFFFFF for q in sig], dtype=np.longdouble)
    return np.ldexp(high * 2**32 + low, np.array(exp2))


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The powers of ten, the layout masks, and the word tables; built on
    first use, about 150 kB."""
    pow10 = _pow10_longdouble()
    digit = np.r_[6, 8:40:2]  # the byte of digit i in a cell
    keep = np.zeros((23, 17, 2, _G17_WIDTH), dtype=bool)
    ndig = np.arange(1, 18)[:, None]
    for ecls in range(23):
        row = keep[ecls, :, 0]
        exp = ecls - 4
        if 0 <= exp <= 16:  # fixed notation: digits up to the units and on
            row[:, digit] = np.arange(17) <= np.maximum(exp, ndig - 1)
            row[:, digit[exp] + 1] = ndig[:, 0] > exp + 1
            continue
        row[:, digit] = np.arange(17) < ndig
        if exp < 0:  # "0." and -exp - 1 zeros before the digits
            row[:, 1 : 2 - exp] = True
        else:  # exponent notation
            row[:, 7] = ndig[:, 0] > 1
            row[:, 40:45] = True
            row[:, 42] = ecls == 22  # a third exponent digit
    keep[:, :, 1] = keep[:, :, 0]
    keep[:, :, 1, 0] = True  # the sign
    keep = np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64).reshape(-1, 6)

    lead = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype=np.uint64)
    g = np.arange(10000)
    group = np.full((10000, 8), ord("."), dtype=np.uint8)
    group[:, ::2] = np.stack([ord("0") + g // 10**p % 10 for p in (3, 2, 1, 0)], axis=1)
    zeros = (2 * sum(g % 10**p == 0 for p in range(1, 5))).astype(np.uint8)  # twice the trailing zeros
    e = np.arange(-_G17_EXP, _G17_EXP)
    expo = np.zeros((e.size, 8), dtype=np.uint8)
    expo[:, 0] = ord("e")
    expo[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    expo[:, 2:5] = ord("0") + np.abs(e)[:, None] // [100, 10, 1] % 10
    # each exponent's row of keep for 17 digits and a plus sign
    ecls = np.where(np.abs(e) < 100, 21, 22)
    ecls[(e >= -4) & (e <= 16)] = e[(e >= -4) & (e <= 16)] + 4
    ecls = (ecls * 17 + 16) * 2
    return pow10, keep, lead, group.view(np.uint64)[:, 0], zeros, expo.view(np.uint64)[:, 0], ecls


def _g17_fallback(x: np.ndarray) -> np.ndarray:
    """Python's f"{v:.17g}" of each value, as zero-padded cells."""
    cells = np.array([f"{v:.17g}" for v in x.tolist()], dtype=f"S{_G17_WIDTH}")
    return cells.view(np.uint8).reshape(x.size, _G17_WIDTH)


def _g17_cells(x: np.ndarray) -> np.ndarray:
    """(len(x), 48) bytes whose nonzero bytes in row i, in order, are
    f"{x[i]:.17g}"; bytes 45-47 of each row are zero."""
    if not _BULK_G17:
        return _g17_fallback(x)
    pow10, keep, lead, group, zeros, expo, ecls = _g17_tables()
    a = np.abs(x)
    zero = a == 0
    finite = np.isfinite(a)
    a = np.where(finite & ~zero, a, 1.0)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    s = a * pow10[k - _G17_POW[0]]
    whole = s.astype(np.int64)
    off = (whole < 10**16).view(np.int8) - (whole >= 10**17).view(np.int8)
    reject = ~finite
    if off.any():  # log10 was one off next to a power of ten
        k += off
        s = a * pow10[k - _G17_POW[0]]
        whole = s.astype(np.int64)
        reject |= (whole < 10**16) | (whole >= 10**17)
    frac = (s - whole).astype(float)
    margin = np.where((k >= 0) & (k <= 27), _G17_MARGIN_EXACT, _G17_MARGIN)
    reject |= np.abs(frac - 0.5) < margin
    whole += frac > 0.5
    carry = whole == 10**17
    whole[carry] = 10**16
    whole[zero] = 0
    exp = 16 - k + carry + _G17_EXP  # the exponent of the rounded value, offset
    exp[zero] = _G17_EXP

    top = whole // 10**8
    low = whole - top * 10**8
    first = top // 10**8
    top -= first * 10**8
    groups = np.empty((x.size, 4), dtype=np.intp)
    groups[:, 0] = top // 10**4
    groups[:, 1] = top - groups[:, 0] * 10**4
    groups[:, 2] = low // 10**4
    groups[:, 3] = low - groups[:, 2] * 10**4
    # twice the trailing zeros of digits 1-16: those of the last nonzero
    # half, then of its last nonzero group
    low_zero = low == 0
    high4 = np.where(low_zero, groups[:, 0], groups[:, 2])
    low4 = np.where(low_zero, groups[:, 1], groups[:, 3])
    tz = 16 * low_zero + np.where(low4 == 0, 8 + zeros[high4], zeros[low4])

    cells = np.empty((x.size, 6), dtype=np.uint64)
    cells[:, 0] = lead[first]
    cells[:, 1:5] = group[groups]
    cells[:, 5] = expo[exp]
    cells &= keep[ecls[exp] - tz + np.signbit(x)]
    cells = cells.view(np.uint8)
    if reject.any():
        cells[reject] = _g17_fallback(x[reject])
    return cells


# ---------------------------------------------------------------------------
# CSV import/export: header comment lines starting with '#', then a header
# row, then rows of 17-significant-digit decimals.
# ---------------------------------------------------------------------------

def _row_template(coords: np.ndarray) -> str:
    """One row per coordinate: its 17 significant digits, then a "%.17g" slot.

    A mesh's writes format the same coordinates each time, so the rows are
    kept, keyed by the coordinates' bytes.
    """
    return _formatted_rows(np.asarray(coords, dtype=float).tobytes())


@functools.lru_cache(maxsize=32)
def _formatted_rows(coords: bytes) -> str:
    """:func:`_row_template` of the float64 array whose bytes are ``coords``."""
    return "".join(f"{c:.17g},%.17g\r\n" for c in np.frombuffer(coords).tolist())


def _csv_head(header_comments: dict | None, columns: list[str]) -> str:
    """Comment lines ending in "\n", then the header row ending in "\r\n"."""
    parts = [f"# {key}: {val}\n" for key, val in (header_comments or {}).items()]
    parts.append(",".join(columns) + "\r\n")
    return "".join(parts)


def check_out_dir(out_dir) -> None:
    """Raise ConfigurationError naming ``out_dir`` unless output files can
    be written under it: its nearest existing ancestor, ``out_dir`` itself
    included, must be a writable directory.  Creates nothing, so a command
    can check before it solves."""
    path = Path(out_dir).absolute()
    near = next(p for p in (path, *path.parents) if p.exists())
    if not near.is_dir() or not os.access(near, os.W_OK | os.X_OK):
        raise ConfigurationError(f"{out_dir}: cannot write: {near} is not a writable directory")


def _create(path, mode="w"):
    """``path`` opened to write text without newline translation ("w") or
    bytes ("wb"); its parent directory is made only when the open finds it
    missing.  A path that cannot be written is a configuration error that
    names it."""
    newline = None if "b" in mode else ""
    try:
        try:
            return open(path, mode, newline=newline)
        except FileNotFoundError:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            return open(path, mode, newline=newline)
    except OSError as err:
        raise ConfigurationError(f"{path}: cannot write: {err}") from err


def _write_csv(path, header_comments: dict | None, columns: list[str], template: str, values: np.ndarray) -> None:
    """Comment lines, a header row, then ``template`` filled with ``values``.

    The template holds one "%.17g" slot per value in row order ("%.17g" % x
    gives the bytes of f"{x:.17g}").  Rows end in "\r\n" and comment lines
    in "\n": byte for byte what csv.writer wrote, as no cell needs quoting.
    Comment lines stay outside the template, so a "%" in them is kept.
    """
    text = _csv_head(header_comments, columns) + template % tuple(np.asarray(values, dtype=float).ravel().tolist())
    with _create(path) as fh:
        fh.write(text)


def save_table_csv(path, header_comments: dict | None, columns: list[str], rows) -> None:
    """A table: one row of ``rows`` (sequences of numbers, one per column)
    per line, each cell "%.17g", as :func:`_write_csv` writes them; an
    integral value below 1e17 is written as bare digits."""
    rows = [tuple(row) for row in rows]
    template = (",".join(["%.17g"] * len(columns)) + "\r\n") * len(rows)
    _write_csv(path, header_comments, columns, template, rows)


def save_json(path, doc: dict) -> None:
    """``doc`` as JSON, indented by two spaces, with sorted keys."""
    with _create(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))


def _read_csv(path, columns: int) -> np.ndarray:
    """The numeric rows under the header line, each of at least ``columns``
    numbers; '#' comment lines and blank lines are skipped.  A file that
    cannot be opened or decoded, a cell that is not a finite number, rows of
    unequal length or too few columns are a configuration error that names
    the file.  ``path`` is a str or an os.PathLike: any other value, which
    ``open`` would take as a file descriptor, is a configuration error too."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigurationError(
            f"{path!r}: a CSV path must be a str or os.PathLike, not {type(path).__name__}"
        )
    rows = []
    header = None
    try:
        with open(path, newline="") as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                parts = line.strip().split(",")
                if header is None:
                    header = parts
                    continue
                rows.append([float(p) for p in parts])
        # unequal rows make a ragged array, which numpy refuses with ValueError
        data = np.asarray(rows, dtype=float)
    except (OSError, ValueError) as err:  # UnicodeDecodeError is a ValueError
        raise ConfigurationError(f"{path}: cannot read CSV: {err}") from err
    if header is None:
        raise ConfigurationError(f"{path}: empty CSV")
    if rows and data.shape[1] < columns:
        raise ConfigurationError(f"{path}: expected {columns} columns, found {data.shape[1]}")
    if not np.isfinite(data).all():
        raise ConfigurationError(f"{path}: a cell is not a finite number")
    return data


def save_profile_csv(path, profile: SpatialProfile, extra_header: dict | None = None) -> None:
    header = {"kind": "profile", "time": f"{profile.time:.17g}", "Ny": profile.mesh.Ny}
    header.update(extra_header or {})
    x = profile.alpha * profile.mesh.y
    _write_csv(path, header, ["coordinate", "value"], _row_template(x), profile.values)


def load_profile_csv(path, mesh: Mesh, time: float) -> SpatialProfile:
    data = _read_csv(path, 2)
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


def load_trace_csv(path, mesh: Mesh, mask: np.ndarray) -> Trace:
    data = _read_csv(path, 2)
    if data.shape[0] != mesh.Nt + 1:
        raise ConfigurationError(
            f"{path}: expected {mesh.Nt + 1} trace rows, found {data.shape[0]}"
        )
    if not np.allclose(data[:, 0], mesh.times, atol=1e-8 * max(1.0, mesh.domain.T)):
        raise ConfigurationError(f"{path}: time column does not match the grid")
    return Trace(data[:, 1], mask, mesh)


def load_field_csv(path, mesh: Mesh) -> Field:
    data = _read_csv(path, 3)
    n_expect = (mesh.Ny + 1) * (mesh.Nt + 1)
    if data.shape[0] != n_expect:
        raise ConfigurationError(f"{path}: expected {n_expect} field rows, found {data.shape[0]}")
    y_col, t_col, vals = (data[:, c].reshape(mesh.Nt + 1, mesh.Ny + 1) for c in range(3))
    if not np.allclose(y_col, mesh.y[None, :], atol=1e-8):
        raise ConfigurationError(f"{path}: y column does not match the grid")
    if not np.allclose(t_col, mesh.times[:, None], atol=1e-8 * max(1.0, mesh.domain.T)):
        raise ConfigurationError(f"{path}: t column does not match the grid")
    return Field(vals.T.copy(), mesh)


@functools.lru_cache(maxsize=32)
def _coordinate_cells(coords: bytes) -> np.ndarray:
    """f"{c:.17g}" of each float64 in ``coords``, zero-padded to one width."""
    cells = np.array([f"{c:.17g}" for c in np.frombuffer(coords).tolist()], dtype=bytes)
    return read_only(cells.view(np.uint8).reshape(cells.size, -1))


def save_field_csv(path, fld: Field, extra_header: dict | None = None) -> None:
    """Rows "y,t,value" over j fastest, then n, as :func:`_write_csv` writes
    them; the values through the bulk formatter, a block of time levels at
    a time."""
    header = {"kind": "field", "Ny": fld.mesh.Ny, "Nt": fld.mesh.Nt}
    header.update(extra_header or {})
    mesh = fld.mesh
    ys = _coordinate_cells(mesh.y.tobytes())
    ts = _coordinate_cells(mesh.times.tobytes())
    # a row's bytes: y, ",", t, ",", the value's cell, "\r\n"; zero bytes
    # are dropped
    start = ys.shape[1] + ts.shape[1] + 2
    levels = max(1, _G17_BLOCK // (mesh.Ny + 1))
    rows = np.zeros((levels, mesh.Ny + 1, start + _G17_WIDTH), dtype=np.uint8)
    rows[:, :, : ys.shape[1]] = ys
    rows[:, :, ys.shape[1]] = rows[:, :, start - 1] = ord(",")
    rows[:, :, -3:-1] = np.frombuffer(b"\r\n", dtype=np.uint8)
    values = fld.values.T
    with _create(path) as fh:
        fh.write(_csv_head(header, ["y", "t", "value"]))
        fh.flush()
        for n in range(0, mesh.Nt + 1, levels):
            block = rows[: min(levels, mesh.Nt + 1 - n)]
            block[:, :, ys.shape[1] + 1 : start - 1] = ts[n : n + len(block), None]
            cells = _g17_cells(values[n : n + len(block)].ravel())
            block[:, :, start : start + 45] = cells[:, :45].reshape(len(block), mesh.Ny + 1, 45)
            fh.buffer.write(block.tobytes().translate(None, b"\0"))


def save_field_npy(path, fld: Field) -> None:
    """The values as NumPy's binary .npy (``np.load(path)`` reads them back):
    float64, C order, shape (Nt+1, Ny+1), so they run in the field CSV's row
    order, j fastest, then n."""
    with _create(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(fld.values.T), allow_pickle=False)
