import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierwave import grid
from hierwave.errors import ConfigurationError
from hierwave.geometry import DomainSpec
from hierwave.grid import (
    Field,
    GridSpec,
    Mesh,
    PoissonRiesz,
    SpatialProfile,
    Trace,
    duality_pairing,
    hminus1_norm_physical,
    l2_norm_physical,
    load_field_csv,
    load_profile_csv,
    load_trace_csv,
    save_field_csv,
    save_profile_csv,
    save_trace_csv,
    trapezoid_weights,
)
from references import h10_norm_physical, h10_values

# frozen closed-form reference values
SQRT_12 = 1.0954451150103321       # sqrt(1.2)
L2_SIN = 0.7071067811865476        # sqrt(1/2)
H10_SIN = 2.221441469079183        # pi / sqrt(2)
HM1_SIN = 0.22507907903927651      # 1 / (pi sqrt(2))
HM1_ONE = 0.2886751345948129       # 1 / sqrt(12)


def unit_mesh(Ny=64):
    return Mesh.auto(DomainSpec(k=0.0, T=1.0, allow_k_zero=True), Ny)


def profile(mesh, fn, time=0.0):
    return SpatialProfile(fn(mesh.y), time, mesh)


def test_trapezoid_weights():
    w = trapezoid_weights(5, 0.25)
    assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert np.sum(w) == pytest.approx(1.0)


@pytest.mark.parametrize("Ny", [8, 41])
def test_mesh_arrays_match_their_loops(Ny):
    """The mesh's d/dy and space-time weights equal, bit for bit, the entry
    by entry loops they are built without."""
    mesh = Mesh.auto(DomainSpec(k=0.3, T=2.0), Ny)
    n, dy = Ny + 1, mesh.dy
    D = np.zeros((n, n))
    for j in range(1, n - 1):
        D[j, j - 1] = -1.0 / (2.0 * dy)
        D[j, j + 1] = 1.0 / (2.0 * dy)
    D[0, 0], D[0, 1], D[0, 2] = -3.0 / (2 * dy), 4.0 / (2 * dy), -1.0 / (2 * dy)
    D[-1, -1], D[-1, -2], D[-1, -3] = 3.0 / (2 * dy), -4.0 / (2 * dy), 1.0 / (2 * dy)
    assert np.array_equal(mesh.D, D)
    wy, wt = trapezoid_weights(n, dy), trapezoid_weights(mesh.Nt + 1, mesh.dt)
    W = np.array([[wy[j] * (wt[m] * mesh.alphas[m]) for m in range(mesh.Nt + 1)] for j in range(n)])
    assert np.array_equal(mesh.W, W)
    assert np.array_equal(mesh.wy, wy) and np.array_equal(mesh.tau, wt)


def test_meshes_compare_as_their_grid():
    """k, T, Ny and Nt make a mesh's identity; cfl_safety and allow_k_zero
    only validate, so they change neither equality nor the hash."""
    mesh = Mesh(DomainSpec(k=0.1, T=1.0), GridSpec(Ny=12, Nt=40))
    same = Mesh(DomainSpec(k=0.1, T=1.0, allow_k_zero=True), GridSpec(Ny=12, Nt=40, cfl_safety=0.5))
    assert same == mesh and hash(same) == hash(mesh)
    for other in (
        Mesh(DomainSpec(k=0.2, T=1.0), GridSpec(Ny=12, Nt=40)),
        Mesh(DomainSpec(k=0.1, T=2.0), GridSpec(Ny=12, Nt=40)),
        Mesh(DomainSpec(k=0.1, T=1.0), GridSpec(Ny=13, Nt=40)),
        Mesh(DomainSpec(k=0.1, T=1.0), GridSpec(Ny=12, Nt=41)),
    ):
        assert other != mesh


def test_l2_norm_examples():
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 64)
    # alpha = 1.2 at t = 2
    f = SpatialProfile(np.ones(mesh.Ny + 1), 2.0, mesh)
    assert l2_norm_physical(f) == pytest.approx(SQRT_12, rel=1e-12)
    zero = SpatialProfile(np.zeros(mesh.Ny + 1), 2.0, mesh)
    assert l2_norm_physical(zero) == 0.0
    # trapezoid is exact for sin^2 on a uniform periodic-compatible grid
    s = profile(unit_mesh(), lambda y: np.sin(np.pi * y))
    assert l2_norm_physical(s) == pytest.approx(L2_SIN, rel=1e-12)


def test_h10_norm_examples():
    mesh = unit_mesh(128)
    s = profile(mesh, lambda y: np.sin(np.pi * y))
    # first-difference form carries an O(dy^2) defect against the continuum
    assert h10_norm_physical(s) == pytest.approx(H10_SIN, rel=1e-3)
    zero = profile(mesh, lambda y: 0.0 * y)
    assert h10_norm_physical(zero) == 0.0
    f = profile(mesh, lambda y: y * (1 - y) ** 2)
    scaled = SpatialProfile(3.0 * f.values, f.time, mesh)
    assert h10_norm_physical(scaled) == pytest.approx(3.0 * h10_norm_physical(f), rel=1e-12)


def test_h10_requires_zero_endpoints():
    mesh = unit_mesh()
    with pytest.raises(ConfigurationError):
        h10_norm_physical(profile(mesh, lambda y: y + 1.0))


def test_hminus1_norm_examples():
    mesh = unit_mesh(128)
    s = profile(mesh, lambda y: np.sin(np.pi * y))
    assert hminus1_norm_physical(s) == pytest.approx(HM1_SIN, rel=1e-3)
    one = profile(mesh, lambda y: np.ones_like(y))
    assert hminus1_norm_physical(one) == pytest.approx(HM1_ONE, rel=1e-3)
    zero = profile(mesh, lambda y: 0.0 * y)
    assert hminus1_norm_physical(zero) == 0.0


def test_duality_pairing_examples():
    mesh = unit_mesh(128)
    s = profile(mesh, lambda y: np.sin(np.pi * y))
    assert duality_pairing(s, s) == pytest.approx(0.5, rel=1e-12)
    zero = profile(mesh, lambda y: 0.0 * y)
    assert duality_pairing(s, zero) == 0.0


def test_duality_pairing_bound():
    mesh = unit_mesh(48)
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = profile(mesh, lambda y: rng.standard_normal(y.size))
        gv = rng.standard_normal(mesh.Ny + 1)
        gv[0] = gv[-1] = 0.0
        g = SpatialProfile(gv, 0.0, mesh)
        lhs = abs(duality_pairing(f, g))
        rhs = hminus1_norm_physical(f) * h10_norm_physical(g)
        assert lhs <= rhs + 1e-10 * (1.0 + rhs)


def test_riesz_triple_consistency():
    """The same Poisson solve must tie the pairing, lift, and both norms together."""
    mesh = Mesh.auto(DomainSpec(k=0.2, T=3.0), 48)
    pr = PoissonRiesz(mesh, 3.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(mesh.Ny + 1)
        gv = rng.standard_normal(mesh.Ny + 1)
        gv[0] = gv[-1] = 0.0
        v = pr.solve_values(f)
        # pairing of f against g equals the energy inner product of lift and g
        pair_fg = duality_pairing(SpatialProfile(f, 3.0, mesh), SpatialProfile(gv, 3.0, mesh))
        energy = float(np.sum(np.diff(v) * np.diff(gv)) / pr.hx)
        assert pair_fg == pytest.approx(energy, rel=1e-11, abs=1e-13)
        # negative norm of f equals the energy norm of its lift
        norm = hminus1_norm_physical(SpatialProfile(f, 3.0, mesh))
        assert norm == pytest.approx(h10_values(v, pr.hx), rel=1e-11)


@pytest.mark.parametrize("time", [0.0, 3.0])
def test_poisson_solve_matches_solve_banded(time):
    """The direct dgtsv solve gives scipy.linalg.solve_banded's bits on the
    same tridiagonal, and refuses non-finite data as it does."""
    import scipy.linalg

    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 41)
    pr = PoissonRiesz(mesh, time)
    n = mesh.Ny - 1
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / pr.hx**2
    ab[1, :] = 2.0 / pr.hx**2
    ab[2, :-1] = -1.0 / pr.hx**2
    f = np.random.default_rng(3).standard_normal(mesh.Ny + 1)
    want = np.zeros_like(f)
    want[1:-1] = scipy.linalg.solve_banded((1, 1), ab, f[1:-1])
    before = f.copy()
    assert np.array_equal(pr.solve_values(f), want)
    assert np.array_equal(f, before)
    f[5] = np.nan
    with pytest.raises(ValueError):
        pr.solve_values(f)


def test_hminus1_second_order_convergence():
    # smooth non-eigenfunction f = x^2 (1 - x); exact value via the solved
    # two-point problem: v = x^5/20 - x^4/12 + x/30, ||f||^2 = int f v
    exact_sq = (
        Fraction(1, 160)
        - Fraction(1, 84)
        + Fraction(1, 120)
        - Fraction(1, 180)
        + Fraction(1, 96)
        - Fraction(1, 150)
    )
    exact = math.sqrt(float(exact_sq))
    errs = []
    for Ny in (32, 64, 128):
        mesh = unit_mesh(Ny)
        f = profile(mesh, lambda y: y**2 * (1 - y))
        errs.append(abs(hminus1_norm_physical(f) - exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-10, 10), seed=st.integers(0, 1000))
def test_norm_homogeneity(c, seed):
    mesh = unit_mesh(32)
    rng = np.random.default_rng(seed)
    fv = rng.standard_normal(mesh.Ny + 1)
    f = SpatialProfile(fv, 0.0, mesh)
    cf = SpatialProfile(c * fv, 0.0, mesh)
    assert l2_norm_physical(cf) == pytest.approx(abs(c) * l2_norm_physical(f), rel=1e-10, abs=1e-12)
    assert hminus1_norm_physical(cf) == pytest.approx(
        abs(c) * hminus1_norm_physical(f), rel=1e-10, abs=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_norm_triangle(seed):
    mesh = unit_mesh(32)
    rng = np.random.default_rng(seed)
    fv, gv = rng.standard_normal((2, mesh.Ny + 1))
    f, g = SpatialProfile(fv, 0.0, mesh), SpatialProfile(gv, 0.0, mesh)
    fg = SpatialProfile(fv + gv, 0.0, mesh)
    for norm in (l2_norm_physical, hminus1_norm_physical):
        assert norm(fg) <= norm(f) + norm(g) + 1e-12


def test_gridspec_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(Ny=4, Nt=100)
    with pytest.raises(ConfigurationError):
        GridSpec(Ny=16, Nt=100, cfl_safety=1.5)


def test_mesh_auto_cfl():
    mesh = Mesh.auto(DomainSpec(k=0.3, T=2.0), 33)
    mesh.require_cfl()
    bad = Mesh(DomainSpec(k=0.3, T=2.0), GridSpec(Ny=33, Nt=10))
    with pytest.raises(ConfigurationError):
        bad.require_cfl()


def test_container_shape_validation():
    mesh = unit_mesh(16)
    with pytest.raises(ConfigurationError):
        Field(np.zeros((3, 3)), mesh)
    with pytest.raises(ConfigurationError):
        SpatialProfile(np.zeros(5), 0.0, mesh)
    with pytest.raises(ConfigurationError):
        Trace(np.zeros(5), np.ones(5, bool), mesh)


def test_trace_zero_off_mask():
    mesh = unit_mesh(16)
    mask = np.zeros(mesh.Nt + 1, dtype=bool)
    mask[: mesh.Nt // 2] = True
    tr = Trace(np.ones(mesh.Nt + 1), mask, mesh)
    assert np.all(tr.values[~mask] == 0.0)


def test_csv_roundtrips(tmp_path):
    mesh = Mesh.auto(DomainSpec(k=0.25, T=2.0), 16)
    rng = np.random.default_rng(5)

    prof = SpatialProfile(rng.standard_normal(mesh.Ny + 1), 2.0, mesh)
    save_profile_csv(tmp_path / "p.csv", prof, {"note": "test"})
    back = load_profile_csv(tmp_path / "p.csv", mesh, 2.0)
    assert np.array_equal(back.values, prof.values)

    tr = Trace(rng.standard_normal(mesh.Nt + 1), np.ones(mesh.Nt + 1, bool), mesh)
    save_trace_csv(tmp_path / "t.csv", tr)
    back = load_trace_csv(tmp_path / "t.csv", mesh, np.ones(mesh.Nt + 1, dtype=bool))
    assert np.array_equal(back.values, tr.values)

    fld = Field(rng.standard_normal((mesh.Ny + 1, mesh.Nt + 1)), mesh)
    save_field_csv(tmp_path / "f.csv", fld)
    back = load_field_csv(tmp_path / "f.csv", mesh)
    assert np.array_equal(back.values, fld.values)


def test_csv_mismatch_rejected(tmp_path):
    mesh = Mesh.auto(DomainSpec(k=0.25, T=2.0), 16)
    other = Mesh.auto(DomainSpec(k=0.25, T=2.0), 24)
    prof = SpatialProfile(np.ones(mesh.Ny + 1), 2.0, mesh)
    save_profile_csv(tmp_path / "p.csv", prof)
    with pytest.raises(ConfigurationError):
        load_profile_csv(tmp_path / "p.csv", other, 2.0)


def test_field_csv_from_another_mesh_rejected(tmp_path):
    """A field file with the right row count but another grid or horizon
    used to load: transposed on the swapped grid, rescaled in time on T = 2."""
    domain = DomainSpec(k=0.25, T=1.0)
    mesh = Mesh(domain, GridSpec(Ny=8, Nt=12))
    save_field_csv(tmp_path / "f.csv", Field(np.ones((mesh.Ny + 1, mesh.Nt + 1)), mesh))
    assert np.array_equal(load_field_csv(tmp_path / "f.csv", mesh).values, np.ones((9, 13)))
    with pytest.raises(ConfigurationError, match="y column"):
        load_field_csv(tmp_path / "f.csv", Mesh(domain, GridSpec(Ny=12, Nt=8)))
    with pytest.raises(ConfigurationError, match="t column"):
        load_field_csv(tmp_path / "f.csv", Mesh(DomainSpec(k=0.25, T=2.0), GridSpec(Ny=8, Nt=12)))


def test_csv_loaders_take_only_paths():
    """A value that is not a str or os.PathLike is a configuration error
    naming it; ``open`` would take True or 1 as file descriptor 1 and close
    stdout.  Run in a child process, whose stdout must survive every call."""
    import subprocess
    import sys
    from pathlib import Path

    code = """
import numpy as np
from hierwave import grid
from hierwave.errors import ConfigurationError
from hierwave.geometry import DomainSpec
mesh = grid.Mesh.auto(DomainSpec(k=0.25, T=2.0), 8)
for load, args in ((grid.load_profile_csv, (mesh, 2.0)), (grid.load_trace_csv, (mesh, np.ones(mesh.Nt + 1, bool))),
                   (grid.load_field_csv, (mesh,))):
    for path in (True, 1, 1.0, None):
        try:
            load(path, *args)
        except ConfigurationError as err:
            print("refused:", err)
"""
    src = str(Path(grid.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 12
    for line, (path, kind) in zip(lines, [("True", "bool"), ("1", "int"), ("1.0", "float"), ("None", "NoneType")] * 3):
        assert line == f"refused: {path}: a CSV path must be a str or os.PathLike, not {kind}"


def _csv_writer_bytes(path, header, columns, rows):
    """The earlier row-by-row writer, kept as the byte-level reference."""
    import csv

    with open(path, "w", newline="") as fh:
        for key, val in header.items():
            fh.write(f"# {key}: {val}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])
    return path.read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path):
    mesh = Mesh.auto(DomainSpec(k=0.25, T=2.0), 12)
    rng = np.random.default_rng(9)
    special = np.array(
        [0.0, -0.0, 1e-300, 1e300, -1e300, -1e-300, -2.5, 1.0 / 3.0, np.inf, -np.inf, np.nan, 5e-324, 1e22]
    )
    header = {"config_hash": "abc", "seed": 3, "warnings": "none", "note": "100% of %s"}

    vals = rng.standard_normal((mesh.Ny + 1, mesh.Nt + 1))
    vals.ravel()[: special.size] = special
    fld = Field(vals, mesh)
    save_field_csv(tmp_path / "f.csv", fld, header)
    rows = (
        (mesh.y[j], mesh.times[n], vals[j, n])
        for n in range(mesh.Nt + 1)
        for j in range(mesh.Ny + 1)
    )
    ref = _csv_writer_bytes(
        tmp_path / "f_ref.csv", {"kind": "field", "Ny": mesh.Ny, "Nt": mesh.Nt, **header}, ["y", "t", "value"], rows
    )
    assert (tmp_path / "f.csv").read_bytes() == ref

    pvals = rng.standard_normal(mesh.Ny + 1)
    pvals[: special.size] = special
    prof = SpatialProfile(pvals, 2.0, mesh)
    save_profile_csv(tmp_path / "p.csv", prof, header)
    ref = _csv_writer_bytes(
        tmp_path / "p_ref.csv",
        {"kind": "profile", "time": "2", "Ny": mesh.Ny, **header},
        ["coordinate", "value"],
        zip(prof.alpha * mesh.y, pvals),
    )
    assert (tmp_path / "p.csv").read_bytes() == ref

    tvals = rng.standard_normal(mesh.Nt + 1)
    tvals[: special.size] = special
    tr = Trace(tvals, np.ones(mesh.Nt + 1, bool), mesh)
    save_trace_csv(tmp_path / "t.csv", tr, header)
    ref = _csv_writer_bytes(
        tmp_path / "t_ref.csv",
        {"kind": "trace", "side": "y=0", "Nt": mesh.Nt, **header},
        ["coordinate", "value"],
        zip(mesh.times, tvals),
    )
    assert (tmp_path / "t.csv").read_bytes() == ref


def _written_table(path):
    """The comment lines as a dict, the header row and the rows as floats
    of a written CSV."""
    comments, lines = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(": ", 1)
            comments[key] = val
        else:
            lines.append(line.split(","))
    return comments, lines[0], [[float(cell) for cell in line] for line in lines[1:]]


def test_table_csv_matches_csv_writer(tmp_path):
    """save_table_csv gives csv.writer's bytes for the same header and rows:
    "\r\n" row ends, integers as bare digits; an empty table is its head."""
    rows = [(3, -0.0, 1.0 / 3.0), (0, np.inf, 1e22), (12, np.nan, 5e-324)]
    header = {"seed": 3, "note": "100% of %s"}
    for name, table in (("t", rows), ("empty", [])):
        grid.save_table_csv(tmp_path / "out" / f"{name}.csv", header, ["n", "a", "b"], table)
        expect = _csv_writer_bytes(tmp_path / f"{name}_ref.csv", header, ["n", "a", "b"], table)
        assert (tmp_path / "out" / f"{name}.csv").read_bytes() == expect


def test_cli_tables_match_csv_writer(tmp_path):
    """history.csv, sweep.csv and threshold.csv have csv.writer's bytes for
    the header and rows they hold."""
    import json

    from hierwave.cli import main

    config = {
        "domain": {"k": 0.1, "T": 4.0},
        "grid": {"Ny": 12},
        "targets": {
            "u0": {"family": "sine", "amplitude": 0.1},
            "u1": {"family": "constant", "value": 0.0},
            "rho0": 1e-3,
            "rho1": 1e-3,
        },
        "sweep": {"rho_rel": [0.05, 0.1]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["leader", "--config", str(path), "--out", str(tmp_path / "leader")]) in (0, 4)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 0
    assert main(["threshold", "--k", "0.0001", "0.1", "0.5", "--out", str(tmp_path / "threshold")]) == 0
    for written in (tmp_path / "leader/history.csv", tmp_path / "sweep/sweep.csv", tmp_path / "threshold/threshold.csv"):
        comments, columns, values = _written_table(written)
        assert values and b"\r\n" in written.read_bytes()
        assert written.read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", comments, columns, values), written


def g17_strings(values):
    """What the bulk "%.17g" formatter makes of each value."""
    cells = grid._g17_cells(np.asarray(values, dtype=float))
    return [row[row != 0].tobytes().decode() for row in cells]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_bulk_g17_matches_python(values):
    assert g17_strings(values) == [f"{v:.17g}" for v in values]


# the long double route's edges: zero, the subnormal and normal ends, the
# largest double, every power of ten with both neighbours (the 1e16 and 1e17
# scaling bounds, the 17-digit carries), and the fixed/exponent switches at
# exponents -5/-4 and 16/17
POWERS_OF_TEN = [float(f"1e{n}") for n in range(-323, 309)]
G17_EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    np.nextafter(2.2250738585072014e-308, 0),
    1.7976931348623157e308,
    -1.7976931348623157e308,
    *POWERS_OF_TEN,
    *np.nextafter(POWERS_OF_TEN, 0),
    *np.nextafter(POWERS_OF_TEN, np.inf),
    9.9999999999999991e-06,
    1.2345678901234567e-05,
    -1.2345678901234567e-05,
    9.9999999999999991e-05,
    0.00012345678901234567,
    -0.00012345678901234567,
    9999999999999998.0,
    12345678901234568.0,
    99999999999999984.0,
    123456789012345680.0,
    -123456789012345680.0,
    0.5,
    -2.5,
    1.0 / 3.0,
    1e22,
    1e23,
]


@pytest.mark.skipif(not grid._BULK_G17, reason="long double has less than a 64-bit significand")
def test_powers_of_ten_are_the_nearest_long_doubles():
    # the rejection margin assumes each 10^k is off by at most half an ulp
    for k, power in zip(range(*grid._G17_POW), grid._pow10_longdouble()):
        mant, exp = np.frexp(power)
        value = Fraction(int(np.ldexp(mant, 64))) * Fraction(2) ** (int(exp) - 64)
        assert abs(value - Fraction(10) ** k) <= Fraction(2) ** (int(exp) - 65), k


def test_bulk_g17_edges():
    assert g17_strings(G17_EDGES) == [f"{v:.17g}" for v in G17_EDGES]
    assert g17_strings([1e-5, 1e-4, 1e16, 1e17]) == ["1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17"]


def test_bulk_g17_rejects_ties_and_non_finite_values(monkeypatch):
    # 1e15 + 0.25 is 1000000000000000.25 exactly: its 17-digit rounding is
    # a tie, which the long double route must leave to Python's formatting,
    # as it must inf and nan; 1.5 and 0.1 it formats itself
    seen = []
    fallback = grid._g17_fallback
    monkeypatch.setattr(grid, "_g17_fallback", lambda x: seen.extend(x.tolist()) or fallback(x))
    ties = [1e15 + 0.25, -(1e15 + 0.75)]
    values = [1.5, *ties, np.inf, -np.inf, 0.1]
    assert g17_strings(values + [np.nan]) == [f"{v:.17g}" for v in values] + ["nan"]
    assert seen[:4] == [*ties, np.inf, -np.inf] and np.isnan(seen[4]) and len(seen) == 5
    assert g17_strings(ties) == ["1000000000000000.2", "-1000000000000000.8"]


def test_field_csv_bytes_same_on_the_per_value_route(tmp_path, monkeypatch):
    # with a long double narrower than 64 bits every value takes Python's
    # formatting; the bytes must not change
    mesh = Mesh.auto(DomainSpec(k=0.25, T=2.0), 12)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((mesh.Ny + 1, mesh.Nt + 1)) * 10.0 ** rng.integers(-30, 30, (mesh.Ny + 1, mesh.Nt + 1))
    vals.ravel()[: len(G17_EDGES)] = G17_EDGES[: vals.size]
    fld = Field(vals, mesh)
    save_field_csv(tmp_path / "bulk.csv", fld, {"seed": 1})
    monkeypatch.setattr(grid, "_BULK_G17", False)
    assert g17_strings(G17_EDGES) == [f"{v:.17g}" for v in G17_EDGES]
    save_field_csv(tmp_path / "per_value.csv", fld, {"seed": 1})
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "per_value.csv").read_bytes()
    assert np.array_equal(load_field_csv(tmp_path / "bulk.csv", mesh).values, vals)
