import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierwave.errors import ConfigurationError, InstabilityError
from hierwave.geometry import DomainSpec
from hierwave.grid import Field, GridSpec, Mesh, SpatialProfile, Trace, trapezoid_weights
from hierwave.wave_core import (
    WaveOperator,
    extract_terminal,
    final_value_profile,
    final_velocity_profile,
    solve_forward,
    terminal_adjoint,
    trace_normal_derivative,
)
from reversed_time import ReversedTimeOperator, solve_backward

SIN_QUARTER = 0.7071067811865476  # sin(pi/4)


def full_mask(mesh):
    return np.ones(mesh.Nt + 1, dtype=bool)


def zero_trace(mesh, side="y=0"):
    return Trace(np.zeros(mesh.Nt + 1), full_mask(mesh), mesh, side)


def random_inputs(mesh, rng):
    J, N = mesh.Ny, mesh.Nt
    bc0 = rng.standard_normal(N + 1)
    bc1 = rng.standard_normal(N + 1)
    a_int = rng.standard_normal(J - 1)
    m = rng.standard_normal(J + 1)
    S = rng.standard_normal((J + 1, N + 1))
    return bc0, bc1, a_int, m, S


@settings(max_examples=25, deadline=None)
@given(
    Ny=st.integers(8, 24),
    k=st.floats(0.01, 0.5),
    T=st.floats(0.5, 2.0),
    mirrored=st.booleans(),
    width=st.sampled_from([1, 3]),
    seed=st.integers(0, 1000),
)
def test_march_equals_matrix_solve(Ny, k, T, mirrored, width, seed):
    """The march is forward substitution of M: with a source, data at both
    ends and nonzero initial data, each column equals M^-1 r through the
    sparse LU, which is assembled from the coefficients, not the stencil
    table.  The reversed-time operator, which marches the tests' backward
    problems, is checked too."""
    mesh = Mesh.auto(DomainSpec(k=k, T=T), Ny)
    op = (ReversedTimeOperator if mirrored else WaveOperator)(mesh)
    rng = np.random.default_rng(seed)
    J, N = mesh.Ny, mesh.Nt
    bc0 = rng.standard_normal((N + 1, width))
    bc1 = rng.standard_normal((N + 1, width))
    a_int = rng.standard_normal((J - 1, width))
    m = rng.standard_normal((J + 1, width))
    S = rng.standard_normal((J + 1, N + 1, width))
    a_full = np.concatenate([bc0[:1], a_int, bc1[:1]])
    if width == 1:
        fields = op.march(bc0[:, 0], bc1[:, 0], a_full[:, 0], m[:, 0], S[:, :, 0])[:, :, None]
    else:
        fields = op.march(bc0, bc1, a_full, m, S)
    for i in range(width):
        ref = op.solve_lu(bc0[:, i], bc1[:, i], a_int[:, i], m[:, i], S[:, :, i])
        assert np.max(np.abs(fields[:, :, i] - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_adjoint_solve_dot_product():
    """<M^{-1} r, rho> must equal <r, lambda> for lambda = M^{-T} rho: the
    sweep against the LU of M, with r the right-hand side of random inputs."""
    mesh = Mesh.auto(DomainSpec(k=0.15, T=1.0), 12)
    for mirrored in (False, True):
        op = (ReversedTimeOperator if mirrored else WaveOperator)(mesh)
        rng = np.random.default_rng(1 + mirrored)
        inputs = random_inputs(mesh, rng)
        rho = rng.standard_normal((mesh.Ny + 1, mesh.Nt + 1))
        lhs = float(np.sum(op.solve_lu(*inputs) * rho))
        rhs = float(op.rhs_vector(*inputs) @ op._flatten(op.solve_adjoint(rho)))
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs))


def test_zero_data_gives_zero_field():
    mesh = Mesh.auto(DomainSpec(k=0.1, T=2.0), 16)
    fld = solve_forward(zero_trace(mesh))
    assert np.all(fld.values == 0.0)
    bld = solve_backward(zero_trace(mesh))
    assert np.all(bld.values == 0.0)


@settings(max_examples=15, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 100))
def test_solver_linearity(a, b, seed):
    mesh = Mesh.auto(DomainSpec(k=0.2, T=1.0), 10)
    op = WaveOperator(mesh)
    rng = np.random.default_rng(seed)
    in1 = random_inputs(mesh, rng)
    in2 = random_inputs(mesh, rng)
    mix = tuple(a * x + b * y for x, y in zip(in1, in2))
    v_mix = op.solve_lu(*mix)
    v_sum = a * op.solve_lu(*in1) + b * op.solve_lu(*in2)
    scale = np.max(np.abs(v_mix)) + 1.0
    assert np.max(np.abs(v_mix - v_sum)) < 1e-12 * scale


def test_dalembert_pointwise():
    mesh = Mesh.auto(DomainSpec(k=0.0, T=1.0, allow_k_zero=True), 200)
    bc = Trace(np.sin(np.pi * mesh.times), full_mask(mesh), mesh)
    fld = solve_forward(bc)
    j = np.argmin(np.abs(mesh.y - 0.25))
    n = np.argmin(np.abs(mesh.times - 0.5))
    assert fld.values[j, n] == pytest.approx(SIN_QUARTER, abs=5e-3)


def test_trace_exact_for_linear_field():
    mesh = Mesh.auto(DomainSpec(k=0.3, T=2.0), 24)
    vals = np.outer(mesh.y, mesh.alphas)  # u = x
    tr = trace_normal_derivative(Field(vals, mesh))
    assert np.max(np.abs(tr.values - 1.0)) < 1e-12


def test_trace_zero_field():
    mesh = Mesh.auto(DomainSpec(k=0.1, T=1.0), 16)
    tr = trace_normal_derivative(Field(np.zeros((mesh.Ny + 1, mesh.Nt + 1)), mesh))
    assert np.all(tr.values == 0.0)


def test_dalembert_trace_derivative():
    mesh = Mesh.auto(DomainSpec(k=0.0, T=0.9, allow_k_zero=True), 200)
    bc = Trace(np.sin(np.pi * mesh.times), full_mask(mesh), mesh)
    fld = solve_forward(bc)
    tr = trace_normal_derivative(fld)
    # before any reflection returns: u_x(0, t) = -pi cos(pi t)
    sel = (mesh.times > 0.1) & (mesh.times < 0.9)
    expected = -np.pi * np.cos(np.pi * mesh.times[sel])
    assert np.max(np.abs(tr.values[sel] - expected)) < 5e-2 * np.pi


def test_finite_speed_of_propagation():
    mesh = Mesh.auto(DomainSpec(k=0.0, T=1.0, allow_k_zero=True), 128)
    t = mesh.times
    bc_vals = np.where(t < 0.1, np.sin(np.pi * t / 0.1) ** 2, 0.0)
    fld = solve_forward(Trace(bc_vals, full_mask(mesh), mesh))
    Y, Tm = np.meshgrid(mesh.y, t, indexing="ij")
    ahead = Tm < Y - 0.1 - 5 * mesh.dy
    assert np.max(np.abs(fld.values[ahead])) < 1e-10


def test_energy_conservation():
    mesh = Mesh.auto(DomainSpec(k=0.0, T=2.0, allow_k_zero=True), 200)
    init = SpatialProfile(np.sin(np.pi * mesh.y), 0.0, mesh)
    vel = SpatialProfile(np.zeros(mesh.Ny + 1), 0.0, mesh)
    fld = solve_forward(zero_trace(mesh), zero_trace(mesh, "y=1"), (init, vel))
    v = fld.values
    wy = trapezoid_weights(mesh.Ny + 1, mesh.dy)
    e_exact = np.pi**2 / 4.0
    for n in range(1, mesh.Nt):
        u_t = (v[:, n + 1] - v[:, n - 1]) / (2 * mesh.dt)
        u_x = np.gradient(v[:, n], mesh.dy)
        energy = 0.5 * np.sum(wy * (u_t**2 + u_x**2))
        assert abs(energy - e_exact) / e_exact < 1e-3


def test_backward_time_mirror_at_k0():
    """At k = 0 the reversed-time problem is the forward problem on the
    mirrored source, so the two solves must agree after mirroring."""
    mesh = Mesh.auto(DomainSpec(k=0.0, T=1.0, allow_k_zero=True), 24)
    rng = np.random.default_rng(4)
    S = rng.standard_normal((mesh.Ny + 1, mesh.Nt + 1))
    back = solve_backward(zero_trace(mesh), source=Field(S, mesh))
    zeros_t, zeros_y = np.zeros(mesh.Nt + 1), np.zeros(mesh.Ny + 1)
    fwd = WaveOperator(mesh).march(zeros_t, zeros_t, zeros_y, zeros_y, S[:, ::-1].copy())
    assert np.max(np.abs(back.values - fwd[:, ::-1])) < 1e-10


def test_backward_matches_monolithic_direct():
    """Constant source on the moving domain: the march agrees with a direct
    solve of the assembled space-time system."""
    import scipy.sparse.linalg

    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 41)
    src = Field(np.ones((mesh.Ny + 1, mesh.Nt + 1)), mesh)
    back = solve_backward(zero_trace(mesh), source=src)
    op = ReversedTimeOperator(mesh)
    r = op.rhs_vector(
        np.zeros(mesh.Nt + 1),
        np.zeros(mesh.Nt + 1),
        np.zeros(mesh.Ny - 1),
        np.zeros(mesh.Ny + 1),
        src.values[:, ::-1].copy(),
    )
    direct = scipy.sparse.linalg.spsolve(op.matrix(), r)
    direct_field = direct.reshape(mesh.Nt + 1, mesh.Ny + 1).T[:, ::-1]
    scale = np.max(np.abs(direct_field))
    assert np.max(np.abs(back.values - direct_field)) < 1e-6 * scale


def test_backward_final_data_honored():
    mesh = Mesh.auto(DomainSpec(k=0.2, T=1.0), 32)
    f0v = np.sin(np.pi * mesh.y)
    f0 = SpatialProfile(f0v, 1.0, mesh)
    f1 = SpatialProfile(np.zeros(mesh.Ny + 1), 1.0, mesh)
    fld = solve_backward(zero_trace(mesh), None, None, (f0, f1))
    assert np.max(np.abs(fld.values[:, -1] - f0v)) < 1e-12


def test_corner_compatibility_enforced():
    mesh = Mesh.auto(DomainSpec(k=0.1, T=1.0), 16)
    bad_bc = Trace(np.ones(mesh.Nt + 1), full_mask(mesh), mesh)
    with pytest.raises(ConfigurationError):
        solve_forward(bad_bc)  # zero data but bc(0) = 1


def test_cfl_violation_raises():
    mesh = Mesh(DomainSpec(k=0.1, T=2.0), GridSpec(Ny=32, Nt=20))
    with pytest.raises(ConfigurationError):
        solve_forward(zero_trace(mesh))


def _unstable_march(scale, quiet_columns=0):
    """March a CFL-violating mesh with RuntimeWarnings made errors; the
    InstabilityError it must raise.  ``quiet_columns`` zero columns march
    first, in the same batch."""
    mesh = Mesh(DomainSpec(k=0.1, T=40.0), GridSpec(Ny=32, Nt=400))
    op = WaveOperator(mesh)
    width = quiet_columns + 1
    bc = np.zeros((mesh.Nt + 1, width))
    a = np.zeros((mesh.Ny + 1, width))
    a[:, -1] = scale * np.sin(np.pi * mesh.y)
    m = np.zeros((mesh.Ny + 1, width))
    if not quiet_columns:
        bc, a, m = bc[:, 0], a[:, 0], m[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InstabilityError) as err:
            op.march(bc, bc, a, m)
    return err.value


def test_instability_detected():
    """The first level past 1e100 times the largest input is reported, with
    its step, time and amplitude."""
    err = _unstable_march(1.0)
    assert err.step == 87
    assert str(err) == "unstable march at time step 87 (t = 8.7, amplitude 1.058e+100)"


def test_instability_reported_from_any_column():
    """A batched march reports its first level past the bound over all
    columns, whichever column crosses it: here the last of nine, behind
    eight zero columns, with the single column's step and message."""
    err = _unstable_march(1.0, quiet_columns=8)
    assert err.step == 87
    assert str(err) == "unstable march at time step 87 (t = 8.7, amplitude 1.058e+100)"


def test_instability_past_overflow_warns_nothing():
    """Input at 1e200: the levels after the reported one overflow, and the
    march still reports the first level past the bound and warns nothing."""
    err = _unstable_march(1e200)
    assert err.step == 87
    assert str(err) == "unstable march at time step 87 (t = 8.7, amplitude 1.058e+300)"


def test_final_profiles_linear_solution():
    """u = x on the expanding domain has zero physical velocity everywhere."""
    mesh = Mesh.auto(DomainSpec(k=0.3, T=2.0), 24)
    a = mesh.alphas
    bc1 = Trace(a.copy(), full_mask(mesh), mesh, side="y=1")
    init_val = SpatialProfile(mesh.y.copy(), 0.0, mesh)
    init_vel = SpatialProfile(np.zeros(mesh.Ny + 1), 0.0, mesh)
    fld = solve_forward(zero_trace(mesh), bc1, (init_val, init_vel))
    uT = final_value_profile(fld)
    assert np.max(np.abs(uT.values - a[-1] * mesh.y)) < 1e-12
    utT = final_velocity_profile(fld)
    assert np.max(np.abs(utT.values)) < 1e-11


def test_terminal_extraction_adjoint_pair():
    mesh = Mesh.auto(DomainSpec(k=0.2, T=1.0), 20)
    rng = np.random.default_rng(9)
    values = rng.standard_normal((mesh.Ny + 1, mesh.Nt + 1))
    th1, th2 = rng.standard_normal((2, mesh.Ny + 1))
    c1, c2 = extract_terminal(mesh, values)
    rho = terminal_adjoint(mesh, th1, th2)
    lhs = float(c1 @ th1 + c2 @ th2)
    rhs = float(np.sum(values * rho))
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


def test_convergence_order_quick():
    from hierwave.verify import OracleCase, convergence_study, dalembert_solution

    case = OracleCase(
        name="quick",
        domain=DomainSpec(k=0.0, T=1.5, allow_k_zero=True),
        grids=(32, 64, 128),
        solution=dalembert_solution,
    )
    rows = convergence_study(case)
    for row in rows[1:]:
        assert 1.5 <= row["order"] <= 2.5


@settings(max_examples=25, deadline=None)
@given(
    Ny=st.integers(8, 24),
    k=st.floats(0.01, 0.5),
    T=st.floats(0.5, 2.0),
    mirrored=st.booleans(),
    width=st.sampled_from([1, 3]),
    seed=st.integers(0, 1000),
)
def test_transposed_sweep_and_batched_march(Ny, k, T, mirrored, width, seed):
    """The backward sweep solves M^T exactly, one cotangent at a time, and a
    batch marches column by column."""
    import scipy.sparse.linalg

    mesh = Mesh.auto(DomainSpec(k=k, T=T), Ny)
    op = (ReversedTimeOperator if mirrored else WaveOperator)(mesh)
    rng = np.random.default_rng(seed)
    J, N = mesh.Ny, mesh.Nt
    rho = rng.standard_normal((J + 1, N + 1, width))
    for i in range(width):
        lam = op.solve_adjoint(rho[:, :, i])
        flat = op._flatten(rho[:, :, i])
        for ref in (op.lu().solve(flat, trans="T"), scipy.sparse.linalg.spsolve(op.matrix().T.tocsc(), flat)):
            ref = op._unflatten(ref)
            assert np.max(np.abs(lam - ref)) <= 1e-11 * np.max(np.abs(ref))

    bc0 = rng.standard_normal((N + 1, width))
    bc1 = rng.standard_normal(N + 1)
    m = rng.standard_normal(J + 1)
    S = rng.standard_normal((J + 1, N + 1))
    a_full = rng.standard_normal(J + 1)
    fields = op.march(bc0, bc1, a_full, m, S)
    assert fields.shape == (J + 1, N + 1, width)
    for i in range(width):
        assert np.array_equal(fields[:, :, i], op.march(bc0[:, i], bc1, a_full, m, S))


@settings(max_examples=15, deadline=None)
@given(Ny=st.integers(8, 24), k=st.floats(0.01, 0.5), T=st.floats(0.5, 2.0), mirrored=st.booleans())
def test_boundary_response_matches_per_column_marches(Ny, k, T, mirrored):
    """H = S^T W S and the last three levels of S, against S marched one unit datum at a time."""
    mesh = Mesh.auto(DomainSpec(k=k, T=T), Ny)
    op = (ReversedTimeOperator if mirrored else WaveOperator)(mesh)
    J, N = mesh.Ny, mesh.Nt
    zeros_t, zeros_y = np.zeros(N + 1), np.zeros(J + 1)
    S = np.stack([op.march(np.eye(N + 1)[m], zeros_t, zeros_y, zeros_y) for m in range(N + 1)], axis=2)
    H = np.einsum("jna,jn,jnb->ab", S, mesh.W, S)
    resp = op.boundary_response()
    assert np.max(np.abs(resp.H - H)) <= 1e-12 * np.max(np.abs(H))
    # built from x.T @ x blocks alone, with no symmetrizing pass
    assert np.array_equal(resp.H, resp.H.T)
    assert np.array_equal(resp.tail, S[:, N - 2 :, :])


def test_boundary_response_lifts_subnormal_operands(monkeypatch):
    """At Ny = 192 the unit responses decay ahead of their wave fronts into the
    subnormal range.  The build scales them out of it before its products,
    and H and the last levels stay those of the marched columns."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=0.5), 192)
    J, N = mesh.Ny, mesh.Nt
    zeros_t, zeros_y = np.zeros(N + 1), np.zeros(J + 1)
    # every column of a batched march equals its own march bit for bit
    S = WaveOperator(mesh).march(np.eye(N + 1), zeros_t, zeros_y, zeros_y)
    tiny = np.finfo(float).tiny

    def subnormal(x):
        return (x != 0.0) & (np.abs(x) < tiny)

    weighted = np.sqrt(mesh.W)[:, :, None] * S
    assert np.count_nonzero(subnormal(weighted)) > 10_000
    subnormal_operands = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        subnormal_operands.append(int(np.count_nonzero(subnormal(a)) + np.count_nonzero(subnormal(b))))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    resp = WaveOperator(mesh).boundary_response()
    monkeypatch.undo()
    assert subnormal_operands and not any(subnormal_operands)
    H = np.tensordot(weighted, weighted, axes=([0, 1], [0, 1]))
    assert np.max(np.abs(resp.H - H)) <= 1e-12 * np.max(np.abs(H))
    assert np.array_equal(resp.H, resp.H.T)
    assert np.array_equal(resp.tail, S[:, N - 2 :, :])
