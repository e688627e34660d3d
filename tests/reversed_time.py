"""The reversed-time march: the reference that backward problems are checked against.

A problem with data at t = T is marched forward in tau = T - t.  The
substitution flips the sign of the mixed-derivative coefficient and reads the
other coefficients at T - tau; the march itself is the library's forward
stepper.  The library solves backward problems as exact discrete transposes
(:meth:`hierwave.wave_core.WaveOperator.solve_adjoint`); this march is an
independent approximation of the continuum backward equation.
"""

from hierwave.grid import Field, SpatialProfile, Trace
from hierwave.wave_core import WaveOperator, _cylinder_velocity


class ReversedTimeOperator(WaveOperator):
    """The forward operator in reversed time, tau = T - t."""

    def _coefficients(self):
        b, c, d = super()._coefficients()
        return -b[::-1], c[::-1], d[::-1]


def solve_backward(bc0: Trace, bc1=None, source=None, data=None) -> Field:
    """March a final-data problem in reversed time.

    ``bc1`` (Dirichlet data at y = 1), ``source`` (a Field) and ``data``
    (final value and physical velocity profiles) are zero when None.
    """
    mesh = bc0.mesh
    mesh.require_cfl()
    T = mesh.domain.T
    if bc1 is None:
        bc1 = Trace.zeros(mesh, side="y=1")
    if data is None:
        data = (SpatialProfile.zeros(mesh, T), SpatialProfile.zeros(mesh, T))
    op = ReversedTimeOperator(mesh)
    f0 = data[0].values
    v_t_final = _cylinder_velocity(mesh, f0, data[1].values, T)
    bc0_rev = bc0.values[::-1].copy()
    bc1_rev = bc1.values[::-1].copy()
    src = source.values[:, ::-1].copy() if source is not None else None
    vals = op.march(bc0_rev, bc1_rev, f0, -v_t_final, src)
    return Field(vals[:, ::-1].copy(), mesh).check_finite()
