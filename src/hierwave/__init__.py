"""Hierarchical boundary control of the wave equation on an expanding interval.

A leader and a follower share the fixed endpoint of a string whose other
endpoint moves away at constant subcharacteristic speed.  The follower
reacts optimally to the leader (a one-follower equilibrium of the tracking
cost); the leader then steers the final state into prescribed balls at
minimal cost, computed by minimizing a nonsmooth dual functional over the
adjoint final data.

Import each public name from its own module (``hierwave.coupled``, ...):
the package itself loads no layer and no numpy.
"""

__version__ = "0.1.0"
