import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierwave.errors import ConfigurationError
from hierwave.geometry import (
    DomainSpec,
    SigmaPartition,
    alpha,
    check_admissible,
    min_control_time,
)

# frozen oracle values: high-precision evaluation of the closed form
T_MIN_K01 = 3.522681107741945
T_MIN_K05 = 325507.58283800783


def test_alpha_examples():
    assert alpha(DomainSpec(k=0.1, T=4.0), 2.0) == pytest.approx(1.2, abs=1e-15)
    assert alpha(DomainSpec(k=0.3, T=1.0), 0.0) == 1.0
    assert alpha(DomainSpec(k=0.5, T=4.0), 4.0) == pytest.approx(3.0, abs=1e-15)


def test_alpha_domain_error():
    spec = DomainSpec(k=0.1, T=1.0)
    with pytest.raises(ConfigurationError):
        alpha(spec, -0.1)
    with pytest.raises(ConfigurationError):
        alpha(spec, 1.5)


@settings(max_examples=30, deadline=None)
@given(
    k=st.floats(0.01, 0.9),
    t1=st.floats(0.0, 2.0),
    t2=st.floats(0.0, 2.0),
)
def test_alpha_affine(k, t1, t2):
    spec = DomainSpec(k=k, T=4.0)
    lhs = alpha(spec, t1) + alpha(spec, t2)
    rhs = alpha(spec, t1 + t2) + 1.0
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_min_control_time_values():
    assert min_control_time(0.1) == pytest.approx(T_MIN_K01, rel=1e-12)
    assert abs(min_control_time(0.1) - 3.5227) < 1e-3
    assert min_control_time(0.5) == pytest.approx(T_MIN_K05, rel=1e-12)
    # small-speed limit: two traversals of the unit string
    taylor = math.expm1(2e-4) / 1e-4
    assert abs(min_control_time(1e-4) - taylor) < 1e-3


def test_min_control_time_domain():
    for bad in (0.0, -0.2, 1.0, 1.5):
        with pytest.raises(ConfigurationError):
            min_control_time(bad)


def test_min_control_time_monotone():
    ks = np.arange(0.05, 0.95, 0.05)
    vals = [min_control_time(k) for k in ks]
    finite = [v for v in vals if math.isfinite(v)]
    assert all(b > a for a, b in zip(finite, finite[1:]))
    # beyond the float range the threshold saturates at inf; the exponent
    # itself stays strictly increasing
    expos = [2 * k * (1 + k) / (1 - k) ** 3 for k in ks]
    assert all(b > a for a, b in zip(expos, expos[1:]))
    assert all(v == math.inf for v in vals[len(finite):])


def test_check_admissible_ok():
    rep = check_admissible(0.1, 4.0)
    assert rep.ok and not rep.warnings


def test_check_admissible_below_threshold():
    rep = check_admissible(0.1, 2.0)
    assert rep.ok and rep.below_threshold


def test_check_admissible_hard_error():
    rep = check_admissible(1.2, 5.0)
    assert not rep.ok and rep.hard_error is not None
    with pytest.raises(ConfigurationError):
        DomainSpec(k=1.2, T=5.0)


def test_check_admissible_k_zero():
    assert not check_admissible(0.0, 1.0).ok
    rep = check_admissible(0.0, 1.0, allow_k_zero=True)
    assert rep.ok and "k_zero_validation_only" in rep.warnings


def test_partition_overlap():
    p = SigmaPartition.overlap(10)
    assert p.mask1.all() and p.mask2.all()


def test_partition_time_split():
    p = SigmaPartition.time_split(11, 0.5)
    assert not np.any(p.mask1 & p.mask2)
    assert np.all(p.mask1 | p.mask2)


def test_partition_invalid():
    with pytest.raises(ConfigurationError):
        SigmaPartition("overlap", np.array([True, False]), np.array([True, True]))
    with pytest.raises(ConfigurationError):
        SigmaPartition("time-split", np.array([True, True]), np.array([True, False]))
    with pytest.raises(ConfigurationError):
        SigmaPartition("diagonal", np.ones(3, bool), np.ones(3, bool))
