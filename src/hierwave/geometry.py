"""Geometry of the expanding space-time domain.

The spatial interval at time t is (0, 1 + k t) with 0 <= k < 1: the left
endpoint (where all controls act) is fixed, the right endpoint recedes at
subcharacteristic speed k.  The change of variables y = x / (1 + k t) maps
everything onto the unit reference interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "DomainSpec",
    "SigmaPartition",
    "AdmissibilityReport",
    "alpha",
    "min_control_time",
    "check_admissible",
]


@dataclass(frozen=True)
class DomainSpec:
    """Expansion speed and time horizon of the moving domain.

    k = 0 is the classical fixed string; it is outside the moving-boundary
    theory and admitted only behind ``allow_k_zero`` for validation against
    closed-form solutions.  It only validates, so domains compare (and hash)
    as their k and T.
    """

    k: float
    T: float
    allow_k_zero: bool = field(default=False, compare=False)

    def __post_init__(self):
        rep = check_admissible(self.k, self.T, allow_k_zero=self.allow_k_zero)
        if rep.hard_error is not None:
            raise ConfigurationError(rep.hard_error)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility check.  Warnings never block a run."""

    ok: bool
    hard_error: str | None
    warnings: tuple[str, ...]

    @property
    def below_threshold(self) -> bool:
        return "below_threshold" in self.warnings


def alpha(spec: DomainSpec, t: float) -> float:
    """Position of the moving endpoint, 1 + k t, at one time t."""
    tol = 1e-12 * max(1.0, spec.T)
    if t < -tol or t > spec.T + tol:
        raise ConfigurationError(f"time {t} outside [0, {spec.T}]")
    return float(1.0 + spec.k * t)


def min_control_time(k: float) -> float:
    """Horizon above which the moving boundary no longer blocks observability.

    T_min(k) = (exp(2 k (1 + k) / (1 - k)^3) - 1) / k, defined for 0 < k < 1.
    Grows without bound as k -> 1 and tends to 2 (two traversals of the unit
    string) as k -> 0.
    """
    if not (0.0 < k < 1.0):
        raise ConfigurationError(f"expansion speed k must lie in (0, 1), got {k}")
    expo = 2.0 * k * (1.0 + k) / (1.0 - k) ** 3
    try:
        return math.expm1(expo) / k
    except OverflowError:
        # beyond float range (k above roughly 0.84); the threshold is
        # astronomically large there and inf is the honest representable value
        return math.inf


def check_admissible(k: float, T: float, allow_k_zero: bool = False) -> AdmissibilityReport:
    """Validate (k, T) and collect warnings.  Never raises."""
    warnings: list[str] = []
    if not np.isfinite(k) or k < 0.0 or k >= 1.0:
        return AdmissibilityReport(
            ok=False,
            hard_error=(
                f"expansion speed k={k} is not admissible: the moving endpoint "
                "must satisfy 0 <= k < 1 (subcharacteristic motion)"
            ),
            warnings=(),
        )
    if not np.isfinite(T) or T <= 0.0:
        return AdmissibilityReport(
            ok=False, hard_error=f"horizon T must be positive, got {T}", warnings=()
        )
    if k == 0.0:
        if not allow_k_zero:
            return AdmissibilityReport(
                ok=False,
                hard_error="k = 0 is reserved for validation runs; set allow_k_zero",
                warnings=(),
            )
        warnings.append("k_zero_validation_only")
        return AdmissibilityReport(ok=True, hard_error=None, warnings=tuple(warnings))
    if T <= min_control_time(k):
        warnings.append("below_threshold")
    return AdmissibilityReport(ok=True, hard_error=None, warnings=tuple(warnings))


@dataclass(frozen=True)
class SigmaPartition:
    """Split of the controlled boundary {x = 0} between leader and follower.

    ``overlap``: both controls act on the whole of (0, T) and superpose.
    ``time-split``: disjoint time windows (experimental; the density theory
    behind the leader problem is only established for the overlap case).
    """

    mode: str
    mask1: np.ndarray = field(repr=False)
    mask2: np.ndarray = field(repr=False)

    def __post_init__(self):
        m1 = np.asarray(self.mask1, dtype=bool)
        m2 = np.asarray(self.mask2, dtype=bool)
        object.__setattr__(self, "mask1", m1)
        object.__setattr__(self, "mask2", m2)
        if m1.shape != m2.shape or m1.ndim != 1:
            raise ConfigurationError("partition masks must be 1-D and of equal length")
        if self.mode == "overlap":
            if not (m1.all() and m2.all()):
                raise ConfigurationError("overlap partition requires all-true masks")
        elif self.mode == "time-split":
            if np.any(m1 & m2):
                raise ConfigurationError("time-split partition requires disjoint masks")
            if not np.all(m1 | m2):
                raise ConfigurationError("time-split partition must cover the whole boundary")
        else:
            raise ConfigurationError(f"unknown partition mode {self.mode!r}")

    @classmethod
    def overlap(cls, n_nodes: int) -> "SigmaPartition":
        ones = np.ones(n_nodes, dtype=bool)
        return cls("overlap", ones, ones.copy())

    @classmethod
    def time_split(cls, n_nodes: int, split_fraction: float = 0.5) -> "SigmaPartition":
        """Leader acts on the first ``split_fraction`` of the horizon, follower after."""
        if not 0.0 < split_fraction < 1.0:
            raise ConfigurationError("split_fraction must lie in (0, 1)")
        cut = int(round(split_fraction * (n_nodes - 1)))
        cut = min(max(cut, 1), n_nodes - 1)
        m1 = np.zeros(n_nodes, dtype=bool)
        m1[: cut + 1] = True
        return cls("time-split", m1, ~m1)
