"""Box-Wilson central composite designs over the blank factor space."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

ROLE_FACTORIAL = "factorial"
ROLE_CENTER = "center"
ROLE_STAR = "star"

DEFAULT_ALPHA = 1.287


@dataclass(frozen=True)
class Factor:
    """One design factor: physical = center + normalized * half_range."""

    name: str
    center: float      # physical units
    half_range: float  # physical units

    def __post_init__(self):
        if not self.name:
            raise ValidationError("factor name must be non-empty")
        if not (math.isfinite(self.center) and math.isfinite(self.half_range)):
            raise ValidationError(f"factor {self.name}: center/half_range must be finite")
        if self.half_range <= 0:
            raise ValidationError(
                f"factor {self.name}: half_range must be > 0, got {self.half_range}")


@dataclass(frozen=True)
class FactorSpace:
    """Ordered factors plus the star distance alpha (normalized units)."""

    factors: tuple[Factor, ...]
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if isinstance(self.factors, list):
            object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise ValidationError("factor space needs at least one factor")
        if not 1.0 <= self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and >= 1, got {self.alpha}")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate factor names: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)


def default_factor_space(alpha: float = DEFAULT_ALPHA) -> FactorSpace:
    """Blank factor space: D = 117 +- 1.5 mm, A1 and A2 = 0 +- 1.5 mm."""
    return FactorSpace(
        factors=(
            Factor("D", 117.0, 1.5),
            Factor("A1", 0.0, 1.5),
            Factor("A2", 0.0, 1.5),
        ),
        alpha=alpha,
    )


@dataclass(frozen=True)
class DesignMatrix:
    """CCD points in normalized coordinates plus the role of each point."""

    points: np.ndarray        # (n_points, n_factors)
    roles: tuple[str, ...]    # one of ROLE_FACTORIAL / ROLE_CENTER / ROLE_STAR

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] != len(self.roles):
            raise ValidationError("design points/roles shape mismatch")
        object.__setattr__(self, "points", points)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_factors(self) -> int:
        return self.points.shape[1]


def ccd_design(space: FactorSpace) -> DesignMatrix:
    """Full central composite design in normalized coordinates.

    Point order: the 2^f factorial block in binary low-to-high order (last
    factor varies fastest), the single center point, then the star pair
    (-alpha, +alpha) of each factor in turn. Total 2^f + 1 + 2f points.
    """
    f = space.n_factors
    if f < 2 or f > 6:
        raise ValidationError(f"CCD supports 2..6 factors, got {f}")
    points = []
    roles = []
    for bits in itertools.product((-1.0, 1.0), repeat=f):
        points.append(list(bits))
        roles.append(ROLE_FACTORIAL)
    points.append([0.0] * f)
    roles.append(ROLE_CENTER)
    for i in range(f):
        for sign in (-1.0, 1.0):
            p = [0.0] * f
            p[i] = sign * space.alpha
            points.append(p)
            roles.append(ROLE_STAR)
    return DesignMatrix(points=np.array(points), roles=tuple(roles))


def to_physical(space: FactorSpace, normalized) -> np.ndarray:
    """Map normalized coordinates to physical units (vector or matrix)."""
    x = np.asarray(normalized, dtype=float)
    if x.shape[-1] != space.n_factors:
        raise ValidationError(
            f"coordinate length {x.shape[-1]} != factor count {space.n_factors}")
    center = np.array([f.center for f in space.factors])
    half = np.array([f.half_range for f in space.factors])
    return center + x * half


def write_design_csv(path, space: FactorSpace, design: DesignMatrix) -> None:
    """Write the design in physical units: header `run,role,<factor names...>`."""
    path = Path(path)
    physical = to_physical(space, design.points)
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "role", *space.names])
        for i, (role, row) in enumerate(zip(design.roles, physical), start=1):
            writer.writerow([i, role, *[repr(float(v)) for v in row]])

