"""Box-Wilson central composite designs over the blank factor space."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .geometry import check_finite

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
        check_finite(self)
        if self.half_range <= 0:
            raise ValidationError(
                f"factor {self.name}: half_range must be > 0, got {self.half_range}")


@dataclass(frozen=True)
class FactorSpace:
    """The blank's three ordered factors plus the star distance alpha
    (normalized units)."""

    factors: tuple[Factor, ...]
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if isinstance(self.factors, list):
            object.__setattr__(self, "factors", tuple(self.factors))
        names = self.names
        if len(names) != 3:
            raise ValidationError(f"a factor space has three factors, got {names}")
        if len(set(names)) != 3:
            raise ValidationError(f"duplicate factor names: {names}")
        if not 1.0 <= self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and >= 1, got {self.alpha}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)


def default_factor_space() -> FactorSpace:
    """Blank factor space: D = 117 +- 1.5 mm, A1 and A2 = 0 +- 1.5 mm."""
    return FactorSpace(factors=(Factor("D", 117.0, 1.5),
                                Factor("A1", 0.0, 1.5),
                                Factor("A2", 0.0, 1.5)))


@dataclass(frozen=True)
class DesignMatrix:
    """CCD points in normalized coordinates plus the role of each point."""

    points: np.ndarray        # (n_points, 3)
    roles: tuple[str, ...]    # one of ROLE_FACTORIAL / ROLE_CENTER / ROLE_STAR

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.shape != (len(self.roles), 3):
            raise ValidationError("design points must be one row of three factors per role")
        object.__setattr__(self, "points", points)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def ccd_design(space: FactorSpace) -> DesignMatrix:
    """Full central composite design in normalized coordinates.

    Point order: the 8 factorial points in binary low-to-high order (last
    factor varies fastest), the single center point, then the star pair
    (-alpha, +alpha) of each factor in turn. Total 15 points.
    """
    stars = np.zeros((6, 3))
    for i in range(3):
        stars[2 * i:2 * i + 2, i] = -space.alpha, space.alpha
    points = np.vstack([list(itertools.product((-1.0, 1.0), repeat=3)),
                        np.zeros((1, 3)), stars])
    roles = (ROLE_FACTORIAL,) * 8 + (ROLE_CENTER,) + (ROLE_STAR,) * 6
    return DesignMatrix(points=points, roles=roles)


def to_physical(space: FactorSpace, normalized) -> np.ndarray:
    """Map normalized coordinates to physical units (vector or matrix)."""
    x = np.asarray(normalized, dtype=float)
    if x.shape[-1] != 3:
        raise ValidationError(f"coordinate length {x.shape[-1]} != 3 factors")
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

