"""Process plants: a calibrated analytic surrogate and external-data ingestion.

The surrogate replaces a full forming simulation for desk-scale runs. It maps
a blank description to a rim-height profile through a low-order cosine
superposition whose gains are configuration, calibrated so that a circular
blank on the default steel reproduces the measured initial earing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry
from .errors import (AmbiguousProfileError, InsufficientDataError,
                     ValidationError)
from .geometry import BlankSpec, ContourProfile


@dataclass(frozen=True)
class MaterialAnisotropy:
    """Lankford coefficients of the sheet at 0/45/90 deg to rolling."""

    r0: float
    r45: float
    r90: float

    def __post_init__(self):
        geometry.check_finite(self)
        if min(self.r0, self.r45, self.r90) <= 0:
            raise ValidationError("Lankford coefficients must be > 0")

    @property
    def delta_r(self) -> float:
        """Planar anisotropy (r0 - 2*r45 + r90)/2; drives the four-lobe ears."""
        return (self.r0 - 2.0 * self.r45 + self.r90) / 2.0


#: DC05 deep-drawing steel (0.8 mm USB sheet); delta_r = 0.845.
DC05 = MaterialAnisotropy(r0=2.09, r45=1.56, r90=2.72)


@dataclass(frozen=True)
class SurrogateParams:
    """Gains of the analytic plant. All values are configuration.

    Rim height model:

        h(theta) = base_height + k_d*dD + k_q*dD^2
                   + g2*A1*cos(2θ)
                   + (g4*A2 + c_ear*delta_r)*cos(4θ)
                   + kappa4_6*A2*cos(6θ)
                   + c8*cos(8θ),        dD = D - ref_diameter
    """

    ref_diameter: float = 116.63  # mm, area-conserving circular blank
    base_height: float = 34.69    # mm, rim height at the reference blank
    k_d: float = 0.886            # rim height per mm of blank diameter
    k_q: float = 0.03             # quadratic diameter term, 1/mm
    g2: float = 1.0               # blank A1 -> rim cos(2θ) transmission
    g4: float = 1.066             # blank A2 -> rim cos(4θ) transmission
    c_ear: float = 1.0176         # mm of cos(4θ) ear per unit delta_r
    kappa4_6: float = 0.03        # blank A2 -> rim cos(6θ) coupling, per mm
    c8: float = -0.05             # fixed cos(8θ) residual amplitude, mm

    def __post_init__(self):
        geometry.check_finite(self)
        if self.ref_diameter <= 0 or self.base_height <= 0:
            raise ValidationError("ref_diameter and base_height must be > 0")

    def cancelling_a2(self, material: MaterialAnisotropy) -> float:
        """Four-lobe blank amplitude that cancels the rim cos(4θ) term."""
        return -self.c_ear * material.delta_r / self.g4


def simulate(blank: BlankSpec, material: MaterialAnisotropy,
             params: SurrogateParams | None = None,
             n_points: int = geometry.DEFAULT_N_POINTS) -> ContourProfile:
    """Rim profile of a drawn cup for the given blank on the surrogate plant.

    Deterministic; keeps the two mirror symmetries (theta -> -theta and
    theta -> pi - theta) exactly at the sample points. Invalid blanks raise
    the same error as geometry.blank_contour.
    """
    if params is None:
        params = SurrogateParams()
    geometry.blank_contour(blank, n_points)  # validates radius positivity
    theta = geometry.uniform_theta(n_points)
    dd = blank.diameter - params.ref_diameter
    height = (params.base_height + params.k_d * dd + params.k_q * dd * dd
              + params.g2 * blank.a1 * np.cos(2.0 * theta)
              + (params.g4 * blank.a2 + params.c_ear * material.delta_r)
              * np.cos(4.0 * theta)
              + params.kappa4_6 * blank.a2 * np.cos(6.0 * theta)
              + params.c8 * np.cos(8.0 * theta))
    return ContourProfile(height)


def ingest_profile(path, n_points: int = geometry.DEFAULT_N_POINTS) -> ContourProfile:
    """Load an external rim measurement or simulation export as a profile.

    Two formats are accepted, discriminated by header:

    * ``theta_rad,value_mm`` -- polar profile samples;
    * ``x_mm,y_mm,z_mm`` -- raw rim point cloud. Points are converted to
      (theta, height) about the vertical axis through the cloud centroid,
      with z as height.

    Either way the samples are sorted by angle and resampled onto the
    uniform n_points grid by periodic linear interpolation. The angles must
    cover at most one turn; a closed-loop export may repeat its first sample
    one turn later only with the same height.
    """
    path = Path(path)
    header, rows = geometry.read_rim_csv(path)
    polar = header == geometry.POLAR_HEADER
    if len(rows) < 8:
        raise InsufficientDataError(
            f"{path}: need at least 8 {'samples' if polar else 'points'}, "
            f"got {len(rows)}")
    if polar:
        theta, height = rows[:, 0], rows[:, 1]
    else:
        cx, cy = rows[:, 0].mean(), rows[:, 1].mean()
        theta = np.arctan2(rows[:, 1] - cy, rows[:, 0] - cx) % (2.0 * np.pi)
        height = rows[:, 2]
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    height = height[order]
    dup = np.flatnonzero(np.diff(theta) < 1e-12)
    if dup.size:
        angles = ", ".join(f"{theta[i]:.9g}" for i in dup[:8])
        raise AmbiguousProfileError(
            f"{path}: duplicate angular positions at theta = {angles}")
    # one turn, to the duplicate tolerance: a closed-loop export may repeat
    # its first sample at +2*pi, but only with the same height
    span = theta[-1] - theta[0]
    if span > 2.0 * np.pi + 1e-12:
        raise ValidationError(
            f"{path}: angles span {span:.9g} rad, more than one turn "
            f"(2*pi); are they in degrees?")
    if span > 2.0 * np.pi - 1e-12 and height[-1] != height[0]:
        raise AmbiguousProfileError(
            f"{path}: theta = {theta[0]:.9g} and {theta[-1]:.9g} are one turn "
            f"apart but their heights differ ({float(height[0])!r} vs "
            f"{float(height[-1])!r})")
    resampled = np.interp(geometry.uniform_theta(n_points), theta, height,
                          period=2.0 * np.pi)
    return ContourProfile(resampled)
