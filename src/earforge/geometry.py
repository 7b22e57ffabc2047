"""Blank contour synthesis, blank sizing, and scalar metrics on rim profiles.

Angles are radians, lengths millimetres throughout. Contours and profiles are
sampled on the uniform grid theta_k = 2*pi*k/n over [0, 2*pi); a rim profile
is its heights on that grid, and its angles are derived from their count.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InvalidBlankError, ValidationError

#: Default full-circle sampling; 36 samples per quarter.
DEFAULT_N_POINTS = 144

#: Nodes of the quarter-domain deviation vector (35 equal-length elements).
QUARTER_NODES = 36


def check_finite(spec) -> None:
    """Refuse a dataclass with a NaN or infinite float field, naming it."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ValidationError(f"{type(spec).__name__}.{f.name} must be "
                                  f"finite, got {value!r}")


@dataclass(frozen=True)
class BlankSpec:
    """Cosine-lobe description of a blank: r(theta) = D/2 + A1*cos(2θ) + A2*cos(4θ)."""

    diameter: float  # D, nominal diameter, mm
    a1: float = 0.0  # two-lobe (ovalization) amplitude, mm
    a2: float = 0.0  # four-lobe amplitude, mm

    def __post_init__(self):
        check_finite(self)
        if self.diameter <= 0:
            raise ValidationError(f"blank diameter must be > 0, got {self.diameter}")

    def radius_at(self, theta):
        """Radius of the blank contour at angle(s) theta."""
        theta = np.asarray(theta, dtype=float)
        return (self.diameter / 2.0
                + self.a1 * np.cos(2.0 * theta)
                + self.a2 * np.cos(4.0 * theta))


@dataclass(frozen=True)
class CupSpec:
    """Target cup: flat-bottom cylinder of given inner diameter and wall height."""

    diameter: float  # mm
    height: float    # mm

    def __post_init__(self):
        check_finite(self)
        if self.diameter <= 0 or self.height < 0:
            raise ValidationError("cup diameter must be > 0 and height >= 0")


@dataclass(frozen=True)
class ContourProfile:
    """Rim profile: its heights at the uniform angles theta_k = 2*pi*k/n."""

    height: np.ndarray  # mm

    def __post_init__(self):
        height = np.asarray(self.height, dtype=float)
        if height.ndim != 1:
            raise ValidationError(
                f"profile heights must be 1-D, got shape {height.shape}")
        if not np.all(np.isfinite(height)):
            raise ValidationError("profile heights must be finite")
        uniform_theta(height.size)  # the sample-count rule
        object.__setattr__(self, "height", height)

    @functools.cached_property
    def theta(self) -> np.ndarray:
        """The sample angles, uniform_theta(n), computed once and read-only."""
        theta = uniform_theta(self.height.size)
        theta.flags.writeable = False
        return theta


def uniform_theta(n_points: int) -> np.ndarray:
    """Uniform angular grid theta_k = 2*pi*k/n over [0, 2*pi)."""
    if n_points < 8 or n_points % 4 != 0:
        raise ValidationError(
            f"n_points must be >= 8 and a multiple of 4, got {n_points}")
    return 2.0 * np.pi * np.arange(n_points) / n_points


def blank_contour(spec: BlankSpec, n_points: int = DEFAULT_N_POINTS) -> np.ndarray:
    """Radii of the blank contour of `spec` at the n_points uniform angles.

    Raises InvalidBlankError if the radius is non-positive at any sample,
    naming the first violating angle.
    """
    theta = uniform_theta(n_points)
    radius = spec.radius_at(theta)
    bad = np.flatnonzero(radius <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise InvalidBlankError(
            f"blank radius {radius[k]:.6g} mm <= 0 at theta = {theta[k]:.6g} rad "
            f"(D={spec.diameter}, A1={spec.a1}, A2={spec.a2})")
    return radius


def initial_blank_diameter(cup: CupSpec) -> float:
    """Blank diameter conserving sheet area at constant thickness.

    Flat-bottom cylinder: pi*D0^2/4 = pi*d^2/4 + pi*d*h, hence
    D0 = sqrt(d^2 + 4*d*h).
    """
    d, h = cup.diameter, cup.height
    return math.sqrt(d * d + 4.0 * d * h)


def ear_amplitude(profile: ContourProfile) -> float:
    """Peak-to-peak rim height: max(height) - min(height), mm."""
    return float(np.max(profile.height) - np.min(profile.height))


def quarter_nodes() -> np.ndarray:
    """Node angles of the quarter domain: theta_k = (pi/2) * k/(QUARTER_NODES-1)."""
    return (np.pi / 2.0) * np.arange(QUARTER_NODES) / (QUARTER_NODES - 1)


def deviation_vector(profile: ContourProfile, target_height: float) -> np.ndarray:
    """Per-node clearance between the rim profile and the target height.

    The profile is restricted to the quarter period [0, pi/2] (the part and
    its defects carry two mirror symmetry planes) and resampled to the
    QUARTER_NODES equally spaced nodes. Samples landing exactly on nodes are
    taken as-is; otherwise values are linearly interpolated.

    Returns
    -------
    np.ndarray
        height(node_k) - target_height for k = 0 .. QUARTER_NODES-1, mm.
    """
    if not 0 < target_height < math.inf:
        raise ValidationError(
            f"target height must be finite and > 0, got {target_height}")
    values = np.interp(quarter_nodes(), profile.theta, profile.height)
    return values - target_height


#: Header of a polar rim file: samples of height against angle.
POLAR_HEADER = ("theta_rad", "value_mm")
#: Header of a rim point cloud: x, y about any centre, z is the height.
CLOUD_HEADER = ("x_mm", "y_mm", "z_mm")

# numpy's C text reader; quoted cells are unquoted, `#` is no comment.
_LOADTXT = dict(delimiter=",", ndmin=2, comments=None, quotechar='"')


@functools.lru_cache(maxsize=8)
def _angle_cells(n_points: int) -> tuple[str, ...]:
    """The `repr(t) + ","` cell of each angle of the n_points grid: a
    campaign writes every rim on one grid, so it formats the grid once."""
    return tuple(f"{t!r}," for t in uniform_theta(n_points).tolist())


def write_contour_csv(path, profile: ContourProfile) -> bytes:
    """Write a rim profile as CSV: header `theta_rad,value_mm`, LF endings.

    Each angle and height is written as its shortest round-tripping repr, so
    the file reads back bit for bit. Returns the bytes written.
    """
    cells = _angle_cells(profile.height.size)
    rows = map(operator.add, cells, map(float.__repr__, profile.height.tolist()))
    data = "\n".join([",".join(POLAR_HEADER), *rows, ""]).encode("utf-8")
    Path(path).write_bytes(data)
    return data


def _first_bad_line(lines: list[str], n_fields: int) -> str:
    """Locate the first body line that is not n_fields finite numbers.

    `lines` follow the header, so lines[i] is line i + 2 of the file. Blank
    lines are skipped, as the bulk parse skips them.
    """
    for i, line in enumerate(lines):
        if not line.strip("\r\n"):
            continue
        text = line.rstrip("\r\n")
        try:
            row = np.loadtxt([line], **_LOADTXT)
        except ValueError:
            return f"line {i + 2}: cannot read {text!r} as numbers"
        if row.shape[1] != n_fields:
            return (f"line {i + 2}: expected {n_fields} fields, got "
                    f"{row.shape[1]} in {text!r}")
        if not np.all(np.isfinite(row)):
            return f"line {i + 2}: non-finite value in {text!r}"
    return "malformed rows"


def read_rim_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a rim file: its header and an (n, k) array of its rows.

    The header must be POLAR_HEADER or CLOUD_HEADER; k is its field count.
    Every other non-blank line must hold k finite numbers, optionally
    double-quoted. Blank lines are skipped; LF, CRLF and CR endings are
    accepted, as is a leading UTF-8 byte-order mark. Anything else, text that
    is not UTF-8 included, raises ValidationError naming the file (and the
    line, where it has one).
    """
    path = Path(path)
    try:
        with path.open("r", newline="", encoding="utf-8-sig") as fh:
            header = tuple(c.strip() for c in
                           next(csv.reader([fh.readline()]), []))
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if header not in (POLAR_HEADER, CLOUD_HEADER):
        raise ValidationError(
            f"{path}: unknown header {list(header)}; expected "
            f"'{','.join(POLAR_HEADER)}' or '{','.join(CLOUD_HEADER)}'")
    n_fields = len(header)
    if not any(line.strip("\r\n") for line in lines):
        # header only: loadtxt would warn that the input holds no data
        return header, np.empty((0, n_fields))
    try:
        rows = np.loadtxt(lines, **_LOADTXT)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != n_fields or not np.all(np.isfinite(rows)):
        raise ValidationError(f"{path}: {_first_bad_line(lines, n_fields)}")
    return header, rows
