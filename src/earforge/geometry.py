"""Blank contour synthesis, blank sizing, and scalar metrics on rim profiles.

Angles are radians, lengths millimetres throughout. Contours and profiles are
sampled on one uniform grid, THETA: theta_k = 2*pi*k/144 over [0, 2*pi). A
rim profile is its 144 heights on that grid.
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

#: Samples of every rim profile and blank contour; 36 per quarter.
N_POINTS = 144

#: The rim grid theta_k = 2*pi*k/N_POINTS over [0, 2*pi), read-only.
THETA = 2.0 * np.pi * np.arange(N_POINTS) / N_POINTS
THETA.flags.writeable = False

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
    """Rim profile: its heights at the N_POINTS angles of THETA."""

    height: np.ndarray  # mm

    def __post_init__(self):
        height = np.asarray(self.height, dtype=float)
        if height.shape != (N_POINTS,):
            raise ValidationError(
                f"a profile holds {N_POINTS} heights, one per grid angle; "
                f"got shape {height.shape}")
        if not np.all(np.isfinite(height)):
            raise ValidationError("profile heights must be finite")
        object.__setattr__(self, "height", height)

    theta = THETA  # the sample angles, one read-only array for every profile


def blank_contour(spec: BlankSpec) -> np.ndarray:
    """Radii of the blank contour of `spec` at the angles of THETA.

    Raises InvalidBlankError if the radius is non-positive at any sample,
    naming the first violating angle.
    """
    radius = spec.radius_at(THETA)
    bad = np.flatnonzero(radius <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise InvalidBlankError(
            f"blank radius {radius[k]:.6g} mm <= 0 at theta = {THETA[k]:.6g} rad "
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


@functools.cache
def _symmetric_part_table() -> np.ndarray:
    """Read-only map from rim samples, less their mean, to the even cosine
    part of their trigonometric interpolant at the quarter nodes theta_j:
    T[j, n] = sum_m w_m cos(2m theta_j) cos(2m theta_n) / N_POINTS, m = 1..36,
    w_m = 2 but w_36 = 1. As 2m theta_j = pi*36mj/1260 and 2m theta_n =
    pi*35mn/1260, T gathers 2,520 math.cos values and sums over m in a fixed
    order: the same bits on every machine.
    """
    cos = np.array([math.cos(math.pi * k / 1260) for k in range(2520)])
    m = np.arange(1, N_POINTS // 4 + 1)[:, None]
    at_nodes = cos[36 * m * np.arange(QUARTER_NODES) % 2520]
    at_nodes[:-1] *= 2.0
    table = np.zeros((QUARTER_NODES, N_POINTS))
    for a, b in zip(at_nodes, cos[35 * m * np.arange(N_POINTS) % 2520] / N_POINTS):
        table += np.multiply.outer(a, b)
    table.flags.writeable = False
    return table


def deviation_vector(profile: ContourProfile, target_height: float) -> np.ndarray:
    """Per-node clearance between the rim and target_height, mm.

    The part and its defects carry two mirror symmetry planes, so the rim is
    read through its doubly-symmetric part, the cos(2m*theta) terms of its
    trigonometric interpolant, at the QUARTER_NODES equally spaced nodes of
    the quarter [0, pi/2]: one fixed linear map, applied by elementwise
    products and np.add.reduce, with no interpolation and no BLAS. Sines and
    odd harmonics, the asymmetric part, read as zero.
    """
    if not 0 < target_height < math.inf:
        raise ValidationError(
            f"target height must be finite and > 0, got {target_height}")
    mean = profile.height.mean()
    values = np.add.reduce(_symmetric_part_table() * (profile.height - mean), axis=1)
    return values + (mean - target_height)


#: Header of a polar rim file: samples of height against angle.
POLAR_HEADER = ("theta_rad", "value_mm")
#: Header of a rim point cloud: x, y about any centre, z is the height.
CLOUD_HEADER = ("x_mm", "y_mm", "z_mm")

# numpy's C text reader; quoted cells are unquoted, `#` is no comment.
_LOADTXT = dict(delimiter=",", ndmin=2, comments=None, quotechar='"')


# the `repr(t) + ","` cell of each angle of THETA, formatted once for all rims
_ANGLE_CELLS = tuple(f"{t!r}," for t in THETA.tolist())


def write_contour_csv(path, profile: ContourProfile) -> bytes:
    """Write a rim profile as CSV: header `theta_rad,value_mm`, LF endings.

    Each angle and height is written as its shortest round-tripping repr, so
    the file reads back bit for bit. Returns the bytes written.
    """
    rows = map(operator.add, _ANGLE_CELLS, map(float.__repr__, profile.height.tolist()))
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
