"""Modal basis for rim-defect description, projection, and reconstruction.

The quarter rim is modelled as a free-free chain of n_nodes-1 equal axial
elements with a single degree of freedom per node. Its eigenvectors are
discrete cosines, so the low modes read directly as size (constant), two-lobe,
four-lobe, ... defects of the full rim.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry
from .errors import NumericError, ValidationError

DEFAULT_N_NODES = 36
DEFAULT_N_MODES = 5


def lumped_mass_diagonal(n_nodes: int) -> np.ndarray:
    """Diagonal of the lumped mass matrix for the unit-length free-free chain."""
    h = 1.0 / (n_nodes - 1)
    m = np.full(n_nodes, h)
    m[0] *= 0.5
    m[-1] *= 0.5
    return m


def second_difference_stiffness(n_nodes: int) -> np.ndarray:
    """Assembled second-difference stiffness of the unit-length free-free chain."""
    h = 1.0 / (n_nodes - 1)
    k = np.zeros((n_nodes, n_nodes))
    for e in range(n_nodes - 1):
        k[e, e] += 1.0 / h
        k[e + 1, e + 1] += 1.0 / h
        k[e, e + 1] -= 1.0 / h
        k[e + 1, e] -= 1.0 / h
    return k


@dataclass(frozen=True)
class ModalBasis:
    """Eigenvector set of the free-free chain, unit infinity-norm columns.

    modes[:, i] is the i-th mode shape (ascending pulsation); mode 0 is the
    rigid-body constant mode. Pulsations are informational (unit material).
    """

    modes: np.ndarray       # (n_nodes, n_modes)
    pulsations: np.ndarray  # (n_modes,), rad/s
    mass: np.ndarray        # (n_nodes,), lumped mass diagonal

    @property
    def n_nodes(self) -> int:
        return self.modes.shape[0]

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]


def analytic_mode(k: int, n_nodes: int = DEFAULT_N_NODES) -> np.ndarray:
    """Closed-form shape of mode k (1-based): cos((k-1)*pi*j/(n_nodes-1))."""
    if k < 1:
        raise ValidationError(f"mode index must be >= 1, got {k}")
    j = np.arange(n_nodes)
    return np.cos((k - 1) * np.pi * j / (n_nodes - 1))


def build_modal_basis(n_nodes: int = DEFAULT_N_NODES,
                      n_modes: int = DEFAULT_N_MODES) -> ModalBasis:
    """Solve the generalized eigenproblem (K - w^2 M) Q = 0 of the chain.

    Returns the n_modes lowest-pulsation modes, each normalized to unit
    infinity-norm with the sign fixed so the first non-zero entry is positive.
    The mass matrix is diagonal, so the problem reduces to a standard
    symmetric one through M^(-1/2) scaling.

    The basis is solved once per (n_nodes, n_modes) and shared: every call
    with the same sizes returns the same object, whose arrays are read-only.
    """
    return _solved_basis(n_nodes, n_modes)


@functools.lru_cache(maxsize=64)
def _solved_basis(n_nodes: int, n_modes: int) -> ModalBasis:
    if n_modes < 2 or n_modes > n_nodes:
        raise ValidationError(
            f"need 2 <= n_modes <= n_nodes, got n_modes={n_modes}, n_nodes={n_nodes}")
    m = lumped_mass_diagonal(n_nodes)
    k = second_difference_stiffness(n_nodes)
    inv_sqrt_m = 1.0 / np.sqrt(m)
    s = k * inv_sqrt_m[None, :] * inv_sqrt_m[:, None]
    s = 0.5 * (s + s.T)
    try:
        eigvals, eigvecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigen solver failed on the {n_nodes}-node chain: {exc}") from exc
    modes = inv_sqrt_m[:, None] * eigvecs[:, :n_modes]
    # unit infinity-norm, first non-zero entry positive
    scale = np.max(np.abs(modes), axis=0)
    modes = modes / scale
    for i in range(n_modes):
        col = modes[:, i]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        if lead < 0:
            modes[:, i] = -col
    pulsations = np.sqrt(np.clip(eigvals[:n_modes], 0.0, None))
    for a in (modes, pulsations, m):
        a.setflags(write=False)
    return ModalBasis(modes=modes, pulsations=pulsations, mass=m)


@dataclass(frozen=True)
class ModalCoordinates:
    """Coordinates of a deviation vector in the modal basis, plus remainder."""

    lambdas: np.ndarray  # mm, one per requested mode
    residue: float       # |V - sum(lambda_i Q_i)|_inf / |V|_inf, dimensionless

    @property
    def n_modes(self) -> int:
        return self.lambdas.size


def project(values: np.ndarray, basis: ModalBasis,
            n_modes: int | None = None) -> ModalCoordinates:
    """Project a deviation vector onto the first n_modes basis shapes.

    The coordinates are the least-squares fit of `values` on the mode set,
    which coincides with the mode-wise vectorial projection whenever the
    shapes are orthogonal, and reproduces any vector lying in their span
    exactly. The residue is the relative infinity-norm of the remainder
    (0 for a zero input vector).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size != basis.n_nodes:
        raise ValidationError(
            f"deviation vector length {v.size} != basis n_nodes {basis.n_nodes}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("deviation vector entries must be finite")
    if n_modes is None:
        n_modes = basis.n_modes
    if n_modes < 1 or n_modes > basis.n_modes:
        raise ValidationError(
            f"need 1 <= n_modes <= {basis.n_modes}, got {n_modes}")
    q = basis.modes[:, :n_modes]
    lambdas, *_ = np.linalg.lstsq(q, v, rcond=None)
    norm_v = float(np.max(np.abs(v)))
    if norm_v == 0.0:
        residue = 0.0
    else:
        residue = float(np.max(np.abs(v - q @ lambdas)) / norm_v)
    return ModalCoordinates(lambdas=lambdas, residue=residue)


def decompose(profile: geometry.ContourProfile, target_height: float,
              basis: ModalBasis) -> ModalCoordinates:
    """Modal coordinates of a rim profile's deviation from target_height.

    The profile's quarter deviation vector (geometry.deviation_vector at the
    basis nodes) is projected onto every mode of the basis.
    """
    dev = geometry.deviation_vector(profile, target_height, basis.n_nodes)
    return project(dev, basis)


def reconstruct(coords: ModalCoordinates, basis: ModalBasis) -> np.ndarray:
    """Truncated expansion sum(lambda_i * Q_i) as a deviation vector."""
    k = coords.n_modes
    if k > basis.n_modes:
        raise ValidationError(
            f"coordinates use {k} modes but basis holds {basis.n_modes}")
    return basis.modes[:, :k] @ coords.lambdas


def _coordinates_text(coords: ModalCoordinates) -> str:
    """Coordinates CSV text: `mode,lambda_mm`, one row per mode, residue row."""
    rows = [f"{i},{float(lam)!r}\n" for i, lam in enumerate(coords.lambdas, 1)]
    return ("mode,lambda_mm\n" + "".join(rows)
            + f"residue,{float(coords.residue)!r}\n")


def write_coordinates_csv(path, coords: ModalCoordinates) -> None:
    """Write modal coordinates as CSV: `mode,lambda_mm` rows then a residue row."""
    Path(path).write_text(_coordinates_text(coords), encoding="utf-8",
                          newline="\n")


def read_coordinates_csv(path) -> ModalCoordinates:
    """Read back a modal coordinates CSV written by write_coordinates_csv.

    After the `mode,lambda_mm` header, every non-blank row holds two fields:
    modes 1, 2, ... in order, then one last `residue` row, each with a finite
    number. Anything else raises ValidationError naming the file line.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
        end = reader.line_num + 1
    header = rows[0][1] if rows else None
    if header is None or [c.strip() for c in header] != ["mode", "lambda_mm"]:
        raise ValidationError(
            f"{path}: expected header 'mode,lambda_mm', got {header}")
    lambdas: list[float] = []
    residue = None
    for line, row in rows[1:]:
        where, text = f"{path}: line {line}", ",".join(row)
        label = row[0].strip()
        if residue is not None:
            raise ValidationError(f"{where}: row after the residue row: {text!r}")
        if len(row) != 2:
            raise ValidationError(
                f"{where}: expected 2 fields, got {len(row)} in {text!r}")
        if label != str(len(lambdas) + 1) and not (label == "residue"
                                                   and lambdas):
            raise ValidationError(
                f"{where}: expected mode {len(lambdas) + 1}, got {label!r}")
        try:
            value = float(row[1])
        except ValueError:
            raise ValidationError(
                f"{where}: cannot read {text!r} as numbers") from None
        if not math.isfinite(value):
            raise ValidationError(f"{where}: non-finite value in {text!r}")
        if label == "residue":
            residue = value
        else:
            lambdas.append(value)
    if residue is None:
        raise ValidationError(f"{path}: line {end}: missing residue row")
    return ModalCoordinates(lambdas=np.array(lambdas), residue=residue)
