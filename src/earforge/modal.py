"""Modal basis for rim-defect description and projection.

The quarter rim is modelled as a free-free chain of QUARTER_NODES-1 equal
axial elements with a single degree of freedom per node. Its eigenvectors are
discrete cosines, so the low modes read directly as size (constant), two-lobe,
four-lobe, ... defects of the full rim.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NumericError, ValidationError

N_MODES = 5  # L1..L5: size, two-, four-, six- and eight-lobe
_N = geometry.QUARTER_NODES  # nodes of the quarter chain


def lumped_mass_diagonal() -> np.ndarray:
    """Diagonal of the lumped mass matrix for the unit-length free-free chain."""
    h = 1.0 / (_N - 1)
    m = np.full(_N, h)
    m[0] *= 0.5
    m[-1] *= 0.5
    return m


def second_difference_stiffness() -> np.ndarray:
    """Assembled second-difference stiffness of the unit-length free-free chain."""
    h = 1.0 / (_N - 1)
    k = np.zeros((_N, _N))
    for e in range(_N - 1):
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

    modes: np.ndarray       # (QUARTER_NODES, N_MODES)
    pulsations: np.ndarray  # (N_MODES,), rad/s
    mass: np.ndarray        # (QUARTER_NODES,), lumped mass diagonal


def analytic_mode(k: int) -> np.ndarray:
    """Closed-form shape of mode k (1-based): cos((k-1)*pi*j/(QUARTER_NODES-1))."""
    if k < 1:
        raise ValidationError(f"mode index must be >= 1, got {k}")
    return np.cos((k - 1) * np.pi * np.arange(_N) / (_N - 1))


@functools.cache
def build_modal_basis() -> ModalBasis:
    """Solve the generalized eigenproblem (K - w^2 M) Q = 0 of the chain.

    Returns the N_MODES lowest-pulsation modes, each normalized to unit
    infinity-norm with the sign fixed so the first non-zero entry is positive.
    The mass matrix is diagonal, so the problem reduces to a standard
    symmetric one through M^(-1/2) scaling.

    The basis is solved at the first call and shared: every call returns the
    same object, whose arrays are read-only.
    """
    m = lumped_mass_diagonal()
    k = second_difference_stiffness()
    inv_sqrt_m = 1.0 / np.sqrt(m)
    s = k * inv_sqrt_m[None, :] * inv_sqrt_m[:, None]
    s = 0.5 * (s + s.T)
    try:
        eigvals, eigvecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigen solver failed on the {_N}-node chain: {exc}") from exc
    modes = inv_sqrt_m[:, None] * eigvecs[:, :N_MODES]
    # unit infinity-norm, first non-zero entry positive
    scale = np.max(np.abs(modes), axis=0)
    modes = modes / scale
    for i in range(N_MODES):
        col = modes[:, i]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        if lead < 0:
            modes[:, i] = -col
    pulsations = np.sqrt(np.clip(eigvals[:N_MODES], 0.0, None))
    for a in (modes, pulsations, m):
        a.setflags(write=False)
    return ModalBasis(modes=modes, pulsations=pulsations, mass=m)


@dataclass(frozen=True)
class ModalCoordinates:
    """Coordinates of a deviation vector in the modal basis, plus remainder."""

    lambdas: np.ndarray  # mm, one per basis mode
    residue: float       # |V - sum(lambda_i Q_i)|_inf / |V|_inf, dimensionless


def project(values: np.ndarray) -> ModalCoordinates:
    """Project a deviation vector onto every shape of the shared modal basis.

    The coordinates are the least-squares fit of `values` on the mode set,
    which coincides with the mode-wise vectorial projection whenever the
    shapes are orthogonal, and reproduces any vector lying in their span
    exactly. The residue is the relative infinity-norm of the remainder
    (0 for a zero input vector).
    """
    q = build_modal_basis().modes
    v = np.asarray(values, dtype=float)
    if v.shape != q.shape[:1]:
        raise ValidationError(f"deviation vector length {v.size} != basis "
                              f"node count {q.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("deviation vector entries must be finite")
    lambdas, *_ = np.linalg.lstsq(q, v, rcond=None)
    norm_v = float(np.max(np.abs(v)))
    if norm_v == 0.0:
        residue = 0.0
    else:
        residue = float(np.max(np.abs(v - q @ lambdas)) / norm_v)
    return ModalCoordinates(lambdas=lambdas, residue=residue)


def decompose(profile: geometry.ContourProfile,
              target_height: float) -> ModalCoordinates:
    """Modal coordinates of a rim profile's deviation from target_height.

    The profile's quarter deviation vector (geometry.deviation_vector at the
    basis nodes) is projected onto every mode of the shared basis.
    """
    return project(geometry.deviation_vector(profile, target_height))


def coordinates_text(coords: ModalCoordinates) -> str:
    """Coordinates CSV text: `mode,lambda_mm`, one row per mode, residue row."""
    rows = [f"{i},{float(lam)!r}\n" for i, lam in enumerate(coords.lambdas, 1)]
    return ("mode,lambda_mm\n" + "".join(rows)
            + f"residue,{float(coords.residue)!r}\n")
