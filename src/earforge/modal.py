"""Modal basis for rim-defect description and projection.

The quarter rim is modelled as a free-free chain of QUARTER_NODES-1 equal
axial elements with a single degree of freedom per node. Its eigenvectors are
the discrete cosines (Strang, SIAM Review 41, 1999), taken here in closed
form, so the low modes read directly as size (constant), two-lobe, four-lobe,
... defects of the full rim. They are orthogonal under the lumped mass, so a
coordinate is one M-weighted ratio: the rim's even cosine coefficient, read
exactly and with the same bits on every machine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ValidationError

N_MODES = 5  # L1..L5: size, two-, four-, six- and eight-lobe
_N = geometry.QUARTER_NODES  # nodes of the quarter chain


def lumped_mass_diagonal() -> np.ndarray:
    """Diagonal of the lumped mass matrix for the unit-length free-free chain."""
    h = 1.0 / (_N - 1)
    m = np.full(_N, h)
    m[0] *= 0.5
    m[-1] *= 0.5
    return m


@dataclass(frozen=True)
class ModalBasis:
    """Lowest eigenvectors of the free-free chain, unit infinity-norm columns.

    modes[:, i] is analytic_mode(i + 1) (ascending pulsation); mode 0 is the
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
    """The N_MODES lowest modes of the chain (K - w^2 M) Q = 0, in closed form.

    Mode k is analytic_mode(k), an exact eigenvector of the lumped-mass,
    second-difference chain with element length h = 1/(QUARTER_NODES-1),
    and its pulsation is w_k = (2/h) sin((k-1) pi h/2). Each mode has unit
    infinity-norm and a positive first entry.

    The basis is built at the first call and shared: every call returns the
    same object, whose arrays are read-only.
    """
    h = 1.0 / (_N - 1)
    modes = np.column_stack([analytic_mode(k) for k in range(1, N_MODES + 1)])
    pulsations = (2.0 / h) * np.sin(np.arange(N_MODES) * np.pi * h / 2.0)
    m = lumped_mass_diagonal()
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

    The modes are orthogonal under the lumped mass M, the trapezoidal rule,
    so lambda_i = Q_i^T M v / Q_i^T M Q_i, which reproduces any vector in
    their span. The sums are elementwise products and np.add.reduce, so the
    bits do not depend on the machine's BLAS. The residue is the relative
    infinity-norm of the remainder, and 0 where |v|_inf <= 1e-12 mm, below
    which it would be roundoff over roundoff.
    """
    basis = build_modal_basis()
    q = basis.modes
    v = np.asarray(values, dtype=float)
    if v.shape != q.shape[:1]:
        raise ValidationError(f"deviation vector length {v.size} != basis "
                              f"node count {q.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("deviation vector entries must be finite")
    qm = q * basis.mass[:, None]
    lambdas = np.add.reduce(qm * v[:, None]) / np.add.reduce(qm * q)
    norm_v = float(np.max(np.abs(v)))
    remainder = v - np.add.reduce(q * lambdas, axis=1)
    residue = float(np.max(np.abs(remainder)) / norm_v) if norm_v > 1e-12 else 0.0
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
