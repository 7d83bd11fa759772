"""Reference routes the tests compare the package against.

Matrix oracles for the closed-form eigensystem of the dephasing state: the
reduced density matrix keeps the initial populations and damps the
off-diagonals by the decoherence factor ``r``. Building it explicitly and
diagonalizing it with a direct 2x2 Hermitian eigensolver gives a route
independent of the closed forms in :mod:`mirrorphase.qubit`.

The dataset writers' per-value formula, written out entry by entry: every
entry is ``repr(float(x))`` in both formats, and strict JSON spells a
non-finite entry ``null``; CSV spells each metadata key on a
``# key = <JSON>`` comment line.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from mirrorphase import DomainError, angles_closed_form
from mirrorphase.qubit import require_bloch_angle

HERMITICITY_TOL = 1e-14
TRACE_TOL = 1e-14
POSITIVITY_TOL = 1e-14


@dataclass(frozen=True)
class ReducedState:
    """2x2 reduced density matrix, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (2, 2):
            raise DomainError(f"reduced state must be 2x2, got shape {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise DomainError("reduced state is not Hermitian")
        if abs(rho[0, 0].real + rho[1, 1].real - 1.0) > TRACE_TOL:
            raise DomainError("reduced state trace differs from 1")
        low = min(_eigvals_2x2(rho))
        if low < -POSITIVITY_TOL:
            raise DomainError(f"reduced state has negative eigenvalue {low}")
        purity = float(np.sum(np.abs(rho) ** 2).real)
        if not 0.5 - 1e-12 <= purity <= 1.0 + 1e-12:
            raise DomainError(f"purity {purity} outside [1/2, 1]")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)

    @property
    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2).real)


def _eigvals_2x2(rho: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix, descending, via the characteristic polynomial."""
    a = rho[0, 0].real
    d = rho[1, 1].real
    mean = 0.5 * (a + d)
    spread = math.hypot(0.5 * (a - d), abs(rho[0, 1]))
    return mean + spread, mean - spread


def density_matrix(theta: float, s: float, r: float) -> ReducedState:
    """Reduced state of the qubit at time ``s`` for decoherence factor ``r``.

    Populations stay frozen at cos^2(theta/2), sin^2(theta/2); the
    off-diagonals rotate at the precession frequency and decay with ``r``.
    At r = 1 this is the pure projector onto the freely evolved state.
    """
    require_bloch_angle(theta)
    if not s >= 0.0:
        raise DomainError(f"time must be >= 0, got {s}")
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"decoherence factor must lie in [0, 1], got {r}")
    p0 = math.cos(0.5 * theta) ** 2
    p1 = math.sin(0.5 * theta) ** 2
    off = 0.5 * r * math.sin(theta) * cmath.exp(-1j * s)
    return ReducedState(np.array([[p0, off], [off.conjugate(), p1]], dtype=complex))


def eig_numeric(state: ReducedState | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct 2x2 Hermitian eigensolver, independent of the closed forms.

    Returns eigenvalues sorted descending and the matching eigenvectors as
    columns, each phase-fixed so its first nonzero component is real and
    positive.
    """
    rho = np.asarray(state.matrix if isinstance(state, ReducedState) else state,
                     dtype=complex)
    if rho.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {rho.shape}")
    a = rho[0, 0].real
    d = rho[1, 1].real
    b = rho[0, 1]
    eigvals = np.array(_eigvals_2x2(rho))
    vectors = np.empty((2, 2), dtype=complex)
    for k, lam in enumerate(eigvals):
        first = np.array([b, lam - a])
        second = np.array([lam - d, b.conjugate()])
        vec = first if np.linalg.norm(first) >= np.linalg.norm(second) else second
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            # diagonal matrix: basis vectors, matched to the sorted eigenvalues
            vec = np.array([1.0, 0.0]) if (a >= d) == (k == 0) else np.array([0.0, 1.0])
            norm = 1.0
        vec = vec / norm
        pivot = vec[0] if abs(vec[0]) > 1e-12 else vec[1]
        vectors[:, k] = vec * (pivot.conjugate() / abs(pivot))
    return eigvals, vectors


def eigenvector_plus(theta: float, s: float, r: float) -> np.ndarray:
    """Dominant instantaneous eigenvector cos(theta_t)|0> + sin(theta_t) e^{is}|1>.

    The phase convention matches the one under which the accumulated
    geometric phase reduces to the integral of cos^2(theta_t).
    """
    if not s >= 0.0:
        raise DomainError(f"time must be >= 0, got {s}")
    sin_t, cos_t = angles_closed_form(theta, r)
    return np.array([cos_t, sin_t * cmath.exp(1j * s)])


def reference_csv(dataset) -> str:
    lines = [f"# {key} = {json.dumps(value, allow_nan=False)}"
             for key, value in dataset.metadata.items()]
    lines.append(",".join(dataset.columns))
    for row in dataset.rows:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def reference_json(dataset) -> str:
    metadata = dict(dataset.metadata)
    metadata["columns"] = list(dataset.columns)
    rows = [[x if math.isfinite(x) else None for x in map(float, row)]
            for row in dataset.rows]
    return json.dumps({"metadata": metadata, "rows": rows}, allow_nan=False) + "\n"
