"""Injected-qubit algebra: SU(2) rotations, waveplates, Bloch paths.

The qubit is kept in canonical form (alpha, beta real non-negative, explicit
relative phase); a unitary's global phase never enters an observable, so
apply drops it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import as_real

UNITARITY_TOL = 1e-12
NORM_TOL = 1e-12

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Qubit:
    alpha: float
    beta: float
    phi: float = 0.0

    def __post_init__(self):
        # bounded before they are squared: a float's ** overflows past 1.3e154
        object.__setattr__(self, "alpha", as_real(self.alpha, "alpha", 0.0, 1.0 + NORM_TOL))
        object.__setattr__(self, "beta", as_real(self.beta, "beta", 0.0, 1.0 + NORM_TOL))
        if abs(self.alpha ** 2 + self.beta ** 2 - 1.0) > NORM_TOL:
            raise ValueError("qubit must be normalized: alpha^2 + beta^2 = 1")
        # wrapped into (-pi, pi]; remainder gives -0.0 at a negative multiple of 2 pi
        phi = math.remainder(as_real(self.phi, "phi"), 2 * math.pi) + 0.0
        if phi <= -math.pi:
            phi += 2 * math.pi
        # beta = 0 leaves the relative phase unconstrained; fix the gauge
        object.__setattr__(self, "phi", phi if self.beta else 0.0)


@dataclass(frozen=True)
class PolarizationUnitary:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.abs(m.conj().T @ m - np.eye(2)).max() <= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary to within {UNITARITY_TOL:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "PolarizationUnitary") -> "PolarizationUnitary":
        return PolarizationUnitary(self.matrix @ other.matrix)


def su2_rotation(axis: str, angle: float) -> PolarizationUnitary:
    """exp(-i sigma_axis angle / 2) for axis in {x, y, z}."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    half = as_real(angle, "angle") / 2
    return PolarizationUnitary(
        math.cos(half) * np.eye(2) - 1j * math.sin(half) * _PAULI[axis])


def waveplate(kind: str, theta: float) -> PolarizationUnitary:
    """Jones matrix of an ideal half- or quarter-wave retarder at angle theta."""
    retardance = {"half": math.pi, "quarter": math.pi / 2}
    if kind not in retardance:
        raise ValueError(f"kind must be 'half' or 'quarter', got {kind!r}")
    theta = as_real(theta, "theta")
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    return PolarizationUnitary(
        rot.T @ np.diag([1.0, cmath.exp(1j * retardance[kind])]) @ rot)


def babinet(delta: float) -> PolarizationUnitary:
    """Adjustable compensator diag(1, e^{i delta}); shifts the relative phase by delta."""
    return PolarizationUnitary(np.diag([1.0, cmath.exp(1j * as_real(delta, "delta"))]))


def apply(u: PolarizationUnitary, q: Qubit) -> Qubit:
    """Apply a polarization unitary and re-canonicalize the result."""
    w = u.matrix @ np.array([q.alpha, q.beta * cmath.exp(1j * q.phi)])
    norm = math.hypot(abs(w[0]), abs(w[1]))
    alpha, beta = abs(w[0]) / norm, abs(w[1]) / norm
    # at alpha = 0 the relative phase is a global one (Qubit zeroes it at beta = 0)
    phi = cmath.phase(w[1]) - cmath.phase(w[0]) if alpha > 0 else 0.0
    return Qubit(alpha, beta, phi)


@dataclass(frozen=True)
class BlochPath:
    """An axis sweep on the Bloch sphere starting from a given qubit."""

    axis: str
    angles: tuple
    start: Qubit

    def __post_init__(self):
        if self.axis not in _PAULI:
            raise ValueError(f"axis must be one of x, y, z, got {self.axis!r}")
        angles = tuple(as_real(a, f"angles[{i}]") for i, a in enumerate(self.angles))
        if len(angles) < 2:
            raise ValueError(f"angles must hold 2 or more values, got {len(angles)}")
        for i in range(1, len(angles)):
            if angles[i - 1] >= angles[i]:
                raise ValueError(f"angles must strictly increase, got angles[{i - 1}] "
                                 f"= {angles[i - 1]} >= angles[{i}] = {angles[i]}")
        object.__setattr__(self, "angles", angles)

    def qubits(self) -> list:
        return [apply(su2_rotation(self.axis, a), self.start) for a in self.angles]
