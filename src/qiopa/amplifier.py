"""Amplified output states of the quantum-injected parametric amplifier.

The closed-form output for an injected single-photon qubit populates the
indices |i+1, j, j, i> (weighted by alpha) and |i, j+1, j, i> (weighted by
beta e^{i phi}) with amplitudes gamma (-Gamma)^i Gamma^j sqrt(i+1) and
gamma (-Gamma)^i Gamma^j sqrt(j+1).  An independent sparse-Hamiltonian
propagator provides a cross-check of the closed form.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .errors import NumericalError
from .fock import (FockIndex4, FockState4, GainParams, TAIL_RULE,
                   default_cutoff, make_gain, pair_tail)
from .polarization import Qubit

# the interaction transiently populates the truncation boundary
PROPAGATOR_PADDING = 8
CONVERGENCE_TOL = 1e-12


@dataclass(frozen=True)
class AmplifierConfig:
    gain: GainParams
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        tail = pair_tail(self.gain, self.cutoff + 1)
        if tail >= TAIL_RULE:
            raise ValueError(
                f"cutoff {self.cutoff} leaves truncated pair weight {tail:.3e} "
                f">= {TAIL_RULE:g}; increase the cutoff")

    @property
    def epsilon_trunc(self) -> float:
        """Analytic bound on the probability weight lost to truncation."""
        return pair_tail(self.gain, self.cutoff + 1)

    @classmethod
    def for_gain(cls, g: float, cutoff: int | None = None) -> "AmplifierConfig":
        gain = make_gain(g)
        return cls(gain, default_cutoff(gain) if cutoff is None else cutoff)


def _pair_weights(cfg: AmplifierConfig, pref: float):
    """Pair terms (i, j), n = i + j then i ascending, and pref (-Gamma)^i Gamma^j
    (scalar pow: numpy's vectorised pow can round the last bit differently)."""
    n, i = np.tril_indices(cfg.cutoff + 1)
    gam = cfg.gain.Gamma
    powers = np.array([[(-gam) ** k, gam ** k] for k in range(cfg.cutoff + 1)])
    return i, n - i, pref * powers[i, 0] * powers[n - i, 1]


def amplify(q: Qubit, cfg: AmplifierConfig) -> FockState4:
    """Closed-form amplifier output for an injected qubit.

    Each pair term (i, j) gives |i+1, j, j, i> (alpha) and then |i, j+1, j, i> (beta).
    """
    i, j, base = _pair_weights(cfg, cfg.gain.gamma)
    b_amp = q.beta * cmath.exp(1j * q.phi)
    occ = np.column_stack([i + 1, j, j, i, i, j + 1, j, i]).reshape(-1, 4)
    amp = np.column_stack([q.alpha * base * np.sqrt(i + 1),
                           b_amp * base * np.sqrt(j + 1)]).reshape(-1)
    return FockState4.from_arrays(occ, amp, cfg.cutoff)


def vacuum_output(cfg: AmplifierConfig) -> FockState4:
    """Squeezed-vacuum output when the amplifier is fed no qubit."""
    i, j, amp = _pair_weights(cfg, cfg.gain.C ** -2)
    return FockState4.from_arrays(np.column_stack([i, j, j, i]),
                                  amp.astype(complex), cfg.cutoff)


# creation-pair couplings (mode indices, sign): the (1h, 2v) pairs carry the
# opposite sign of the (1v, 2h) pairs, fixing the singlet phase so that the
# first-order amplitudes reproduce the closed form
_COUPLINGS = (((0, 3), -1.0), ((1, 2), +1.0))


def _basis_by_bfs(seeds, max_pairs: int) -> list:
    max_total = 2 * max_pairs + 1
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        s = stack.pop()
        for (a, b), _sign in _COUPLINGS:
            up = list(s)
            up[a] += 1
            up[b] += 1
            tup = FockIndex4(*up)
            if tup.total <= max_total and tup not in seen:
                seen.add(tup)
                stack.append(tup)
            if s[a] > 0 and s[b] > 0:
                dn = list(s)
                dn[a] -= 1
                dn[b] -= 1
                tdn = FockIndex4(*dn)
                if tdn not in seen:
                    seen.add(tdn)
                    stack.append(tdn)
    return sorted(seen)


def propagate_hamiltonian(q: Qubit, cfg: AmplifierConfig, steps: int = 1) -> FockState4:
    """Numerically integrate the two-pair squeezing interaction for time g.

    The truncated generator is exactly anti-Hermitian, so each step is
    unitary; convergence is checked by doubling the step count and the
    result is truncated back to the configured cutoff.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    g = cfg.gain.g
    psi_in = FockState4.from_arrays(np.array([[1, 0, 0, 0], [0, 1, 0, 0]]),
                                    np.array([q.alpha, q.beta * cmath.exp(1j * q.phi)]),
                                    cfg.cutoff)
    if g == 0.0:
        return psi_in

    pad_cut = cfg.cutoff + PROPAGATOR_PADDING
    seeds = [FockIndex4(*s) for s in psi_in.occ.tolist()]
    basis = _basis_by_bfs(seeds, pad_cut)
    index = {s: k for k, s in enumerate(basis)}
    dim = len(basis)

    rows, cols, vals = [], [], []
    max_total = 2 * pad_cut + 1
    for s, k in index.items():
        for (a, b), sign in _COUPLINGS:
            up = list(s)
            up[a] += 1
            up[b] += 1
            tup = FockIndex4(*up)
            if tup.total <= max_total:
                rows.append(index[tup])
                cols.append(k)
                vals.append(sign * math.sqrt(up[a] * up[b]))
    created = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    K = created - created.T  # real antisymmetric: evolution is exactly unitary

    psi0 = np.zeros(dim, dtype=complex)
    psi0[[index[s] for s in seeds]] = psi_in.amp

    def evolve(nsteps: int) -> np.ndarray:
        psi = psi0
        dt = g / nsteps
        for _ in range(nsteps):
            psi = expm_multiply(dt * K, psi)
        return psi

    psi_a = evolve(steps)
    psi_b = evolve(2 * steps)
    overlap = abs(np.vdot(psi_a, psi_b)) ** 2
    norms = float(np.vdot(psi_a, psi_a).real * np.vdot(psi_b, psi_b).real)
    if 1.0 - overlap / norms > CONVERGENCE_TOL:
        raise NumericalError(
            f"propagation did not converge under step doubling "
            f"(fidelity defect {1.0 - overlap / norms:.3e})")

    occ = np.array(basis, dtype=np.int64)
    keep = occ.sum(axis=1) // 2 <= cfg.cutoff
    return FockState4.from_arrays(occ[keep], psi_b[keep], cfg.cutoff)
