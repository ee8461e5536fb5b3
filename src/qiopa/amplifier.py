"""Amplified output states of the quantum-injected parametric amplifier.

The closed-form output for an injected single-photon qubit populates the
indices |i+1, j, j, i> (weighted by alpha) and |i, j+1, j, i> (weighted by
beta e^{i phi}) with amplitudes gamma (-Gamma)^i Gamma^j sqrt(i+1) and
gamma (-Gamma)^i Gamma^j sqrt(j+1).  An independent sparse-Hamiltonian
propagator provides a cross-check of the closed form: its basis is every row
that the (1h, 2v) and (1v, 2h) pair couplings reach from the injected rows,
built as each injected row's lowest row plus k pairs of each coupling.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .errors import NumericalError
from .fock import (FockState4, GainParams, TAIL_RULE, default_cutoff,
                   make_gain, pair_tail, row_groups)
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

    def holds_norm(self, norm_sq: float) -> bool:
        """Whether a truncated state's squared norm lies in
        1 - epsilon_trunc .. 1, allowing 1e-12 of rounding at each end."""
        return 1.0 - self.epsilon_trunc - 1e-12 <= norm_sq <= 1.0 + 1e-12

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


def propagate_hamiltonian(q: Qubit, cfg: AmplifierConfig, steps: int = 1) -> FockState4:
    """Numerically integrate the two-pair squeezing interaction for time g.

    Each coupling adds or removes one photon in both of its modes, so the
    rows reachable from an injected row are its lowest row (every removable
    pair taken out) plus k_c >= 0 pairs of each coupling c, up to the padded
    total.  The truncated generator is exactly anti-Hermitian, so each step
    is unitary; convergence is checked by doubling the step count and the
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

    max_total = 2 * (cfg.cutoff + PROPAGATOR_PADDING) + 1
    modes = np.array([ab for ab, _sign in _COUPLINGS])
    signs = np.array([sign for _ab, sign in _COUPLINGS])
    pair = np.eye(4, dtype=np.int64)[modes].sum(axis=1)   # one pair of each coupling
    k = np.indices((max_total // 2 + 1,) * len(modes)).reshape(len(modes), -1).T
    reach = np.concatenate([seed - seed[modes].min(axis=1) @ pair + k @ pair
                            for seed in psi_in.occ])
    basis = np.unique(reach[reach.sum(axis=1) <= max_total], axis=0)  # lexicographic
    dim = len(basis)

    # created rows: each basis row's up-neighbour under each coupling, in
    # (row, coupling) order; basis rows come first, so row_groups numbers
    # every up-neighbour and seed by its basis position
    up = basis[:, None, :] + pair
    cols, c = np.nonzero(up.sum(axis=2) <= max_total)
    up = up[cols, c]
    label = row_groups(np.concatenate([basis, up, psi_in.occ]))[0]
    vals = signs[c] * np.sqrt(np.prod(np.take_along_axis(up, modes[c], axis=1), axis=1))
    created = sp.csr_matrix((vals, (label[dim:dim + len(up)], cols)), shape=(dim, dim))
    K = created - created.T  # real antisymmetric: evolution is exactly unitary

    psi0 = np.zeros(dim, dtype=complex)
    psi0[label[dim + len(up):]] = psi_in.amp

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

    keep = basis.sum(axis=1) // 2 <= cfg.cutoff
    return FockState4.from_arrays(basis[keep], psi_b[keep], cfg.cutoff)
