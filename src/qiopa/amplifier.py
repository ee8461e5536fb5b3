"""Amplified output states of the quantum-injected parametric amplifier.

The closed-form output for an injected single-photon qubit populates the
indices |i+1, j, j, i> (weighted by alpha) and |i, j+1, j, i> (weighted by
beta e^{i phi}) with amplitudes gamma (-Gamma)^i Gamma^j sqrt(i+1) and
gamma (-Gamma)^i Gamma^j sqrt(j+1).  An independent Hamiltonian propagator
cross-checks the closed form using only the interaction's symmetries: the
(1h, 2v) and (1v, 2h) pair couplings commute and each keeps its pair's
photon-number difference, so the evolution is a product of tridiagonal pair
chains, each exponentiated exactly.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError
from .fock import (FockState4, GainParams, TAIL_RULE, default_cutoff,
                   make_gain, pair_tail)
from .polarization import Qubit

# the interaction transiently populates the truncation boundary
PROPAGATOR_PADDING = 8


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


def _chain(cfg: AmplifierConfig, sign: float, d: int) -> np.ndarray:
    """Amplitudes on |d+k, k>, k <= cutoff + PROPAGATOR_PADDING, of one
    coupling's pair after time g from |d, 0>.  The coupling keeps d and
    creates a pair with amplitude sign sqrt((k+1)(k+1+d)), so its generator
    K = created - created^T is a real antisymmetric tridiagonal chain:
    K = -i D T D^-1 with D = diag(i^k) and T the symmetric chain, so
    exp(gK) = D V exp(-i g Lambda) V^T D^-1.  The weight beyond the cutoff is
    a marginal of the pair-number tail, so it may not exceed epsilon_trunc."""
    length = cfg.cutoff + PROPAGATOR_PADDING + 1
    k = np.arange(1, length)
    lam, v = eigh_tridiagonal(np.zeros(length), sign * np.sqrt(k * (k + d)))
    phase = 1j ** (np.arange(length) % 4)   # exact powers of i
    # exp(gK) is real: the imaginary part is rounding
    psi = (phase * (v @ (np.exp(-1j * cfg.gain.g * lam) * v[0]))).real
    beyond = psi[cfg.cutoff + 1:] @ psi[cfg.cutoff + 1:]
    if not beyond <= cfg.epsilon_trunc + 1e-12:
        raise NumericalError(
            f"pair chain holds weight {beyond:.3e} beyond the cutoff, more than "
            f"the pair-number tail {cfg.epsilon_trunc:.3e}")
    return psi


def propagate_hamiltonian(q: Qubit, cfg: AmplifierConfig) -> FockState4:
    """Numerically integrate the two-pair squeezing interaction for time g.

    The couplings act on disjoint mode pairs, so they commute, and each keeps
    its pair's photon-number difference d (0 or 1 for the injected photon, any
    excess in the pair's first mode).  So each injected row evolves into a
    product of one chain |d+k, k> per coupling, truncated at
    cutoff + PROPAGATOR_PADDING pairs and exponentiated exactly.  Each chain's
    weight beyond the cutoff is checked against the pair-number tail; the
    product is truncated back to the cutoff.
    """
    g = cfg.gain.g
    psi_in = FockState4.from_arrays(np.array([[1, 0, 0, 0], [0, 1, 0, 0]]),
                                    np.array([q.alpha, q.beta * cmath.exp(1j * q.phi)]),
                                    cfg.cutoff)
    if g == 0.0:
        return psi_in

    pair = np.eye(4, dtype=np.int64)[[ab for ab, _sign in _COUPLINGS]].sum(axis=1)
    k = np.indices((cfg.cutoff + 1,) * len(_COUPLINGS)).reshape(len(_COUPLINGS), -1).T
    k = k[k.sum(axis=1) <= cfg.cutoff]   # k[:, c] pairs of coupling c
    occ, amp = [], []
    for seed, amp0 in zip(psi_in.occ, psi_in.amp):
        terms = np.full(len(k), amp0)
        for c, ((a, b), sign) in enumerate(_COUPLINGS):
            terms *= _chain(cfg, sign, seed[a] - seed[b])[k[:, c]]
        occ.append(seed + k @ pair)
        amp.append(terms)
    occ, amp = np.concatenate(occ), np.concatenate(amp)
    order = np.lexsort(occ.T[::-1])
    return FockState4.from_arrays(occ[order], amp[order], cfg.cutoff)
