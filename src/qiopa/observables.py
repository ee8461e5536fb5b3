"""Detected-field correlation functions and visibility."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplifier import AmplifierConfig, GainParams, amplify
from .density import _flat_index, partial_trace
from .polarization import Qubit

# 45-degree analyzer mapping the {h, v} basis of a mode pair onto the
# detected fields {H, V}.  The sign convention is fixed once against the
# closed forms: the H output carries the +cos(phi) interference term.
DETECTED_FIELD_UNITARY = np.array([[1, -1], [1, 1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class G1Pair:
    """Mean detected photon numbers on the two anticloning-mode outputs."""

    g2h: float
    g2v: float
    nbar: float

    @property
    def difference(self) -> float:
        return self.g2h - self.g2v


def g1_closed_form(q: Qubit, gain: GainParams) -> G1Pair:
    """First-order correlations nbar(3/2 +- alpha beta cos phi)."""
    interference = q.alpha * q.beta * math.cos(q.phi)
    return G1Pair(g2h=gain.nbar * (1.5 + interference),
                  g2v=gain.nbar * (1.5 - interference),
                  nbar=gain.nbar)


def g1_oracle(q: Qubit, cfg: AmplifierConfig) -> G1Pair:
    """Brute-force detected photon numbers Tr(rho2 N_c) on the two bands of the
    brute-force partial trace over mode 1: the analyzer output c = sum_j u_cj b_j
    has N_c = |u_ch|^2 n_h + |u_cv|^2 n_v + 2 Re(u_ch* u_cv b_h+ b_v)."""
    rho = partial_trace(amplify(q, cfg), "mode2")
    t, p = _flat_index(rho.sectors)
    numbers = np.array([rho.diag @ (t - p), rho.diag @ p])   # <n_h>, <n_v>
    hop = rho.sub @ np.sqrt((t - p) * (p + 1))                # <b_h+ b_v>
    u = DETECTED_FIELD_UNITARY
    g2h, g2v = np.abs(u) ** 2 @ numbers + 2.0 * (u[:, 0].conj() * u[:, 1] * hop).real
    return G1Pair(g2h=float(g2h), g2v=float(g2v), nbar=cfg.gain.nbar)


def visibility(q: Qubit) -> float:
    """Ideal fringe visibility 2 alpha beta / 3 (extrema of the closed forms over phi).

    Evaluated as (1 - (alpha - beta)^2) / 3, identical under the unit-norm
    invariant and exact in the symmetric case alpha = beta.
    """
    return (1.0 - (q.alpha - q.beta) ** 2) / 3
