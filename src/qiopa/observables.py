"""Detected-field correlation functions, fringe patterns and visibility."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplifier import AmplifierConfig, amplify
from .density import partial_trace
from .fock import GainParams, _pair_rotation
from .polarization import BlochPath, Qubit, apply, su2_rotation

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
    """Brute-force detected photon numbers: the analyzer applied to the
    brute-force partial trace of the amplifier output over mode 1.

    Each mode-2 sector t is rotated by the block D_t that rotate_mode_pair
    uses: diag(D_t rho_t D_t^H), built from the bands of rho_t in O(t^2), is
    the law of the H photon number h, and of t - h in V.
    """
    rho = partial_trace(amplify(q, cfg), "mode2")
    key = tuple(complex(x) for x in DETECTED_FIELD_UNITARY.ravel())
    g2h = g2v = 0.0
    for t in range(rho.sectors):
        diag, sub = rho.sector(t)
        # D_t[h, m] acts on |m>_h |t-m>_v, rho_t on |t-p>_h |p>_v
        d = _pair_rotation(key, t)[:, ::-1]
        law = np.abs(d) ** 2 @ diag + 2.0 * ((d[:, 1:] * d[:, :-1].conj()) @ sub).real
        h = np.arange(t + 1)
        g2h += float(law @ h)
        g2v += float(law @ (t - h))
    return G1Pair(g2h=g2h, g2v=g2v, nbar=cfg.gain.nbar)


def visibility(q: Qubit) -> float:
    """Ideal fringe visibility 2 alpha beta / 3 (extrema of the closed forms over phi).

    Evaluated as (1 - (alpha - beta)^2) / 3, identical under the unit-norm
    invariant and exact in the symmetric case alpha = beta.
    """
    return (1.0 - (q.alpha - q.beta) ** 2) / 3


def signal_to_noise(q: Qubit, gain: GainParams) -> float:
    """H-channel mean over the squeezed-vacuum floor nbar."""
    if gain.nbar == 0.0:
        raise ValueError("signal-to-noise undefined at zero gain (nbar = 0)")
    return g1_closed_form(q, gain).g2h / gain.nbar


@dataclass(frozen=True)
class FringeTable:
    """Rows of (sweep angle, dG, g2H, g2V) for one Bloch path and gain."""

    rows: tuple
    gain: GainParams
    path: BlochPath


def fringe_sweep(path: BlochPath, gain: GainParams) -> FringeTable:
    rows = []
    for angle, qubit in zip(path.angles, path.qubits()):
        pair = g1_closed_form(qubit, gain)
        rows.append((angle, pair.difference, pair.g2h, pair.g2v))
    return FringeTable(rows=tuple(rows), gain=gain, path=path)
