"""Reduced density matrices, entropies, distances and pair statistics.

Both single-mode reductions of the amplified state are exactly
block-diagonal in the total photon number of the kept mode pair, so they
are stored sector by sector.  Closed-form assemblies are cross-checked
against a brute-force partial trace.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .amplifier import AmplifierConfig
from .errors import NumericalError
from .fock import (FockState4, GainParams, MODE_PAIRS, fidelity,
                   pair_probability, pair_tail, row_groups)
from .polarization import Qubit

EIGENVALUE_FLOOR = -1e-9
ENTROPY_EIGENVALUE_CUT = 1e-15
BLOCK_COHERENCE_TOL = 1e-12


@dataclass
class SectorDensity:
    """Block-diagonal density matrix over total-photon sectors of one mode.

    blocks[t] is the (t+1) x (t+1) weighted block on the basis
    |t-j>_h |j>_v, j = 0..t; the block traces sum to the source norm.
    """

    mode: str
    blocks: list

    def __post_init__(self):
        if self.mode not in MODE_PAIRS:
            raise ValueError(f"mode must be 'mode1' or 'mode2', got {self.mode!r}")
        self.blocks = [np.asarray(b, dtype=complex) for b in self.blocks]
        for t, b in enumerate(self.blocks):
            if b.shape != (t + 1, t + 1):
                raise ValueError(f"sector {t} block must have order {t + 1}")

    @property
    def weights(self) -> list:
        return [float(np.trace(b).real) for b in self.blocks]

    def total_trace(self) -> float:
        return float(sum(self.weights))


def rho1_closed_form(q: Qubit, cfg: AmplifierConfig) -> SectorDensity:
    """Reduced state of the cloning mode, assembled from overlapping 2x2 blocks."""
    gp = cfg.gain
    ab = q.alpha * q.beta * cmath.exp(1j * q.phi)
    blocks = [np.zeros((1, 1), dtype=complex)]  # mode 1 always holds >= 1 photon
    for n in range(cfg.cutoff + 1):
        t = n + 1
        w = gp.gamma ** 2 * gp.Gamma ** (2 * n)
        M = np.zeros((t + 1, t + 1), dtype=complex)
        for i in range(n + 1):
            pa = t - i        # |i>_h |n-i+1>_v
            pb = t - i - 1    # |i+1>_h |n-i>_v
            M[pa, pa] += q.beta ** 2 * (n - i + 1)
            M[pb, pb] += q.alpha ** 2 * (i + 1)
            c = ab * math.sqrt((i + 1) * (n - i + 1))
            M[pa, pb] += c
            M[pb, pa] += c.conjugate()
        blocks.append(w * M)
    return SectorDensity("mode1", blocks)


def rho2_closed_form(q: Qubit, cfg: AmplifierConfig) -> SectorDensity:
    """Reduced state of the anticloning mode; note the negative cross terms."""
    gp = cfg.gain
    ab = q.alpha * q.beta * cmath.exp(1j * q.phi)
    blocks = []
    for n in range(cfg.cutoff + 1):
        w = gp.gamma ** 2 * gp.Gamma ** (2 * n)
        M = np.zeros((n + 1, n + 1), dtype=complex)
        for i in range(n + 2):
            # block kets |n-i>_h |i>_v (position i) and |n-i+1>_h |i-1>_v
            # (position i-1); edge summands with invalid kets contribute zero
            if i <= n:
                M[i, i] += q.beta ** 2 * (n - i + 1)
            if i >= 1:
                M[i - 1, i - 1] += q.alpha ** 2 * i
            if 1 <= i <= n:
                c = -ab * math.sqrt((n - i + 1) * i)
                M[i, i - 1] += c
                M[i - 1, i] += c.conjugate()
        blocks.append(w * M)
    return SectorDensity("mode2", blocks)


def partial_trace(state: FockState4, keep: str) -> SectorDensity:
    """Brute-force contraction over the discarded mode pair."""
    if keep not in MODE_PAIRS:
        raise ValueError(f"keep must be 'mode1' or 'mode2', got {keep!r}")
    k0, k1 = MODE_PAIRS[keep]
    t0, t1 = MODE_PAIRS["mode2" if keep == "mode1" else "mode1"]
    amp, mag = state.amp, np.abs(state.amp)
    total = state.occ[:, k0] + state.occ[:, k1]
    traced = row_groups(state.occ[:, [t0, t1]])[0]

    # the largest |a b*| across sectors of one traced occupation pairs its
    # largest entry with an entry of another sector
    order = np.lexsort((-mag, traced))
    top = order[np.diff(traced[order], prepend=-1) != 0][traced]
    cross = total != total[top]
    if np.any(mag[cross] * mag[top[cross]] > BLOCK_COHERENCE_TOL):
        raise ValueError(
            "reduced state has coherences across photon-number "
            "sectors; block-diagonal storage does not apply")

    blocks = []
    for t in range(int(total.max(initial=0)) + 1):
        sel = total == t
        psi = np.zeros((sel.sum(), t + 1), dtype=complex)
        psi[np.unique(traced[sel], return_inverse=True)[1], state.occ[sel, k1]] = amp[sel]
        blocks.append(psi.T @ psi.conj())
    return SectorDensity(keep, blocks)


def entropy(rho: SectorDensity) -> float:
    """Von Neumann entropy in bits, -sum lambda log2 lambda over all sectors."""
    s = 0.0
    for b in rho.blocks:
        lam = np.linalg.eigvalsh(b)
        if lam.size and lam.min() < EIGENVALUE_FLOOR:
            raise NumericalError(
                f"density block has eigenvalue {lam.min():.3e} below {EIGENVALUE_FLOOR:g}")
        lam = lam[lam > ENTROPY_EIGENVALUE_CUT]
        if lam.size:
            s -= float(np.sum(lam * np.log2(lam)))
    return s


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt distance Tr[(rho_a - rho_b)^2]."""
    if isinstance(a, FockState4) and isinstance(b, FockState4):
        # states define unit-trace projectors, so the overlap is normalized;
        # otherwise the truncation loss of each state leaks into the distance
        return 2.0 - 2.0 * fidelity(a, b)
    if isinstance(a, SectorDensity) and isinstance(b, SectorDensity):
        if a.mode != b.mode:
            raise ValueError(f"mode mismatch: {a.mode} vs {b.mode}")
        d = 0.0
        for t in range(max(len(a.blocks), len(b.blocks))):
            ba = a.blocks[t] if t < len(a.blocks) else np.zeros((t + 1, t + 1))
            bb = b.blocks[t] if t < len(b.blocks) else np.zeros((t + 1, t + 1))
            d += float(np.sum(np.abs(ba - bb) ** 2))
        return d
    raise TypeError("expected two FockState4 or two SectorDensity arguments")


@dataclass(frozen=True)
class PairDistribution:
    probabilities: np.ndarray
    gain: GainParams

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def mean(self) -> float:
        n = np.arange(len(self.probabilities))
        return float(np.sum(n * self.probabilities))

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.probabilities)


def pair_distribution(cfg: AmplifierConfig) -> PairDistribution:
    """Pair-number distribution p(n); independent of the injected qubit."""
    n = np.arange(cfg.cutoff + 1)
    return PairDistribution(pair_probability(cfg.gain, n), cfg.gain)


def tail_probability(dist: PairDistribution, threshold: int) -> float:
    """P(n >= threshold), stored probabilities plus the analytic remainder."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    n_max = len(dist.probabilities) - 1
    if threshold > n_max:
        return pair_tail(dist.gain, threshold)
    return float(dist.probabilities[threshold:].sum()) + pair_tail(dist.gain, n_max + 1)
