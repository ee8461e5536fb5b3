"""Reduced density matrices, entropies, distances and pair statistics.

Both single-mode reductions of the amplified state are exactly
block-diagonal in the total photon number of the kept mode pair, and the
amplifier is SU(2)-covariant (universal cloning), so every sector block is
tridiagonal.  A density is therefore stored as two bands over all sectors,
a real diagonal and a complex sub-diagonal.  Closed-form assemblies fill
the bands directly and are cross-checked against a brute-force partial
trace, which checks the banded structure instead of assuming it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .amplifier import AmplifierConfig
from .errors import NumericalError
from .fock import (FockState4, GainParams, MODE_PAIRS, fidelity,
                   pair_probability, pair_tail, row_groups)
from .polarization import Qubit

EIGENVALUE_FLOOR = -1e-9
ENTROPY_EIGENVALUE_CUT = 1e-15
BLOCK_COHERENCE_TOL = 1e-12


def _flat_index(sectors: int):
    """Sector t and basis index p of each band position k = t(t+1)/2 + p."""
    t = np.repeat(np.arange(sectors), np.arange(1, sectors + 1))
    return t, np.arange(len(t)) - t * (t + 1) // 2


class SectorDensity:
    """Block-diagonal density matrix over total-photon sectors of one mode.

    Sector t is the (t+1) x (t+1) weighted block on the basis
    |t-p>_h |p>_v, p = 0..t; the block traces sum to the source norm.  Every
    block is tridiagonal, so the sectors are stored end to end as read-only
    bands over k = t(t+1)/2 + p: the real diagonal diag[k] and the
    sub-diagonal sub[k] = <t, p+1| rho |t, p>, which is zero at p = t where
    a sector ends.  The bands thus also form one tridiagonal matrix of all
    sectors.  SectorDensity(mode, blocks) takes dense blocks, for densities
    built by hand, and rejects entries the bands cannot hold.
    """

    def __init__(self, mode: str, blocks):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        for t, b in enumerate(blocks):
            if b.shape != (t + 1, t + 1):
                raise ValueError(f"sector {t} block must have order {t + 1}")
        self._set(mode, [np.diag(b).real for b in blocks],
                  [np.append(np.diag(b, -1), 0.0) for b in blocks])
        for t, (b, band) in enumerate(zip(blocks, self.blocks)):
            if np.abs(b - band).max() > BLOCK_COHERENCE_TOL:
                raise ValueError(f"sector {t} block is not Hermitian tridiagonal")

    @classmethod
    def from_bands(cls, mode: str, diag, sub) -> SectorDensity:
        """Density from its two bands, laid out as in the class docstring."""
        rho = cls.__new__(cls)
        rho._set(mode, [diag], [sub])
        return rho

    def _set(self, mode, diags, subs):
        if mode not in MODE_PAIRS:
            raise ValueError(f"mode must be 'mode1' or 'mode2', got {mode!r}")
        self.mode = mode
        self.diag = np.concatenate([np.zeros(0), *diags]).astype(float)
        self.sub = np.concatenate([np.zeros(0), *subs]).astype(complex)
        n = self.diag.size
        self.sectors = (math.isqrt(8 * n + 1) - 1) // 2
        ends = np.arange(1, self.sectors + 1) * np.arange(2, self.sectors + 2) // 2 - 1
        if self.sectors * (self.sectors + 1) // 2 != n or self.sub.size != n:
            raise ValueError(f"bands of length {n}, {self.sub.size} do not fill whole sectors")
        if np.any(self.sub[ends] != 0):
            raise ValueError("sub-diagonal couples two sectors")
        self.diag.setflags(write=False)
        self.sub.setflags(write=False)

    def sector(self, t: int):
        """Diagonal (t+1 entries) and sub-diagonal (t entries) of sector t."""
        k = t * (t + 1) // 2
        return self.diag[k:k + t + 1], self.sub[k:k + t]

    @property
    def blocks(self) -> tuple:
        """Dense read-only sector blocks, built on each access."""
        out = []
        for t in range(self.sectors):
            diag, sub = self.sector(t)
            b = np.diag(diag) + np.diag(sub, -1) + np.diag(sub.conj(), 1)
            b.setflags(write=False)
            out.append(b)
        return tuple(out)

    @property
    def weights(self) -> list:
        return [float(self.sector(t)[0].sum()) for t in range(self.sectors)]

    def total_trace(self) -> float:
        return float(sum(self.weights))


def _pair_weights(cfg: AmplifierConfig) -> np.ndarray:
    """gamma^2 Gamma^(2n), n = 0..cutoff (scalar pow, as the amplitudes)."""
    gp = cfg.gain
    return np.array([gp.gamma ** 2 * gp.Gamma ** (2 * n) for n in range(cfg.cutoff + 1)])


def rho1_closed_form(q: Qubit, cfg: AmplifierConfig) -> SectorDensity:
    """Reduced state of the cloning mode: pair term n fills sector t = n + 1
    with diagonal alpha^2 (t-p) + beta^2 p and sub-diagonal
    alpha beta e^{i phi} sqrt((t-p)(p+1)), p = 0..t vertical photons."""
    ab = q.alpha * q.beta * cmath.exp(1j * q.phi)
    w = np.append(0.0, _pair_weights(cfg))   # mode 1 always holds >= 1 photon
    t, p = _flat_index(cfg.cutoff + 2)
    return SectorDensity.from_bands(
        "mode1", w[t] * (q.alpha ** 2 * (t - p) + q.beta ** 2 * p),
        w[t] * (ab * np.sqrt((t - p) * (p + 1))))


def rho2_closed_form(q: Qubit, cfg: AmplifierConfig) -> SectorDensity:
    """Reduced state of the anticloning mode: pair term n fills sector n with
    diagonal beta^2 (n-p+1) + alpha^2 (p+1) and the negative sub-diagonal
    -alpha beta e^{i phi} sqrt((n-p)(p+1)), p = 0..n vertical photons."""
    ab = q.alpha * q.beta * cmath.exp(1j * q.phi)
    w = _pair_weights(cfg)
    n, p = _flat_index(cfg.cutoff + 1)
    return SectorDensity.from_bands(
        "mode2", w[n] * (q.beta ** 2 * (n - p + 1) + q.alpha ** 2 * (p + 1)),
        w[n] * (-ab * np.sqrt((n - p) * (p + 1))))


def partial_trace(state: FockState4, keep: str) -> SectorDensity:
    """Brute-force contraction over the discarded mode pair.

    Rows sharing a traced occupation give the entries a_i a_j* of the reduced
    state.  Those at p and p + 1 of one sector form the sub-diagonal; any
    other, across sectors or off the band, must stay within
    BLOCK_COHERENCE_TOL or the state is rejected.
    """
    if keep not in MODE_PAIRS:
        raise ValueError(f"keep must be 'mode1' or 'mode2', got {keep!r}")
    k0, k1 = MODE_PAIRS[keep]
    t0, t1 = MODE_PAIRS["mode2" if keep == "mode1" else "mode1"]
    total = state.occ[:, k0] + state.occ[:, k1]
    k = total * (total + 1) // 2 + state.occ[:, k1]
    sectors = int(total.max(initial=0)) + 1
    size = sectors * (sectors + 1) // 2
    diag = np.bincount(k, state.amp.real ** 2 + state.amp.imag ** 2, size)

    # rows of one traced occupation, by sector and p, are contiguous: row i
    # and row i + d share it only if every row between does
    traced = row_groups(state.occ[:, [t0, t1]])[0]
    order = np.lexsort((k, traced))
    a, k, total, traced = state.amp[order], k[order], total[order], traced[order]
    sub = np.zeros(size, dtype=complex)
    for d in range(1, len(a)):
        lo = np.flatnonzero(traced[d:] == traced[:-d])
        if not lo.size:
            break
        hi = lo + d
        prod = a[hi] * a[lo].conj()
        band = (total[hi] == total[lo]) & (k[hi] == k[lo] + 1)
        if np.any(np.abs(prod[~band]) > BLOCK_COHERENCE_TOL):
            raise ValueError(
                "reduced state has coherences across photon-number sectors "
                "or off the tridiagonal band; banded sector storage does not apply")
        kb = k[lo[band]]
        sub += np.bincount(kb, prod[band].real, size) + 1j * np.bincount(
            kb, prod[band].imag, size)
    return SectorDensity.from_bands(keep, diag, sub)


def entropy(rho: SectorDensity) -> float:
    """Von Neumann entropy in bits, -sum lambda log2 lambda over all sectors.

    One tridiagonal eigensolve over the bands: the zero coupling at each
    sector end keeps the sectors apart, and the diagonal phase gauge that
    makes each sub-diagonal entry its modulus leaves the spectrum unchanged.
    The LAPACK routine is named because older scipy defaults to stemr, whose
    workspace is quadratic in the length of all sectors together.
    """
    if not rho.sectors:
        return 0.0
    lam = eigvalsh_tridiagonal(rho.diag, np.abs(rho.sub[:-1]), lapack_driver="sterf")
    if lam.min() < EIGENVALUE_FLOOR:
        raise NumericalError(
            f"density block has eigenvalue {lam.min():.3e} below {EIGENVALUE_FLOOR:g}")
    lam = lam[lam > ENTROPY_EIGENVALUE_CUT]
    return float(-np.sum(lam * np.log2(lam)))


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt distance Tr[(rho_a - rho_b)^2]."""
    if isinstance(a, FockState4) and isinstance(b, FockState4):
        # states define unit-trace projectors, so the overlap is normalized;
        # otherwise the truncation loss of each state leaks into the distance
        return 2.0 - 2.0 * fidelity(a, b)
    if isinstance(a, SectorDensity) and isinstance(b, SectorDensity):
        if a.mode != b.mode:
            raise ValueError(f"mode mismatch: {a.mode} vs {b.mode}")
        n = max(a.diag.size, b.diag.size)
        dd = np.pad(a.diag, (0, n - a.diag.size)) - np.pad(b.diag, (0, n - b.diag.size))
        ds = np.pad(a.sub, (0, n - a.sub.size)) - np.pad(b.sub, (0, n - b.sub.size))
        # each sub-diagonal entry stands for itself and its conjugate
        return float(dd @ dd + 2.0 * np.sum(ds.real ** 2 + ds.imag ** 2))
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
