"""Reduced density matrices, their entropies and Hilbert-Schmidt distances.

Both single-mode reductions of the amplified state are exactly
block-diagonal in the total photon number of the kept mode pair, and the
amplifier is SU(2)-covariant (universal cloning), so every sector block is
tridiagonal.  A density is therefore stored as two bands over all sectors,
a real diagonal and a complex sub-diagonal.  Closed-form assemblies fill
the bands directly and are cross-checked against a brute-force partial
trace, which checks the banded structure instead of assuming it.  The
trace plans from the rows alone each row's band index and the row pairs
that share a traced occupation, split into the sub-diagonal's and the
off-band rest; the amplifier's memoised rows keep their plans, so a warm
trace only gathers amplitudes, checks and sums their products.

Covariance also gives pair term n, in either mode, the spectrum w_n {1, ...,
n+1} of the optimal cloner and the universal NOT (Gisin & Massar, PRL 79, 2153,
1997; Buzek, Hillery & Werner, PRA 60, R2626, 1999), so a closed form's entropy
is cloner_entropy, one O(cutoff) sum over its pair weights w_n; any other
density, the partial trace included, is eigensolved, the oracle path.  Both
closed forms are linear in the qubit through alpha^2, beta^2 and
alpha beta e^{i phi}, so one builder scales either mode's weighted band
factors by them; the factors and that entropy depend on the configuration
alone: a one-entry memo keeps them for the last one used (read-only,
0.29 MB at HG, cutoff 100, and 28 MB at the top gain, cutoff 1000).
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np
import scipy

from .amplifier import AmplifierConfig, pair_weights
from .errors import NumericalError
from .fock import FockState4, MODE_PAIRS, row_keys
from .polarization import Qubit

EIGENVALUE_FLOOR = -1e-9
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
    sectors, whose eigenvalues are the spectrum.
    """

    # set only by the closed forms: the cloner entropy of the weights they
    # fill their bands from
    _entropy = None

    def __init__(self, mode: str, diag, sub):
        if mode not in MODE_PAIRS:
            raise ValueError(f"mode must be 'mode1' or 'mode2', got {mode!r}")
        self.mode = mode
        self.diag = np.array(diag, dtype=float)
        self.sub = np.array(sub, dtype=complex)
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

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of all sectors, ascending and read-only.

        One tridiagonal eigensolve over the bands, on first access: the zero
        coupling at each sector end keeps the sectors apart, and the diagonal
        phase gauge that makes each sub-diagonal entry its modulus leaves the
        spectrum unchanged.  The LAPACK routine is named because older scipy
        defaults to stemr, whose workspace is quadratic in the band length.
        """
        lam = (scipy.linalg.eigvalsh_tridiagonal(
                   self.diag, np.abs(self.sub[:-1]), lapack_driver="sterf")
               if self.sectors else np.zeros(0))
        lam.setflags(write=False)
        return lam

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


@functools.lru_cache(maxsize=1)
def _closed_form_bands(cfg: AmplifierConfig):
    """The qubit-independent part of both closed forms: (s, mode1, mode2),
    s the cloner_entropy of the pair weights w_n, and each mode's
    (w, ca, cb, root) over its bands: the gathered weights, the factors of
    alpha^2 and beta^2 on the diagonal (mode 1: t-p and p; mode 2: p+1 and
    n-p+1) and sqrt((t-p)(p+1)), mode 2's a prefix of mode 1's.  Read-only;
    the memo keeps the last cfg."""
    w = pair_weights(cfg)
    t, p = _flat_index(cfg.cutoff + 2)
    root = np.sqrt((t - p) * (p + 1))
    m = w.size * (w.size + 1) // 2   # mode 2's sectors n = 0..cutoff lead t's
    n, p2 = t[:m], p[:m]
    mode1 = (np.append(0.0, w)[t],   # mode 1 always holds >= 1 photon
             (t - p).astype(float), p.astype(float), root)
    mode2 = (w[n], (p2 + 1).astype(float), (n - p2 + 1).astype(float), root[:m])
    for arr in (*mode1, *mode2):
        arr.setflags(write=False)
    return cloner_entropy(w), mode1, mode2


def _closed_form(mode: str, bands, s: float, q: Qubit, ab: complex) -> SectorDensity:
    """One mode's density from its bands (w, ca, cb, root): diagonal
    w (alpha^2 ca + beta^2 cb), sub-diagonal w ab root, and the cloner
    entropy s of w, which entropy returns without solving the spectrum."""
    w, ca, cb, root = bands
    rho = SectorDensity(mode, w * (q.alpha ** 2 * ca + q.beta ** 2 * cb), w * (ab * root))
    rho._entropy = s
    return rho


def rho1_closed_form(q: Qubit, cfg: AmplifierConfig) -> SectorDensity:
    """Reduced state of the cloning mode: pair term n fills sector t = n + 1
    with diagonal alpha^2 (t-p) + beta^2 p and sub-diagonal
    alpha beta e^{i phi} sqrt((t-p)(p+1)), p = 0..t vertical photons.  Its
    spectrum is the |H> diagonal w_n (t-p), the optimal 1 -> t cloner's."""
    s, bands, _ = _closed_form_bands(cfg)
    return _closed_form("mode1", bands, s, q, q.alpha * q.beta * cmath.exp(1j * q.phi))


def rho2_closed_form(q: Qubit, cfg: AmplifierConfig) -> SectorDensity:
    """Reduced state of the anticloning mode: pair term n fills sector n with
    diagonal alpha^2 (p+1) + beta^2 (n-p+1) and the negative sub-diagonal
    -alpha beta e^{i phi} sqrt((n-p)(p+1)), p = 0..n vertical photons.  Its
    spectrum is the |H> diagonal w_n (p+1), the universal NOT's."""
    s, _, bands = _closed_form_bands(cfg)
    # negated, not multiplied by -1, which gives +0.0 where negation gives -0.0
    return _closed_form("mode2", bands, s, q, -(q.alpha * q.beta * cmath.exp(1j * q.phi)))


def _trace_plan(occ: np.ndarray, keep: str):
    """What a partial trace reads of the rows: each row's band index k, the
    band length, the row pairs (lo, hi) that share a traced occupation split
    into the sub-diagonal's and the off-band rest, and the sub-diagonal
    pairs' band indices kb interleaved as [2 kb, 2 kb + 1], the real and
    imaginary slots of a complex band viewed as floats; read-only arrays."""
    k0, k1 = MODE_PAIRS[keep]
    t0, t1 = MODE_PAIRS["mode2" if keep == "mode1" else "mode1"]
    total = occ[:, k0] + occ[:, k1]
    k = total * (total + 1) // 2 + occ[:, k1]
    sectors = int(total.max(initial=0)) + 1
    size = sectors * (sectors + 1) // 2

    # sorted by the key traced * size + k, the rows of one traced occupation
    # are contiguous and their band indices distinct and ascending: row i and
    # row i + d share it only if every row between does, and only adjacent
    # rows (d = 1) can sit at p and p + 1 of one sector
    traced = row_keys(occ[:, t0:t1 + 1])
    order = np.argsort(np.ravel_multi_index(
        (traced, k), (int(traced.max(initial=0)) + 1, size)))
    ks, total, traced = k[order], total[order], traced[order]
    pairs = [np.zeros((2, 0), dtype=np.intp)]
    for d in range(1, len(order)):
        lo = np.flatnonzero(traced[d:] == traced[:-d])
        if not lo.size:
            break
        pairs.append((lo, lo + d))
    lo, hi = np.concatenate(pairs, axis=1)
    band = (total[hi] == total[lo]) & (ks[hi] == ks[lo] + 1)
    kb = 2 * ks[lo[band]]
    plan = (k, order[lo[band]], order[hi[band]], order[lo[~band]],
            order[hi[~band]], np.column_stack([kb, kb + 1]).reshape(-1))
    for arr in plan:
        arr.setflags(write=False)
    return size, *plan


def partial_trace(state: FockState4, keep: str) -> SectorDensity:
    """Brute-force contraction over the discarded mode pair.

    Rows sharing a traced occupation give the entries a_i a_j* of the reduced
    state.  Those at p and p + 1 of one sector form the sub-diagonal; any
    other, across sectors or off the band, must stay within
    BLOCK_COHERENCE_TOL (a NaN does not) or the state is rejected.  Which
    rows pair up is the rows' plan, kept for the amplifier's memoised rows
    in their memo entry and built anew for any other state.
    """
    if keep not in MODE_PAIRS:
        raise ValueError(f"keep must be 'mode1' or 'mode2', got {keep!r}")
    plans = {} if state._plans is None else state._plans
    if keep not in plans:
        plans[keep] = _trace_plan(state.occ, keep)
    size, k, lo, hi, off_lo, off_hi, kb = plans[keep]
    a = state.amp
    if not np.all(np.abs(a[off_hi] * a[off_lo].conj()) <= BLOCK_COHERENCE_TOL):
        raise ValueError(
            "reduced state has coherences across photon-number sectors "
            "or off the tridiagonal band; banded sector storage does not apply")
    diag = np.bincount(k, a.real ** 2 + a.imag ** 2, size)
    # one sum of the real and imaginary parts, each in its float slot
    prod = a[hi] * a[lo].conj()
    sub = np.bincount(kb, prod.view(float), 2 * size).view(complex)
    return SectorDensity(keep, diag, sub)


def cloner_entropy(w) -> float:
    """Von Neumann entropy in bits of either closed-form reduced state, for any
    qubit, from its pair weights w_n: covariance gives pair term n the
    spectrum w_n {1, ..., n+1}, so S = -sum_n w_n (T_n log2 w_n + B_n), with
    T_n = (n+1)(n+2)/2 and B_n = sum_{k <= n+1} k log2 k.  A weight that
    underflowed to 0 holds none; 0.0 - sum gives a pure state 0.0, not -0.0."""
    w = np.asarray(w, dtype=float)
    k = np.arange(1.0, w.size + 1)
    log_w, log_k = (np.array([math.log2(x) if x > 0 else 0.0 for x in v.tolist()]) for v in (w, k))
    return 0.0 - math.fsum(w * (k * (k + 1) / 2 * log_w + np.cumsum(k * log_k)))


def entropy(rho: SectorDensity) -> float:
    """Von Neumann entropy in bits, -sum lambda log2 lambda over all sectors:
    the cloner_entropy a closed form carries from its memo, and the sum over
    the positive eigenvalues of any other density."""
    if rho._entropy is not None:
        return rho._entropy
    lam = rho.spectrum
    if lam.min(initial=0.0) < EIGENVALUE_FLOOR:
        raise NumericalError(
            f"density block has eigenvalue {lam.min():.3e} below {EIGENVALUE_FLOOR:g}")
    lam = lam[lam > 0]
    return float(0.0 - np.sum(lam * np.log2(lam)))


def hs_distance(a: SectorDensity, b: SectorDensity) -> float:
    """Hilbert-Schmidt distance Tr[(rho_a - rho_b)^2]."""
    if a.mode != b.mode:
        raise ValueError(f"mode mismatch: {a.mode} vs {b.mode}")
    n = max(a.diag.size, b.diag.size)
    dd = np.pad(a.diag, (0, n - a.diag.size)) - np.pad(b.diag, (0, n - b.diag.size))
    ds = np.pad(a.sub, (0, n - a.sub.size)) - np.pad(b.sub, (0, n - b.sub.size))
    # each sub-diagonal entry stands for itself and its conjugate
    return float(dd @ dd + 2.0 * np.sum(ds.real ** 2 + ds.imag ** 2))
