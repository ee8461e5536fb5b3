"""Truncated four-mode Fock space: sparse state vectors and mode algebra.

Modes are ordered (1h, 1v, 2h, 2v): horizontal/vertical polarization on the
two output spatial modes k1 and k2.  A state holds an (N, 4) array of
occupation rows and the N matching complex amplitudes; amplitudes below
PRUNE_THRESHOLD are dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from scipy.linalg import logm

from .polarization import PolarizationUnitary

MODE_ORDER = ("1h", "1v", "2h", "2v")
MODE_PAIRS = {"mode1": (0, 1), "mode2": (2, 3)}

PRUNE_THRESHOLD = 1e-15
# cutoff rule: the analytic pair-number tail beyond the cutoff must stay below this
TAIL_RULE = 1e-9


class FockIndex4(NamedTuple):
    n1h: int
    n1v: int
    n2h: int
    n2v: int

    @property
    def total(self) -> int:
        return self.n1h + self.n1v + self.n2h + self.n2v


@dataclass(frozen=True)
class GainParams:
    """Derived amplifier constants for dimensionless gain g."""

    g: float
    C: float        # cosh g
    Gamma: float    # tanh g
    gamma: float    # cosh(g)**-3, overall amplitude prefactor
    nbar: float     # sinh(g)**2, mean photon number per squeezed mode


def make_gain(g: float) -> GainParams:
    if not isinstance(g, (int, float)) or not math.isfinite(g):
        raise ValueError(f"gain must be a finite real number, got {g!r}")
    if g < 0:
        raise ValueError(f"gain must be non-negative, got {g}")
    g = float(g)
    C = math.cosh(g)
    return GainParams(g=g, C=C, Gamma=math.tanh(g), gamma=C ** -3,
                      nbar=math.sinh(g) ** 2)


def pair_probability(gain: GainParams, n):
    """Probability of emitting n photon pairs: gamma^2 Gamma^(2n) (n+1)(n+2)/2."""
    n = np.asarray(n)
    return gain.gamma ** 2 * gain.Gamma ** (2 * n) * (n + 1) * (n + 2) / 2


def pair_tail(gain: GainParams, start: int) -> float:
    """Closed-form sum of pair_probability(n) over n >= start."""
    if start <= 0:
        return 1.0
    x = gain.Gamma ** 2
    if x == 0.0:
        return 0.0
    m = start
    one = 1.0 - x
    # geometric sums of n^0, n^1, n^2 weights starting at n = m
    s0 = x ** m / one
    s1 = x ** m * (m - (m - 1) * x) / one ** 2
    s2 = x ** m * (m * m - (2 * m * m - 2 * m - 1) * x + (m - 1) ** 2 * x ** 2) / one ** 3
    return gain.gamma ** 2 * (s2 + 3 * s1 + 2 * s0) / 2


def default_cutoff(gain: GainParams, tol: float = TAIL_RULE) -> int:
    """Smallest pair-number cutoff satisfying the tail rule (floor of 12)."""
    n = 0
    while pair_tail(gain, n + 1) >= tol:
        n += 1
    return max(n, 12)


class FockState4:
    """Amplitudes amp (N complex) on distinct occupation rows occ (N x 4 int64);
    FockState4(mapping, cutoff) takes a map of occupation tuples to amplitudes."""

    def __init__(self, amplitudes: dict, cutoff: int):
        self._set(np.array(list(amplitudes), dtype=np.int64).reshape(len(amplitudes), 4),
                  np.array(list(amplitudes.values()), dtype=complex), cutoff)

    @classmethod
    def from_arrays(cls, occ: np.ndarray, amp: np.ndarray, cutoff: int) -> FockState4:
        """State on distinct rows occ with amplitudes amp, pruned like every state."""
        state = cls.__new__(cls)
        state._set(occ, amp, cutoff)
        return state

    def _set(self, occ, amp, cutoff):
        keep = np.abs(amp) >= PRUNE_THRESHOLD
        self.occ, self.amp, self.cutoff = occ[keep], amp[keep], cutoff

    @property
    def amplitudes(self) -> MappingProxyType:
        """Read-only map from FockIndex4 to amplitude, built on each access."""
        return MappingProxyType(dict(zip(map(FockIndex4._make, self.occ.tolist()),
                                         self.amp.tolist())))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2))

    def __len__(self) -> int:
        return len(self.amp)


def row_groups(rows: np.ndarray):
    """Number the distinct rows of a non-negative integer array by first
    appearance: each row's number, and ascending, the first row of each number."""
    key = np.ravel_multi_index(rows.T, rows.max(axis=0, initial=0) + 1)
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[label], np.sort(first)


def inner_product(a: FockState4, b: FockState4) -> complex:
    """Sesquilinear form <a|b> (conjugate-linear in the first argument)."""
    if a.cutoff != b.cutoff:
        raise ValueError(f"mode caps differ: {a.cutoff} vs {b.cutoff}")
    label, first = row_groups(np.concatenate([a.occ, b.occ]))
    va, vb = np.zeros((2, len(first)), dtype=complex)
    va[label[:len(a)]] = a.amp
    vb[label[len(a):]] = b.amp
    return complex(np.vdot(va, vb))


def fidelity(a: FockState4, b: FockState4) -> float:
    """|<a|b>|^2 normalized by both state norms."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity undefined for a zero state")
    return abs(inner_product(a, b)) ** 2 / (na * nb)


def number_expectation(state: FockState4, mode: str) -> float:
    """Mean photon number in one of the modes 1h, 1v, 2h, 2v."""
    pos = MODE_ORDER.index(mode)
    return float(np.sum(np.abs(state.amp) ** 2 * state.occ[:, pos]))


@lru_cache(maxsize=None)
def _pair_rotation(u_key: tuple, t: int) -> np.ndarray:
    """Unitary acting on the (t+1)-dim fixed-total subspace of a mode pair.

    D[p, m] is the amplitude of |p, t-p> in the image of |m, t-m>, for the
    creation-operator substitution bh+ -> u00 ch+ + u10 cv+,
    bv+ -> u01 ch+ + u11 cv+.  Writing u = exp(iH), D = exp(iG) with G the
    one-body generator sum_ab H_ab a_a+ a_b on the block: a Hermitian
    tridiagonal matrix, so D from its eigenbasis is unitary at every t.
    """
    h = -1j * logm(np.reshape(u_key, (2, 2)))
    p = np.arange(t + 1)
    gen = np.diag(p * h[0, 0].real + (t - p) * h[1, 1].real).astype(complex)
    hop = np.sqrt(p[1:] * (t - p[:-1])) * h[0, 1]   # <p+1, t-p-1| G |p, t-p>
    gen[p[1:], p[:-1]] = hop
    gen[p[:-1], p[1:]] = hop.conj()
    lam, vec = np.linalg.eigh(gen)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def rotate_mode_pair(state: FockState4, pair: str, u) -> FockState4:
    """Apply a 2x2 linear-optics unitary to a polarization mode pair.

    The transform acts on each fixed total occupation t of the pair through
    the (t+1)-dimensional representation of u; photon number in the pair and
    the overall norm are preserved.  Entries sharing the other pair's
    occupations and the total t form one group; the output lists the groups
    in order of first appearance, each with |p, t-p> for p = 0..t ascending.
    """
    u = PolarizationUnitary(u).matrix
    if pair not in MODE_PAIRS:
        raise ValueError(f"pair must be 'mode1' or 'mode2', got {pair!r}")
    i0, i1 = MODE_PAIRS[pair]
    rest = [j for j in range(4) if j not in (i0, i1)]
    u_key = tuple(complex(x) for x in u.ravel())

    m = state.occ[:, i0]
    t = m + state.occ[:, i1]
    group, heads = row_groups(np.column_stack([state.occ[:, rest], t]))
    width = t[heads] + 1
    start = np.cumsum(width) - width
    g_out = np.repeat(np.arange(len(heads)), width)

    # group g holds its block vector at start[g] .. start[g] + t
    vin = np.zeros(len(g_out), dtype=complex)
    vin[start[group] + m] = state.amp
    out = np.empty_like(vin)
    for w in np.unique(width):
        idx = start[width == w] + np.arange(w)[:, None]
        out[idx] = _pair_rotation(u_key, int(w) - 1) @ vin[idx]

    occ = state.occ[heads[g_out]]
    occ[:, i0] = np.arange(len(g_out)) - start[g_out]
    occ[:, i1] = width[g_out] - 1 - occ[:, i0]
    return FockState4.from_arrays(occ, out, state.cutoff)
