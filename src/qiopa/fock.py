"""Truncated four-mode Fock space: sparse state vectors and mode algebra.

Modes are ordered (1h, 1v, 2h, 2v): horizontal/vertical polarization on the
two output spatial modes k1 and k2.  States are sparse maps from occupation
tuples to complex amplitudes; amplitudes below PRUNE_THRESHOLD are dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


@dataclass
class FockState4:
    """Sparse complex amplitude map over four-mode occupation numbers."""

    amplitudes: dict
    cutoff: int

    def __post_init__(self):
        self.amplitudes = {
            FockIndex4(*k): complex(v)
            for k, v in self.amplitudes.items()
            if abs(v) >= PRUNE_THRESHOLD
        }

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def __len__(self) -> int:
        return len(self.amplitudes)


def inner_product(a: FockState4, b: FockState4) -> complex:
    """Sesquilinear form <a|b> (conjugate-linear in the first argument)."""
    if a.cutoff != b.cutoff:
        raise ValueError(f"mode caps differ: {a.cutoff} vs {b.cutoff}")
    if len(b.amplitudes) < len(a.amplitudes):
        return inner_product(b, a).conjugate()
    return sum(
        amp.conjugate() * b.amplitudes[idx]
        for idx, amp in a.amplitudes.items()
        if idx in b.amplitudes
    )


def fidelity(a: FockState4, b: FockState4) -> float:
    """|<a|b>|^2 normalized by both state norms."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity undefined for a zero state")
    return abs(inner_product(a, b)) ** 2 / (na * nb)


def number_expectation(state: FockState4, mode: str) -> float:
    """Mean photon number in one of the modes 1h, 1v, 2h, 2v."""
    pos = MODE_ORDER.index(mode)
    return sum(abs(a) ** 2 * idx[pos] for idx, a in state.amplitudes.items())


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
    the overall norm are preserved.
    """
    u = PolarizationUnitary(u).matrix
    if pair not in MODE_PAIRS:
        raise ValueError(f"pair must be 'mode1' or 'mode2', got {pair!r}")
    i0, i1 = MODE_PAIRS[pair]
    u_key = (complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]))

    groups: dict = {}
    for idx, amp in state.amplitudes.items():
        rest = tuple(idx[j] for j in range(4) if j not in (i0, i1))
        groups.setdefault((rest, idx[i0] + idx[i1]), []).append((idx[i0], amp))

    out: dict = {}
    for (rest, t), entries in groups.items():
        vin = np.zeros(t + 1, dtype=complex)
        for m, amp in entries:
            vin[m] += amp
        vout = _pair_rotation(u_key, t) @ vin
        for p in np.nonzero(np.abs(vout) >= PRUNE_THRESHOLD)[0]:
            occ = [0, 0, 0, 0]
            occ[i0], occ[i1] = int(p), t - int(p)
            rit = iter(rest)
            for j in range(4):
                if j not in (i0, i1):
                    occ[j] = next(rit)
            key = FockIndex4(*occ)
            out[key] = out.get(key, 0.0) + vout[p]
    return FockState4(out, state.cutoff)
