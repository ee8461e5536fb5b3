"""Truncated four-mode Fock space: sparse state vectors and mode algebra.

Modes are ordered (1h, 1v, 2h, 2v): horizontal/vertical polarization on the
two output spatial modes k1 and k2.  A state holds an (N, 4) array of
occupation rows and the N matching complex amplitudes; amplitudes below
PRUNE_THRESHOLD are dropped, and one of non-finite modulus raises
NumericalError.

A contraction of states (inner_product here, density.partial_trace) is a
plan that reads only the rows, applied to the amplitudes.  Two states on one
row array need no overlap plan; on two row sets the plan is the
intersection of their packed row keys, built per call.  The amplifier's
memoised rows keep their trace plans in their memo entry, and any other
rows are planned per call.
"""
from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np
import scipy

from .errors import NumericalError
from .polarization import PolarizationUnitary

MODE_PAIRS = {"mode1": (0, 1), "mode2": (2, 3)}

PRUNE_THRESHOLD = 1e-15


class FockState4:
    """Amplitudes amp (N complex) on distinct occupation rows occ (N x 4 int64);
    FockState4(mapping, cutoff) takes a map of (n1h, n1v, n2h, n2v) tuples to
    amplitudes, and .amplitudes gives one back.  Rows are never repeated, so
    two states' rows match one to one by their packed keys (row_keys)."""

    # the trace plans by kept mode of the amplifier's memoised rows, if held
    _plans = None

    def __init__(self, amplitudes: dict, cutoff: int):
        self._set(np.array(list(amplitudes), dtype=np.int64).reshape(len(amplitudes), 4),
                  np.array(list(amplitudes.values()), dtype=complex), cutoff)

    @classmethod
    def from_arrays(cls, occ: np.ndarray, amp: np.ndarray, cutoff: int) -> FockState4:
        """State on distinct rows occ with amplitudes amp, pruned like every
        state.  When nothing is pruned the state keeps the given arrays, not
        copies: a read-only occ, such as the amplifier's memoised rows, is
        shared."""
        state = cls.__new__(cls)
        state._set(occ, amp, cutoff)
        return state

    def _set(self, occ, amp, cutoff):
        mag = np.abs(amp)
        # a NaN fails the prune test and would vanish without a trace
        if not np.isfinite(mag).all():
            raise NumericalError("state has an amplitude of non-finite modulus")
        keep = mag >= PRUNE_THRESHOLD
        self.cutoff = cutoff
        if keep.all():
            self.occ, self.amp = occ, amp
        else:
            # compress, not occ[keep]: numpy's boolean row indexing of a 2-D
            # array is several times slower
            self.occ, self.amp = occ.compress(keep, axis=0), amp[keep]

    @property
    def amplitudes(self) -> MappingProxyType:
        """Read-only map from occupation tuple to amplitude, built on each access."""
        return MappingProxyType(dict(zip(map(tuple, self.occ.tolist()),
                                         self.amp.tolist())))

    def norm_sq(self) -> float:
        return float((np.abs(self.amp) ** 2).sum())

    def __len__(self) -> int:
        return len(self.amp)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of a non-negative integer array, ascending in the
    rows' lexicographic order: the row read as a mixed-radix number whose
    radix in each column is that column's maximum + 1.  Raises ValueError,
    rather than wrap, when the radices' product exceeds int64."""
    # one max per column: rows.max(axis=0) is a slow strided reduction
    radix = [int(col.max(initial=0)) + 1 for col in rows.T]
    if math.prod(radix) > np.iinfo(np.int64).max:
        raise ValueError(f"rows with column maxima {[r - 1 for r in radix]} "
                         "overflow an int64 key")
    return np.ravel_multi_index(rows.T, radix)


def row_groups(rows: np.ndarray):
    """Number the distinct rows of a non-negative integer array by first
    appearance: each row's number, and ascending, the first row of each number."""
    _, first, label = np.unique(row_keys(rows), return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[label], np.sort(first)


def _overlap_plan(occ_a, occ_b):
    """Row indices (ia, ib) of the rows both sets hold, ascending by key:
    np.intersect1d of the two sets' row_keys, taken on one radix.  Neither
    set repeats a row, so their keys are unique."""
    key = row_keys(np.concatenate([occ_a, occ_b]))
    return np.intersect1d(key[:len(occ_a)], key[len(occ_a):],
                          assume_unique=True, return_indices=True)[1:]


def inner_product(a: FockState4, b: FockState4) -> complex:
    """Sesquilinear form <a|b> (conjugate-linear in the first argument): one
    vdot over the rows the overlap plan matches, or all on one row array."""
    if a.cutoff != b.cutoff:
        raise ValueError(f"mode caps differ: {a.cutoff} vs {b.cutoff}")
    if a.occ is b.occ:
        return complex(np.vdot(a.amp, b.amp))
    ia, ib = _overlap_plan(a.occ, b.occ)
    return complex(np.vdot(a.amp[ia], b.amp[ib]))


def fidelity(a: FockState4, b: FockState4) -> float:
    """|<a|b>|^2 normalized by both state norms."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity undefined for a zero state")
    return abs(inner_product(a, b)) ** 2 / (na * nb)


def _pair_rotation(h: np.ndarray, t: int) -> np.ndarray:
    """Unitary acting on the (t+1)-dim fixed-total subspace of a mode pair.

    D[p, m] is the amplitude of |p, t-p> in the image of |m, t-m>, for the
    creation-operator substitution bh+ -> u00 ch+ + u10 cv+,
    bv+ -> u01 ch+ + u11 cv+, u = exp(ih).  D = exp(iG) with G the one-body
    generator sum_ab h_ab a_a+ a_b on the block, Hermitian tridiagonal:
    G = P S P^H with S real symmetric and P = diag(e^{i p arg h01}), so D
    from the eigenbasis of S is unitary at every t.
    """
    p = np.arange(t + 1)
    # G[p+1, p] = <p+1, t-p-1| G |p, t-p> = sqrt((p+1)(t-p)) h01
    lam, v = scipy.linalg.eigh_tridiagonal(
        p * h[0, 0].real + (t - p) * h[1, 1].real,
        np.sqrt(p[1:] * (t - p[:-1])) * abs(h[0, 1]))
    v = np.exp(1j * np.angle(h[0, 1]) * p)[:, None] * v    # P V
    return (v * np.exp(1j * lam)) @ v.conj().T


def rotate_mode_pair(state: FockState4, pair: str, u) -> FockState4:
    """Apply a 2x2 linear-optics unitary to a polarization mode pair; no other
    package code rotates a state, so this is the tests' rotation reference.

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
    h = -1j * scipy.linalg.logm(u)

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
        out[idx] = _pair_rotation(h, int(w) - 1) @ vin[idx]

    occ = state.occ[heads[g_out]]
    occ[:, i0] = np.arange(len(g_out)) - start[g_out]
    occ[:, i1] = width[g_out] - 1 - occ[:, i0]
    return FockState4.from_arrays(occ, out, state.cutoff)
