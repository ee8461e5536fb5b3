"""Amplified output states of the quantum-injected parametric amplifier.

The gain g alone fixes the constants (GainParams), the pair law
gamma^2 Gamma^(2n) (n+1)(n+2)/2 and, through its tail, the default cutoff.
The closed-form output for an injected single-photon qubit populates the
indices |i+1, j, j, i> (weighted by alpha) and |i, j+1, j, i> (weighted by
beta e^{i phi}) with amplitudes gamma (-Gamma)^i Gamma^j sqrt(i+1) and
gamma (-Gamma)^i Gamma^j sqrt(j+1).  An independent Hamiltonian propagator
cross-checks the closed form using only the interaction's symmetries: the
(1h, 2v) and (1v, 2h) pair couplings commute and each keeps its pair's
photon-number difference, so the evolution is a product of tridiagonal pair
chains.  Each chain links only even to odd pair numbers, so one SVD of that
bipartite half exponentiates it exactly, with numpy alone.

Both outputs are linear in the qubit alpha|H> + beta e^{i phi}|V>, and hold
amplitudes on the same rows: each is alpha times one ket on the first row of
each pair term plus beta e^{i phi} times another on the second, and the rows
and that per-row ket depend on the configuration alone.  amplify keeps its
rows and ket, propagate_hamiltonian its ket on amplify's rows, for the last
configuration used (one-entry memos of read-only arrays, 0.49 MB together at
HG, cutoff 100, and 48 MB at the top gain, cutoff 1000).  One builder scales
either ket by the qubit; both returned states share one row array, and its
trace plans (held in amplify's entry) while nothing is pruned.
"""
from __future__ import annotations

import bisect
import cmath
import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import NumericalError
from .fock import FockState4
from .polarization import Qubit

# the interaction transiently populates the truncation boundary
PROPAGATOR_PADDING = 8
# cutoff rule: the analytic pair-number tail beyond the cutoff must stay below this
TAIL_RULE = 1e-9


def as_int(value, name: str, low: int = 0, high: float = math.inf) -> int:
    """value as a Python int: TypeError unless it has an integer index but
    is no bool, ValueError unless it lies in low .. high."""
    try:    # numpy 1.x bools still have an index
        n = operator.index(None if isinstance(value, (bool, np.bool_)) else value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not low <= n <= high:
        raise ValueError(f"{name} must lie in {low} .. {high}, got {value}")
    return n


@dataclass(frozen=True)
class GainParams:
    """Amplifier constants derived from the dimensionless gain g alone."""

    g: float
    C: float = field(init=False)        # cosh g
    Gamma: float = field(init=False)    # tanh g
    gamma: float = field(init=False)    # cosh(g)**-3, overall amplitude prefactor
    nbar: float = field(init=False)     # sinh(g)**2, mean photon number per squeezed mode

    def __post_init__(self):
        if (isinstance(self.g, bool) or not isinstance(self.g, numbers.Real)
                or not 0 <= self.g < math.inf):
            raise ValueError(f"gain must be a finite non-negative real number, got {self.g!r}")
        g = float(self.g) + 0.0   # -0.0 + 0.0 is 0.0
        try:
            nbar = math.sinh(g) ** 2
        except OverflowError:
            nbar = math.inf
        if math.isinf(3 * nbar):   # the sum rule g2H + g2V = 3 nbar bounds every mean
            raise ValueError(
                f"gain {g:g} overflows 3 sinh(g)^2; the largest gain is about 355.035")
        C = math.cosh(g)
        for name, value in (("g", g), ("C", C), ("Gamma", math.tanh(g)),
                            ("gamma", C ** -3), ("nbar", nbar)):
            object.__setattr__(self, name, value)


def pair_tail(gain: GainParams, start: int) -> float:
    """Closed-form sum of the pair law gamma^2 Gamma^(2n) (n+1)(n+2)/2 over n >= start."""
    if start <= 0:
        return 1.0
    x = gain.Gamma ** 2
    if x == 0.0:
        return 0.0
    if x == 1.0:    # tanh g rounds to 1: no finite cutoff holds any weight
        return 1.0
    if start >= 2 ** 63:
        # x <= 1 - 2^-53, so x^start <= exp(-1024) is 0.0 and so is the
        # tail; a float of start, or of start^2, could overflow
        return 0.0
    m = start
    one = 1.0 - x
    # geometric sums of n^0, n^1, n^2 weights starting at n = m
    s0 = x ** m / one
    s1 = x ** m * (m - (m - 1) * x) / one ** 2
    s2 = x ** m * (m * m - (2 * m * m - 2 * m - 1) * x + (m - 1) ** 2 * x ** 2) / one ** 3
    return gain.gamma ** 2 * (s2 + 3 * s1 + 2 * s0) / 2


@dataclass(frozen=True)
class AmplifierConfig:
    gain: GainParams
    cutoff: int
    # analytic bound on the probability weight lost to truncation: the pair tail
    epsilon_trunc: float = field(init=False, compare=False)
    # the four-mode states and banded densities cost O(cutoff^2), pairs and the
    # Monte Carlo O(cutoff); 1000 holds g = 2.5 (988).  fringe reads no config
    MAX_CUTOFF: ClassVar[int] = 1000

    def __post_init__(self):
        object.__setattr__(self, "cutoff", as_int(self.cutoff, "cutoff"))
        if self.cutoff > self.MAX_CUTOFF:
            raise ValueError(
                f"cutoff {self.cutoff} (gain {self.gain.g:g}) exceeds MAX_CUTOFF "
                f"{self.MAX_CUTOFF}; the largest gain whose default cutoff fits "
                f"is g = {_largest_gain():.4f}")
        tail = pair_tail(self.gain, self.cutoff + 1)
        if tail >= TAIL_RULE:
            fix = ("increase the cutoff"
                   if pair_tail(self.gain, self.MAX_CUTOFF + 1) < TAIL_RULE else
                   f"no cutoff within MAX_CUTOFF {self.MAX_CUTOFF} holds gain "
                   f"{self.gain.g:g}; the largest gain whose default cutoff fits "
                   f"is g = {_largest_gain():.4f}")
            raise ValueError(
                f"cutoff {self.cutoff} leaves truncated pair weight {tail:.3e} "
                f">= {TAIL_RULE:g}; {fix}")
        object.__setattr__(self, "epsilon_trunc", tail)

    def check_lost_weight(self, lost: float, what: str) -> None:
        """Raise NumericalError unless a weight lost to truncation, named by
        what, lies in 0 .. epsilon_trunc, allowing 1e-12 of rounding at each end."""
        if not -1e-12 <= lost <= self.epsilon_trunc + 1e-12:
            raise NumericalError(
                f"{what}: {lost:.3e} lies outside 0 .. epsilon_trunc "
                f"({self.epsilon_trunc:.3e})")

    @classmethod
    def for_gain(cls, g: float, cutoff: int | None = None) -> "AmplifierConfig":
        """Config at gain g.  The default cutoff is the smallest that meets
        TAIL_RULE (floor of 12), bisected over 0 .. MAX_CUTOFF as the pair tail
        falls with its start; past MAX_CUTOFF it is MAX_CUTOFF + 1, rejected."""
        gain = GainParams(g)
        if cutoff is None:
            cutoff = max(bisect.bisect_left(
                range(cls.MAX_CUTOFF + 1), True,
                key=lambda c: pair_tail(gain, c + 1) < TAIL_RULE), 12)
        return cls(gain, cutoff)


def _largest_gain() -> float:
    """Largest gain whose tail rule MAX_CUTOFF meets, by bisection: the pair
    tail rises with g, and tanh g rounds to 1 by g = 20."""
    lo, hi = 0.0, 20.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        tail = pair_tail(GainParams(mid), AmplifierConfig.MAX_CUTOFF + 1)
        lo, hi = (mid, hi) if tail < TAIL_RULE else (lo, mid)
    return lo


def pair_weights(cfg: AmplifierConfig) -> np.ndarray:
    """gamma^2 Gamma^(2n), n = 0..cutoff: the pair law less its (n+1)(n+2)/2.
    Scalar pow, libm's: numpy's vector power runs SIMD kernels (AVX-512 among
    them) that round the last bit differently, so outputs would follow the CPU."""
    gp = cfg.gain
    return np.array([gp.gamma ** 2 * gp.Gamma ** (2 * n) for n in range(cfg.cutoff + 1)])


def _pair_amplitudes(cfg: AmplifierConfig, pref: float):
    """Pair terms (i, j), n = i + j then i ascending, and pref (-Gamma)^i Gamma^j
    (scalar pow, as pair_weights)."""
    n, i = np.tril_indices(cfg.cutoff + 1)
    gam = cfg.gain.Gamma
    powers = np.array([[(-gam) ** k, gam ** k] for k in range(cfg.cutoff + 1)])
    return i, n - i, pref * powers[i, 0] * powers[n - i, 1]


@functools.lru_cache(maxsize=1)
def _amplified_kets(cfg: AmplifierConfig):
    """The qubit-independent part of amplify: read-only rows occ, holding
    |i+1, j, j, i> and then |i, j+1, j, i> for each pair term (i, j), the
    read-only ket gamma (-Gamma)^i Gamma^j times sqrt(i+1) and then sqrt(j+1)
    on them, and a dict that traces fill with occ's plans by kept mode.  The
    memo keeps the last cfg."""
    i, j, base = _pair_amplitudes(cfg, cfg.gain.gamma)
    occ = np.column_stack([i + 1, j, j, i, i, j + 1, j, i]).reshape(-1, 4)
    ket = np.column_stack([base * np.sqrt(i + 1), base * np.sqrt(j + 1)]).reshape(-1)
    occ.setflags(write=False)
    ket.setflags(write=False)
    return occ, ket, {}


def _on_qubit(q: Qubit, cfg: AmplifierConfig, ket: np.ndarray) -> FockState4:
    """The state alpha ket (first rows) + beta e^{i phi} ket (second rows) of
    each pair term, on amplify's memoised rows, carrying their trace plans
    when nothing is pruned."""
    occ, _ket, plans = _amplified_kets(cfg)
    amp = np.tile(np.array([q.alpha, q.beta * cmath.exp(1j * q.phi)]), len(ket) // 2)
    amp *= ket
    state = FockState4.from_arrays(occ, amp, cfg.cutoff)
    if state.occ is occ:
        state._plans = plans
    return state


def amplify(q: Qubit, cfg: AmplifierConfig) -> FockState4:
    """Closed-form amplifier output for an injected qubit.

    Each pair term (i, j) gives |i+1, j, j, i> (alpha) and then |i, j+1, j, i> (beta).
    The output is linear in the qubit: it scales the memoised per-row ket of
    the configuration.
    """
    return _on_qubit(q, cfg, _amplified_kets(cfg)[1])


def vacuum_output(cfg: AmplifierConfig) -> FockState4:
    """Squeezed-vacuum output when the amplifier is fed no qubit."""
    i, j, amp = _pair_amplitudes(cfg, cfg.gain.C ** -2)
    return FockState4.from_arrays(np.column_stack([i, j, j, i]),
                                  amp.astype(complex), cfg.cutoff)


# creation-pair couplings (mode indices, sign): the (1h, 2v) pairs carry the
# opposite sign of the (1v, 2h) pairs, fixing the singlet phase so that the
# first-order amplitudes reproduce the closed form
_COUPLINGS = (((0, 3), -1.0), ((1, 2), +1.0))
# the injected photon's rows |1, 0, 0, 0> (alpha) and |0, 1, 0, 0> (beta e^{i phi})
_INJECTED = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
_INJECTED.setflags(write=False)


def _chain(cfg: AmplifierConfig, d: int) -> np.ndarray:
    """Amplitudes on |d+k, k>, k <= cutoff + PROPAGATOR_PADDING, of a +1
    coupling's pair after time g from |d, 0>.  The coupling keeps d; its
    generator is K = -i D T D^-1, D = diag(i^k), with T the symmetric chain whose
    e_k = sqrt(k(k+d)) links k - 1 to k.  T links even k to odd k only, so
    T = [[0, B], [B^T, 0]] and, with B = U Sigma V^T, exp(-igT) e_0 is
    U cos(g Sigma) U[0] on even k (the full U gives an odd chain's extra null
    vector cos 0 = 1) and -i V sin(g Sigma) U[0] on odd k; D makes both real.
    The weight beyond the cutoff is a marginal of the pair-number tail, so it
    may not exceed epsilon_trunc."""
    length, g = cfg.cutoff + PROPAGATOR_PADDING + 1, cfg.gain.g
    k = np.arange(1, length)
    e, half = np.sqrt(k * (k + d)), np.zeros(((length + 1) // 2, length // 2))
    np.fill_diagonal(half, e[0::2])       # B[m, m] = e_{2m+1}
    np.fill_diagonal(half[1:], e[1::2])   # B[m+1, m] = e_{2m+2}
    u, sigma, vt = np.linalg.svd(half)
    psi = np.empty(length)
    psi[0::2] = u @ (np.cos(g * np.pad(sigma, (0, len(u) - len(sigma)))) * u[0])
    psi[1::2] = vt.T @ (np.sin(g * sigma) * u[0, :len(sigma)])
    psi *= (-1.0) ** (np.arange(length) // 2)
    cfg.check_lost_weight(psi[cfg.cutoff + 1:] @ psi[cfg.cutoff + 1:],
                          "weight of the pair chain beyond the cutoff")
    return psi


@functools.lru_cache(maxsize=1)
def _evolved_kets(cfg: AmplifierConfig) -> np.ndarray:
    """The qubit-independent part of propagate_hamiltonian: one ket, the
    product of the two couplings' chain factors, holding both injected rows'
    evolved kets laid out as amplify's rows (pair term by pair term, the two
    alternating).  The evolved rows must equal _amplified_kets' rows, or
    NumericalError is raised.  Two chain solves per configuration; read-only;
    the memo keeps the last cfg."""
    pair = np.eye(4, dtype=np.int64)[[ab for ab, _sign in _COUPLINGS]].sum(axis=1)
    n, i = np.tril_indices(cfg.cutoff + 1)
    k = np.column_stack([i, n - i])   # k[:, c] pairs of coupling c, at most cutoff in all
    evolved = (_INJECTED + (k @ pair)[:, None]).reshape(-1, 4)
    if not np.array_equal(evolved, _amplified_kets(cfg)[0]):
        raise NumericalError("the propagated rows are not the closed form's rows")
    chains = [_chain(cfg, d) for d in (0, 1)]   # an injected row has d = 0 or 1
    pairs = np.arange(chains[0].size)
    f1, f2 = (np.column_stack([(sign ** pairs * chains[seed[a] - seed[b]])[k[:, c]]
                               for seed in _INJECTED]).reshape(-1)
              for c, ((a, b), sign) in enumerate(_COUPLINGS))
    ket = f1 * f2
    ket.setflags(write=False)
    return ket


def propagate_hamiltonian(q: Qubit, cfg: AmplifierConfig) -> FockState4:
    """Numerically integrate the two-pair squeezing interaction for time g.

    The couplings act on disjoint mode pairs, so they commute, and each keeps
    its pair's photon-number difference d (0 or 1 for the injected photon, any
    excess in the pair's first mode).  So each injected row evolves into a
    product of one chain |d+k, k> per coupling, truncated at
    cutoff + PROPAGATOR_PADDING pairs and exponentiated exactly.  Negating a
    coupling is the gauge diag((-1)^k) on its chain, so the chains of both
    signs come from one solve per d.  Each chain's weight beyond the cutoff
    is checked against the pair-number tail; the product is truncated back
    to the cutoff.  The evolution is linear in the qubit: it scales the
    memoised evolved ket of the configuration, on amplify's rows.
    """
    if cfg.gain.g == 0.0:
        amp0 = np.array([q.alpha, q.beta * cmath.exp(1j * q.phi)])
        return FockState4.from_arrays(_INJECTED, amp0, cfg.cutoff)
    return _on_qubit(q, cfg, _evolved_kets(cfg))
