"""Test-side references: the linear search for the default cutoff, the pair
law and its tail in extended precision, a state's mean photon number per
mode, the enumerated Monte Carlo outcome law, the oracle of PulseSampler's
closed form, and the draw of a point's totals as one broadcast multinomial
over all six term-axes, which PulseSampler.sample_chunk must match draw for
draw.

The detected law lists the photon numbers behind the analyzer cell by cell,
and the outcome law weighs every cell by its gate probability and thins both
mode-2 axes by the binomial matrix of outcome given photon number.  It costs
O(cutoff^3); the package holds the same law factored per axis, in O(cutoff),
and grid_law multiplies that out onto the grid the enumeration fills.
"""
from __future__ import annotations

import math

import numpy as np

from qiopa.amplifier import TAIL_RULE, AmplifierConfig, GainParams, pair_tail, pair_weights
from qiopa.density import _flat_index
from qiopa.polarization import Qubit


def linear_cutoff(g: float) -> int:
    """AmplifierConfig.for_gain's default cutoff by linear search: the first
    cutoff from 0 whose pair tail meets TAIL_RULE (floor of 12), or
    MAX_CUTOFF + 1 when none up to MAX_CUTOFF does."""
    gain = GainParams(g)
    cutoff = 0
    while cutoff <= AmplifierConfig.MAX_CUTOFF and pair_tail(gain, cutoff + 1) >= TAIL_RULE:
        cutoff += 1
    return max(cutoff, 12)


def pair_law(cfg: AmplifierConfig) -> np.ndarray:
    """The pair law p_n = gamma^2 Gamma^(2n) (n+1)(n+2)/2, n = 0..cutoff, as
    the pairs command computes it: pair_weights times (n+1)(n+2)/2."""
    n = np.arange(cfg.cutoff + 1)
    return pair_weights(cfg) * (n + 1) * (n + 2) / 2


def exact_tail(mp, g: float, start: int):
    """The pair law summed over n >= start in mpmath, the module mp passed in
    at the caller's precision, with x^start taken out so that each term is
    sized against the first."""
    x = mp.tanh(mp.mpf(g)) ** 2
    return mp.sech(mp.mpf(g)) ** 6 * x ** start * mp.nsum(
        lambda k: (start + k + 1) * (start + k + 2) / 2 * x ** k, [0, mp.inf])


def photon_number(state, column: int) -> float:
    """Mean photon number of a FockState4 in mode column 0..3 (1h, 1v, 2h, 2v)."""
    return float(np.sum(np.abs(state.amp) ** 2 * state.occ[:, column]))


def detected_law(q: Qubit | None, cfg: AmplifierConfig):
    """Closed-form joint law of the photon numbers detected behind the analyzer
    on both output modes, for an injected qubit q or, with q None, for the
    squeezed vacuum.

    The analyzer rotates both mode pairs, so by the amplifier's SU(2)
    covariance the output is amplify(U q), whose pair term (i, j) puts
    h = j photons in 2H and n - h = i in 2V, and mode 1 one clone photon
    ahead: (n - h + 1, h) with weight (1 - a) w_n (n - h + 1), or
    (n - h, h + 1) with weight a w_n (h + 1), where w_n = gamma^2 Gamma^(2n)
    and a = 1/2 + alpha beta cos phi.  The mode-2 marginal is the analyzed
    universal-NOT law w_n (1 + a h + (1 - a)(n - h)).  The squeezed vacuum
    is invariant: mode 1 holds (n - h, h) with weight C^-4 Gamma^(2n).

    Returns the mode-2 numbers (h, n - h) as two int64 arrays, n = 0..cutoff
    then h ascending, and one (mode-1 numbers (n1H, n1V), probabilities) pair
    per clone branch on those cells.
    """
    n, h = _flat_index(cfg.cutoff + 1)
    w = pair_weights(cfg)[n]
    if q is None:
        return (h, n - h), (((n - h, h), w * cfg.gain.C ** 2),)
    # a is a probability; rounding can put it one ulp outside [0, 1]
    a = min(max(0.5 + q.alpha * q.beta * math.cos(q.phi), 0.0), 1.0)
    return (h, n - h), (((n - h + 1, h), (1.0 - a) * w * (n - h + 1)),
                        ((n - h, h + 1), a * w * (h + 1)))


def thinning(cutoff: int, eta: float, dark: float) -> np.ndarray:
    """B[o, n]: probability of outcome o of one threshold detector fed n
    photons, each surviving with probability eta, with dark counts.  The
    binomial law of s survivors comes from Pascal's recurrence, each entry a
    convex combination of two non-negative ones, so it stays accurate in n.
    Subnormal entries are flushed to 0: they change no product by more than
    1e-300, and they slow enumerated_law's products at cutoff 1000."""
    pmf = np.zeros((cutoff + 1, cutoff + 1))    # pmf[n, s]
    pmf[0, 0] = 1.0
    for n in range(1, cutoff + 1):
        pmf[n] = (1.0 - eta) * pmf[n - 1]
        pmf[n, 1:] += eta * pmf[n - 1, :-1]
    pmf = pmf.T
    thin = np.vstack([pmf[0] * (1.0 - dark), pmf[0] * dark, pmf[1:]])
    thin[thin < np.finfo(float).tiny] = 0.0
    return thin


def enumerated_law(q: Qubit, cfg: AmplifierConfig, det, thin: np.ndarray) -> np.ndarray:
    """grid_law(PulseSampler(q, cfg, det)) by enumeration: each branch of each
    source, normalised over the truncated cells, weighs in with its gate
    probability; the branches are summed onto (n2H, n2V) and both axes are
    thinned by thin, thinning(cfg.cutoff, qe * attenuation, dark_rate), then
    one sink cell takes every other pulse.  The herald is a constant factor
    that the caller applies, so a mask holding D_T raises ValueError."""
    mask = det.coincidence_mask
    if "D_T" in mask:
        raise ValueError("enumerated_law takes no D_T; apply the herald to its cells")
    eta, dark = det.qe * det.attenuation, det.dark_rate
    top = cfg.cutoff + 1        # photon numbers 0..cutoff on each mode-2 axis
    # a mode-1 detector's click probability given k photons, k <= cutoff + 1
    clicks = np.array([1.0 - (1.0 - eta) ** k * (1.0 - dark) for k in range(top + 1)])
    gated = np.zeros(top * top)
    for label, source, share in (("injected", q, det.p_inject),
                                 ("vacuum", None, 1.0 - det.p_inject)):
        (h, v), branches = detected_law(source, cfg)
        total = sum(p.sum() for _mode1, p in branches)
        cfg.check_lost_weight(1.0 - total, f"weight the {label} sampling table drops")
        cell = h * top + v
        for mode1, p in branches:
            weight = share * (p / total)
            for d, n1 in zip(("D1", "D1*"), mode1):
                if d in mask:
                    weight = weight * clicks[n1]
            gated += np.bincount(cell, weight, minlength=top * top)
    joint = thinned_joint(thin, gated.reshape(top, top))
    return np.append(joint.ravel(), 1.0 - joint.sum())


def thinned_joint(thin: np.ndarray, gated: np.ndarray) -> np.ndarray:
    """thin @ gated @ thin.T, for photon numbers gated[h, v] that are 0 for
    h + v > cutoff, without multiplying the zero blocks: column v of gated is
    0 from row top - v on, and column o of (thin @ gated).T from row
    top + 1 - o on."""
    top = len(gated)
    left = _thinned_product(thin, gated, lambda v: top - v)
    return _thinned_product(thin, left.T, lambda o: min(top, top + 1 - o)).T


def _thinned_product(thin: np.ndarray, m: np.ndarray, depth) -> np.ndarray:
    """thin @ m for a thinning matrix thin and an m whose column j is 0 from
    row depth(j) on, depth falling in j.  Row 1 + s of thin is 0 before column
    s, so the block of rows r.. and columns j.. of the product needs only
    columns r - 1 .. depth(j) of thin: the zero blocks are not multiplied."""
    out = np.zeros((thin.shape[0], m.shape[1]))
    for j in range(0, m.shape[1], 128):
        d = depth(j)
        for r in range(0, d + 1, 128):
            n = max(r - 1, 0)
            out[r:r + 128, j:j + 128] = thin[r:r + 128, n:d] @ m[n:d, j:j + 128]
    return out


def grid_law(sampler) -> np.ndarray:
    """The sampler's outcome law on the (cutoff + 2)^2 grid of (oH, oV),
    flattened, then the sink: each term's 2 x 2 cells spread over the grid
    by its two axes' conditional non-zero outcome laws."""
    side = sampler.axes.shape[1] + 1
    spread = np.zeros((6, 2, side))     # [term-axis, z, o]
    spread[:, 0, 0] = 1.0
    spread[:, 1, 1:] = sampler.axes
    cells = sampler.cells[:-1].reshape(3, 2, 2)
    joint = sum(spread[t].T @ cells[t] @ spread[3 + t] for t in range(3))
    return np.append(joint.ravel(), sampler.cells[-1])


def per_pulse_totals(sampler) -> np.ndarray:
    """f[i, cell]: the i-th of the sampler's eight totals for one pulse in
    each cell of grid_law(sampler); the sink counts in none."""
    side = sampler.axes.shape[1] + 1
    oh, ov = np.divmod(np.arange(side * side), side)
    sh, sv = np.maximum(oh - 1, 0), np.maximum(ov - 1, 0)
    mask = sampler.det.coincidence_mask
    coincident = ((oh > 0) | ("D2" not in mask)) & ((ov > 0) | ("D2*" not in mask))
    f = np.zeros((8, side * side + 1))
    f[:, :-1] = [oh > 0, ov > 0, coincident, np.ones_like(oh), sh, sh ** 2, sv, sv ** 2]
    return f


def broadcast_totals(sampler, rng: np.random.Generator, n: int) -> np.ndarray:
    """The eight int64 totals of n pulses, as sample_chunk's per-axis draws
    must give them: one multinomial of n over the cells, then one multinomial
    call with the six term-axes as rows.  A row with a zero count draws
    nothing from the stream."""
    mask = sampler.det.coincidence_mask
    cells = rng.multinomial(n, sampler.cells)[:-1].reshape(3, 2, 2)
    clicks_h, clicks_v = cells[:, 1, :].sum(axis=1), cells[:, :, 1].sum(axis=1)
    outcomes = rng.multinomial(np.concatenate([clicks_h, clicks_v]), sampler.axes)
    (s1h, s2h), (s1v, s2v) = (outcomes @ sampler.moments).reshape(2, 3, 2).sum(axis=1)
    coincident = cells[:, int("D2" in mask):, int("D2*" in mask):].sum()
    return np.array([clicks_h.sum(), clicks_v.sum(), coincident, cells.sum(),
                     s1h, s2h, s1v, s2v])
