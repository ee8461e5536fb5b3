"""Pulsed conditional-detection Monte Carlo over the amplified states.

Each pulse either carries the heralded qubit into the amplifier (with
probability p_inject) or produces squeezed vacuum.  Its photon numbers
behind the 45-degree analyzer are thinned binomially by the attenuation and
detector efficiency, and threshold detectors click on at least one survivor
(or a dark count).  Behind the analyzer, both mode-2 photon numbers and
the D1 and D1* gates on mode 1 factor into geometric laws, one per mode-2
axis, which binomial thinning keeps geometric; so every mask's outcome law
is one closed form.

Every statistic of a run sums, over independent pulses, a function of one
per-pulse outcome: whether the gate passed and what D2 and D2* saw.  Within
each of the law's three terms the two axes are independent, so a point of n
pulses is a few multinomial draws: one of n over the 13 cells (term, D2
clicked, D2* clicked, and a sink for gated-out pulses), then one for each
term-axis that clicked, of its clicks over that axis's outcomes.  The
totals, Python ints, have the same law as n single-pulse draws, and the
sampler holds O(cutoff) numbers.  The per-axis laws read no qubit: memoised
under (Gamma^2, C^-2, cutoff, eta, dark rate, D1 and D1* gates) and shared
read-only, they leave a sweep point only its 13 cells to build, in Python
floats.  A single point draws from the stream numpy's SeedSequence(seed)
seeds into PCG64, and point i of a sweep from SeedSequence(seed,
spawn_key=(i,)); the hash runs on Python ints, so runs are reproducible.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .amplifier import ROUNDING_SLACK, AmplifierConfig
from .errors import NumericalError, as_int, as_real
from .observables import visibility
from .polarization import BlochPath, Qubit

DETECTORS = ("D_T", "D2", "D2*", "D1", "D1*")
DETECTOR_SET = frozenset(DETECTORS)
FULL_PERIOD_TOL = 1e-3   # relative slack of a sweep's period against 2 pi
CALIBRATION_SWEEP_POINTS = 12   # phases of calibrate_visibility_loss's one sweep
INT64_MAX = 2 ** 63 - 1     # numpy's draws and survivor sums are int64
# numpy.random.SeedSequence's hash: a pool of four 32-bit words, the entropy
# hashed in with INIT_A/MULT_A and mixed with MIX_L/MIX_R, the state hashed
# out with INIT_B/MULT_B, each hash and mix ending in a 16-bit xorshift
MASK32, POOL = 0xFFFFFFFF, 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class DetectorConfig:
    """The detection stage: each rate a real in 0 .. 1, stored as a Python float
    (-0.0 as 0.0); the mask, names from DETECTORS but no string, as a frozenset;
    pulses per point, 1 .. INT64_MAX, and the seed, at least 0, as Python ints."""

    qe: float = 0.18
    attenuation: float = 1.0
    dark_rate: float = 0.0
    p_inject: float = 1.0
    coincidence_mask: frozenset = frozenset({"D_T", "D2"})
    pulses: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("qe", "attenuation", "dark_rate", "p_inject"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, 0.0, 1.0))
        mask = self.coincidence_mask
        if type(mask) is not frozenset:
            try:    # a string is not its characters; None, 5 or [["D2"]] fail in frozenset
                mask = frozenset(None if isinstance(mask, str) else mask)
            except TypeError:
                raise TypeError("coincidence_mask must be a collection of names, "
                                f"got {mask!r}") from None
            object.__setattr__(self, "coincidence_mask", mask)
        if not mask <= DETECTOR_SET:
            error = ValueError if all(isinstance(m, str) for m in mask) else TypeError
            raise error(f"coincidence_mask must name detectors of {DETECTORS}, "
                        f"got {', '.join(sorted(map(repr, mask - DETECTOR_SET)))}")
        object.__setattr__(self, "pulses", as_int(self.pulses, "pulses", 1, INT64_MAX))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))


@dataclass(frozen=True)
class RunStats:
    """One point's counts and estimates, as Python ints and floats."""

    pulses: int
    counts_h: int               # [D2, D_T] gated coincidences
    counts_v: int               # [D2*, D_T] gated coincidences
    coincidences: int           # full-mask AND
    xi_h: float
    xi_v: float
    stderr_xi_h: float
    stderr_xi_v: float
    mean_photons_h: float       # surviving-photon mean on gated pulses
    mean_photons_v: float
    stderr_mean_h: float
    stderr_mean_v: float


@dataclass(frozen=True)
class SweepStats:
    angles: tuple
    points: tuple
    visibility: float
    visibility_stderr: float
    null_pvalue: float          # chi-square test of channel symmetry


class PulseSampler:
    """The exact per-pulse outcome law of one (qubit, amplifier, detector) setup,
    held per axis.

    A pulse contributes to a run through the outcome (oH, oV) of D2 and D2*
    on a gated pulse, each o one of 0 no click, 1 a dark click with no
    survivor, 1 + s for s >= 1 survivors, or through the sink when the gate
    rejects it.

    Behind the analyzer the injected pulse holds (n2H, n2V) = (h, v) with
    mode 1 one clone photon ahead: weight (1 - a) gamma^2 x^(h+v) (v + 1)
    with mode 1 at (v + 1, h), or a gamma^2 x^(h+v) (h + 1) at (v, h + 1),
    where x = Gamma^2 and a = 1/2 + alpha beta cos phi.  The squeezed vacuum
    holds C^-4 x^(h+v) at (v, h).  Each of the three terms is a product over
    the two axes of (k + 1)^tilt x^k on k photons, and so are its gates: the
    herald at D_T is a constant, and D1 (D1*) sees the k + tilt photons of
    mode 1's H (V) on the V (H) axis and passes them with probability
    1 - (1 - dark)(1 - eta)^(k + tilt), the plain law less one of ratio
    (1 - eta) x.  Binomial thinning keeps each such law in closed form
    (_thinned_geometric), so the gated law is sum_t c_t u_t (x) w_t over
    the three terms, and it is held in that factored form:

    cells[4 t + 2 zH + zV] is the probability that a pulse is gated in term
    t with D2 clicked iff zH and D2* clicked iff zV: c_t times the mass of
    u_t on oH = 0 (zH = 0) or oH > 0 (zH = 1) times that of w_t on oV;
    cells[12] is the sink.  axes[i] is the law of the outcomes 1 .. cutoff + 1
    of term-axis i given a click: H of terms 0, 1, 2, then V of terms 0, 1,
    2.  Each axis holds survivors up to the cutoff; the gated mass beyond it
    is at most the pair tail epsilon_trunc and goes to the sink.  Memory is
    O(cutoff).

    Only c_t reads the qubit.  The axes, their masses and moments depend on
    (Gamma^2, C^-2, cutoff, eta, dark, D1/D1* gates) alone, the key under
    which _axis_laws memoises them read-only, so a sampler computes only c_t,
    its 13 cells from the memo's mass table and both NumericalError checks.

    A run's survivor sums are int64 and reach pulses * cutoff^2, so a
    sampler refuses a pulse count past INT64_MAX // cutoff^2.
    """

    def __init__(self, q: Qubit, cfg: AmplifierConfig, det: DetectorConfig):
        if det.pulses * cfg.cutoff * cfg.cutoff > INT64_MAX:
            raise ValueError(
                f"{det.pulses} pulses can overflow the int64 survivor sums at cutoff "
                f"{cfg.cutoff}; the largest pulse count is {INT64_MAX // cfg.cutoff ** 2}")
        self.det = det
        mask = det.coincidence_mask
        table, both, self.axes, self.moments = _axis_laws(
            cfg.gain.Gamma ** 2, cfg.gain.C ** -2, cfg.cutoff, det.qe * det.attenuation,
            det.dark_rate, "D1*" in mask, "D1" in mask)
        herald = 1.0 - (1.0 - det.qe) * (1.0 - det.dark_rate) if "D_T" in mask else 1.0
        # a is a probability; rounding can put it one ulp outside [0, 1]
        a = 0.5 + q.alpha * q.beta * math.cos(q.phi)
        if not 0.0 <= a <= 1.0:
            a = min(max(a, 0.0), 1.0)
        gamma2 = cfg.gain.gamma ** 2
        c = (herald * (det.p_inject * (1.0 - a) * gamma2),
             herald * (det.p_inject * a * gamma2),
             herald * ((1.0 - det.p_inject) * cfg.gain.C ** -4))
        cells = []      # [4 t + 2 zH + zV]
        for t, zh, zv in table:
            cells.append((c[t] * zh) * zv)
        passed = c[0] * both[0] + c[1] * both[1] + c[2] * both[2]
        gated = math.fsum(cells)
        if gated > 1.0 + ROUNDING_SLACK:
            raise NumericalError(f"outcome law holds gated weight {gated!r} > 1")
        cfg.check_lost_weight(passed - gated, "gated weight the outcome law drops")
        if gated > 1.0:     # a cell holding the whole law can round past 1
            for i in range(12):
                cells[i] = min(cells[i], 1.0)
        cells.append(1.0 - gated if gated < 1.0 else 0.0)
        self.cells = np.array(cells)

    def sample_chunk(self, rng: np.random.Generator, n: int) -> tuple:
        """The eight totals of n pulses, as Python ints: [D2, D_T] and
        [D2*, D_T] counts, coincidences, gated pulses, and the sums of s and
        s^2 of each channel's survivors.  One multinomial puts the pulses on
        the cells, then one per term-axis with a non-zero count, in axis
        order, puts its clicks on its outcomes."""
        mask = self.det.coincidence_mask
        c = rng.multinomial(n, self.cells).tolist()     # [4 t + 2 zH + zV], then sink
        # a cell is coincident when every one of D2 and D2* in the mask clicked in it
        need = 2 * ("D2" in mask) + ("D2*" in mask)
        coincident = 0
        for i in range(need, 12):
            if i & need == need:
                coincident += c[i]
        out = [0, 0, coincident, n - c[12], 0, 0, 0, 0]     # the sink holds the rest
        # the clicks of the term-axes H0, H1, H2, V0, V1, V2
        clicks = (c[2] + c[3], c[6] + c[7], c[10] + c[11], c[1] + c[3], c[5] + c[7], c[9] + c[11])
        for i in range(6):
            k = clicks[i]
            if k:   # a zero count would draw nothing from the stream either
                v = i // 3
                s1, s2 = rng.multinomial(k, self.axes[i]).dot(self.moments).tolist()
                out[v] += k
                out[4 + 2 * v] += s1
                out[5 + 2 * v] += s2
        return tuple(out)


@functools.lru_cache(maxsize=1)
def _axis_laws(x: float, rest: float, cutoff: int, eta: float, dark: float,
               gate_h: bool, gate_v: bool):
    """The qubit-independent part of a PulseSampler: (table, both, axes,
    moments) of the six term-axes, H of terms 0, 1, 2 then V, at pair ratio
    x = Gamma^2, rest = C^-2 = 1 - x, with the H axes gated by D1* iff gate_h
    and the V axes by D1 iff gate_v.

    table[4 t + 2 zH + zV] is (t, the mass of term t's H axis on zH, that of
    its V axis on zV), z = 0 no click and 1 a click, and both[t] the product
    of the two axes' closed-form total masses, all Python floats; axes[i] is
    the law of term-axis i given a click and moments the survivors s and s^2
    of each outcome.  A sweep's points share one key, so the memo keeps only
    the last; its arrays are shared and read-only."""
    # 1 - (1 - eta) x, summed without cancellation
    lost_rest = rest + eta * x
    plain = [_thinned_geometric(x, rest, t, eta, dark, cutoff) for t in (0, 1)]
    # the law a D1 or D1* gate subtracts; no gate, no vector
    lost = [_thinned_geometric((1.0 - eta) * x, lost_rest, t, eta, dark, cutoff)
            for t in (0, 1)] if gate_h or gate_v else None

    def axis(tilt: int, gated: bool):
        """One axis of one term: its outcome vector and its total mass."""
        vec, mass = plain[tilt], rest ** -(1 + tilt)
        if gated:
            f = (1.0 - dark) * (1.0 - eta) ** tilt
            # where the gate cannot pass, the difference is 0 up to rounding
            vec = np.maximum(vec - f * lost[tilt], 0.0)
            mass -= f * lost_rest ** -(1 + tilt)
        return vec, mass

    # term 0 tilts its V axis, term 1 its H axis, the vacuum term neither
    rows = [axis(tilt, gate_h) for tilt in (0, 1, 0)] + [
        axis(tilt, gate_v) for tilt in (1, 0, 0)]
    vecs = np.array([vec for vec, _mass in rows])
    both = tuple(rows[t][1] * rows[t + 3][1] for t in range(3))
    nonzero = vecs[:, 1:].sum(axis=1)
    split = tuple(zip(vecs[:, 0].tolist(), nonzero.tolist()))     # [term-axis][z]
    table = tuple((t, zh, zv) for t in range(3) for zh in split[t] for zv in split[t + 3])
    # an axis that cannot click keeps a zero row; it never draws a pulse
    axes = np.divide(vecs[:, 1:], nonzero[:, None],
                     out=np.zeros_like(vecs[:, 1:]), where=nonzero[:, None] > 0)
    s = np.arange(cutoff + 1)
    moments = np.column_stack([s, s * s])      # survivors s and s^2
    axes.flags.writeable = moments.flags.writeable = False
    return table, both, axes, moments


def _thinned_geometric(z: float, rest: float, tilt: int, eta: float, dark: float,
                       cutoff: int) -> np.ndarray:
    """Outcomes 0 (no click), 1 (dark click only) and 1 + s, s = 1..cutoff
    survivors, of a threshold detector fed the photon weights (k + 1)^tilt z^k,
    k >= 0, each photon kept with probability eta; rest = 1 - z.

    Thinning z^k gives rho^s / d, with d = 1 - (1 - eta) z and rho = eta z / d;
    the tilt (k + 1) gives (s + 1) rho^s / d^2.  The entries sum to
    1 / rest^(1 + tilt) less the survivors beyond the cutoff."""
    d = rest + eta * z
    ratio = eta * z / d
    p = np.array([ratio ** s for s in range(cutoff + 1)]) / d    # scalar pow, as pair_weights
    if tilt:
        p *= np.arange(1, cutoff + 2) / d
    return np.concatenate(([p[0] * (1.0 - dark), p[0] * dark], p[1:]))


@functools.cache
def _seed_class():
    """numpy's SeedSequence hash on Python ints: IntSeedSequence(seed, index)
    seeds PCG64 with the stream of sweep point index, or of a single point
    for None, and generates uint64 words only, the one request PCG64 makes.

    Each hash multiplies by a fixed sequence h_k = INIT * MULT^k mod 2^32,
    tabulated here once for up to eight seed and index words and for PCG64's
    four words (longer ones build their own).  Built on first use, so that
    importing the package does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    def hashes(init: int, mult: int, n: int) -> list:
        """h_k = init * mult^k mod 2^32 for k = 0 .. n."""
        return [init * pow(mult, k, 1 << 32) & MASK32 for k in range(n + 1)]

    hash_in, hash_out = hashes(INIT_A, MULT_A, POOL * (POOL + 4)), hashes(INIT_B, MULT_B, 8)

    class IntSeedSequence(ISeedSequence):
        def __init__(self, seed: int, index: int | None):
            # 32-bit words, little-endian: the seed's, padded to the pool, then the index's
            pool = [seed & MASK32, seed >> 32 & MASK32, seed >> 64 & MASK32, seed >> 96 & MASK32]
            rest = seed >> 32 * POOL
            while rest:
                pool.append(rest & MASK32)
                rest >>= 32
            if index is not None:
                pool += [index >> s & MASK32 for s in range(0, index.bit_length() or 1, 32)]
            h = hash_in if len(pool) <= 2 * POOL else hashes(INIT_A, MULT_A, POOL * len(pool))
            for i in range(POOL):
                value = (pool[i] ^ h[i]) * h[i + 1] & MASK32
                pool[i] = value ^ value >> 16
            # hash each other pool word, then each word past the pool, into each pool word
            k = POOL
            for src in range(len(pool)):
                for dst in range(POOL):
                    if src != dst:
                        value = (pool[src] ^ h[k]) * h[k + 1] & MASK32
                        value = (MIX_L * pool[dst] - MIX_R * (value ^ value >> 16)) & MASK32
                        pool[dst] = value ^ value >> 16
                        k += 1
            self.pool = pool[:POOL]

        def generate_state(self, n_words: int, dtype) -> np.ndarray:
            if dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError(f"only uint64 words are generated, got {dtype}")
            h = hash_out if n_words == 4 else hashes(INIT_B, MULT_B, 2 * n_words)
            pool, state = self.pool, []
            for i in range(0, 2 * n_words, 2):   # word pairs join little-endian on every host
                lo = (pool[i % POOL] ^ h[i]) * h[i + 1] & MASK32
                hi = (pool[(i + 1) % POOL] ^ h[i + 1]) * h[i + 2] & MASK32
                state.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
            return np.array(state, np.uint64)

    return IntSeedSequence


def _run_point(sampler: PulseSampler, index: int | None) -> RunStats:
    """One point's RunStats, drawn from the stream of sweep point index, or
    of a single point for index None."""
    det = sampler.det
    pulses = det.pulses
    rng = np.random.Generator(np.random.PCG64(_seed_class()(det.seed, index)))
    ch, cv, coin, ngate, s1h, s2h, s1v, s2v = sampler.sample_chunk(rng, pulses)
    # each total is rounded to a float before it is divided, as numpy divides
    # int64 totals; a true int division rounds differently past 2^53
    xi_h, xi_v = float(ch) / pulses, float(cv) / pulses
    mh, mv = (float(s1h) / ngate, float(s1v) / ngate) if ngate else (0.0, 0.0)
    # xi (1 - xi) >= 0 for xi in [0, 1]; a variance can round below 0, and its stderr is 0
    var_h = float(s2h) / ngate - mh ** 2 if ngate else 0.0
    var_v = float(s2v) / ngate - mv ** 2 if ngate else 0.0
    return RunStats(    # in field order: keywords cost a cold point more to bind
        pulses, ch, cv, coin, xi_h, xi_v,
        math.sqrt(xi_h * (1 - xi_h) / pulses), math.sqrt(xi_v * (1 - xi_v) / pulses), mh, mv,
        math.sqrt(var_h / ngate) if var_h > 0.0 else 0.0,
        math.sqrt(var_v / ngate) if var_v > 0.0 else 0.0)


def _estimate_visibility(angles, points):
    """Fourier-projected fringe amplitude over the total channel mean.

    Needs a uniform angle grid covering one full period, which run checks;
    unbiased for a cosine fringe of arbitrary phase.
    """
    k = len(points)
    d = np.array([p.mean_photons_h - p.mean_photons_v for p in points])
    var_d = np.array([p.stderr_mean_h ** 2 + p.stderr_mean_v ** 2 for p in points])
    tot = np.array([p.mean_photons_h + p.mean_photons_v for p in points])
    cosv, sinv = (np.array([f(a) for a in angles]) for f in (math.cos, math.sin))
    ac = 2.0 / k * np.sum(d * cosv)
    as_ = 2.0 / k * np.sum(d * sinv)
    amp = math.hypot(ac, as_)
    s = float(np.mean(tot))
    if s == 0.0 or amp == 0.0:
        return 0.0, float("nan")
    var_ac = (2.0 / k) ** 2 * np.sum(var_d * (cosv * cosv))
    var_as = (2.0 / k) ** 2 * np.sum(var_d * (sinv * sinv))
    se_amp = math.sqrt((ac / amp) ** 2 * var_ac + (as_ / amp) ** 2 * var_as)
    se_s = math.sqrt(float(np.sum(var_d))) / k
    v = amp / s
    return v, v * math.hypot(se_amp / amp, se_s / s)


def _null_pvalue(points) -> float:
    stat, dof = 0.0, 0
    for p in points:
        tot = p.counts_h + p.counts_v
        if tot:
            stat += (p.counts_h - p.counts_v) ** 2 / tot
            dof += 1
    return _chi2_tail(dof, stat)


def _chi2_tail(dof: int, stat: float) -> float:
    """P(chi^2 > stat) on dof >= 0 degrees of freedom, y = stat / 2: e^-y
    times the sum of y^k / k! over k < dof / 2 for even dof, and erfc(sqrt y)
    plus e^-y times the sum of y^k / Gamma(k + 1) over the half-integers
    k < dof / 2 for odd dof.  Each term is summed from its log, so none
    overflows; the relative error is a few (y + dof) ulps."""
    y = 0.5 * stat
    if y <= 0.0:
        return 1.0
    half = dof % 2 / 2
    logs = [(half + j) * math.log(y) - y - math.lgamma(half + j + 1)
            for j in range(dof // 2)]
    tail = math.erfc(math.sqrt(y)) if half else 0.0
    if logs:
        top = max(logs)
        tail += math.exp(top + math.log(sum(math.exp(v - top) for v in logs)))
    return tail


def run(target, cfg: AmplifierConfig, det: DetectorConfig, threads: int = 1):
    """Aggregate pulses for a single qubit (RunStats) or a Bloch path (SweepStats).

    threads is checked and otherwise unused: a point is a few draws."""
    as_int(threads, "threads", 1)
    if isinstance(target, Qubit):
        return _run_point(PulseSampler(target, cfg, det), None)
    if isinstance(target, BlochPath):
        # _estimate_visibility needs equal steps over one period: count times
        # each step must be 2 pi to within FULL_PERIOD_TOL of 2 pi
        steps = np.diff(target.angles)
        periods = len(target.angles) * steps / (2 * math.pi)
        if np.abs(periods - 1.0).max() > FULL_PERIOD_TOL:
            raise ValueError(
                f"the visibility estimator needs {len(target.angles)} equal steps "
                f"covering 2 pi, got steps {steps.min():.6g} .. {steps.max():.6g}")
        points = tuple(_run_point(PulseSampler(q, cfg, det), i)
                       for i, q in enumerate(target.qubits()))
        v, se = _estimate_visibility(target.angles, points)
        return SweepStats(angles=target.angles, points=points, visibility=v,
                          visibility_stderr=se, null_pvalue=_null_pvalue(points))
    raise TypeError("target must be a Qubit or a BlochPath")


def phase_sweep(q: Qubit, n_points: int) -> BlochPath:
    """One full period of z from q, in n_points equal steps."""
    n_points = as_int(n_points, "n_points", 2)
    angles = tuple(2 * math.pi * k / n_points for k in range(n_points))
    return BlochPath("z", angles, q)


@dataclass(frozen=True)
class CalibrationResult:
    p_inject: float
    visibility: float
    visibility_stderr: float
    ci_low: float
    ci_high: float


def calibrate_visibility_loss(target_v: float, q: Qubit, cfg: AmplifierConfig,
                              det: DetectorConfig) -> CalibrationResult:
    """The p_inject whose fringe visibility is target_v, from the closed form.

    Without D1 and D1* the gate reads only the herald, which does not see the
    amplified state, so the gated survivor means are linear in p_inject and
    the fringe is V(p) = 3 V1 p / (2 + p), with V1 = visibility(q).  So
    p = 2 V / (3 V1 - V).  One Monte Carlo sweep at p gives the simulated
    visibility and its stderr, and dV/dp = 6 V1 / (2 + p)^2 turns the stderr
    into the interval on p.
    """
    if {"D1", "D1*"} & det.coincidence_mask:
        raise ValueError("a mask with D1 or D1* gates on the amplified state, so "
                         "its fringe has no closed form in p_inject")
    if det.qe * det.attenuation == 0.0:
        raise ValueError("qe * attenuation is 0: no photon survives, so there is no fringe")
    target_v, v1 = as_real(target_v, "target_v"), visibility(q)
    if not 0.0 < target_v <= v1:
        raise ValueError(f"target_v must lie in (0, {v1:.6g}], the visibility at "
                         f"p_inject = 1, got {target_v}")
    p = min(2.0 * target_v / (3.0 * v1 - target_v), 1.0)   # can round above 1 at V1
    stats = run(phase_sweep(q, CALIBRATION_SWEEP_POINTS), cfg, replace(det, p_inject=p))
    dp = stats.visibility_stderr * (2.0 + p) ** 2 / (6.0 * v1)
    return CalibrationResult(
        p_inject=p, visibility=stats.visibility,
        visibility_stderr=stats.visibility_stderr,
        ci_low=max(0.0, p - 1.96 * dp), ci_high=min(1.0, p + 1.96 * dp))
