"""Pulsed conditional-detection Monte Carlo over the amplified states.

Each pulse either carries the heralded qubit into the amplifier (with
probability p_inject) or produces squeezed vacuum; one occupation tuple is
sampled from the rotated output, photons are thinned binomially by the
attenuation and detector efficiency, and threshold detectors click on at
least one survivor (or a dark count).  All randomness flows from a single
seed through spawned per-point, per-chunk streams, so runs are reproducible
regardless of scheduling.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import chi2

from .amplifier import AmplifierConfig, amplify, vacuum_output
from .errors import NumericalError
from .fock import FockIndex4, rotate_mode_pair
from .observables import DETECTED_FIELD_UNITARY
from .polarization import BlochPath, Qubit

DETECTORS = ("D_T", "D2", "D2*", "D1", "D1*")
# occupation column watched by each non-trigger detector (post-rotation)
_DETECTOR_MODE = {"D2": 2, "D2*": 3, "D1": 0, "D1*": 1}
CHUNK_PULSES = 200_000


@dataclass(frozen=True)
class DetectorConfig:
    qe: float = 0.18
    attenuation: float = 1.0
    dark_rate: float = 0.0
    p_inject: float = 1.0
    coincidence_mask: frozenset = frozenset({"D_T", "D2"})
    pulses: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("qe", "attenuation", "dark_rate", "p_inject"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        mask = frozenset(self.coincidence_mask)
        unknown = mask - set(DETECTORS)
        if unknown:
            raise ValueError(f"unknown detectors in mask: {sorted(unknown)}")
        object.__setattr__(self, "coincidence_mask", mask)
        if self.pulses < 1:
            raise ValueError("pulses must be >= 1")


@dataclass(frozen=True)
class PulseRecord:
    index: FockIndex4   # sampled post-rotation occupations
    clicks: dict
    coincidence: bool


@dataclass(frozen=True)
class RunStats:
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
    """Precomputed sampling tables for one (qubit, amplifier, detector) setup."""

    def __init__(self, q: Qubit, cfg: AmplifierConfig, det: DetectorConfig):
        self.det = det
        rotate_mode1 = bool({"D1", "D1*"} & det.coincidence_mask)
        self.tables = {}
        for label, state in (("injected", amplify(q, cfg)),
                             ("vacuum", vacuum_output(cfg))):
            st = rotate_mode_pair(state, "mode2", DETECTED_FIELD_UNITARY)
            if rotate_mode1:
                st = rotate_mode_pair(st, "mode1", DETECTED_FIELD_UNITARY)
            p = np.abs(st.amp) ** 2
            total = p.sum()
            if not 1.0 - cfg.epsilon_trunc - 1e-12 <= total <= 1.0 + 1e-12:
                raise NumericalError(
                    f"{label} sampling table holds weight {total!r}, outside "
                    f"1 - epsilon_trunc ({cfg.epsilon_trunc:.3g}) .. 1")
            self.tables[label] = (st.occ, np.cumsum(p / total))

    def sample_chunk(self, rng: np.random.Generator, n: int):
        det = self.det
        inject = rng.random(n) < det.p_inject
        occ = np.empty((n, 4), dtype=np.int64)
        for label, mask in (("injected", inject), ("vacuum", ~inject)):
            k = int(mask.sum())
            if k:
                table, cum = self.tables[label]
                pick = np.searchsorted(cum, rng.random(k), side="right")
                occ[mask] = table[np.minimum(pick, len(table) - 1)]
        survivors = rng.binomial(occ, det.attenuation * det.qe)
        clicks = survivors > 0
        trigger = rng.random(n) < det.qe   # ideal herald photon at D_T
        if det.dark_rate:
            clicks |= rng.random((n, 4)) < det.dark_rate
            trigger |= rng.random(n) < det.dark_rate
        return occ, survivors, clicks, trigger

    def sample_pulse(self, rng: np.random.Generator) -> PulseRecord:
        """Draw a single pulse; run() is the fast path for large counts."""
        occ, _surv, clicks, trigger = self.sample_chunk(rng, 1)
        cl = {"D_T": bool(trigger[0])}
        cl.update({d: bool(clicks[0, m]) for d, m in _DETECTOR_MODE.items()})
        return PulseRecord(index=FockIndex4(*occ[0].tolist()), clicks=cl,
                           coincidence=all(cl[d] for d in self.det.coincidence_mask))


def _click_matrix(clicks: np.ndarray, trigger: np.ndarray, detectors) -> np.ndarray:
    out = np.ones(len(trigger), dtype=bool)
    for d in detectors:
        out &= trigger if d == "D_T" else clicks[:, _DETECTOR_MODE[d]]
    return out


def _run_point(sampler: PulseSampler, seed_seq: np.random.SeedSequence,
               threads: int = 1) -> RunStats:
    det = sampler.det
    mask = det.coincidence_mask
    gate_detectors = sorted(mask - {"D2", "D2*"})
    n_chunks = (det.pulses + CHUNK_PULSES - 1) // CHUNK_PULSES
    streams = seed_seq.spawn(n_chunks)

    def one_chunk(i: int):
        n = min(CHUNK_PULSES, det.pulses - i * CHUNK_PULSES)
        rng = np.random.default_rng(streams[i])
        _occ, surv, clicks, trig = sampler.sample_chunk(rng, n)
        gate = _click_matrix(clicks, trig, gate_detectors)
        d2 = clicks[:, _DETECTOR_MODE["D2"]]
        d2s = clicks[:, _DETECTOR_MODE["D2*"]]
        sh, sv = surv[gate, 2].astype(float), surv[gate, 3].astype(float)
        return np.array([
            (gate & d2).sum(), (gate & d2s).sum(),
            _click_matrix(clicks, trig, mask).sum(), gate.sum(),
            sh.sum(), (sh ** 2).sum(), sv.sum(), (sv ** 2).sum()])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            totals = sum(pool.map(one_chunk, range(n_chunks)))
    else:
        totals = sum(one_chunk(i) for i in range(n_chunks))

    ch, cv, coin, ngate, s1h, s2h, s1v, s2v = totals
    pulses = det.pulses
    xi_h, xi_v = ch / pulses, cv / pulses
    mh = s1h / ngate if ngate else 0.0
    mv = s1v / ngate if ngate else 0.0
    var_h = max(s2h / ngate - mh ** 2, 0.0) if ngate else 0.0
    var_v = max(s2v / ngate - mv ** 2, 0.0) if ngate else 0.0
    return RunStats(
        pulses=pulses, counts_h=int(ch), counts_v=int(cv), coincidences=int(coin),
        xi_h=xi_h, xi_v=xi_v,
        stderr_xi_h=math.sqrt(max(xi_h * (1 - xi_h), 0.0) / pulses),
        stderr_xi_v=math.sqrt(max(xi_v * (1 - xi_v), 0.0) / pulses),
        mean_photons_h=mh, mean_photons_v=mv,
        stderr_mean_h=math.sqrt(var_h / ngate) if ngate else 0.0,
        stderr_mean_v=math.sqrt(var_v / ngate) if ngate else 0.0)


def _estimate_visibility(angles, points):
    """Fourier-projected fringe amplitude over the total channel mean.

    Assumes a uniform angle grid covering one full period; unbiased for a
    cosine fringe of arbitrary phase.
    """
    k = len(points)
    d = np.array([p.mean_photons_h - p.mean_photons_v for p in points])
    var_d = np.array([p.stderr_mean_h ** 2 + p.stderr_mean_v ** 2 for p in points])
    tot = np.array([p.mean_photons_h + p.mean_photons_v for p in points])
    cosv, sinv = np.cos(angles), np.sin(angles)
    ac = 2.0 / k * np.sum(d * cosv)
    as_ = 2.0 / k * np.sum(d * sinv)
    amp = math.hypot(ac, as_)
    s = float(np.mean(tot))
    if s == 0.0 or amp == 0.0:
        return 0.0, float("nan")
    var_ac = (2.0 / k) ** 2 * np.sum(var_d * cosv ** 2)
    var_as = (2.0 / k) ** 2 * np.sum(var_d * sinv ** 2)
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
    return float(chi2.sf(stat, dof)) if dof else 1.0


def run(target, cfg: AmplifierConfig, det: DetectorConfig, threads: int = 1):
    """Aggregate pulses for a single qubit (RunStats) or a Bloch path (SweepStats)."""
    root = np.random.SeedSequence(det.seed)
    if isinstance(target, Qubit):
        return _run_point(PulseSampler(target, cfg, det), root, threads)
    if isinstance(target, BlochPath):
        qubits = target.qubits()
        seeds = root.spawn(len(qubits))
        points = tuple(
            _run_point(PulseSampler(q, cfg, det), s, threads)
            for q, s in zip(qubits, seeds))
        v, se = _estimate_visibility(np.asarray(target.angles), points)
        return SweepStats(angles=target.angles, points=points, visibility=v,
                          visibility_stderr=se, null_pvalue=_null_pvalue(points))
    raise TypeError("target must be a Qubit or a BlochPath")


def _phase_sweep(q: Qubit, n_points: int) -> BlochPath:
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
                              det: DetectorConfig, tol: float = 0.01,
                              sweep_points: int = 12,
                              max_iter: int = 20) -> CalibrationResult:
    """Bisection over p_inject until the simulated visibility matches target_v."""
    if not (0.0 < target_v < 1.0):
        raise ValueError("target visibility must lie in (0, 1)")
    path = _phase_sweep(q, sweep_points)

    def simulate(p: float) -> SweepStats:
        return run(path, cfg, replace(det, p_inject=p))

    ideal = simulate(1.0)
    if target_v > ideal.visibility + 3 * ideal.visibility_stderr:
        raise ValueError(
            f"target visibility {target_v} exceeds the attainable "
            f"{ideal.visibility:.4f} (+/- {ideal.visibility_stderr:.4f})")

    lo, hi = 0.0, 1.0
    v_lo, v_hi = 0.0, ideal.visibility
    stats = ideal
    p = 1.0
    for _ in range(max_iter):
        p = 0.5 * (lo + hi)
        stats = simulate(p)
        if abs(stats.visibility - target_v) <= tol:
            break
        if stats.visibility < target_v:
            lo, v_lo = p, stats.visibility
        else:
            hi, v_hi = p, stats.visibility
        if hi - lo < 1e-4:
            break
    slope = (v_hi - v_lo) / (hi - lo) if hi > lo else float("inf")
    dp = stats.visibility_stderr / slope if slope > 0 else 0.0
    return CalibrationResult(
        p_inject=p, visibility=stats.visibility,
        visibility_stderr=stats.visibility_stderr,
        ci_low=max(0.0, p - 1.96 * dp), ci_high=min(1.0, p + 1.96 * dp))
