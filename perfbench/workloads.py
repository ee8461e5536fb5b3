"""The benchmark's workloads: generated inputs, one operation, its output check.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  The program only sees the inputs drawn
here from the workload seed.  Calls go through the qiopa module attributes
at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import replace

import numpy as np

from qiopa import (amplifier, cli, density, fock, montecarlo, observables,
                   polarization)

# the CLI presets, fixed here so that the workloads stay the same
LG = {"g": 0.07, "cutoff": 12}
HG = {"g": 1.13, "cutoff": 100}
QE = 0.18
MASK = frozenset({"D_T", "D2"})     # the CLI default two-fold mask

POOL = 64               # distinct (qubit, Monte Carlo seed) inputs per run
MC_SIGMAS = 5.0         # allowed distance of a channel mean from the closed form
# tier-1 tolerances of the cross-check round
FIDELITY_TOL = 1e-6
BLOCK_TOL = 1e-10
ENTROPY_TOL = 1e-9
G1_TOL = 1e-8

PROBE_PULSES = 2_000_000        # per thread-count probe
THREAD_COUNTS = (1, 2)


def config(preset: dict) -> amplifier.AmplifierConfig:
    return amplifier.AmplifierConfig.for_gain(preset["g"], preset["cutoff"])


def make_inputs(seed: int):
    """A warm-up input outside the timed set, then POOL timed inputs.

    Each input is (qubit, Monte Carlo seed); a qubit is |H> turned by a
    y rotation and given a relative phase by a Babinet compensator.
    """
    rng = random.Random(seed)
    h = polarization.Qubit(1.0, 0.0)

    def draw():
        theta = rng.uniform(0.3, math.pi - 0.3)
        phi = rng.uniform(-math.pi, math.pi)
        u = polarization.babinet(phi) @ polarization.su2_rotation("y", theta)
        return polarization.apply(u, h), rng.randrange(2 ** 32)

    warm = draw()
    return warm, [draw() for _ in range(POOL)]


def check_channels(q, cfg, det, stats) -> list:
    """Gated channel means against qe*att*(p*g2H/V + (1-p)*nbar).

    With the trigger as the only gate, gating is independent of the
    amplified state, so the surviving-photon mean of each channel is the
    thinned mixture of the injected and vacuum means.
    """
    errors = []
    if stats.pulses != det.pulses:
        errors.append(f"pulses {stats.pulses} != {det.pulses}")
    cf = observables.g1_closed_form(q, cfg.gain)
    scale = det.qe * det.attenuation
    p = det.p_inject
    for ch, mean, se, g2 in (("H", stats.mean_photons_h, stats.stderr_mean_h, cf.g2h),
                             ("V", stats.mean_photons_v, stats.stderr_mean_v, cf.g2v)):
        want = scale * (p * g2 + (1 - p) * cf.nbar)
        if not se > 0 or abs(mean - want) > MC_SIGMAS * se:
            errors.append(f"channel {ch} mean {mean:.6g} vs {want:.6g} "
                          f"(stderr {se:.3g})")
    return errors


class MonteCarlo:
    """One operation is one `montecarlo.run(qubit, cfg, det)` sweep point."""

    def __init__(self, name, preset, p_inject, pulses, alias, setups):
        self.name, self.preset = name, preset
        self.cfg = config(preset)
        self.det = montecarlo.DetectorConfig(qe=QE, p_inject=p_inject,
                                             coincidence_mask=MASK, pulses=pulses)
        self.alias, self.setups = alias, setups

    def op(self, inp):
        q, seed = inp
        return montecarlo.run(q, self.cfg, replace(self.det, seed=seed))

    def check(self, inp, stats) -> list:
        return check_channels(inp[0], self.cfg, replace(self.det, seed=inp[1]), stats)

    def headline(self, op_s: float):
        if self.alias == "pulses_per_s":
            return self.alias, self.det.pulses / op_s, "1/s"
        return self.alias, op_s, "s"


class Oracle:
    """One operation is one brute-force cross-check round for a fresh qubit."""

    alias = "round_s"

    def __init__(self, name, preset, setups):
        self.name, self.preset = name, preset
        self.cfg = config(preset)
        self.setups = setups

    def op(self, inp):
        q, cfg = inp[0], self.cfg
        state = amplifier.amplify(q, cfg)
        prop = amplifier.propagate_hamiltonian(q, cfg)
        traced = [density.partial_trace(state, m) for m in ("mode1", "mode2")]
        closed = [density.rho1_closed_form(q, cfg), density.rho2_closed_form(q, cfg)]
        return {"fidelity": fock.fidelity(prop, state),
                "traced": traced, "closed": closed,
                "entropies": [density.entropy(rho) for rho in closed],
                "oracle": observables.g1_oracle(q, cfg),
                "closed_g1": observables.g1_closed_form(q, cfg.gain)}

    def check(self, inp, r) -> list:
        errors = []
        if not r["fidelity"] >= 1.0 - FIDELITY_TOL:
            errors.append(f"propagator fidelity {r['fidelity']!r}")
        for a, b in zip(r["closed"], r["traced"]):
            diff = max(np.abs(x - y).max() for x, y in zip(a.blocks, b.blocks))
            if not diff < BLOCK_TOL:
                errors.append(f"{a.mode} block max diff {diff:.3g}")
        s1, s2 = r["entropies"]
        if not abs(s1 - s2) < ENTROPY_TOL:
            errors.append(f"entropy S1-S2 {s1 - s2:.3g}")
        tol = G1_TOL + self.cfg.epsilon_trunc * (2 * self.cfg.cutoff + 1)
        orc, cf = r["oracle"], r["closed_g1"]
        if not (abs(orc.g2h - cf.g2h) < tol and abs(orc.g2v - cf.g2v) < tol):
            errors.append(f"g1 oracle ({orc.g2h!r}, {orc.g2v!r}) vs closed form "
                          f"({cf.g2h!r}, {cf.g2v!r})")
        return errors

    def headline(self, op_s: float):
        return self.alias, op_s, "s"


# set-ups per run: a cold HG set-up takes ~20 s, so HG workloads take two
WORKLOADS = {
    "hg-sweep": lambda: MonteCarlo("hg-sweep", HG, 1.0, 200_000, "point_s", setups=2),
    "lg-pulses": lambda: MonteCarlo("lg-pulses", LG, 0.5, 1_000_000, "pulses_per_s",
                                    setups=3),
    "hg-oracle": lambda: Oracle("hg-oracle", HG, setups=2),
}


# -- probes of the traced run --------------------------------------------------

def probe_cli(seed: int) -> list:
    """`cli.main` with the lg-pulses arguments over the shortest sweep path."""
    argv = ["montecarlo", "--preset", "LG", "--p-inject", "0.5",
            "--pulses", "1000000", "--seed", str(seed), "--mask", "D_T,D2",
            "--path", f"z:0:{math.pi}:2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return [] if rc == 0 and out.getvalue() else [f"cli exit code {rc}"]


def probe_threads(inp, threads: int):
    """`run` at LG over PROBE_PULSES pulses on the given thread count.

    Returns (RunStats, errors).  Every chunk has its own seeded stream, so
    all thread counts must return the same RunStats.
    """
    q, seed = inp
    cfg = config(LG)
    det = montecarlo.DetectorConfig(qe=QE, p_inject=0.5, coincidence_mask=MASK,
                                    pulses=PROBE_PULSES, seed=seed)
    stats = montecarlo.run(q, cfg, det, threads=threads)
    return stats, check_channels(q, cfg, det, stats)


def rotation_slack(cfg, q) -> dict:
    """Norm lost by the analyzer rotation and the worst column-norm defect.

    The defect is max|D^H D - I| over the fixed-total blocks D_t of the
    45-degree rotation, t = 0 .. cutoff+1, read off by rotating every basis
    ket |m, t-m> of mode 2, tagged by mode-1 occupations (m, t).
    """
    u = observables.DETECTED_FIELD_UNITARY
    state = amplifier.amplify(q, cfg)
    rotated = fock.rotate_mode_pair(state, "mode2", u)
    norm_loss = abs(rotated.norm_sq() - state.norm_sq())

    top = cfg.cutoff + 1
    kets = {(m, t, m, t - m): 1.0 for t in range(top + 1) for m in range(t + 1)}
    columns = fock.rotate_mode_pair(fock.FockState4(kets, cfg.cutoff), "mode2", u)
    blocks = [np.zeros((t + 1, t + 1), dtype=complex) for t in range(top + 1)]
    for (m, t, p, _), amp in columns.amplitudes.items():
        blocks[t][p, m] = amp
    defect = max(np.abs(d.conj().T @ d - np.eye(len(d))).max() for d in blocks)
    return {"fock.rotation_norm_loss": float(norm_loss),
            "fock.column_norm_defect_max": float(defect)}
