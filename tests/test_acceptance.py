"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single pass/fail line so the
whole gate can be read off `pytest tests/test_acceptance.py -v -s`.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qiopa.amplifier import (AmplifierConfig, GainParams, amplify, pair_tail,
                             propagate_hamiltonian)
from qiopa.cli import main
from qiopa.density import (entropy, partial_trace, rho1_closed_form,
                           rho2_closed_form)
from qiopa.fock import fidelity, inner_product
from qiopa.montecarlo import DetectorConfig, run
from qiopa.observables import g1_closed_form, visibility
from qiopa.polarization import (BlochPath, Qubit, babinet, su2_rotation,
                                waveplate)

from conftest import BALANCED, random_qubit
from reference import pair_law


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name}"


def _config(g: float) -> AmplifierConfig:
    return AmplifierConfig.for_gain(g, 100 if g > 1.0 else None)


def test_01_normalization(rng):
    ok = True
    for g in (0.0, 0.07, 0.5, 1.13):
        cfg = _config(g)
        for _ in range(20):
            n2 = amplify(random_qubit(rng), cfg).norm_sq()
            ok &= 1.0 - cfg.epsilon_trunc - 1e-12 <= n2 <= 1.0 + 1e-12
    _report(1, "normalization within truncation bound", ok)


def test_02_branch_orthogonality():
    ok = True
    for g in (0.07, 0.5, 1.13):
        cfg = _config(g)
        a = amplify(Qubit(1.0, 0.0), cfg)
        b = amplify(Qubit(0.0, 1.0), cfg)
        ok &= inner_product(a, b) == 0
    _report(2, "branch orthogonality exact", ok)


def test_03_state_oracle_equivalence(rng):
    ok = True
    for g in (0.07, 0.3):
        cfg = _config(g)
        q = random_qubit(rng)
        ok &= fidelity(propagate_hamiltonian(q, cfg), amplify(q, cfg)) \
            >= 1.0 - 1e-8
    cfg = _config(1.13)
    q = random_qubit(rng)
    ok &= fidelity(propagate_hamiltonian(q, cfg), amplify(q, cfg)) \
        >= 1.0 - 1e-6
    _report(3, "closed form matches Hamiltonian propagation", ok)


def test_04_density_oracle_equivalence(rng):
    ok = True
    for g in (0.07, 1.13):
        cfg = _config(g)
        for _ in range(10):
            q = random_qubit(rng)
            state = amplify(q, cfg)
            for closed, mode in ((rho1_closed_form, "mode1"),
                                 (rho2_closed_form, "mode2")):
                a = closed(q, cfg)
                b = partial_trace(state, mode)
                # zip stops at the shorter list: a missing sector must fail
                ok &= a.sectors == b.sectors
                ok &= max(np.abs(x - y).max()
                          for x, y in zip(a.blocks, b.blocks)) < 1e-10
    _report(4, "density assemblies match partial trace", ok)


def test_05_visibility(rng):
    ok = visibility(BALANCED) == 1.0 / 3.0
    gp = GainParams(1.13)
    for _ in range(50):
        q = random_qubit(rng)

        def g2h(phi, q=q):
            return g1_closed_form(Qubit(q.alpha, q.beta, phi), gp).g2h

        hi = -minimize_scalar(lambda t: -g2h(t), bounds=(-math.pi, math.pi),
                              method="bounded", options={"xatol": 1e-12}).fun
        lo = minimize_scalar(g2h, bounds=(-math.pi, math.pi),
                             method="bounded", options={"xatol": 1e-12}).fun
        v = (hi - lo) / (hi + lo)
        ok &= abs(v - 2 * q.alpha * q.beta / 3) < 1e-10
    _report(5, "visibility 1/3 exact and 2ab/3 from extremization", ok)


def test_06_signal_to_noise():
    gp = GainParams(1.13)
    snr = g1_closed_form(BALANCED, gp).g2h / gp.nbar
    _report(6, "signal-to-noise 2 at balanced in-phase qubit", abs(snr - 2.0) <= 1e-12)


def test_07_sum_rule(rng):
    ok = True
    for _ in range(100):
        gp = GainParams(rng.uniform(0.0, 1.2))
        pair = g1_closed_form(random_qubit(rng), gp)
        ok &= abs(pair.g2h + pair.g2v - 3 * math.sinh(gp.g) ** 2) < 1e-10
    _report(7, "channel sum rule 3 sinh^2 g", ok)


def test_08_pair_statistics(rng):
    ok = True
    for g in (0.07, 1.13):
        cfg = _config(g)
        n = np.arange(cfg.cutoff + 1)
        p = pair_law(cfg)
        ok &= abs(p.sum() - 1.0) < 1e-9
        ok &= abs(n @ p - 3 * math.sinh(g) ** 2) < 1e-9
        weights = None
        for q in (Qubit(1.0, 0.0), BALANCED, random_qubit(rng)):
            rho = rho1_closed_form(q, cfg)
            w = np.add.reduceat(rho.diag, np.cumsum(np.arange(rho.sectors)))[1:]
            if weights is None:
                weights = w
            ok &= np.abs(w - weights).max() < 1e-14
    _report(8, "pair distribution normalization, mean and qubit independence", ok)


def test_09_tail_report(capsys):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    computed = pair_tail(_config(1.13).gain, 8)
    x = mp.tanh(mp.mpf("1.13")) ** 2
    exact = mp.cosh(mp.mpf("1.13")) ** -6 * mp.nsum(
        lambda n: (n + 1) * (n + 2) / 2 * x ** n, [8, mp.inf])
    ok = abs(computed - float(exact)) < 1e-12
    assert main(["pairs", "--preset", "HG", "--threshold", "8"]) == 0
    out = capsys.readouterr().out
    ok &= "# reported_tail=0.14" in out
    ok &= "# reported_tail_agreement=no" in out
    with capsys.disabled():
        print(f"\ncomputed tail P(n >= 8) = {computed:.6f}, "
              f"reported value 0.14: flagged as disagreement")
        _report(9, "tail verified against extended precision, report flags 14%", ok)


def test_10_entropy_symmetry(rng):
    ok = True
    for g in (0.07, 0.5, 1.13):
        cfg = _config(g)
        for _ in range(20):
            q = random_qubit(rng)
            # both closed forms return the one entropy of their shared
            # spectrum, so S1 = S2 is read off the traced states, each
            # eigensolved, and the closed form is held to both
            state = amplify(q, cfg)
            s1 = entropy(partial_trace(state, "mode1"))
            s2 = entropy(partial_trace(state, "mode2"))
            closed = entropy(rho1_closed_form(q, cfg))
            ok &= max(abs(s1 - s2), abs(closed - s1), abs(closed - s2)) <= 1e-9
    _report(10, "entropy symmetry of the two reduced states", ok)


def test_11_hilbert_schmidt():
    ok = True
    for g in (0.0, 0.07, 1.13):
        cfg = _config(g)
        # the branch states' projectors, each of unit trace
        d = 2.0 - 2.0 * fidelity(amplify(Qubit(1.0, 0.0), cfg),
                                 amplify(Qubit(0.0, 1.0), cfg))
        ok &= abs(d - 2.0) <= 2 * cfg.epsilon_trunc
    _report(11, "branch Hilbert-Schmidt distance 2", ok)


def test_12_monte_carlo_convergence():
    cfg = _config(1.13)
    n_points, per_point = 16, 62_500
    angles = tuple(2 * math.pi * k / n_points for k in range(n_points))
    path = BlochPath("z", angles, BALANCED)
    det = DetectorConfig(qe=1.0, pulses=per_point, seed=2024,
                         coincidence_mask=frozenset({"D_T"}))
    sweep = run(path, cfg, det, threads=4)
    ok = abs(sweep.visibility - 1.0 / 3.0) < 3 * sweep.visibility_stderr

    null_det = DetectorConfig(qe=1.0, p_inject=0.0, pulses=12_500, seed=2025,
                              coincidence_mask=frozenset({"D_T"}))
    null = run(path, cfg, null_det, threads=4)
    ok &= null.null_pvalue > 0.01
    _report(12, "million-pulse visibility and empty-injection null", ok)


def test_13_determinism(tmp_path):
    args = ["montecarlo", "--preset", "HG", "--path", "z:0:0.785:8",
            "--pulses", "5000", "--seed", "31415"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = main(args + ["--out", str(a)]) == 0
    ok &= main(args + ["--out", str(b)]) == 0
    ok &= a.read_bytes() == b.read_bytes()
    ok &= (tmp_path / "a.csv.json").read_bytes() == \
        (tmp_path / "b.csv.json").read_bytes()
    _report(13, "seeded runs byte-identical", ok)


def test_14_su2_suite(rng):
    ok = True
    for axis in ("x", "y", "z"):
        for angle in rng.uniform(-8, 8, size=5):
            u = su2_rotation(axis, angle).matrix
            ok &= np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        ok &= np.allclose(su2_rotation(axis, 2 * math.pi).matrix, -np.eye(2),
                          atol=1e-14)
    d1, d2 = rng.uniform(-2, 2, size=2)
    ok &= np.allclose((babinet(d1) @ babinet(d2)).matrix,
                      babinet(d1 + d2).matrix, atol=1e-13)
    ok &= np.allclose(waveplate("half", 0.0).matrix, np.diag([1, -1]),
                      atol=1e-15)
    hwp = waveplate("half", math.pi / 8).matrix
    ok &= np.allclose(np.abs(hwp[:, 0]), [2 ** -0.5, 2 ** -0.5], atol=1e-12)
    qwp = waveplate("quarter", math.pi / 4).matrix
    ok &= np.abs(np.abs(np.linalg.det(qwp)) - 1.0) < 1e-12
    _report(14, "polarization rotation identities", ok)
