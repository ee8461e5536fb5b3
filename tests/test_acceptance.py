"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single pass/fail line so the
whole gate can be read off `pytest tests/test_acceptance.py -v -s`.
"""
import cmath
import json
import math

import numpy as np
import pytest

from qiopa.amplifier import AmplifierConfig, amplify, pair_tail, propagate_hamiltonian
from qiopa.cli import main
from qiopa.density import (entropy, partial_trace, rho1_closed_form,
                           rho2_closed_form)
from qiopa.fock import fidelity, inner_product
from qiopa.montecarlo import DetectorConfig, SweepStats, run
from qiopa.observables import g1_closed_form, g1_oracle, visibility
from qiopa.polarization import (BlochPath, Qubit, babinet, su2_rotation,
                                waveplate)

from conftest import BALANCED, random_qubit


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


def _oracle(q: Qubit, cfg: AmplifierConfig):
    """g1_oracle's numbers for q, and whether both channels are within 1e-8 of
    g1_closed_form, plus past g = 0.5 the truncated tail's epsilon_trunc (2 cutoff + 1)."""
    tol = 1e-8 + (cfg.epsilon_trunc * (2 * cfg.cutoff + 1) if cfg.gain.g > 0.5 else 0.0)
    num, ana = g1_oracle(q, cfg), g1_closed_form(q, cfg.gain)
    return num, abs(num.g2h - ana.g2h) <= tol and abs(num.g2v - ana.g2v) <= tol


def _dropped_pairs(cfg: AmplifierConfig) -> float:
    """The mean pair number truncation drops from amplify's state, sum of n p_n over
    n > cutoff: cutoff T(cutoff + 1) + the sum of T(k) over k > cutoff, T = pair_tail."""
    gain, s = cfg.gain, cfg.cutoff + 1
    return (s - 1) * pair_tail(gain, s) + sum(pair_tail(gain, k) for k in range(s, s + 400))


def test_05_visibility(rng):
    ok = visibility(BALANCED) == 1.0 / 3.0
    for g in (0.07, 0.5, 1.13):
        cfg = _config(g)
        for _ in range(50):
            q = random_qubit(rng)
            # the fringe's extremes: g2H is largest in phase and smallest at pi
            (hi, ok_hi), (lo, ok_lo) = (_oracle(Qubit(q.alpha, q.beta, phi), cfg)
                                        for phi in (0.0, math.pi))
            v = (hi.g2h - lo.g2h) / (hi.g2h + lo.g2h)
            target = 2 * q.alpha * q.beta / 3
            ok &= ok_hi and ok_lo and max(abs(v - target), abs(visibility(q) - target)) < 1e-10
    _report(5, "visibility 1/3 exact and 2ab/3 from the oracle's fringe extremes", ok)


def test_06_signal_to_noise():
    ok = True
    for g in (0.07, 0.5, 1.13):
        cfg = _config(g)
        pair, ok_pair = _oracle(BALANCED, cfg)
        # each pair shell puts two thirds of mode 2's photons in H for the
        # balanced in-phase qubit, so truncation drops 2/3 of the dropped pairs
        snr = (pair.g2h + 2 * _dropped_pairs(cfg) / 3) / cfg.gain.nbar
        ok &= ok_pair and abs(snr - 2.0) <= 1e-12
    _report(6, "signal-to-noise 2 at balanced in-phase qubit", ok)


def test_07_sum_rule(rng):
    ok = True
    for g in (0.07, 0.5, 1.13):
        cfg = _config(g)
        # mode 2 holds n photons in pair term n; truncation drops n > cutoff
        total = 3 * math.sinh(g) ** 2 - _dropped_pairs(cfg)
        for _ in range(34):
            pair, ok_pair = _oracle(random_qubit(rng), cfg)
            ok &= ok_pair and abs(pair.g2h + pair.g2v - total) < 1e-10
    _report(7, "channel sum rule 3 sinh^2 g", ok)


def test_08_pair_statistics(rng, capsys):
    ok = True
    for g in (0.07, 1.13):
        cfg = _config(g)
        assert main(["pairs", "--g", str(g), "--cutoff", str(cfg.cutoff),
                     "--format", "json"]) == 0
        n, p, cumulative = np.array(json.loads(capsys.readouterr().out)["rows"]).T
        ok &= abs(cumulative[-1] + pair_tail(cfg.gain, cfg.cutoff + 1) - 1.0) < 1e-12
        ok &= abs(n @ p - 3 * math.sinh(g) ** 2) < 1e-9
        for q in (Qubit(1.0, 0.0), BALANCED, random_qubit(rng)):
            for rho in (partial_trace(amplify(q, cfg), "mode1"), rho1_closed_form(q, cfg)):
                # sector t starts at t(t+1)/2; mode 1's sector 0 holds no pair term
                w = np.add.reduceat(rho.diag, np.cumsum(np.arange(rho.sectors)))[1:]
                ok &= np.abs(w - p).max() < 1e-14
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


def test_11_hilbert_schmidt(rng):
    ok = True
    for g in (0.0, 0.07, 0.5, 1.13):
        cfg = _config(g)
        pairs = [(Qubit(1.0, 0.0), Qubit(0.0, 1.0))]
        pairs += [(random_qubit(rng), random_qubit(rng)) for _ in range(20)]
        for a, b in pairs:
            # unit-trace projectors lie 2 - 2F apart, so the distance is kept
            # when the branches' fidelity is the qubits' overlap |<a|b>|^2
            overlap = abs(a.alpha * b.alpha
                          + a.beta * b.beta * cmath.exp(1j * (b.phi - a.phi))) ** 2
            ok &= abs(fidelity(amplify(a, cfg), amplify(b, cfg)) - overlap) <= 1e-12
    _report(11, "Hilbert-Schmidt distance 2 - 2F of every qubit pair preserved", ok)


def test_12_monte_carlo_convergence():
    cfg = _config(1.13)
    n_points, per_point = 16, 62_500
    angles = tuple(2 * math.pi * k / n_points for k in range(n_points))
    path = BlochPath("z", angles, BALANCED)
    det = DetectorConfig(qe=1.0, pulses=per_point, seed=2024,
                         coincidence_mask=frozenset({"D_T"}))
    sweep = run(path, cfg, det)
    ok = isinstance(sweep, SweepStats)
    ok &= abs(sweep.visibility - 1.0 / 3.0) < 3 * sweep.visibility_stderr

    null_det = DetectorConfig(qe=1.0, p_inject=0.0, pulses=12_500, seed=2025,
                              coincidence_mask=frozenset({"D_T"}))
    null = run(path, cfg, null_det)
    ok &= null.visibility < 4 * null.visibility_stderr or math.isnan(null.visibility_stderr)
    ok &= null.null_pvalue > 0.01
    _report(12, "million-pulse visibility and empty-injection null", ok)


def test_13_determinism(tmp_path):
    ok = True
    for i, args in enumerate((["montecarlo", "--preset", "HG", "--path", "z:0:0.785:8",
                               "--pulses", "5000", "--seed", "31415"],
                              ["montecarlo", "--g", "0.5", "--path", "z:0:1.57:4",
                               "--pulses", "2000", "--seed", "123"])):
        a, b = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
        ok &= main(args + ["--out", str(a)]) == 0
        ok &= main(args + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
        ok &= (tmp_path / f"a{i}.csv.json").read_bytes() == \
            (tmp_path / f"b{i}.csv.json").read_bytes()
    _report(13, "seeded runs byte-identical", ok)


_PAULI = {"x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]),
          "z": np.diag([1, -1])}


def test_14_su2_suite(rng):
    ok = True
    for axis, sigma in _PAULI.items():
        # exp(-i angle sigma / 2) through sigma's eigenbasis
        lam, v = np.linalg.eigh(sigma)
        for angle in (0.0, 2 * math.pi, *rng.uniform(-8, 8, size=5)):
            expm = (v * np.exp(-0.5j * angle * lam)) @ v.conj().T
            ok &= np.abs(su2_rotation(axis, angle).matrix - expm).max() <= 1e-14
        ok &= np.abs(su2_rotation(axis, 2 * math.pi).matrix + np.eye(2)).max() <= 1e-15
    ok &= np.array_equal(babinet(0.0).matrix, np.eye(2))
    for d1, d2 in rng.uniform(-math.pi, math.pi, size=(5, 2)):
        ok &= np.abs((babinet(d1) @ babinet(d2)).matrix
                     - babinet(d1 + d2).matrix).max() <= 1e-14
    for kind, retardance in (("half", math.pi), ("quarter", math.pi / 2)):
        for theta in (0.0, math.pi / 8, math.pi / 4, *rng.uniform(0, math.pi, size=4)):
            # the retarder's Jones matrix with its fast axis at theta: the
            # half-wave plate sends |H> to cos 2theta |H> + sin 2theta |V>, the
            # quarter-wave plate at pi/4 to (1 + i)|H>/2 + (1 - i)|V>/2
            c, s, e = math.cos(theta), math.sin(theta), cmath.exp(1j * retardance)
            jones = np.array([[c * c + e * s * s, c * s * (1 - e)],
                              [c * s * (1 - e), s * s + e * c * c]])
            ok &= np.abs(waveplate(kind, theta).matrix - jones).max() <= 1e-14
    _report(14, "polarization rotations are exp(-i theta sigma / 2) and Jones matrices", ok)
