"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single pass/fail line so the
whole gate can be read off `pytest tests/test_acceptance.py -v -s`, with its
slack: the worst value against its bound.  Those that read the amplifier run
up to the largest gain AmplifierConfig accepts, each with one bound in
epsilon_trunc, the cutoff and EPS, derived as its comment says.
"""
import cmath
import json
import math

import numpy as np
import pytest

from qiopa.amplifier import (AmplifierConfig, GainParams, _largest_gain, amplify,
                             pair_tail, propagate_hamiltonian)
from qiopa.cli import main
from qiopa.density import entropy, partial_trace, rho1_closed_form, rho2_closed_form
from qiopa.fock import fidelity, inner_product
from qiopa.montecarlo import DetectorConfig, SweepStats, run
from qiopa.observables import g1_closed_form, g1_oracle, visibility
from qiopa.polarization import BlochPath, Qubit, babinet, su2_rotation, waveplate

from conftest import BALANCED, random_qubit
from reference import exact_tail

EPS = np.finfo(float).eps   # 2.2e-16, one ulp of 1.0

# after each criterion's own gains: HG at the cutoff 100 the criteria have
# always used, g = 2.0 at its default cutoff 363, the top gain at MAX_CUTOFF
_UP_TO_TOP = ((1.13, 100), (2.0, None), (_largest_gain(), 1000))


def _configs(*gains, high=_UP_TO_TOP):
    """Configs at gains with their default cutoffs, then at each (gain, cutoff) of high."""
    return ([AmplifierConfig.for_gain(g) for g in gains]
            + [AmplifierConfig.for_gain(g, cutoff) for g, cutoff in high])


def _draws(cfg: AmplifierConfig, n: int) -> int:
    """n random qubits up to HG's cutoff 100, 1 past it, where a state costs
    O(cutoff^2): one generic qubit checks a quantity linear in the qubit's
    projector or SU(2)-covariant."""
    return n if cfg.cutoff <= 100 else 1


def _report(num: int, name: str, checks=(), ok: bool = True) -> None:
    """Print and assert the criterion's line.  Each (value, bound, g) of
    checks holds when value <= bound; the line shows the one of largest
    value / bound (an exact check's 0 / 0 reads 0) and its gain g, if any."""
    line = f"criterion {num:02d} {name}"
    if checks:
        ok &= all(value <= bound for value, bound, _g in checks)
        value, bound, g = max(checks, key=lambda c: c[0] / c[1] if c[1] else c[0] and math.inf)
        line += f" (worst {value:.1e}, bound {bound:.1e}{'' if g is None else f' at g = {g:g}'})"
    print(f"{line}: {'PASS' if ok else 'FAIL'}")
    assert ok, line


def test_01_normalization(rng):
    checks = []
    for cfg in _configs(0.0, 0.07, 0.5):
        for _ in range(_draws(cfg, 20)):   # the norm is the same for every qubit
            n2 = amplify(random_qubit(rng), cfg).norm_sq()
            # amplify drops exactly the pair tail epsilon_trunc; the rounding of
            # norm_sq's m = (cutoff + 1)(cutoff + 2) squares, a random walk: sqrt(m) ulps
            checks.append((abs(1.0 - cfg.epsilon_trunc - n2), (cfg.cutoff + 1) * EPS, cfg.gain.g))
    _report(1, "normalization within truncation bound", checks)


def test_02_branch_orthogonality():
    checks = []
    for cfg in _configs(0.07, 0.5):
        a, b = amplify(Qubit(1.0, 0.0), cfg), amplify(Qubit(0.0, 1.0), cfg)
        checks.append((abs(inner_product(a, b)), 0.0, cfg.gain.g))   # no shared row
    _report(2, "branch orthogonality exact", checks)


def test_03_state_oracle_equivalence(rng):
    checks = []
    for cfg in _configs(0.07, 0.3):
        q = random_qubit(rng)
        f = fidelity(propagate_hamiltonian(q, cfg), amplify(q, cfg))
        # what reflects off the chains' end, PROPAGATOR_PADDING pairs past the
        # cutoff, moves the state by at most the weight past the cutoff,
        # epsilon_trunc; F's sums round as the norm's in criterion 1
        checks.append((abs(1.0 - f), cfg.epsilon_trunc + (cfg.cutoff + 1) * EPS, cfg.gain.g))
    _report(3, "closed form matches Hamiltonian propagation", checks)


def test_04_density_oracle_equivalence(rng):
    checks = []
    for cfg in _configs(0.07, 0.5):
        for _ in range(_draws(cfg, 10)):   # both are linear in the qubit's projector
            q = random_qubit(rng)
            state = amplify(q, cfg)
            for a, b in ((rho1_closed_form(q, cfg), partial_trace(state, "mode1")),
                         (rho2_closed_form(q, cfg), partial_trace(state, "mode2"))):
                # the bands, not .blocks (5.4 GB a density at cutoff 1000); a
                # missing sector fails.  Each entry is on either side a product
                # of a few rounded factors summed over at most two rows: a few
                # ulps of the largest entry
                gap = (max(np.abs(a.diag - b.diag).max(), np.abs(a.sub - b.sub).max())
                       if a.sectors == b.sectors else math.inf)
                checks.append((gap / a.diag.max(), 16 * EPS, cfg.gain.g))
    _report(4, "density assemblies match partial trace", checks)


def _dropped_pairs(cfg: AmplifierConfig) -> float:
    """The mean pair number truncation drops from amplify's state: the sum of
    n p_n over n > cutoff, p_n the pair law, taken until a term no longer
    changes the total."""
    gp, n, total = cfg.gain, cfg.cutoff + 1, 0.0
    while True:
        term = n * gp.gamma ** 2 * gp.Gamma ** (2 * n) * (n + 1) * (n + 2) / 2
        if total + term == total:
            return total
        total, n = total + term, n + 1


def _oracle(q: Qubit, cfg: AmplifierConfig):
    """g1_oracle's channels (g2H, g2V) for q, each with its share of the mean
    the cutoff drops added back, and their larger gap from g1_closed_form
    relative to nbar.  Pair term n holds n mode-2 photons, a fraction
    1/2 +- alpha beta cos(phi) / 3 of them in H and V.  Criteria 5 to 7 hold
    each gap to 2 (cutoff + 1) ulps, about 3 sqrt(m): g1_oracle sums m =
    (cutoff + 1)(cutoff + 2)/2 band entries, a random walk of sqrt(m) ulps."""
    num, ana = g1_oracle(q, cfg), g1_closed_form(q, cfg.gain)
    share, dropped = q.alpha * q.beta * math.cos(q.phi) / 3, _dropped_pairs(cfg)
    g2h, g2v = num.g2h + (0.5 + share) * dropped, num.g2v + (0.5 - share) * dropped
    return g2h, g2v, max(abs(g2h - ana.g2h), abs(g2v - ana.g2v)) / cfg.gain.nbar


def test_05_visibility(rng):
    checks = [(abs(visibility(BALANCED) - 1.0 / 3.0), 0.0, None)]
    for cfg in _configs(0.07, 0.5):
        for _ in range(_draws(cfg, 50)):   # g1 is linear in the qubit's projector
            q = random_qubit(rng)
            # the fringe's extremes: g2H is largest in phase and smallest at pi
            (hi, _, gap_hi), (lo, _, gap_lo) = (_oracle(Qubit(q.alpha, q.beta, phi), cfg)
                                                for phi in (0.0, math.pi))
            target = 2 * q.alpha * q.beta / 3
            checks += [(gap, 2 * (cfg.cutoff + 1) * EPS, cfg.gain.g) for gap in (
                gap_hi, gap_lo, abs((hi - lo) / (hi + lo) - target), abs(visibility(q) - target))]
    _report(5, "visibility 1/3 exact and 2ab/3 from the oracle's fringe extremes", checks)


def test_06_signal_to_noise():
    checks = []
    for cfg in _configs(0.07, 0.5):
        g2h, _, gap = _oracle(BALANCED, cfg)
        checks += [(value, 2 * (cfg.cutoff + 1) * EPS, cfg.gain.g)
                   for value in (gap, abs(g2h / cfg.gain.nbar - 2.0))]
    _report(6, "signal-to-noise 2 at balanced in-phase qubit", checks)


def test_07_sum_rule(rng):
    checks = []
    for cfg in _configs(0.07, 0.5):
        for _ in range(_draws(cfg, 34)):   # g1 is linear in the qubit's projector
            g2h, g2v, gap = _oracle(random_qubit(rng), cfg)
            checks += [(value, 2 * (cfg.cutoff + 1) * EPS, cfg.gain.g) for value in (
                gap, abs((g2h + g2v) / (3 * math.sinh(cfg.gain.g) ** 2) - 1.0))]
    _report(7, "channel sum rule 3 sinh^2 g", checks)


def test_08_pair_statistics(rng, capsys):
    checks = []
    for cfg in _configs(0.07):
        assert main(["pairs", "--g", repr(cfg.gain.g), "--cutoff", str(cfg.cutoff),
                     "--format", "json"]) == 0
        n, p, cumulative = np.array(json.loads(capsys.readouterr().out)["rows"]).T
        gaps = [abs(cumulative[-1] + cfg.epsilon_trunc - 1.0),
                # mode 2 holds n photons in pair term n; truncation drops n > cutoff
                abs((n @ p + _dropped_pairs(cfg)) / (3 * math.sinh(cfg.gain.g) ** 2) - 1.0)]
        for q in (Qubit(1.0, 0.0), BALANCED, random_qubit(rng)):
            for rho in (partial_trace(amplify(q, cfg), "mode1"), rho1_closed_form(q, cfg)):
                # sector t starts at t(t+1)/2; mode 1's sector 0 holds no pair term
                w = np.add.reduceat(rho.diag, np.cumsum(np.arange(rho.sectors)))[1:]
                gaps.append(np.abs(w - p).max() / p.max())
        # the total, the mean and each weight are sums of at most cutoff + 2
        # terms: at most that many ulps of the total, mean and largest weight
        checks += [(gap, (cfg.cutoff + 2) * EPS, cfg.gain.g) for gap in gaps]
    _report(8, "pair distribution normalization, mean and qubit independence", checks)


def test_09_tail_report(capsys):
    mp = pytest.importorskip("mpmath")
    checks = []
    for g, _cutoff in _UP_TO_TOP:
        computed = pair_tail(GainParams(g), 8)
        with mp.workdps(60):
            exact = float(exact_tail(mp, g, 8))
        # the binomial form adds three positive terms, and x^8 = exp(-8 mu)
        # turns mu's few ulps into about 8 mu (3.4 at HG, less above) of the
        # tail: a few ulps in all
        checks.append((abs(computed - exact), 64 * EPS * exact, g))
    assert main(["pairs", "--preset", "HG", "--threshold", "8"]) == 0
    out = capsys.readouterr().out
    ok = "# reported_tail=0.14" in out
    ok &= "# reported_tail_agreement=no" in out
    with capsys.disabled():
        print(f"\ncomputed tail P(n >= 8) = {pair_tail(GainParams(1.13), 8):.6f}, "
              f"reported value 0.14: flagged as disagreement")
        _report(9, "tail verified against extended precision, report flags 14%", checks, ok)


def test_10_entropy_symmetry(rng):
    """Stops at g = 2.0: each traced state is eigensolved, 0.4 s a mode at
    cutoff 363 and 5.5 s a mode at the top gain's cutoff 1000."""
    checks = []
    for cfg in _configs(0.07, 0.5, high=_UP_TO_TOP[:2]):
        for _ in range(_draws(cfg, 20)):   # the spectrum is SU(2)-covariant
            q = random_qubit(rng)
            # both closed forms return the one entropy of their shared
            # spectrum, so S1 = S2 is read off the traced states, each
            # eigensolved, and the closed form is held to both
            state = amplify(q, cfg)
            s1 = entropy(partial_trace(state, "mode1"))
            s2 = entropy(partial_trace(state, "mode2"))
            closed = entropy(rho1_closed_form(q, cfg))
            # the solve moves each of m = (cutoff + 2)(cutoff + 3)/2 eigenvalues
            # by about an ulp of the largest (at most 1), the entropy by that
            # times |log2 lambda + 1/ln 2|: a random walk of sqrt(m) ulps
            # times a log factor of a few
            checks += [(gap, 4 * (cfg.cutoff + 2) * EPS, cfg.gain.g)
                       for gap in (abs(s1 - s2), abs(closed - s1), abs(closed - s2))]
    _report(10, "entropy symmetry of the two reduced states", checks)


def test_11_hilbert_schmidt(rng):
    checks = []
    for cfg in _configs(0.0, 0.07, 0.5):
        # the fidelity is SU(2)-covariant: it depends on the qubits' overlap alone
        pairs = [(Qubit(1.0, 0.0), Qubit(0.0, 1.0))]
        pairs += [(random_qubit(rng), random_qubit(rng)) for _ in range(_draws(cfg, 20))]
        for a, b in pairs:
            # unit-trace projectors lie 2 - 2F apart, so the distance is kept
            # when the branches' fidelity is the qubits' overlap |<a|b>|^2
            overlap = abs(a.alpha * b.alpha
                          + a.beta * b.beta * cmath.exp(1j * (b.phi - a.phi))) ** 2
            f = fidelity(amplify(a, cfg), amplify(b, cfg))   # F's sums round as in criterion 1
            checks.append((abs(f - overlap), (cfg.cutoff + 1) * EPS, cfg.gain.g))
    _report(11, "Hilbert-Schmidt distance 2 - 2F of every qubit pair preserved", checks)


def test_12_monte_carlo_convergence():
    checks, ok = [], True
    n_points, per_point = 16, 62_500
    angles = tuple(2 * math.pi * k / n_points for k in range(n_points))
    path = BlochPath("z", angles, BALANCED)
    for cfg in _configs(high=_UP_TO_TOP[::2]):   # HG and the top gain
        det = DetectorConfig(qe=1.0, pulses=per_point, seed=2024,
                             coincidence_mask=frozenset({"D_T"}))
        sweep = run(path, cfg, det)
        ok &= isinstance(sweep, SweepStats)
        # a statistical bound: 3 standard errors of the fitted visibility
        checks.append((abs(sweep.visibility - 1 / 3), 3 * sweep.visibility_stderr, cfg.gain.g))
        null_det = DetectorConfig(qe=1.0, p_inject=0.0, pulses=12_500, seed=2025,
                                  coincidence_mask=frozenset({"D_T"}))
        null = run(path, cfg, null_det)
        ok &= null.visibility < 4 * null.visibility_stderr or math.isnan(null.visibility_stderr)
        ok &= null.null_pvalue > 0.01
    _report(12, "million-pulse visibility and empty-injection null", checks, ok)


def test_13_determinism(tmp_path):
    ok = True
    for i, args in enumerate((["montecarlo", "--preset", "HG", "--path", "z:0:0.785:8",
                               "--pulses", "5000", "--seed", "31415"],
                              ["montecarlo", "--g", "0.5", "--path", "z:0:1.57:4",
                               "--pulses", "2000", "--seed", "123"],
                              ["montecarlo", "--g", repr(_largest_gain()), "--cutoff", "1000",
                               "--path", "z:0:0.785:8", "--pulses", "5000", "--seed", "2718"])):
        a, b = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
        ok &= main(args + ["--out", str(a)]) == 0
        ok &= main(args + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
        ok &= (tmp_path / f"a{i}.csv.json").read_bytes() == \
            (tmp_path / f"b{i}.csv.json").read_bytes()
    _report(13, "seeded runs byte-identical", ok=ok)


_PAULI = {"x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]),
          "z": np.diag([1, -1])}


def test_14_su2_suite(rng):
    ok, gaps = np.array_equal(babinet(0.0).matrix, np.eye(2)), []
    for axis, sigma in _PAULI.items():
        # exp(-i angle sigma / 2) through sigma's eigenbasis
        lam, v = np.linalg.eigh(sigma)
        for angle in (0.0, 2 * math.pi, *rng.uniform(-8, 8, size=5)):
            expm = (v * np.exp(-0.5j * angle * lam)) @ v.conj().T
            gaps.append(np.abs(su2_rotation(axis, angle).matrix - expm).max())
        gaps.append(np.abs(su2_rotation(axis, 2 * math.pi).matrix + np.eye(2)).max())
    for d1, d2 in rng.uniform(-math.pi, math.pi, size=(5, 2)):
        gaps.append(np.abs((babinet(d1) @ babinet(d2)).matrix
                           - babinet(d1 + d2).matrix).max())
    for kind, retardance in (("half", math.pi), ("quarter", math.pi / 2)):
        for theta in (0.0, math.pi / 8, math.pi / 4, *rng.uniform(0, math.pi, size=4)):
            # the retarder's Jones matrix with its fast axis at theta: the
            # half-wave plate sends |H> to cos 2theta |H> + sin 2theta |V>, the
            # quarter-wave plate at pi/4 to (1 + i)|H>/2 + (1 - i)|V>/2
            c, s, e = math.cos(theta), math.sin(theta), cmath.exp(1j * retardance)
            jones = np.array([[c * c + e * s * s, c * s * (1 - e)],
                              [c * s * (1 - e), s * s + e * c * c]])
            gaps.append(np.abs(waveplate(kind, theta).matrix - jones).max())
    # every entry is at most 1 and a product or sum of a few rounded sines,
    # cosines and square roots: a few ulps
    _report(14, "polarization rotations are exp(-i theta sigma / 2) and Jones matrices",
            [(gap, 4 * EPS, None) for gap in gaps], ok)
