import json
import math

import numpy as np
import pytest
from scipy.linalg import logm

from qiopa.amplifier import (AmplifierConfig, GainParams, _largest_gain, amplify,
                             vacuum_output)
from qiopa.cli import main
from qiopa.density import rho2_closed_form
from qiopa.fock import _pair_rotation, rotate_mode_pair
from qiopa.observables import (DETECTED_FIELD_UNITARY, g1_closed_form,
                               g1_oracle, visibility)
from qiopa.polarization import BlochPath, PolarizationUnitary, Qubit, apply

from conftest import BALANCED, random_qubit
from reference import detected_law, photon_number


class TestClosedForm:
    def test_detected_field_unitary_is_unitary(self):
        u = DETECTED_FIELD_UNITARY
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-15

    def test_balanced_qubit_in_phase(self):
        gp = GainParams(0.9)
        pair = g1_closed_form(BALANCED, gp)
        assert pair.g2h == pytest.approx(2.0 * gp.nbar, rel=1e-14)
        assert pair.g2v == pytest.approx(1.0 * gp.nbar, rel=1e-14)

    def test_balanced_qubit_out_of_phase_swaps_channels(self):
        gp = GainParams(0.9)
        q = Qubit(2 ** -0.5, 2 ** -0.5, math.pi)
        pair = g1_closed_form(q, gp)
        assert pair.g2h == pytest.approx(1.0 * gp.nbar, rel=1e-12)
        assert pair.g2v == pytest.approx(2.0 * gp.nbar, rel=1e-12)

    def test_pole_qubit_has_no_interference(self):
        gp = GainParams(0.7)
        pair = g1_closed_form(Qubit(1.0, 0.0), gp)
        assert pair.g2h == pair.g2v == pytest.approx(1.5 * gp.nbar, rel=1e-14)

    def test_difference_antisymmetric_under_phase_flip(self, rng):
        gp = GainParams(0.8)
        for _ in range(10):
            q = random_qubit(rng)
            flipped = Qubit(q.alpha, q.beta, q.phi + math.pi)
            assert g1_closed_form(q, gp).difference == pytest.approx(
                -g1_closed_form(flipped, gp).difference, abs=1e-12)


class TestOracleAgreement:
    @pytest.mark.parametrize("g", [0.07, 0.5])
    def test_brute_force_matches_closed_form(self, g, rng):
        cfg = AmplifierConfig.for_gain(g)
        for _ in range(3):
            q = random_qubit(rng)
            num = g1_oracle(q, cfg)
            ana = g1_closed_form(q, cfg.gain)
            assert num.g2h == pytest.approx(ana.g2h, abs=1e-8)
            assert num.g2v == pytest.approx(ana.g2v, abs=1e-8)

    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)])
    def test_equals_rotated_state_reference(self, g, cutoff, rng):
        # reference: mean photon numbers of the analyzer-rotated four-mode state
        cfg = AmplifierConfig.for_gain(g, cutoff)
        for q in (BALANCED, random_qubit(rng)):
            state = rotate_mode_pair(amplify(q, cfg), "mode2", DETECTED_FIELD_UNITARY)
            num = g1_oracle(q, cfg)
            assert abs(num.g2h - photon_number(state, 2)) < 1e-12   # 2h
            assert abs(num.g2v - photon_number(state, 3)) < 1e-12   # 2v

    @pytest.mark.parametrize("g", [1.5, 2.0, pytest.param(_largest_gain(), id="top")])
    def test_high_gain_matches_closed_form(self, g, rng):
        cfg = AmplifierConfig.for_gain(g)   # cutoff 1000 at the top gain
        tol = 1e-8 + cfg.epsilon_trunc * (2 * cfg.cutoff + 1)
        q = random_qubit(rng)
        num = g1_oracle(q, cfg)
        ana = g1_closed_form(q, cfg.gain)
        assert num.g2h == pytest.approx(ana.g2h, abs=tol)
        assert num.g2v == pytest.approx(ana.g2v, abs=tol)


def _rotated_marginal(state, size):
    """Law of (n2H, n2V) in the detected-law row order, from the mode-2
    marginal of the analyzer-rotated four-mode state."""
    st = rotate_mode_pair(state, "mode2", DETECTED_FIELD_UNITARY)
    h, v = st.occ[:, 2], st.occ[:, 3]
    n = h + v
    return np.bincount(n * (n + 1) // 2 + h, np.abs(st.amp) ** 2, size)


def _mode2_law(q, cfg):
    """Mode-2 numbers (h, n - h) of the detected law and their probabilities,
    summed over the clone branches."""
    mode2, branches = detected_law(q, cfg)
    return mode2, sum(p for _mode1, p in branches)


def _cells(occ, p):
    """{(n1H, n1V, n2H, n2V): probability} of distinct rows given as four columns."""
    return dict(zip(map(tuple, np.column_stack(occ).tolist()), p.tolist()))


def _analyzed_sector(rho, t):
    """Law of h = 0..t detected H photons (t - h in V) in sector t of a
    mode-2 density: diag(D_t rho_t D_t^H) from the bands of rho_t, with D_t
    the analyzer block that rotate_mode_pair uses."""
    diag, sub = rho.sector(t)
    # D_t[h, m] acts on |m>_h |t-m>_v, rho_t on |t-p>_h |p>_v
    d = _pair_rotation(-1j * logm(DETECTED_FIELD_UNITARY), t)[:, ::-1]
    return np.abs(d) ** 2 @ diag + 2.0 * ((d[:, 1:] * d[:, :-1].conj()) @ sub).real


class TestDetectedLaw:
    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)])
    def test_equals_rotated_state_marginal(self, g, cutoff, rng):
        cfg = AmplifierConfig.for_gain(g, cutoff)
        (h, v), p = _mode2_law(None, cfg)
        n = h + v
        assert np.array_equal(n * (n + 1) // 2 + h, np.arange(len(p)))
        assert np.abs(p - _rotated_marginal(vacuum_output(cfg), len(p))).max() < 1e-13
        for q in (Qubit(1.0, 0.0), Qubit(0.0, 1.0), random_qubit(rng),
                  random_qubit(rng)):
            (h_q, v_q), p = _mode2_law(q, cfg)
            assert np.array_equal(h_q, h) and np.array_equal(v_q, v)
            assert np.abs(p - _rotated_marginal(amplify(q, cfg), len(p))).max() < 1e-13

    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)])
    def test_branches_equal_the_analyzed_four_mode_states(self, g, cutoff, rng):
        # by SU(2) covariance, the analyzer on both mode pairs of amplify(q)
        # gives amplify(U q) (TestSU2Covariance), and leaves the vacuum alone
        cfg = AmplifierConfig.for_gain(g, cutoff)
        u = PolarizationUnitary(DETECTED_FIELD_UNITARY)
        for q, state in [(None, vacuum_output(cfg))] + [
                (q, amplify(apply(u, q), cfg)) for q in (
                    BALANCED, Qubit(0.6, 0.8, math.pi), random_qubit(rng),
                    random_qubit(rng))]:
            (h, v), branches = detected_law(q, cfg)
            law = {}
            for (n1h, n1v), p in branches:   # the branches differ on mode 1
                assert p.min() >= 0.0
                law.update(_cells((n1h, n1v, h, v), p))
            want = _cells(state.occ.T, np.abs(state.amp) ** 2)
            assert max(abs(law.get(k, 0.0) - want.get(k, 0.0))
                       for k in law.keys() | want.keys()) < 1e-15

    def test_equals_analyzed_closed_form_bands_at_high_gain(self, rng):
        # every sector would take seconds of analyzer blocks at cutoff 363;
        # the lowest, middle and highest sectors cover the law's range
        cfg = AmplifierConfig.for_gain(2.0)
        assert cfg.cutoff == 363
        for q in (BALANCED, random_qubit(rng)):
            (h, _v), p = _mode2_law(q, cfg)
            rho = rho2_closed_form(q, cfg)
            for t in (0, 1, 2, 120, 240, 362, 363):
                k = t * (t + 1) // 2
                assert np.array_equal(h[k:k + t + 1], np.arange(t + 1))
                assert np.abs(p[k:k + t + 1] - _analyzed_sector(rho, t)).max() < 1e-13

    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100), (2.0, None),
                                           pytest.param(_largest_gain(), 1000, id="top")])
    def test_first_moments_equal_closed_form(self, g, cutoff, rng):
        cfg = AmplifierConfig.for_gain(g, cutoff)
        tol = 1e-8 + cfg.epsilon_trunc * (2 * cfg.cutoff + 1)
        (h, v), p = _mode2_law(None, cfg)
        assert [p @ h, p @ v] == pytest.approx([cfg.gain.nbar] * 2, abs=tol)
        for q in (BALANCED, random_qubit(rng), random_qubit(rng)):
            (h, v), p = _mode2_law(q, cfg)
            cf = g1_closed_form(q, cfg.gain)
            assert [p @ h, p @ v] == pytest.approx([cf.g2h, cf.g2v], abs=tol)


class TestVisibility:
    def test_pole_case_is_zero(self):
        assert visibility(Qubit(1.0, 0.0)) == 0.0


def _fringe_rows(capsys, g: float, count: int) -> list:
    """Rows of `qiopa fringe` over one period of the balanced qubit's z sweep,
    each checked to equal g1_closed_form at its qubit exactly."""
    step = 2 * math.pi / (count - 1)
    assert main(["fringe", "--g", repr(g), "--path", f"z:0:{step!r}:{count}",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    # the path the command builds: angles start + step k
    path = BlochPath("z", tuple(0.0 + step * k for k in range(count)), BALANCED)
    gain = GainParams(g)
    assert len(rows) == count
    for row, angle, q in zip(rows, path.angles, path.qubits()):
        pair = g1_closed_form(q, gain)
        assert row == [angle, pair.difference, pair.g2h, pair.g2v]
    return rows


class TestFringeSweep:
    def test_rows_follow_path(self, capsys):
        nbar = GainParams(1.13).nbar
        for angle, dg, g2h, g2v in _fringe_rows(capsys, 1.13, 17):
            assert g2h + g2v == pytest.approx(3 * nbar, abs=1e-12)
            assert dg == pytest.approx(g2h - g2v, abs=1e-14)

    def test_fringe_amplitude_realizes_visibility(self, capsys):
        g2h = np.array([r[2] for r in _fringe_rows(capsys, 0.9, 721)])
        v = (g2h.max() - g2h.min()) / (g2h.max() + g2h.min())
        assert v == pytest.approx(visibility(BALANCED), abs=1e-5)
