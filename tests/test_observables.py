import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qiopa.amplifier import AmplifierConfig, amplify
from qiopa.fock import make_gain, number_expectation, rotate_mode_pair
from qiopa.observables import (DETECTED_FIELD_UNITARY, G1Pair, fringe_sweep,
                               g1_closed_form, g1_oracle, signal_to_noise,
                               visibility)
from qiopa.polarization import BlochPath, Qubit

from conftest import random_qubit

BALANCED = Qubit(2 ** -0.5, 2 ** -0.5, 0.0)


class TestClosedForm:
    def test_detected_field_unitary_is_unitary(self):
        u = DETECTED_FIELD_UNITARY
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-15

    def test_balanced_qubit_in_phase(self):
        gp = make_gain(0.9)
        pair = g1_closed_form(BALANCED, gp)
        assert pair.g2h == pytest.approx(2.0 * gp.nbar, rel=1e-14)
        assert pair.g2v == pytest.approx(1.0 * gp.nbar, rel=1e-14)

    def test_balanced_qubit_out_of_phase_swaps_channels(self):
        gp = make_gain(0.9)
        q = Qubit(2 ** -0.5, 2 ** -0.5, math.pi)
        pair = g1_closed_form(q, gp)
        assert pair.g2h == pytest.approx(1.0 * gp.nbar, rel=1e-12)
        assert pair.g2v == pytest.approx(2.0 * gp.nbar, rel=1e-12)

    def test_pole_qubit_has_no_interference(self):
        gp = make_gain(0.7)
        pair = g1_closed_form(Qubit(1.0, 0.0), gp)
        assert pair.g2h == pair.g2v == pytest.approx(1.5 * gp.nbar, rel=1e-14)

    def test_sum_rule(self, rng):
        for _ in range(100):
            gp = make_gain(rng.uniform(0.0, 1.2))
            pair = g1_closed_form(random_qubit(rng), gp)
            assert pair.g2h + pair.g2v == pytest.approx(3 * gp.nbar, abs=1e-10)

    def test_difference_antisymmetric_under_phase_flip(self, rng):
        gp = make_gain(0.8)
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
        # reference: number expectations on the analyzer-rotated four-mode state
        cfg = AmplifierConfig.for_gain(g, cutoff)
        for q in (BALANCED, random_qubit(rng)):
            state = rotate_mode_pair(amplify(q, cfg), "mode2", DETECTED_FIELD_UNITARY)
            num = g1_oracle(q, cfg)
            assert abs(num.g2h - number_expectation(state, "2h")) < 1e-12
            assert abs(num.g2v - number_expectation(state, "2v")) < 1e-12

    def test_high_gain_matches_closed_form(self, rng):
        cfg = AmplifierConfig.for_gain(1.5)
        tol = 1e-8 + cfg.epsilon_trunc * (2 * cfg.cutoff + 1)
        q = random_qubit(rng)
        num = g1_oracle(q, cfg)
        ana = g1_closed_form(q, cfg.gain)
        assert num.g2h == pytest.approx(ana.g2h, abs=tol)
        assert num.g2v == pytest.approx(ana.g2v, abs=tol)


class TestVisibility:
    def test_balanced_case_is_exactly_one_third(self):
        assert visibility(BALANCED) == 2 * 0.5 / 3

    def test_pole_case_is_zero(self):
        assert visibility(Qubit(1.0, 0.0)) == 0.0

    def test_matches_fringe_extremization(self, rng):
        gp = make_gain(1.13)
        for _ in range(20):
            q = random_qubit(rng)

            def diff(phi, q=q):
                p = g1_closed_form(Qubit(q.alpha, q.beta, phi), gp)
                return p.g2h

            hi = -minimize_scalar(lambda t: -diff(t), bounds=(-math.pi, math.pi),
                                  method="bounded",
                                  options={"xatol": 1e-12}).fun
            lo = minimize_scalar(diff, bounds=(-math.pi, math.pi),
                                 method="bounded",
                                 options={"xatol": 1e-12}).fun
            assert (hi - lo) / (hi + lo) == pytest.approx(
                visibility(q), abs=1e-10)


class TestSignalToNoise:
    def test_two_at_balanced_in_phase(self):
        assert signal_to_noise(BALANCED, make_gain(1.13)) == pytest.approx(
            2.0, abs=1e-12)

    def test_three_halves_without_interference(self):
        assert signal_to_noise(Qubit(1.0, 0.0), make_gain(0.5)) == 1.5

    def test_one_at_balanced_out_of_phase(self):
        q = Qubit(2 ** -0.5, 2 ** -0.5, math.pi)
        assert signal_to_noise(q, make_gain(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            signal_to_noise(BALANCED, make_gain(0.0))


class TestFringeSweep:
    def test_rows_follow_path(self):
        angles = tuple(np.linspace(0.0, 2 * math.pi, 17))
        path = BlochPath("z", angles, BALANCED)
        table = fringe_sweep(path, make_gain(1.13))
        assert len(table.rows) == len(angles)
        for (angle, dg, g2h, g2v), phi in zip(table.rows, angles):
            assert angle == phi
            assert g2h + g2v == pytest.approx(3 * table.gain.nbar, abs=1e-12)
            assert dg == pytest.approx(g2h - g2v, abs=1e-14)

    def test_fringe_amplitude_realizes_visibility(self):
        angles = tuple(np.linspace(0.0, 2 * math.pi, 721))
        path = BlochPath("z", angles, BALANCED)
        g2h = np.array([r[2] for r in fringe_sweep(path, make_gain(0.9)).rows])
        v = (g2h.max() - g2h.min()) / (g2h.max() + g2h.min())
        assert v == pytest.approx(visibility(BALANCED), abs=1e-5)

    def test_global_phase_does_not_shift_fringes(self):
        gp = make_gain(0.8)
        q = Qubit(0.6, 0.8, 0.3, global_phase=1.234)
        plain = Qubit(0.6, 0.8, 0.3)
        assert g1_closed_form(q, gp).difference == \
            g1_closed_form(plain, gp).difference
