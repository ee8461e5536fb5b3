import math

import numpy as np
import pytest

from qiopa.polarization import (BlochPath, PolarizationUnitary, Qubit, apply,
                                babinet, su2_rotation, waveplate)

from conftest import random_qubit


class TestQubit:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            Qubit(0.9, 0.9)

    def test_phase_gauge_fixed_when_beta_zero(self):
        q = Qubit(1.0, 0.0, phi=2.3)
        assert q.phi == 0.0

    def test_phi_wrapped_to_half_open_interval(self):
        q = Qubit(2 ** -0.5, 2 ** -0.5, phi=3 * math.pi)
        assert q.phi == pytest.approx(math.pi)
        assert -math.pi < q.phi <= math.pi
        # math.remainder(-2 pi, 2 pi) is -0.0, which printed as a phase of -0
        assert repr(Qubit(0.6, 0.8, -2 * math.pi).phi) == "0.0"


class TestSu2Rotation:
    def test_y_pi_flips_poles(self):
        q = apply(su2_rotation("y", math.pi), Qubit(1.0, 0.0))
        assert q.alpha == pytest.approx(0.0, abs=1e-15)
        assert q.beta == pytest.approx(1.0)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            su2_rotation("w", 1.0)


class TestWaveplate:
    def test_half_wave_at_22p5_degrees(self):
        q = apply(waveplate("half", math.radians(22.5)), Qubit(1.0, 0.0))
        assert q.alpha == pytest.approx(2 ** -0.5)
        assert q.beta == pytest.approx(2 ** -0.5)
        assert q.phi == pytest.approx(0.0, abs=1e-12)

    def test_quarter_wave_at_45_degrees_makes_circular(self):
        q = apply(waveplate("quarter", math.pi / 4), Qubit(1.0, 0.0))
        assert q.alpha == pytest.approx(2 ** -0.5)
        assert q.beta == pytest.approx(2 ** -0.5)
        assert abs(q.phi) == pytest.approx(math.pi / 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            waveplate("third", 0.0)


class TestBabinet:
    def test_shifts_relative_phase(self):
        q = apply(babinet(math.pi), Qubit(2 ** -0.5, 2 ** -0.5, 0.0))
        assert q.phi == pytest.approx(math.pi)


class TestApply:
    def test_identity_returns_same_qubit(self):
        q = Qubit(0.6, 0.8, 0.4)
        out = apply(PolarizationUnitary(np.eye(2)), q)
        assert out.alpha == pytest.approx(q.alpha)
        assert out.beta == pytest.approx(q.beta)
        assert out.phi == pytest.approx(q.phi)

    def test_y_half_turn_balances_pole(self):
        out = apply(su2_rotation("y", math.pi / 2), Qubit(1.0, 0.0))
        assert out.alpha == pytest.approx(2 ** -0.5)
        assert out.beta == pytest.approx(2 ** -0.5)

    def test_norm_preserved_for_random_inputs(self, rng):
        for _ in range(20):
            q = random_qubit(rng)
            u = (su2_rotation("x", rng.uniform(-3, 3))
                 @ su2_rotation("z", rng.uniform(-3, 3)))
            out = apply(u, q)
            assert out.alpha ** 2 + out.beta ** 2 == pytest.approx(1.0, abs=1e-12)


class TestPolarizationUnitary:
    @pytest.mark.parametrize("m", [[[1.0, 0.1], [0.0, 1.0]],
                                   [[math.nan, 0.0], [0.0, 1.0]],
                                   np.eye(3)])
    def test_rejects_non_unitary(self, m):
        with pytest.raises(ValueError):
            PolarizationUnitary(m)

    def test_caller_array_stays_writable(self):
        m = np.eye(2, dtype=complex)
        PolarizationUnitary(m)
        m[0, 0] = -1.0


class TestBlochPath:
    def test_requires_increasing_angles(self):
        # the message names the first pair out of order, with its indices
        for angles, pair in (((0.0, 0.0, 1.0), r"angles\[0\] = 0\.0 >= angles\[1\] = 0\.0"),
                             ((6.0, 5.0), r"angles\[0\] = 6\.0 >= angles\[1\] = 5\.0"),
                             ((0.0, 2.0, 1.0, 0.5), r"angles\[1\] = 2\.0 >= angles\[2\] = 1\.0")):
            with pytest.raises(ValueError, match=rf"^angles must strictly increase, got {pair}$"):
                BlochPath("z", angles, Qubit(1.0, 0.0))

    def test_requires_two_points(self):
        for angles in ((0.0,), ()):
            with pytest.raises(ValueError,
                               match=rf"^angles must hold 2 or more values, got {len(angles)}$"):
                BlochPath("z", angles, Qubit(1.0, 0.0))

    @pytest.mark.parametrize("axis", ["w", "X", ""])
    def test_unknown_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="axis must be one of x, y, z"):
            BlochPath(axis, (0.0, 1.0), Qubit(1.0, 0.0))

    def test_qubits_follow_rotation(self):
        path = BlochPath("z", (0.0, 1.0, 2.0), Qubit(2 ** -0.5, 2 ** -0.5, 0.0))
        phis = [q.phi for q in path.qubits()]
        assert phis == pytest.approx([0.0, 1.0, 2.0])
