import math

import numpy as np
import pytest

from qiopa.amplifier import AmplifierConfig, amplify
from qiopa.fock import (FockIndex4, FockState4, _pair_rotation, default_cutoff,
                        inner_product, make_gain, number_expectation,
                        pair_probability, pair_tail, rotate_mode_pair)
from qiopa.observables import DETECTED_FIELD_UNITARY
from qiopa.polarization import Qubit

from conftest import random_qubit


class TestMakeGain:
    def test_zero_gain_identity_case(self):
        gp = make_gain(0.0)
        assert gp.C == 1.0
        assert gp.Gamma == 0.0
        assert gp.gamma == 1.0
        assert gp.nbar == 0.0

    @pytest.mark.parametrize("g", [0.0, 0.07, 0.5, 1.13, 2.0])
    def test_hyperbolic_identity(self, g):
        gp = make_gain(g)
        lhs = gp.C ** 2 * (1.0 - gp.Gamma ** 2)
        assert abs(lhs - 1.0) <= 4 * math.ulp(1.0)

    def test_low_gain_values(self):
        # frozen from a 40-digit evaluation of tanh/sinh at g = 0.07
        gp = make_gain(0.07)
        assert gp.Gamma == pytest.approx(0.06988589031642899, abs=1e-16)
        assert gp.nbar == pytest.approx(0.004908008564008272, abs=1e-16)

    def test_high_gain_values(self):
        # frozen from a 40-digit evaluation at g = 1.13
        gp = make_gain(1.13)
        assert gp.Gamma == pytest.approx(0.8110192620996814, abs=1e-15)
        assert gp.nbar == pytest.approx(1.9218599128797857, abs=1e-14)
        assert gp.gamma == pytest.approx(0.20022159416359232, abs=1e-15)

    @pytest.mark.parametrize("g", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_gain(self, g):
        with pytest.raises(ValueError):
            make_gain(g)


class TestPairStatistics:
    def test_tail_matches_extended_precision_sum(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        gp = make_gain(1.13)
        x = mp.tanh(mp.mpf("1.13")) ** 2
        pref = mp.cosh(mp.mpf("1.13")) ** -6
        for start in (1, 4, 8, 20):
            exact = pref * mp.nsum(lambda n: (n + 1) * (n + 2) / 2 * x ** n,
                                   [start, mp.inf])
            assert pair_tail(gp, start) == pytest.approx(float(exact), abs=1e-14)

    def test_tail_zero_threshold_is_one(self):
        assert pair_tail(make_gain(0.9), 0) == 1.0

    def test_probabilities_sum_with_tail(self):
        gp = make_gain(0.6)
        total = sum(float(pair_probability(gp, n)) for n in range(30))
        assert total + pair_tail(gp, 30) == pytest.approx(1.0, abs=1e-12)

    def test_default_cutoff_respects_tail_rule(self):
        for g in (0.0, 0.07, 0.5, 1.13):
            gp = make_gain(g)
            assert pair_tail(gp, default_cutoff(gp) + 1) < 1e-9


def _random_state(rng, n_entries=25, cutoff=6):
    amps = {}
    for _ in range(n_entries):
        key = tuple(int(x) for x in rng.integers(0, 4, size=4))
        amps[key] = complex(rng.normal(), rng.normal())
    return FockState4(amps, cutoff)


class TestInnerProduct:
    def test_self_product_is_squared_norm(self, rng):
        st = _random_state(rng)
        ip = inner_product(st, st)
        assert ip.imag == pytest.approx(0.0, abs=1e-14)
        assert ip.real == pytest.approx(st.norm_sq(), rel=1e-12)

    def test_conjugate_symmetry(self, rng):
        a, b = _random_state(rng), _random_state(rng)
        assert inner_product(a, b) == pytest.approx(
            inner_product(b, a).conjugate(), abs=1e-14)

    def test_disjoint_supports_orthogonal(self):
        a = FockState4({(1, 0, 0, 0): 1.0}, 4)
        b = FockState4({(0, 1, 0, 0): 1.0}, 4)
        assert inner_product(a, b) == 0

    def test_cap_mismatch_rejected(self):
        a = FockState4({(0, 0, 0, 0): 1.0}, 4)
        b = FockState4({(0, 0, 0, 0): 1.0}, 5)
        with pytest.raises(ValueError):
            inner_product(a, b)


class TestNumberExpectation:
    def test_vacuum_is_zero(self):
        vac = FockState4({(0, 0, 0, 0): 1.0}, 4)
        for mode in ("1h", "1v", "2h", "2v"):
            assert number_expectation(vac, mode) == 0.0

    def test_fock_state_counts_photons(self):
        st = FockState4({(2, 1, 0, 3): 1.0}, 6)
        assert number_expectation(st, "1h") == 2
        assert number_expectation(st, "2v") == 3


class TestRotateModePair:
    def test_identity_leaves_state_unchanged(self, rng):
        st = _random_state(rng)
        out = rotate_mode_pair(st, "mode1", np.eye(2))
        assert set(out.amplitudes) == set(st.amplitudes)
        for k, v in st.amplitudes.items():
            assert out.amplitudes[k] == pytest.approx(v, abs=1e-14)

    def test_single_photon_beam_splitter(self):
        st = FockState4({(0, 0, 1, 0): 1.0}, 4)
        u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = rotate_mode_pair(st, "mode2", u)
        assert out.amplitudes[FockIndex4(0, 0, 1, 0)] == pytest.approx(2 ** -0.5)
        assert out.amplitudes[FockIndex4(0, 0, 0, 1)] == pytest.approx(2 ** -0.5)

    def test_hong_ou_mandel_pair_bunches(self):
        st = FockState4({(0, 0, 1, 1): 1.0}, 4)
        u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = rotate_mode_pair(st, "mode2", u)
        assert out.amplitudes[FockIndex4(0, 0, 2, 0)] == pytest.approx(2 ** -0.5)
        assert out.amplitudes[FockIndex4(0, 0, 0, 2)] == pytest.approx(-2 ** -0.5)
        assert FockIndex4(0, 0, 1, 1) not in out.amplitudes

    def test_norm_and_pair_total_preserved(self, rng):
        theta, phase = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        u = np.array([[math.cos(theta), math.sin(theta) * np.exp(1j * phase)],
                      [-math.sin(theta) * np.exp(-1j * phase), math.cos(theta)]])
        for _ in range(5):
            st = _random_state(rng)
            out = rotate_mode_pair(st, "mode2", u)
            assert out.norm_sq() == pytest.approx(st.norm_sq(), abs=1e-10)
            totals = {idx.n2h + idx.n2v for idx in st.amplitudes}
            assert {idx.n2h + idx.n2v for idx in out.amplitudes} <= totals

    def test_non_unitary_rejected(self):
        st = FockState4({(0, 0, 1, 0): 1.0}, 4)
        with pytest.raises(ValueError):
            rotate_mode_pair(st, "mode2", np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_entry_order_matches_grouped_reference(self, rng):
        # per-entry reference: groups of (other pair, total) in order of
        # first appearance, then p ascending within each group
        st = _random_state(rng, n_entries=40)
        u = _random_u2(rng)
        out = rotate_mode_pair(st, "mode1", u)
        groups: dict = {}
        for (n1h, n1v, n2h, n2v), amp in st.amplitudes.items():
            groups.setdefault((n2h, n2v, n1h + n1v), {})[n1h] = amp
        keys, amps = [], []
        for (n2h, n2v, t), entries in groups.items():
            vin = np.zeros(t + 1, dtype=complex)
            for m, amp in entries.items():
                vin[m] = amp
            for p, a in enumerate(_pair_rotation(_key(u), t) @ vin):
                if abs(a) >= 1e-15:
                    keys.append((p, t - p, n2h, n2v))
                    amps.append(a)
        assert out.occ.tolist() == [list(k) for k in keys]
        assert np.allclose(out.amp, amps, rtol=0, atol=1e-14)

    def test_high_gain_analyzer_keeps_norm(self):
        st = amplify(Qubit(2 ** -0.5, 2 ** -0.5), AmplifierConfig.for_gain(1.13, 100))
        out = rotate_mode_pair(st, "mode2", DETECTED_FIELD_UNITARY)
        assert abs(out.norm_sq() - st.norm_sq()) < 1e-14

    def test_high_gain_round_trip_restores_state(self):
        st = amplify(Qubit(0.6, 0.8, 0.9), AmplifierConfig.for_gain(1.13, 100))
        u = DETECTED_FIELD_UNITARY
        back = rotate_mode_pair(rotate_mode_pair(st, "mode2", u), "mode2", u.conj().T)
        before, after = st.amplitudes, back.amplitudes
        assert set(after) == set(before)
        assert max(abs(after[k] - a) for k, a in before.items()) < 1e-12

    def test_rotations_on_the_two_pairs_commute(self, rng):
        st = amplify(Qubit(0.6, 0.8, 0.9), AmplifierConfig.for_gain(0.5))
        u, w = _random_u2(rng), _random_u2(rng)
        a = rotate_mode_pair(rotate_mode_pair(st, "mode1", u), "mode2", w).amplitudes
        b = rotate_mode_pair(rotate_mode_pair(st, "mode2", w), "mode1", u).amplitudes
        assert set(a) == set(b)
        assert max(abs(a[k] - v) for k, v in b.items()) < 1e-12


def _random_u2(rng):
    """Haar-random U(2) matrix; its determinant is a generic phase."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _key(u):
    return tuple(complex(x) for x in np.asarray(u).ravel())


class TestPairRotationBlocks:
    def test_unitary_through_high_gain_totals(self, rng):
        top = 2 * AmplifierConfig.for_gain(1.5).cutoff + 1
        random_u = _random_u2(rng)
        assert abs(np.linalg.det(random_u) - 1.0) > 1e-3
        for u in (DETECTED_FIELD_UNITARY, random_u):
            for t in range(top + 1):
                # bypass the cache: these blocks are far larger than any run needs
                d = _pair_rotation.__wrapped__(_key(u), t)
                assert np.abs(d.conj().T @ d - np.eye(t + 1)).max() < 1e-12, t

    def test_blocks_form_a_representation(self, rng):
        u, w = _random_u2(rng), _random_u2(rng)
        # single photon: |1,0> -> u00|1,0> + u10|0,1>, rows/columns ordered by p
        assert np.allclose(_pair_rotation(_key(u), 1), u[::-1, ::-1], atol=1e-14)
        for t in range(13):
            assert np.allclose(_pair_rotation(_key(u @ w), t),
                               _pair_rotation(_key(u), t) @ _pair_rotation(_key(w), t),
                               atol=1e-12)
