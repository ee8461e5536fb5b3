import math

import numpy as np
import pytest
from scipy.linalg import logm

from qiopa import fock
from qiopa.amplifier import AmplifierConfig, _largest_gain, amplify, propagate_hamiltonian
from qiopa.errors import NumericalError
from qiopa.fock import (FockState4, _pair_rotation, fidelity, inner_product,
                        rotate_mode_pair, row_keys)
from qiopa.observables import DETECTED_FIELD_UNITARY
from qiopa.polarization import Qubit

from conftest import random_qubit


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
        assert ip.real == pytest.approx(st.norm_sq(), rel=1e-12, abs=0)

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

    def test_matches_dict_reference_on_shuffled_overlapping_rows(self, rng):
        # rows drawn from 0..3 per mode overlap in part; each state is handed
        # over in a shuffled row order
        for _ in range(20):
            a, b = (_random_state(rng, n_entries=60) for _ in range(2))
            perm = rng.permutation(len(b))
            b = FockState4.from_arrays(b.occ[perm], b.amp[perm], b.cutoff)
            da, db = a.amplitudes, b.amplitudes
            shared = da.keys() & db.keys()
            assert 0 < len(shared) < min(len(da), len(db))
            ref = sum(da[k].conjugate() * db[k] for k in shared)
            assert inner_product(a, b) == pytest.approx(ref, abs=1e-13)

    def test_state_with_every_amplitude_pruned_is_orthogonal(self, rng):
        empty = FockState4({(1, 0, 0, 0): 1e-16, (0, 1, 0, 0): 1e-17}, 6)
        assert len(empty) == 0
        st = _random_state(rng)
        assert inner_product(empty, st) == 0j
        assert inner_product(st, empty) == 0j
        assert inner_product(empty, empty) == 0j

    def test_fidelity_with_a_zero_state_is_undefined(self, rng):
        empty = FockState4({(1, 0, 0, 0): 1e-16}, 6)
        st = _random_state(rng)
        for a, b in ((empty, st), (st, empty), (empty, empty)):
            with pytest.raises(ValueError, match="zero state"):
                fidelity(a, b)

    def test_occupations_beyond_an_int64_key_rejected(self):
        # per-column radices 2^16 + 1 multiply to more than 2^63
        a = FockState4({(2 ** 16, 2 ** 16, 2 ** 16, 2 ** 16): 1.0}, 4)
        b = FockState4({(0, 0, 0, 0): 1.0}, 4)
        with pytest.raises(ValueError, match="int64"):
            inner_product(a, b)


class TestNonFiniteAmplitudes:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imag-inf"])
    @pytest.mark.parametrize("pos", [0, 1])
    def test_non_finite_amplitude_raises(self, bad, pos):
        # a NaN fails the prune test |a| >= PRUNE_THRESHOLD: only this check stops it
        amp = np.ones(2, dtype=complex)
        amp[pos] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            FockState4.from_arrays(np.array([[1, 0, 0, 0], [0, 1, 0, 0]]), amp, 5)
        with pytest.raises(NumericalError, match="non-finite"):
            FockState4({(1, 0, 0, 0): amp[0], (0, 1, 0, 0): amp[1]}, 5)


def _reversed(state: FockState4) -> FockState4:
    """The same state on a second row set: its rows in reverse order, held
    read-only, as the amplifier's memoised rows are."""
    occ = state.occ[::-1].copy()
    occ.setflags(write=False)
    return FockState4.from_arrays(occ, state.amp[::-1].copy(), state.cutoff)


class TestOverlapPlans:
    """inner_product of two states on one row array is one vdot over their
    amplitudes; states on different row sets are matched by a plan built on
    every call."""

    @pytest.mark.parametrize("g, cutoff",
                             [(0.07, 12), (1.13, 100), (_largest_gain(), 1000)],
                             ids=["LG", "HG", "top"])
    def test_shared_rows_equal_the_overlap_of_a_row_copy(self, g, cutoff, rng, monkeypatch):
        # the planned sum runs in key order, the shared one in row order
        cfg = AmplifierConfig.for_gain(g, cutoff)
        q = random_qubit(rng)
        prop, state = propagate_hamiltonian(q, cfg), amplify(q, cfg)
        assert prop.occ is state.occ
        copy = FockState4.from_arrays(state.occ.copy(), state.amp, cfg.cutoff)
        planned = inner_product(prop, copy), fidelity(prop, copy)
        with monkeypatch.context() as m:
            m.setattr(fock, "_overlap_plan", None)   # shared rows plan nothing
            shared = inner_product(prop, state), fidelity(prop, state)
        assert shared[0] == pytest.approx(planned[0], rel=1e-13, abs=0)
        assert shared[1] == pytest.approx(planned[1], rel=1e-13, abs=0)

    def test_swapped_arguments_give_the_conjugate(self, rng):
        # the propagator shares amplify's rows, so pair it with a second row
        # set, where a plan for (a, b) applied to (b, a) would misindex
        cfg = AmplifierConfig.for_gain(1.13, 100)
        q = random_qubit(rng)
        prop, other = propagate_hamiltonian(q, cfg), _reversed(amplify(q, cfg))
        assert len(prop) == len(other)     # a swapped plan would index in range
        ab = inner_product(prop, other)
        ba = inner_product(other, prop)
        assert ba == pytest.approx(ab.conjugate(), rel=1e-14, abs=0)
        assert inner_product(other, prop) == ba

    def test_writable_rows_mutated_in_place_give_a_fresh_overlap(self):
        occ = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
        a = FockState4.from_arrays(occ, np.array([0.6, 0.8 + 0j]), 4)
        b = FockState4({(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0}, 4)
        assert inner_product(a, b) == pytest.approx(1.4, abs=5e-16)
        occ[1] = [0, 1, 1, 0]
        assert inner_product(a, b) == pytest.approx(0.6, abs=2e-16)


class TestRowKeys:
    def test_keys_ascend_in_lexicographic_row_order(self, rng):
        rows = rng.integers(0, 5, size=(200, 4))
        keys = row_keys(rows)
        assert keys.dtype == np.int64
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              np.lexsort(rows.T[::-1]))
        assert np.array_equal(keys[:, None] == keys, (rows[:, None] == rows).all(axis=2))

    def test_largest_radix_product_is_exact(self):
        # radices 2^31 - 1 and 2^32 multiply to 2^63 - 2^32, inside int64
        rows = np.array([[0, 0], [2 ** 31 - 2, 2 ** 32 - 1]])
        assert row_keys(rows).tolist() == [0, 2 ** 63 - 2 ** 32 - 1]
        with pytest.raises(ValueError, match="int64"):
            row_keys(rows + [[0, 0], [1, 0]])    # radices 2^31, 2^32: 2^63


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
        assert out.amplitudes[(0, 0, 1, 0)] == pytest.approx(2 ** -0.5, abs=1e-14)
        assert out.amplitudes[(0, 0, 0, 1)] == pytest.approx(2 ** -0.5, abs=1e-14)

    def test_hong_ou_mandel_pair_bunches(self):
        st = FockState4({(0, 0, 1, 1): 1.0}, 4)
        u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = rotate_mode_pair(st, "mode2", u)
        assert out.amplitudes[(0, 0, 2, 0)] == pytest.approx(2 ** -0.5, abs=1e-14)
        assert out.amplitudes[(0, 0, 0, 2)] == pytest.approx(-2 ** -0.5, abs=1e-14)
        assert (0, 0, 1, 1) not in out.amplitudes

    def test_norm_and_pair_total_preserved(self, rng):
        theta, phase = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        u = np.array([[math.cos(theta), math.sin(theta) * np.exp(1j * phase)],
                      [-math.sin(theta) * np.exp(-1j * phase), math.cos(theta)]])
        for _ in range(5):
            st = _random_state(rng)
            out = rotate_mode_pair(st, "mode2", u)
            assert out.norm_sq() == pytest.approx(st.norm_sq(), abs=1e-10)
            totals = {n2h + n2v for _, _, n2h, n2v in st.amplitudes}
            assert {n2h + n2v for _, _, n2h, n2v in out.amplitudes} <= totals

    def test_non_unitary_rejected(self):
        st = FockState4({(0, 0, 1, 0): 1.0}, 4)
        with pytest.raises(ValueError):
            rotate_mode_pair(st, "mode2", np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("pair", ["mode3", "1h", "k1"])
    def test_unknown_pair_rejected(self, pair):
        st = FockState4({(0, 0, 1, 0): 1.0}, 4)
        with pytest.raises(ValueError, match=f"'mode1' or 'mode2', got '{pair}'"):
            rotate_mode_pair(st, pair, np.eye(2))

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
            for p, a in enumerate(_pair_rotation(_generator(u), t) @ vin):
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


def _generator(u):
    """Hermitian generator h of u = exp(ih), the argument of _pair_rotation."""
    return -1j * logm(np.asarray(u))


class TestPairRotationBlocks:
    def test_unitary_through_high_gain_totals(self, rng):
        top = 2 * AmplifierConfig.for_gain(1.5).cutoff + 1
        random_u = _random_u2(rng)
        assert abs(np.linalg.det(random_u) - 1.0) > 1e-3
        for u in (DETECTED_FIELD_UNITARY, random_u):
            h = _generator(u)
            for t in range(top + 1):
                d = _pair_rotation(h, t)
                assert np.abs(d.conj().T @ d - np.eye(t + 1)).max() < 1e-12, t

    def test_blocks_form_a_representation(self, rng):
        u, w = _random_u2(rng), _random_u2(rng)
        # single photon: |1,0> -> u00|1,0> + u10|0,1>, rows/columns ordered by p
        assert np.allclose(_pair_rotation(_generator(u), 1), u[::-1, ::-1], rtol=0, atol=1e-14)
        for t in range(13):
            assert np.allclose(_pair_rotation(_generator(u @ w), t),
                               _pair_rotation(_generator(u), t)
                               @ _pair_rotation(_generator(w), t), rtol=0, atol=1e-12)
