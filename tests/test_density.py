import cmath
import math

import numpy as np
import pytest

from qiopa import amplifier, density, fock
from qiopa.amplifier import (AmplifierConfig, _largest_gain, amplify, pair_weights,
                             propagate_hamiltonian)
from qiopa.density import (BLOCK_COHERENCE_TOL, SectorDensity, cloner_entropy, entropy,
                           partial_trace, rho1_closed_form, rho2_closed_form)
from qiopa.errors import NumericalError
from qiopa.fock import FockState4, fidelity
from qiopa.observables import g1_oracle
from qiopa.polarization import Qubit

from conftest import random_qubit


def _blocks_by_summands(q, cfg, mode):
    """Reference: each closed-form block accumulated summand by summand, in
    pair-term order i, on kets indexed by their vertical photon number."""
    gp = cfg.gain
    ab = q.alpha * q.beta * cmath.exp(1j * q.phi)
    blocks = [np.zeros((1, 1), dtype=complex)] if mode == "mode1" else []
    for n in range(cfg.cutoff + 1):
        if mode == "mode1":
            M = np.zeros((n + 2, n + 2), dtype=complex)
            for i in range(n + 1):
                pa, pb = n + 1 - i, n - i   # |i>_h |n-i+1>_v and |i+1>_h |n-i>_v
                M[pa, pa] += q.beta ** 2 * (n - i + 1)
                M[pb, pb] += q.alpha ** 2 * (i + 1)
                c = ab * math.sqrt((i + 1) * (n - i + 1))
                M[pa, pb] += c
                M[pb, pa] += c.conjugate()
        else:
            M = np.zeros((n + 1, n + 1), dtype=complex)
            for i in range(n + 2):
                # |n-i>_h |i>_v at i and |n-i+1>_h |i-1>_v at i-1
                if i <= n:
                    M[i, i] += q.beta ** 2 * (n - i + 1)
                if i >= 1:
                    M[i - 1, i - 1] += q.alpha ** 2 * i
                if 1 <= i <= n:
                    c = -ab * math.sqrt((n - i + 1) * i)
                    M[i, i - 1] += c
                    M[i - 1, i] += c.conjugate()
        blocks.append(gp.gamma ** 2 * gp.Gamma ** (2 * n) * M)
    return blocks


def _cloner_spectrum(cfg, mode):
    """Sector spectra of the |H> reductions, w_n (t-p), p = 0..t, in mode-1
    sector t = n + 1 and w_n (p+1), p = 0..n, in mode-2 sector n, with
    w_n = gamma^2 Gamma^(2n) the pair weights.  By SU(2) covariance, those of
    every qubit."""
    spectra = [np.zeros(1)] if mode == "mode1" else []
    for n, w in enumerate(pair_weights(cfg).tolist()):
        spectra.append(w * np.arange(0 if mode == "mode1" else 1, n + 2))
    return spectra


MODES = ((rho1_closed_form, "mode1"), (rho2_closed_form, "mode2"))


class TestCovariance:
    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)])
    def test_sector_spectra_are_the_h_spectra(self, g, cutoff, rng):
        cfg = AmplifierConfig.for_gain(g, cutoff)
        for q in (random_qubit(rng), random_qubit(rng)):
            for build, mode in MODES:
                blocks = build(q, cfg).blocks
                spectra = _cloner_spectrum(cfg, mode)
                assert len(blocks) == len(spectra)
                for b, lam in zip(blocks, spectra):
                    assert np.abs(np.linalg.eigvalsh(b) - lam).max() < 1e-14

    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100), (2.0, None)])
    def test_spectrum_equals_the_eigensolved_bands(self, g, cutoff, rng):
        # .spectrum is always the eigensolve over the bands
        cfg = AmplifierConfig.for_gain(g, cutoff)
        q = random_qubit(rng)
        for build, mode in MODES:
            known = np.sort(np.concatenate(_cloner_spectrum(cfg, mode)))
            solved = build(q, cfg).spectrum
            assert np.abs(solved - known).max() <= 1e-14 * known.max()

    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100), (2.0, None),
                                           (2.5, None)])
    def test_entropy_equals_the_known_spectrum(self, g, cutoff, rng):
        cfg = AmplifierConfig.for_gain(g, cutoff)
        for build, mode in MODES:
            lam = np.concatenate(_cloner_spectrum(cfg, mode))
            lam = lam[lam > 0]
            expected = -math.fsum(lam * np.log2(lam))
            for q in (random_qubit(rng), random_qubit(rng)):
                assert abs(entropy(build(q, cfg)) - expected) < 1e-12


def _fixed_point_entropy(w, bits=256):
    """-sum lambda log2 lambda over every eigenvalue lambda = w_n k,
    k = 1..n+1, of the w_n > 0: each term is exact in 2^-bits fixed point
    but for its mpmath logarithms, so the sum is exact to ~1e-60."""
    mp = pytest.importorskip("mpmath")
    one = 1 << bits
    with mp.workprec(bits + 64):
        def fixed_log2(x):
            return int(mp.nint(mp.log(mp.mpf(x), 2) * one))

        log_k = [fixed_log2(k) for k in range(1, w.size + 1)]
        total = mp.mpf(0)
        for n, wn in enumerate(w):
            if wn > 0:
                num, den = float(wn).as_integer_ratio()
                log_w = fixed_log2(wn)
                total += mp.mpf(num * sum(k * (log_w + log_k[k - 1])
                                          for k in range(1, n + 2))) / den
        return float(-total / one)


class TestClonerEntropy:
    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100),
                                           (_largest_gain(), 1000)],
                             ids=["LG", "HG", "top"])
    def test_equals_extended_precision_sum(self, g, cutoff):
        w = pair_weights(AmplifierConfig.for_gain(g, cutoff))
        exact = _fixed_point_entropy(w)
        assert abs(cloner_entropy(w) - exact) <= 1e-14 * exact

    def test_underflowed_pair_weights_hold_no_entropy(self):
        # Gamma^(2n) underflows to 0 past n ~ 140 at g = 0.07
        w = pair_weights(AmplifierConfig.for_gain(0.07, 1000))
        assert w[-1] == 0.0
        s = cloner_entropy(w)
        assert math.isfinite(s)
        assert s == cloner_entropy(pair_weights(AmplifierConfig.for_gain(0.07, 200)))

def _rho1_per_call(q, cfg):
    """Reference: rho1_closed_form with every array built in the call."""
    ab = q.alpha * q.beta * cmath.exp(1j * q.phi)
    w = np.append(0.0, pair_weights(cfg))
    t, p = density._flat_index(cfg.cutoff + 2)
    return SectorDensity("mode1", w[t] * (q.alpha ** 2 * (t - p) + q.beta ** 2 * p),
                         w[t] * (ab * np.sqrt((t - p) * (p + 1))))


def _rho2_per_call(q, cfg):
    """Reference: rho2_closed_form with every array built in the call."""
    ab = q.alpha * q.beta * cmath.exp(1j * q.phi)
    w = pair_weights(cfg)
    n, p = density._flat_index(cfg.cutoff + 1)
    return SectorDensity("mode2", w[n] * (q.beta ** 2 * (n - p + 1) + q.alpha ** 2 * (p + 1)),
                         w[n] * (-ab * np.sqrt((n - p) * (p + 1))))


_CLOSED_FORMS = {"rho1": (rho1_closed_form, _rho1_per_call),
                 "rho2": (rho2_closed_form, _rho2_per_call)}
_MEMO_QUBITS = {"H": Qubit(1.0, 0.0), "V": Qubit(0.0, 1.0),
                "balanced": Qubit(2 ** -0.5, 2 ** -0.5),
                "random": random_qubit(np.random.default_rng(2718)),
                "phi+pi/2": Qubit(0.6, 0.8, math.pi / 2),
                "phi-pi/2": Qubit(0.6, 0.8, -math.pi / 2)}


class TestClosedFormMemo:
    """Both closed forms scale one memo per configuration of qubit-independent
    bands and carry its cloner entropy."""

    @pytest.mark.parametrize("build", list(_CLOSED_FORMS))
    @pytest.mark.parametrize("g", [0.0, 0.07, 1.13, 2.0, _largest_gain()],
                             ids=["0", "0.07", "1.13", "2.0", "top"])
    def test_warm_equals_cold_and_per_call(self, g, build):
        # a cold call builds the entry, a warm one after another qubit reuses
        # it, and both equal the reference bit for bit, signed zeros included
        memoised, per_call = _CLOSED_FORMS[build]
        cfg = AmplifierConfig.for_gain(1.13, 100) if g == 1.13 else AmplifierConfig.for_gain(g)
        s = cloner_entropy(pair_weights(cfg))
        for q in _MEMO_QUBITS.values():
            density._closed_form_bands.cache_clear()
            cold = memoised(q, cfg)
            memoised(Qubit(0.6, 0.8, 2.2), cfg)
            warm = memoised(q, cfg)
            assert _band_bytes(warm) == _band_bytes(cold) == _band_bytes(per_call(q, cfg))
            # the cloner sum of the pair weights, bit for bit
            assert entropy(warm) == entropy(cold) == s

    def test_memo_arrays_reject_writes(self):
        cfg = AmplifierConfig.for_gain(1.13, 100)
        rho = rho1_closed_form(_MEMO_QUBITS["balanced"], cfg)
        _s, mode1, mode2 = density._closed_form_bands(cfg)
        for arr in (*mode1, *mode2):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            assert not np.shares_memory(arr, rho.diag)
            assert not np.shares_memory(arr, rho.sub)
        # mode 2's sqrt((n-p)(p+1)) is the leading part of mode 1's
        assert np.shares_memory(mode2[3], mode1[3])

    def test_memo_holds_one_configuration(self, monkeypatch):
        built = []
        weights, summed = density.pair_weights, density.cloner_entropy
        monkeypatch.setattr(density, "pair_weights",
                            lambda cfg: built.append(cfg) or weights(cfg))
        monkeypatch.setattr(density, "cloner_entropy",
                            lambda w: built.append("s") or summed(w))
        first, other = AmplifierConfig.for_gain(0.5), AmplifierConfig.for_gain(0.3)
        for cfg, q, builds in ((first, Qubit(0.6, 0.8, 0.4), [first, "s"]),
                               (first, Qubit(0.8, 0.6, -1.2), []),
                               (other, Qubit(0.6, 0.8, 0.4), [other, "s"]),
                               (first, Qubit(0.6, 0.8, 0.4), [first, "s"])):
            built.clear()
            for rho in (rho1_closed_form(q, cfg), rho2_closed_form(q, cfg)):
                entropy(rho)
            assert built == builds
            assert density._closed_form_bands.cache_info().currsize == 1


class TestClosedFormsAgainstPartialTrace:
    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)])
    def test_blocks_equal_summand_reference(self, g, cutoff, rng):
        cfg = AmplifierConfig.for_gain(g, cutoff)
        for q in (Qubit(1.0, 0.0), Qubit(0.0, 1.0), random_qubit(rng)):
            for build, mode in ((rho1_closed_form, "mode1"),
                                (rho2_closed_form, "mode2")):
                blocks = build(q, cfg).blocks
                reference = _blocks_by_summands(q, cfg, mode)
                assert len(blocks) == len(reference)
                for b, r in zip(blocks, reference):
                    assert np.array_equal(b, r)

    def test_zero_gain_projectors(self):
        cfg = AmplifierConfig.for_gain(0.0)
        r1 = rho1_closed_form(Qubit(1.0, 0.0), cfg)
        assert np.array_equal(r1.blocks[1], [[1, 0], [0, 0]])  # |1>_h |0>_v
        # |V>'s is the projector on |0>_h |1>_v, orthogonal to |H>'s
        r1 = rho1_closed_form(Qubit(0.0, 1.0), cfg)
        assert np.array_equal(r1.blocks[1], [[0, 0], [0, 1]])
        assert r1.diag.sum() == 1.0
        r2 = rho2_closed_form(Qubit(1.0, 0.0), cfg)
        assert np.array_equal(r2.blocks[0], [[1.0]])        # mode-2 vacuum

    def test_pole_qubit_gives_diagonal_sectors(self):
        cfg = AmplifierConfig.for_gain(0.9)
        r1 = rho1_closed_form(Qubit(1.0, 0.0), cfg)
        for b in r1.blocks:
            assert np.abs(b - np.diag(np.diag(b))).max() == 0.0

    def test_cross_term_signs_opposite_between_modes(self):
        cfg = AmplifierConfig.for_gain(0.8)
        q = Qubit(2 ** -0.5, 2 ** -0.5, 0.0)
        off1 = rho1_closed_form(q, cfg).blocks[2][0, 1]
        off2 = rho2_closed_form(q, cfg).blocks[1][0, 1]
        assert off1.real > 0
        assert off2.real < 0

    @pytest.mark.parametrize("g", [0.07, 0.5, 1.13])
    def test_sectors_hermitian_and_positive(self, g, rng):
        cfg = AmplifierConfig.for_gain(g)
        q = random_qubit(rng)
        for rho in (rho1_closed_form(q, cfg), rho2_closed_form(q, cfg)):
            for b in rho.blocks:
                assert np.abs(b - b.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(b).min() >= -1e-12
            assert rho.diag.sum() == pytest.approx(1.0, abs=cfg.epsilon_trunc + 1e-12)


class TestPartialTrace:
    @pytest.mark.parametrize("keep", ["mode3", "1h", "k2"])
    def test_unknown_keep_rejected(self, keep):
        st = FockState4({(1, 0, 2, 1): 1.0}, 4)
        with pytest.raises(ValueError, match=f"'mode1' or 'mode2', got '{keep}'"):
            partial_trace(st, keep)

    def test_product_state_reduces_to_rank_one(self):
        st = FockState4({(1, 0, 2, 1): 1.0}, 4)
        rho = partial_trace(st, "mode1")
        lam = np.linalg.eigvalsh(rho.blocks[1])
        assert lam == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_singlet_analog_is_maximally_mixed(self):
        st = FockState4({(1, 0, 0, 1): 2 ** -0.5, (0, 1, 1, 0): -(2 ** -0.5)}, 4)
        rho = partial_trace(st, "mode1")
        assert np.allclose(rho.blocks[1], np.eye(2) / 2, rtol=0, atol=1e-14)

    def test_trace_equals_state_norm(self, rng):
        amps = {tuple(int(x) for x in rng.integers(0, 3, size=4)):
                complex(rng.normal(), rng.normal()) for _ in range(10)}
        st = FockState4(amps, 6)
        # mode-2 occupations fix the kept total for amplifier outputs only;
        # here verify the trace property on a state with pure-tensor entries
        st = FockState4({(1, 1, 0, 0): 0.6, (1, 1, 2, 0): 0.8}, 6)
        rho = partial_trace(st, "mode1")
        assert rho.diag.sum() == pytest.approx(st.norm_sq(), abs=1e-12)

    def test_cross_sector_coherence_rejected(self):
        st = FockState4({(0, 0, 0, 0): 2 ** -0.5, (1, 0, 0, 0): 2 ** -0.5}, 4)
        with pytest.raises(ValueError):
            partial_trace(st, "mode1")

    def test_off_band_coherence_rejected(self):
        # one traced occupation holds kept kets at p = 0 and p = 2 of sector 2
        st = FockState4({(2, 0, 0, 0): 0.6, (0, 2, 0, 0): 0.8}, 4)
        with pytest.raises(ValueError):
            partial_trace(st, "mode1")

    def test_off_band_coherence_below_tolerance_accepted(self):
        st = FockState4({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1e-13}, 4)
        rho = partial_trace(st, "mode1")
        assert rho.diag.tolist() == pytest.approx([0, 0, 0, 1.0, 0, 1e-26], abs=1e-40)
        assert not rho.sub.any()

    @pytest.mark.parametrize("far", [0.5, 1e-13])
    def test_off_band_pair_two_rows_apart(self, far):
        # one traced occupation holds p = 0, 1, 2 of sector 2: (0, 1) and
        # (1, 2) lie on the band, and the only off-band pair, (0, 2), sits two
        # rows apart in band order
        st = FockState4({(2, 0, 0, 0): 0.6, (1, 1, 0, 0): 0.8, (0, 2, 0, 0): far}, 4)
        if far > BLOCK_COHERENCE_TOL:
            with pytest.raises(ValueError, match="off the tridiagonal band"):
                partial_trace(st, "mode1")
            return
        rho = partial_trace(st, "mode1")
        assert rho.sector(2)[0].tolist() == [0.6 ** 2, 0.8 ** 2, far ** 2]
        assert rho.sector(2)[1].tolist() == [0.8 * 0.6, far * 0.8]

    @pytest.mark.parametrize("build, g, cutoff", [
        (amplify, 0.07, 12), (amplify, 1.13, 100), (propagate_hamiltonian, 0.07, 12)],
        ids=["amplify-LG", "amplify-HG", "propagate-LG"])
    def test_row_order_does_not_move_the_bands(self, build, g, cutoff, rng):
        # rows are grouped by their traced key, not by first appearance, so
        # a shuffle changes at most the order of each band entry's sum
        state = build(random_qubit(rng), AmplifierConfig.for_gain(g, cutoff))
        perm = rng.permutation(len(state))
        shuffled = FockState4.from_arrays(state.occ[perm], state.amp[perm], state.cutoff)
        for mode in ("mode1", "mode2"):
            a, b = partial_trace(state, mode), partial_trace(shuffled, mode)
            assert a.sectors == b.sectors
            assert np.abs(a.diag - b.diag).max() <= 1e-15
            assert np.abs(a.sub - b.sub).max() <= 1e-15

    def test_sub_diagonal_sums_products_of_adjacent_kets(self):
        # two traced occupations, each with kets at p = 0 and 1 of sector 1
        a, b, c, d = 0.5, 0.5j, -0.5, 0.5
        st = FockState4({(1, 0, 0, 0): a, (0, 1, 0, 0): b,
                         (1, 0, 1, 0): c, (0, 1, 1, 0): d}, 4)
        rho = partial_trace(st, "mode1")
        assert rho.sector(1)[1] == pytest.approx([b * a.conjugate() + d * c.conjugate()])


def _read_only(rows) -> np.ndarray:
    """Rows as a read-only int64 array, as the amplifier's memoised rows are."""
    occ = np.array(rows, dtype=np.int64)
    occ.setflags(write=False)
    return occ


def _carrying(state: FockState4, plans: dict) -> FockState4:
    """state, carrying plans as the trace plans of its rows, as a state on
    the amplifier's memoised rows carries their memo entry's."""
    state._plans = plans
    return state


def _band_bytes(rho: SectorDensity) -> bytes:
    return rho.diag.tobytes() + rho.sub.tobytes()


def _dense_trace(state: FockState4, keep: str) -> np.ndarray:
    """Reference: the reduced state as a dense matrix over the band index
    t(t+1)/2 + p, summed over every pair of rows that share a traced occupation."""
    k0, k1 = fock.MODE_PAIRS[keep]
    t0, t1 = fock.MODE_PAIRS["mode2" if keep == "mode1" else "mode1"]
    rows = state.occ.tolist()
    index = [(r[k0] + r[k1]) * (r[k0] + r[k1] + 1) // 2 + r[k1] for r in rows]
    sectors = max(r[k0] + r[k1] for r in rows) + 1
    rho = np.zeros((sectors * (sectors + 1) // 2,) * 2, dtype=complex)
    for ri, i, a in zip(rows, index, state.amp):
        for rj, j, b in zip(rows, index, state.amp):
            if ri[t0:t1 + 1] == rj[t0:t1 + 1]:
                rho[i, j] += a * b.conjugate()
    return rho


def _assert_equals_dense(rho: SectorDensity, dense: np.ndarray) -> None:
    """The bands equal the dense trace's diagonal and sub-diagonal, and the
    rest of it lies within BLOCK_COHERENCE_TOL."""
    assert rho.diag.tolist() == dense.diagonal().real.tolist()
    assert rho.sub[:-1].tolist() == dense.diagonal(-1).tolist()
    banded = np.diag(rho.diag) + np.diag(rho.sub[:-1], -1) + np.diag(rho.sub[:-1].conj(), 1)
    assert np.abs(banded - dense).max() <= BLOCK_COHERENCE_TOL


class TestTracePlans:
    """A state on the amplifier's memoised rows carries their memo entry's
    trace plans, one per kept mode, built on first use; any other state is
    planned on every call."""

    @pytest.mark.parametrize("g, cutoff",
                             [(0.07, 12), (1.13, 100), (_largest_gain(), 1000)],
                             ids=["LG", "HG", "top"])
    def test_warm_trace_equals_cold_byte_for_byte(self, g, cutoff, rng, monkeypatch):
        cfg = AmplifierConfig.for_gain(g, cutoff)
        for mode in ("mode1", "mode2"):
            partial_trace(amplify(random_qubit(rng), cfg), mode)
        state = amplify(random_qubit(rng), cfg)
        # the same rows and amplitudes, carrying no plans: planned per call
        unplanned = FockState4.from_arrays(state.occ, state.amp, cfg.cutoff)
        cold = {mode: _band_bytes(partial_trace(unplanned, mode))
                for mode in ("mode1", "mode2")}
        # the warm calls apply the carried plans: planning again would raise
        monkeypatch.setattr(density, "_trace_plan", None)
        for mode in ("mode1", "mode2"):
            assert _band_bytes(partial_trace(state, mode)) == cold[mode]
        assert state._plans is amplifier._amplified_kets(cfg)[-1]
        assert unplanned._plans is None

    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)], ids=["LG", "HG"])
    def test_amplifier_states_carry_the_memo_entrys_plans(self, g, cutoff, rng):
        cfg = AmplifierConfig.for_gain(g, cutoff)
        plans = amplifier._amplified_kets(cfg)[-1]
        assert plans == {}
        q = random_qubit(rng)
        for state in (amplify(q, cfg), propagate_hamiltonian(q, cfg)):
            assert state._plans is plans
            partial_trace(state, "mode2")
        assert list(plans) == ["mode2"]
        # a g = 0 propagator state holds the injected rows alone
        zero = AmplifierConfig.for_gain(0.0)
        assert propagate_hamiltonian(q, zero)._plans is None

    @pytest.mark.parametrize("q", [Qubit(1.0, 0.0), Qubit(0.0, 1.0)], ids=["H", "V"])
    @pytest.mark.parametrize("build", [amplify, propagate_hamiltonian],
                             ids=["amplify", "propagate_hamiltonian"])
    def test_pruned_state_carries_no_plans(self, build, q):
        # one branch is zero and pruned: the state holds rows of its own
        cfg = AmplifierConfig.for_gain(0.07, 12)
        state = build(q, cfg)
        assert len(state) == len(amplifier._amplified_kets(cfg)[0]) // 2
        assert state._plans is None
        for mode in ("mode1", "mode2"):
            _assert_equals_dense(partial_trace(state, mode), _dense_trace(state, mode))
        assert amplifier._amplified_kets(cfg)[-1] == {}

    def test_writable_rows_mutated_in_place_give_fresh_bands(self):
        occ = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
        amp = np.array([0.6, 0.8j])
        state = FockState4.from_arrays(occ, amp, 4)
        assert partial_trace(state, "mode1").sector(1)[1] == pytest.approx([0.48j])
        occ[1] = [0, 1, 1, 0]     # the two kets no longer share a traced occupation
        rho = partial_trace(state, "mode1")
        assert not rho.sub.any()

    def test_warm_plan_still_rejects_off_band_coherence(self):
        occ, plans = _read_only([[2, 0, 0, 0], [0, 2, 0, 0]]), {}
        partial_trace(_carrying(FockState4.from_arrays(
            occ, np.array([1.0, 1e-13 + 0j]), 4), plans), "mode1")
        assert "mode1" in plans
        coherent = _carrying(FockState4.from_arrays(occ, np.array([0.6, 0.8 + 0j]), 4),
                             plans)
        with pytest.raises(ValueError, match="off the tridiagonal band"):
            partial_trace(coherent, "mode1")

    def test_nan_written_into_the_amplitudes_fails_the_off_band_check(self):
        # nan > tol is False: a guard written as any(|prod| > tol) lets it pass
        occ = _read_only([[2, 0, 0, 0], [0, 2, 0, 0]])
        state = _carrying(FockState4.from_arrays(occ, np.array([1.0, 1e-13 + 0j]), 4), {})
        partial_trace(state, "mode1")
        state.amp[1] = np.nan
        with pytest.raises(ValueError, match="off the tridiagonal band"):
            partial_trace(state, "mode1")

    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)], ids=["LG", "HG"])
    def test_round_on_the_propagators_state_plans_once(self, g, cutoff, rng, monkeypatch):
        # the propagator's state shares amplify's rows, so its traces, the
        # trace in g1_oracle and fidelity in either order reuse one plan each
        cfg = AmplifierConfig.for_gain(g, cutoff)

        def oracle_round(q):
            prop, state = propagate_hamiltonian(q, cfg), amplify(q, cfg)
            partial_trace(prop, "mode1"), partial_trace(prop, "mode2")
            g1_oracle(q, cfg)
            fidelity(prop, state), fidelity(state, prop)

        def counted(module, name):
            plan = getattr(module, name)

            def build(*args):
                built.append(name)
                return plan(*args)

            monkeypatch.setattr(module, name, build)

        oracle_round(random_qubit(rng))
        built = []
        counted(density, "_trace_plan")
        counted(fock, "_overlap_plan")
        oracle_round(random_qubit(rng))
        assert built == []

    @pytest.mark.parametrize("rows, amps", [
        # two traced occupations, each with kets at p = 0 and 1 of sector 1:
        # both pairs land on one sub-diagonal entry, which sums them
        ([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]],
         [0.5, 0.5j, -0.5, 0.5]),
        # pairs only off the band: p = 0 and 2 of sector 2, and sectors 1 and 3
        ([[2, 0, 0, 0], [0, 2, 0, 0], [1, 0, 0, 1], [3, 0, 0, 1]],
         [0.6, 1e-13, 0.8, 1e-13j]),
        # one row pairs with nothing
        ([[1, 1, 2, 0]], [1.0]),
    ], ids=["shared-entry", "off-band-only", "single-row"])
    def test_hand_built_rows_equal_the_dense_trace(self, rows, amps, monkeypatch):
        state = _carrying(FockState4.from_arrays(
            _read_only(rows), np.array(amps, dtype=complex), 4), {})
        cold = partial_trace(state, "mode1")
        _assert_equals_dense(cold, _dense_trace(state, "mode1"))
        # the warm call applies the carried plan: planning again would raise
        monkeypatch.setattr(density, "_trace_plan", None)
        assert _band_bytes(partial_trace(state, "mode1")) == _band_bytes(cold)

    @pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2], ids=["+pi/2", "-pi/2"])
    @pytest.mark.parametrize("g, cutoff", [(0.07, 12), (1.13, 100)], ids=["LG", "HG"])
    def test_one_sum_equals_separate_real_and_imaginary_sums(self, g, cutoff, phi):
        # the sub-diagonal sums each product's real and imaginary parts in one
        # bincount over the floats; summing them apart and adding re + 1j im
        # gives the same bits, signed zeros included
        cfg = AmplifierConfig.for_gain(g, cutoff)
        q = Qubit(0.6, 0.8, phi)
        for state in (amplify(q, cfg), propagate_hamiltonian(q, cfg)):
            for mode in ("mode1", "mode2"):
                rho = partial_trace(state, mode)
                size, _k, lo, hi, _off_lo, _off_hi, kb = state._plans[mode]
                prod = state.amp[hi] * state.amp[lo].conj()
                kb = kb[0::2] // 2
                apart = np.bincount(kb, prod.real, size) + 1j * np.bincount(
                    kb, prod.imag, size)
                assert rho.sub.tobytes() == apart.tobytes()


class TestBands:
    def test_dense_blocks_round_trip(self, rng):
        rho = rho2_closed_form(random_qubit(rng), AmplifierConfig.for_gain(0.5))
        blocks = rho.blocks
        assert len(blocks) == rho.sectors
        diag = np.concatenate([np.diag(b).real for b in blocks])
        sub = np.concatenate([np.append(np.diag(b, -1), 0.0) for b in blocks])
        assert all(np.array_equal(b, b.conj().T) for b in blocks)
        again = SectorDensity(rho.mode, diag, sub)
        assert np.array_equal(again.diag, rho.diag)
        assert np.array_equal(again.sub, rho.sub)

    def test_bands_are_copied(self):
        diag, sub = np.array([0.0, 0.5, 0.5]), np.array([0.0, 0.1j, 0.0])
        rho = SectorDensity("mode1", diag, sub)
        diag[1], sub[1] = 1.0, 0.0
        assert rho.diag.tolist() == [0.0, 0.5, 0.5]
        assert rho.sub.tolist() == [0.0, 0.1j, 0.0]

    def test_dense_view_is_read_only(self, rng):
        rho = rho1_closed_form(random_qubit(rng), AmplifierConfig.for_gain(0.5))
        with pytest.raises(ValueError):
            rho.blocks[2][0, 0] = 1.0
        with pytest.raises(ValueError):
            rho.diag[0] = 1.0

    def test_spectrum_is_read_only(self, rng):
        q, cfg = random_qubit(rng), AmplifierConfig.for_gain(0.5)
        for rho in (rho2_closed_form(q, cfg), partial_trace(amplify(q, cfg), "mode2")):
            with pytest.raises(ValueError):
                rho.spectrum[0] = 1.0

    def test_pair_weights_are_not_a_parameter(self):
        # weights passed with the bands set the entropy unchecked: these gave
        # 1.2388 bits, the cloner sum of [0.6, 0.1], where the bands hold 1.3710
        with pytest.raises(TypeError):
            SectorDensity("mode2", [0.6, 0.2, 0.2], [0.0] * 3, [0.6, 0.1])
        rho = SectorDensity("mode2", [0.6, 0.2, 0.2], [0.0] * 3)
        assert entropy(rho) == pytest.approx(1.3709505944546687, rel=1e-15)

    @pytest.mark.parametrize("diag, sub", [([0.5, 0.25], [0.0, 0.0]),
                                           ([0.5, 0.25, 0.25], [0.0, 0.0]),
                                           ([0.5, 0.25, 0.25], [0.0] * 4)],
                             ids=["partial-sector", "short-sub", "long-sub"])
    def test_bands_that_do_not_fill_whole_sectors_rejected(self, diag, sub):
        with pytest.raises(ValueError, match="whole sectors"):
            SectorDensity("mode1", diag, sub)

    def test_sub_diagonal_across_sectors_rejected(self):
        # k = 0 and k = 2 end sectors 0 and 1; sub[1] lies within sector 1
        for sub in ([0.1, 0.1, 0.0], [0.0, 0.1, 0.1]):
            with pytest.raises(ValueError, match="couples two sectors"):
                SectorDensity("mode2", [0.5, 0.25, 0.25], sub)
        SectorDensity("mode2", [0.5, 0.25, 0.25], [0.0, 0.1, 0.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be"):
            SectorDensity("mode3", [1.0], [0.0])


class TestEntropy:
    def test_pure_reduction_at_zero_gain(self):
        # 0.0, not -0.0
        cfg = AmplifierConfig.for_gain(0.0)
        for build, _mode in MODES:
            s = entropy(build(Qubit(1.0, 0.0), cfg))
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_maximally_mixed_block_is_one_bit(self):
        rho = SectorDensity("mode1", [0.0, 0.5, 0.5], [0.0] * 3)
        assert entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_negative_eigenvalue_reported(self):
        rho = SectorDensity("mode1", [-1e-6], [0.0])
        with pytest.raises(NumericalError):
            entropy(rho)
