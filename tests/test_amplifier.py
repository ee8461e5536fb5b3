import cmath
import dataclasses
import enum
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import expm_multiply

from qiopa import amplifier
from qiopa.amplifier import (_COUPLINGS, PROPAGATOR_PADDING, AmplifierConfig,
                             GainParams, amplify, pair_tail, propagate_hamiltonian,
                             vacuum_output)
from qiopa.density import partial_trace, rho1_closed_form
from qiopa.errors import NumericalError
from qiopa.fock import FockState4, fidelity, inner_product, rotate_mode_pair
from qiopa.observables import DETECTED_FIELD_UNITARY
from qiopa.polarization import PolarizationUnitary, Qubit, apply

from conftest import random_qubit
from reference import linear_cutoff, pair_law, photon_number


@pytest.fixture
def corrupt_svd(monkeypatch):
    """corrupt() makes np.linalg.svd return three times the singular values,
    which evolves each chain to 3g and pushes weight past the cutoff.  The
    memo of evolved kets is emptied before the patch, so no entry built
    earlier in the test hides it."""
    def corrupt():
        amplifier._evolved_kets.cache_clear()
        svd = np.linalg.svd

        def wrong(a):
            u, s, vt = svd(a)
            return u, 3.0 * s, vt

        monkeypatch.setattr(np.linalg, "svd", wrong)

    return corrupt


class TestGainParams:
    """GainParams(g), the constants one gain derives."""

    def test_only_the_gain_is_settable(self):
        # a settable constant could contradict g: Gamma = 0 at g = 1.13 amplifies nothing
        for make in (lambda: GainParams(1.13, 1.0, 0.0, 1.0, 0.0),
                     lambda: GainParams(g=1.13, Gamma=0.0)):
            with pytest.raises(TypeError):
                make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            GainParams(1.13).Gamma = 0.0

    @pytest.mark.parametrize("g", [0.0, 0.07, 1.13, 2.5, 355.0])
    def test_constants_are_the_hyperbolic_functions(self, g):
        gp = GainParams(g)
        assert (gp.g, gp.C, gp.Gamma, gp.gamma, gp.nbar) == (
            g, math.cosh(g), math.tanh(g), math.cosh(g) ** -3, math.sinh(g) ** 2)

    @pytest.mark.parametrize("g", ["1.13", None, 1j, np.complex128(1.0), np.float64(np.nan),
                                   np.int64(-1), True, np.True_, -0.1,
                                   pytest.param(float("nan"), id="float-nan"), float("inf")])
    def test_rejects_what_is_not_a_real_number(self, g):
        with pytest.raises(ValueError, match="finite non-negative real number"):
            GainParams(g)

    @pytest.mark.parametrize("g", [-0.0, np.float64(-0.0)], ids=["float", "float64"])
    def test_negative_zero_is_stored_as_zero(self, g):
        # -0.0 passes 0 <= g; kept as it came, the commands printed g = -0
        assert math.copysign(1.0, GainParams(g).g) == 1.0

    @pytest.mark.parametrize("g", [np.int64(1), np.float32(1.13), np.float64(0.07)],
                             ids=["int64", "float32", "float64"])
    def test_numpy_real_scalars_are_gains(self, g):
        assert GainParams(g) == GainParams(float(g))

    def test_configs_over_a_numpy_range(self):
        assert [AmplifierConfig.for_gain(g) for g in np.arange(3)] == [
            AmplifierConfig.for_gain(g) for g in (0.0, 1.0, 2.0)]

    @pytest.mark.parametrize("g", [0.0, 0.07, 0.5, 1.13, 2.0])
    def test_hyperbolic_identity(self, g):
        gp = GainParams(g)
        lhs = gp.C ** 2 * (1.0 - gp.Gamma ** 2)
        assert abs(lhs - 1.0) <= 4 * math.ulp(1.0)

    def test_low_gain_values(self):
        # frozen from a 40-digit evaluation of tanh/sinh at g = 0.07
        gp = GainParams(0.07)
        assert gp.Gamma == pytest.approx(0.06988589031642899, abs=1e-16)
        assert gp.nbar == pytest.approx(0.004908008564008272, abs=1e-16)

    def test_high_gain_values(self):
        # frozen from a 40-digit evaluation at g = 1.13
        gp = GainParams(1.13)
        assert gp.Gamma == pytest.approx(0.8110192620996814, abs=1e-15)
        assert gp.nbar == pytest.approx(1.9218599128797857, abs=1e-14)
        assert gp.gamma == pytest.approx(0.20022159416359232, abs=1e-15)

    @pytest.mark.parametrize("g", [355.036, 355.6, 400.0, 711.0, 1e308])
    def test_rejects_gain_whose_constants_overflow(self, g):
        # 3 sinh(g)^2 overflows just above g = 355.035, sinh(g)^2 above 355.58
        # and sinh(g) above 710.48
        with pytest.raises(ValueError, match="355.035"):
            GainParams(g)

    @pytest.mark.parametrize("g", [355.0, 355.035])
    def test_accepts_gain_below_the_overflow_edge(self, g):
        gp = GainParams(g)
        assert math.isfinite(3 * gp.nbar) and math.isfinite(gp.C)
        assert (gp.Gamma, gp.gamma) == (1.0, 0.0)


class TestAmplifierConfig:
    def test_cutoff_violating_tail_rule_rejected(self):
        with pytest.raises(ValueError):
            AmplifierConfig(GainParams(1.13), 5)

    @pytest.mark.parametrize("cutoff", [12.5, 13.0, np.float64(13.0), "13", True,
                                        np.bool_(True)],
                             ids=["12.5", "13.0", "np.float64", "str", "True", "np.bool_"])
    def test_cutoff_must_be_an_integer(self, cutoff):
        # 12.5 built cutoff-13 arrays with the cutoff-13.5 tail
        with pytest.raises(TypeError, match="cutoff must be an integer"):
            AmplifierConfig(GainParams(0.07), cutoff)

    def test_integral_cutoff_becomes_a_python_int(self):
        for cutoff in (13, np.int64(13), np.uint16(13)):
            cfg = AmplifierConfig(GainParams(0.07), cutoff)
            assert type(cfg.cutoff) is int and cfg.cutoff == 13
            assert cfg == AmplifierConfig(GainParams(0.07), 13)
            assert cfg.epsilon_trunc == pair_tail(GainParams(0.07), 14)
        with pytest.raises(TypeError):
            AmplifierConfig.for_gain(0.07, 12.5)

    def test_int_subclass_cutoff_becomes_a_python_int(self):
        class Cutoff(enum.IntEnum):
            LG = 13

        cfg = AmplifierConfig(GainParams(0.07), Cutoff.LG)
        assert type(cfg.cutoff) is int
        assert repr(cfg) == repr(AmplifierConfig(GainParams(0.07), 13))

    def test_for_gain_picks_valid_cutoff(self):
        for g in (0.0, 0.07, 0.5, 1.13):
            cfg = AmplifierConfig.for_gain(g)
            assert cfg.epsilon_trunc < 1e-9

    def test_cutoff_above_the_limit_rejected(self):
        # the message names the largest gain whose default cutoff fits
        assert AmplifierConfig.for_gain(2.5).cutoff == 988
        for make in (lambda: AmplifierConfig(GainParams(1.13), AmplifierConfig.MAX_CUTOFF + 1),
                     lambda: AmplifierConfig.for_gain(2.51),
                     lambda: AmplifierConfig.for_gain(8.0),
                     lambda: AmplifierConfig.for_gain(20.0)):
            with pytest.raises(ValueError, match=r"g = 2\.5062"):
                make()

    def test_largest_gain_is_the_edge_of_the_limit(self):
        g = amplifier._largest_gain()
        assert AmplifierConfig.for_gain(g).cutoff <= AmplifierConfig.MAX_CUTOFF
        with pytest.raises(ValueError, match="MAX_CUTOFF"):
            AmplifierConfig.for_gain(g + 1e-9)

    def test_default_cutoff_is_the_linear_search(self):
        # the pair tail falls with its start above the subnormals, so bisection
        # finds the cutoff that stepping up from 0 finds
        top = amplifier._largest_gain()
        for g in [*np.linspace(0.0, top, 2001).tolist(), 0.07, 1.13, 2.5, top]:
            assert AmplifierConfig.for_gain(g).cutoff == linear_cutoff(g), g

    @pytest.mark.parametrize("g", ["top", 8.0, 20.0])
    def test_default_cutoff_past_the_cap_is_rejected(self, g):
        g = amplifier._largest_gain() + 1e-9 if g == "top" else g
        assert linear_cutoff(g) == AmplifierConfig.MAX_CUTOFF + 1
        with pytest.raises(ValueError, match=rf"cutoff 1001 \(gain {g:g}\) exceeds "
                                             r"MAX_CUTOFF 1000; .* g = 2\.5062"):
            AmplifierConfig.for_gain(g)

    def test_lost_weight_outside_the_tail_raises(self):
        cfg = AmplifierConfig.for_gain(1.13, 100)
        for lost in (0.0, -1e-12, cfg.epsilon_trunc + 1e-12):
            cfg.check_lost_weight(lost, "weight")
        for lost in (-2e-12, cfg.epsilon_trunc + 2e-12, float("nan")):
            with pytest.raises(NumericalError, match="held weight"):
                cfg.check_lost_weight(lost, "held weight")


class TestPairStatistics:
    def test_tail_matches_extended_precision_sum(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        gp = GainParams(1.13)
        x = mp.tanh(mp.mpf("1.13")) ** 2
        pref = mp.cosh(mp.mpf("1.13")) ** -6
        for start in (1, 4, 8, 20):
            exact = pref * mp.nsum(lambda n: (n + 1) * (n + 2) / 2 * x ** n,
                                   [start, mp.inf])
            assert pair_tail(gp, start) == pytest.approx(float(exact), abs=1e-14)

    def test_tail_zero_threshold_is_one(self):
        assert pair_tail(GainParams(0.9), 0) == 1.0

    def test_tail_is_one_where_gamma_rounds_to_one(self):
        # tanh 20 == 1.0: the geometric sums would divide by 1 - Gamma^2 = 0
        assert pair_tail(GainParams(20.0), 1) == 1.0

    @pytest.mark.parametrize("g", [0.07, 1.13, 15.0], ids=["LG", "HG", "15"])
    def test_tail_is_zero_at_huge_starts(self, g):
        # Gamma^2 <= 1 - 2^-53 puts the tail at 0.0 long before start, or
        # start^2, overflows a float; the closed form still runs at 10**150
        gp = GainParams(g)
        for start in (10 ** 150, 2 ** 63 - 1, 2 ** 63, 10 ** 154, 10 ** 400):
            assert pair_tail(gp, start) == 0.0

    def test_probabilities_sum_with_tail(self):
        cfg = AmplifierConfig.for_gain(0.6, 29)
        total = sum(pair_law(cfg).tolist())
        assert total + pair_tail(cfg.gain, 30) == pytest.approx(1.0, abs=1e-12)


class TestPairDistribution:
    def test_zero_gain_concentrates_at_zero(self):
        p = pair_law(AmplifierConfig.for_gain(0.0, 12))
        assert p[0] == 1.0
        assert p[1:].sum() == 0.0

    def test_qubit_independence_via_sector_traces(self, rng):
        cfg = AmplifierConfig.for_gain(0.9)
        p = pair_law(cfg)
        for q in (Qubit(1.0, 0.0), Qubit(2 ** -0.5, 2 ** -0.5, 0.0),
                  random_qubit(rng)):
            rho = rho1_closed_form(q, cfg)
            # sector t starts at t(t+1)/2; mode 1's sector 0 holds no pair term
            weights = np.add.reduceat(rho.diag, np.cumsum(np.arange(rho.sectors)))[1:]
            assert weights == pytest.approx(p, abs=1e-14)

    def test_tail_monotone_and_bounded(self):
        cfg = AmplifierConfig.for_gain(1.13, 100)
        gain, p = cfg.gain, pair_law(cfg)
        assert pair_tail(gain, 0) == pytest.approx(1.0, abs=1e-9)
        prev = 1.0
        for thr in range(1, 30):
            t = pair_tail(gain, thr)
            assert t <= prev + 1e-15
            # the closed form equals the stored terms plus the remainder
            assert t == pytest.approx(p[thr:].sum() + pair_tail(gain, 101), abs=1e-15)
            prev = t


class TestAmplify:
    def test_zero_gain_passes_qubit_through(self):
        st = amplify(Qubit(1.0, 0.0), AmplifierConfig.for_gain(0.0))
        assert st.amplitudes == {(1, 0, 0, 0): 1.0}

    # criterion 1 runs 0.07 and 0.5 at their default cutoffs, but 1.13 only at
    # cutoff 100 (epsilon_trunc 3e-16); its default cutoff 62 gives 9e-10
    @pytest.mark.parametrize("g", [1.13])
    def test_norm_within_analytic_tail(self, g, rng):
        cfg = AmplifierConfig.for_gain(g)
        for _ in range(5):
            n2 = amplify(random_qubit(rng), cfg).norm_sq()
            assert 1.0 - cfg.epsilon_trunc - 1e-12 <= n2 <= 1.0 + 1e-12

    def test_linearity_in_the_injected_qubit(self, rng):
        cfg = AmplifierConfig.for_gain(0.5)
        q = random_qubit(rng)
        full = amplify(q, cfg)
        h = amplify(Qubit(1.0, 0.0), cfg)
        v = amplify(Qubit(0.0, 1.0), cfg)
        bphase = q.beta * cmath.exp(1j * q.phi)
        for idx, amp in full.amplitudes.items():
            expected = (q.alpha * h.amplitudes.get(idx, 0.0)
                        + bphase * v.amplitudes.get(idx, 0.0))
            assert amp == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("build", [amplify, propagate_hamiltonian],
                             ids=["amplify", "propagate_hamiltonian"])
    def test_pair_correlation_structure(self, build):
        st = build(Qubit(1.0, 0.0), AmplifierConfig.for_gain(0.8))
        for n1h, n1v, n2h, n2v in st.amplitudes:
            assert n1v == n2h
            assert n2v == n1h - 1


class TestVacuumOutput:
    def test_zero_gain_is_vacuum(self):
        st = vacuum_output(AmplifierConfig.for_gain(0.0))
        assert st.amplitudes == {(0, 0, 0, 0): 1.0}

    @pytest.mark.parametrize("g", [0.07, 0.5, 1.13])
    def test_mode2_noise_floor_is_nbar(self, g):
        cfg = AmplifierConfig.for_gain(g)
        st = vacuum_output(cfg)
        # each truncated unit of probability carries at most cutoff photons
        tol = 2 * cfg.cutoff * cfg.epsilon_trunc + 1e-12
        for column in (2, 3):   # 2h, 2v
            assert photon_number(st, column) == pytest.approx(
                cfg.gain.nbar, abs=tol)

    def test_perfect_pair_correlation(self):
        cfg = AmplifierConfig.for_gain(0.7)
        st = vacuum_output(cfg)
        for n1h, n1v, n2h, n2v in st.amplitudes:
            assert n1h == n2v
            assert n1v == n2h
        assert photon_number(st, 0) == pytest.approx(   # 1h against 2v
            photon_number(st, 3), abs=1e-14)


def _analyzed(state):
    """The state with both mode pairs rotated by the 45-degree analyzer."""
    for pair in ("mode2", "mode1"):
        state = rotate_mode_pair(state, pair, DETECTED_FIELD_UNITARY)
    return state


def _assert_same_law(a, b):
    """Same occupation rows, and probabilities equal within 1e-15."""
    order_a, order_b = np.lexsort(a.occ.T), np.lexsort(b.occ.T)
    assert np.array_equal(a.occ[order_a], b.occ[order_b])
    assert np.abs(np.abs(a.amp[order_a]) ** 2 - np.abs(b.amp[order_b]) ** 2).max() < 1e-15


class TestSU2Covariance:
    @pytest.mark.parametrize("cfg", [AmplifierConfig.for_gain(0.07),
                                     AmplifierConfig.for_gain(1.13, 100)],
                             ids=["LG", "HG"])
    def test_analyzer_commutes_with_the_amplifier(self, cfg):
        # the analyzer has det 1: rotating both pairs of amplify(q) gives
        # amplify(U q), and leaves the squeezed vacuum as it is
        u = PolarizationUnitary(DETECTED_FIELD_UNITARY)
        for q in (Qubit(2 ** -0.5, 2 ** -0.5), Qubit(0.6, 0.8, 0.7),
                  Qubit(0.28, 0.96, -2.4)):
            _assert_same_law(amplify(apply(u, q), cfg), _analyzed(amplify(q, cfg)))
        _assert_same_law(vacuum_output(cfg), _analyzed(vacuum_output(cfg)))


def _propagate_by_search(q, cfg):
    """Reference propagator: basis by a search over the pair couplings from
    the injected rows, generator by a loop over its rows, two steps of g/2."""
    psi_in = FockState4.from_arrays(np.array([[1, 0, 0, 0], [0, 1, 0, 0]]),
                                    np.array([q.alpha, q.beta * cmath.exp(1j * q.phi)]),
                                    cfg.cutoff)
    seeds = [tuple(s) for s in psi_in.occ.tolist()]
    max_total = 2 * (cfg.cutoff + PROPAGATOR_PADDING) + 1
    seen, stack = set(seeds), list(seeds)
    while stack:
        s = stack.pop()
        for (a, b), _sign in _COUPLINGS:
            for step in (1, -1):
                nxt = list(s)
                nxt[a] += step
                nxt[b] += step
                if min(nxt) >= 0 and sum(nxt) <= max_total and tuple(nxt) not in seen:
                    seen.add(tuple(nxt))
                    stack.append(tuple(nxt))
    index = {s: k for k, s in enumerate(sorted(seen))}
    rows, cols, vals = [], [], []
    for s, k in index.items():
        for (a, b), sign in _COUPLINGS:
            up = list(s)
            up[a] += 1
            up[b] += 1
            if sum(up) <= max_total:
                rows.append(index[tuple(up)])
                cols.append(k)
                vals.append(sign * math.sqrt(up[a] * up[b]))
    created = sp.csr_matrix((vals, (rows, cols)), shape=(len(index),) * 2)
    psi = np.zeros(len(index), dtype=complex)
    psi[[index[s] for s in seeds]] = psi_in.amp
    for _ in range(2):
        psi = expm_multiply(cfg.gain.g / 2 * (created - created.T), psi)
    occ = np.array(list(index), dtype=np.int64)
    keep = occ.sum(axis=1) // 2 <= cfg.cutoff
    return FockState4.from_arrays(occ[keep], psi[keep], cfg.cutoff)


class TestPropagateHamiltonian:
    @pytest.mark.parametrize("q", [Qubit(1.0, 0.0), Qubit(0.0, 1.0),
                                   Qubit(0.6, 0.8, -2.1)], ids=["H", "V", "mixed"])
    def test_equals_search_reference(self, q):
        # same rows, compared in key order; amplitudes to rounding, since the
        # reference integrates the four-mode generator with a different method
        cfg = AmplifierConfig.for_gain(0.3)
        st, ref = propagate_hamiltonian(q, cfg), _propagate_by_search(q, cfg)
        order = np.lexsort(st.occ.T[::-1])
        assert np.array_equal(st.occ[order], ref.occ)
        assert np.abs(st.amp[order] - ref.amp).max() < 1e-13

    @pytest.mark.parametrize("g", [1.5, 2.0, amplifier._largest_gain()],
                             ids=["1.5", "2.0", "top"])
    def test_matches_closed_form_at_high_gain(self, g, rng):
        # the top gain's default cutoff is MAX_CUTOFF, the longest chain
        cfg = AmplifierConfig.for_gain(g)
        q = random_qubit(rng)
        assert fidelity(propagate_hamiltonian(q, cfg), amplify(q, cfg)) \
            >= 1.0 - 1e-8

    def test_amplitudes_match_closed_form_at_hg(self, rng):
        cfg = AmplifierConfig.for_gain(1.13, 100)
        q = random_qubit(rng)
        st, ref = propagate_hamiltonian(q, cfg), amplify(q, cfg)
        assert np.array_equal(st.occ, ref.occ)
        assert np.abs(st.amp - ref.amp).max() < 1e-10

    @pytest.mark.parametrize("g, cutoff",
                             [(0.07, 12), (1.13, 100), (amplifier._largest_gain(), 1000)],
                             ids=["LG", "HG", "top"])
    def test_shares_the_closed_form_rows(self, g, cutoff):
        # one row set per configuration: with nothing pruned, both outputs
        # hold the same read-only array, so one plan serves both contractions
        cfg = AmplifierConfig.for_gain(g, cutoff)
        q = Qubit(0.6, 0.8, 1.3)
        prop, state = propagate_hamiltonian(q, cfg), amplify(q, cfg)
        assert len(prop) == len(state) == 2 * (cfg.cutoff + 1) * (cfg.cutoff + 2) // 2
        assert prop.occ is state.occ

    def test_shares_the_rows_after_another_configuration(self):
        # amplify at another configuration evicts the rows from its memo; the
        # propagator keeps only its factors and takes the rebuilt rows
        lg, hg = AmplifierConfig.for_gain(0.07, 12), AmplifierConfig.for_gain(1.13, 100)
        q = Qubit(0.6, 0.8, 1.3)
        propagate_hamiltonian(q, lg)
        amplify(q, hg)
        assert propagate_hamiltonian(q, lg).occ is amplify(q, lg).occ

    def test_moved_rows_raise(self, monkeypatch):
        # swapped injected rows evolve onto the closed form's rows in another order
        monkeypatch.setattr(amplifier, "_INJECTED", amplifier._INJECTED[::-1])
        with pytest.raises(NumericalError, match="not the closed form's rows"):
            propagate_hamiltonian(Qubit(1.0, 0.0), AmplifierConfig.for_gain(0.3))

    def test_corrupted_chain_raises(self, corrupt_svd):
        corrupt_svd()
        with pytest.raises(NumericalError, match="beyond the cutoff"):
            propagate_hamiltonian(Qubit(1.0, 0.0), AmplifierConfig.for_gain(1.13, 100))

    def test_patch_after_an_unpatched_build_still_raises(self, corrupt_svd):
        # a memo entry built before the patch at the same configuration must
        # not hide the corrupted chain
        cfg = AmplifierConfig.for_gain(1.13, 100)
        propagate_hamiltonian(Qubit(1.0, 0.0), cfg)
        corrupt_svd()
        with pytest.raises(NumericalError, match="beyond the cutoff"):
            propagate_hamiltonian(Qubit(1.0, 0.0), cfg)

    @pytest.mark.parametrize("g", [0.07, 1.13, 2.0, amplifier._largest_gain()],
                             ids=["0.07", "1.13", "2.0", "top"])
    def test_chain_matches_tridiagonal_eigensolve(self, g):
        # reference: exp(-igT) from the eigenvectors of the whole chain T
        cfg = AmplifierConfig.for_gain(g)
        length = cfg.cutoff + PROPAGATOR_PADDING + 1
        k = np.arange(length)
        for d in (0, 1):
            lam, v = eigh_tridiagonal(np.zeros(length), np.sqrt(k[1:] * (k[1:] + d)))
            direct = (1j ** (k % 4) * (v @ (np.exp(-1j * g * lam) * v[0]))).real
            assert np.abs(amplifier._chain(cfg, d) - direct).max() <= 1e-13

    @pytest.mark.parametrize("g", [0.07, 1.13, 2.0])
    def test_negated_coupling_is_the_parity_gauge(self, g):
        # reference: the -1 coupling's chain from the SVD of its negated
        # bipartite half
        cfg = AmplifierConfig.for_gain(g)
        length = cfg.cutoff + PROPAGATOR_PADDING + 1
        k = np.arange(length)
        for d in (0, 1):
            links = np.diag(-np.sqrt(k[1:] * (k[1:] + d)), 1)
            u, s, vt = np.linalg.svd((links + links.T)[0::2, 1::2])
            direct = np.empty(length)
            direct[0::2] = u @ (np.cos(g * np.pad(s, (0, len(u) - len(s)))) * u[0])
            direct[1::2] = vt.T @ (np.sin(g * s) * u[0, :len(s)])
            direct *= (-1.0) ** (k // 2)
            gauged = (-1.0) ** k * amplifier._chain(cfg, d)
            assert np.abs(gauged - direct).max() <= 1e-15

    def test_two_chain_solves_per_configuration(self, monkeypatch):
        # two solves build a configuration's entry; another qubit at that
        # configuration reuses it, and the memo holds one configuration only
        calls = []
        svd = np.linalg.svd

        def counted(a):
            calls.append(a.shape)
            return svd(a)

        amplifier._evolved_kets.cache_clear()
        monkeypatch.setattr(np.linalg, "svd", counted)
        first, other = AmplifierConfig.for_gain(0.5), AmplifierConfig.for_gain(0.3)
        for cfg, q, solves in ((first, Qubit(0.6, 0.8, 0.4), 2),
                               (first, Qubit(0.8, 0.6, -1.2), 0),
                               (other, Qubit(0.6, 0.8, 0.4), 2),
                               (first, Qubit(0.6, 0.8, 0.4), 2)):
            calls.clear()
            propagate_hamiltonian(q, cfg)
            assert len(calls) == solves

    def test_zero_gain_returns_input(self):
        cfg = AmplifierConfig.for_gain(0.0)
        st = propagate_hamiltonian(Qubit(1.0, 0.0), cfg)
        assert st.amplitudes == {(1, 0, 0, 0): 1.0}

    def test_propagated_branches_stay_orthogonal(self):
        cfg = AmplifierConfig.for_gain(0.3)
        a = propagate_hamiltonian(Qubit(1.0, 0.0), cfg)
        b = propagate_hamiltonian(Qubit(0.0, 1.0), cfg)
        assert abs(inner_product(a, b)) < 1e-10

    def test_norm_preserved_by_unitary_stepping(self, rng):
        cfg = AmplifierConfig.for_gain(0.5)
        st = propagate_hamiltonian(random_qubit(rng), cfg)
        # norm loss only through the final truncation back to the cutoff
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-8)


def _amplify_per_call(q, cfg):
    """Reference: amplify with every array built in the call."""
    i, j, base = amplifier._pair_amplitudes(cfg, cfg.gain.gamma)
    b_amp = q.beta * cmath.exp(1j * q.phi)
    occ = np.column_stack([i + 1, j, j, i, i, j + 1, j, i]).reshape(-1, 4)
    ket = np.column_stack([base * np.sqrt(i + 1), base * np.sqrt(j + 1)]).reshape(-1)
    amp = np.tile(np.array([q.alpha, b_amp]), len(i)) * ket
    return FockState4.from_arrays(occ, amp, cfg.cutoff)


def _propagate_per_call(q, cfg):
    """Reference: propagate_hamiltonian evolving only the injected rows the
    qubit populates, with both chain solves in the call, in amplify's layout:
    pair term by pair term, the populated injected rows' kets alternating."""
    psi_in = FockState4.from_arrays(np.array([[1, 0, 0, 0], [0, 1, 0, 0]]),
                                    np.array([q.alpha, q.beta * cmath.exp(1j * q.phi)]),
                                    cfg.cutoff)
    if cfg.gain.g == 0.0:
        return psi_in
    pair = np.eye(4, dtype=np.int64)[[ab for ab, _sign in _COUPLINGS]].sum(axis=1)
    n, i = np.tril_indices(cfg.cutoff + 1)
    k = np.column_stack([i, n - i])
    chains = [amplifier._chain(cfg, d) for d in (0, 1)]
    pairs = np.arange(chains[0].size)
    occ, amp = [], []
    for seed, amp0 in zip(psi_in.occ, psi_in.amp):
        ket = np.ones(len(k))
        for c, ((a, b), sign) in enumerate(_COUPLINGS):
            ket *= (sign ** pairs * chains[seed[a] - seed[b]])[k[:, c]]
        occ.append(seed + k @ pair)
        amp.append(amp0 * ket)
    occ, amp = np.stack(occ, axis=1).reshape(-1, 4), np.stack(amp, axis=1).reshape(-1)
    return FockState4.from_arrays(occ, amp, cfg.cutoff)


def _assert_same_bytes(a, b):
    """Same rows, and amplitudes equal bit for bit, signed zeros included."""
    assert np.array_equal(a.occ, b.occ)
    assert a.amp.tobytes() == b.amp.tobytes()


_MEMO_QUBITS = {"H": Qubit(1.0, 0.0), "V": Qubit(0.0, 1.0),
                "balanced": Qubit(2 ** -0.5, 2 ** -0.5),
                "random": random_qubit(np.random.default_rng(2718))}
_BUILDS = {"amplify": (amplify, _amplify_per_call, amplifier._amplified_kets),
           "propagate_hamiltonian": (propagate_hamiltonian, _propagate_per_call,
                                     amplifier._evolved_kets)}


class TestStateMemo:
    @pytest.mark.parametrize("build", list(_BUILDS))
    @pytest.mark.parametrize("g", [0.0, 0.07, 1.13, 2.0, amplifier._largest_gain()],
                             ids=["0", "0.07", "1.13", "2.0", "top"])
    def test_warm_equals_cold_and_per_call(self, g, build):
        # |V> prunes the whole H branch; a cold call builds the entry, a warm
        # one after another qubit reuses it, and both equal the reference
        memoised, per_call, memo = _BUILDS[build]
        cfg = AmplifierConfig.for_gain(1.13, 100) if g == 1.13 else AmplifierConfig.for_gain(g)
        for q in _MEMO_QUBITS.values():
            memo.cache_clear()
            cold = memoised(q, cfg)
            memoised(Qubit(0.6, 0.8, 2.2), cfg)
            _assert_same_bytes(memoised(q, cfg), cold)
            if g < 2.2 or q is _MEMO_QUBITS["random"]:   # the top gain's reference is slow
                _assert_same_bytes(cold, per_call(q, cfg))

    @pytest.mark.parametrize("build", list(_BUILDS))
    def test_memo_arrays_reject_writes(self, build):
        # the warm trace plans too, which amplify's entry holds for both builds
        memoised, _per_call, memo = _BUILDS[build]
        cfg = AmplifierConfig.for_gain(1.13, 100)
        state = memoised(_MEMO_QUBITS["balanced"], cfg)
        for mode in ("mode1", "mode2"):
            partial_trace(state, mode)
        occ, ket, plans = amplifier._amplified_kets(cfg)
        assert sorted(plans) == ["mode1", "mode2"]
        warm = [arr for plan in plans.values() for arr in plan[1:]]
        # each entry holds one ket; amplify's also holds the rows
        own = ket if memo is amplifier._amplified_kets else memo(cfg)
        assert own.shape == (len(occ),)
        for arr in [occ, own, *warm]:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        # nothing pruned: the state shares amplify's memoised rows
        assert np.shares_memory(state.occ, amplifier._amplified_kets(cfg)[0])

    @pytest.mark.parametrize("build", list(_BUILDS))
    def test_writing_a_returned_state_leaves_the_next_call(self, build):
        memoised, _per_call, _memo = _BUILDS[build]
        cfg, q = AmplifierConfig.for_gain(1.13, 100), _MEMO_QUBITS["random"]
        first = memoised(q, cfg)
        kept = first.amp.copy()
        first.amp[:] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            first.occ[0, 0] = 7
        assert memoised(q, cfg).amp.tobytes() == kept.tobytes()
