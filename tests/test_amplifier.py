import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from qiopa import amplifier
from qiopa.amplifier import (_COUPLINGS, PROPAGATOR_PADDING, AmplifierConfig,
                             amplify, propagate_hamiltonian, vacuum_output)
from qiopa.errors import NumericalError
from qiopa.fock import (FockIndex4, FockState4, fidelity, inner_product,
                        make_gain, number_expectation, pair_tail)
from qiopa.polarization import Qubit

from conftest import random_qubit


class TestAmplifierConfig:
    def test_cutoff_violating_tail_rule_rejected(self):
        with pytest.raises(ValueError):
            AmplifierConfig(make_gain(1.13), 5)

    def test_for_gain_picks_valid_cutoff(self):
        for g in (0.0, 0.07, 0.5, 1.13):
            cfg = AmplifierConfig.for_gain(g)
            assert cfg.epsilon_trunc < 1e-9


class TestAmplify:
    def test_zero_gain_passes_qubit_through(self):
        st = amplify(Qubit(1.0, 0.0), AmplifierConfig.for_gain(0.0))
        assert st.amplitudes == {FockIndex4(1, 0, 0, 0): 1.0}

    @pytest.mark.parametrize("g", [0.07, 0.5, 1.13])
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
        for idx in st.amplitudes:
            assert idx.n1v == idx.n2h
            assert idx.n2v == idx.n1h - 1

    def test_branch_orthogonality_exact(self):
        cfg = AmplifierConfig.for_gain(1.13, 100)
        a = amplify(Qubit(1.0, 0.0), cfg)
        b = amplify(Qubit(0.0, 1.0), cfg)
        assert inner_product(a, b) == 0


class TestVacuumOutput:
    def test_zero_gain_is_vacuum(self):
        st = vacuum_output(AmplifierConfig.for_gain(0.0))
        assert st.amplitudes == {FockIndex4(0, 0, 0, 0): 1.0}

    @pytest.mark.parametrize("g", [0.07, 0.5, 1.13])
    def test_mode2_noise_floor_is_nbar(self, g):
        cfg = AmplifierConfig.for_gain(g)
        st = vacuum_output(cfg)
        # each truncated unit of probability carries at most cutoff photons
        tol = 2 * cfg.cutoff * cfg.epsilon_trunc + 1e-12
        for mode in ("2h", "2v"):
            assert number_expectation(st, mode) == pytest.approx(
                cfg.gain.nbar, abs=tol)

    def test_perfect_pair_correlation(self):
        cfg = AmplifierConfig.for_gain(0.7)
        st = vacuum_output(cfg)
        for idx in st.amplitudes:
            assert idx.n1h == idx.n2v
            assert idx.n1v == idx.n2h
        assert number_expectation(st, "1h") == pytest.approx(
            number_expectation(st, "2v"), abs=1e-14)


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
        # same rows; amplitudes to rounding, since the reference integrates
        # the four-mode generator with a different method
        cfg = AmplifierConfig.for_gain(0.3)
        st, ref = propagate_hamiltonian(q, cfg), _propagate_by_search(q, cfg)
        assert np.array_equal(st.occ, ref.occ)
        assert np.abs(st.amp - ref.amp).max() < 1e-13

    @pytest.mark.parametrize("g", [1.5, 2.0])
    def test_matches_closed_form_at_high_gain(self, g, rng):
        cfg = AmplifierConfig.for_gain(g)
        q = random_qubit(rng)
        assert fidelity(propagate_hamiltonian(q, cfg), amplify(q, cfg)) \
            >= 1.0 - 1e-8

    def test_amplitudes_match_closed_form_at_hg(self, rng):
        cfg = AmplifierConfig.for_gain(1.13, 100)
        q = random_qubit(rng)
        st, ref = propagate_hamiltonian(q, cfg), amplify(q, cfg)
        order = np.lexsort(ref.occ.T[::-1])
        assert np.array_equal(st.occ, ref.occ[order])
        assert np.abs(st.amp - ref.amp[order]).max() < 1e-10

    def test_corrupted_chain_raises(self, monkeypatch):
        # an eigensolver returning three times the chain's frequencies evolves
        # each chain to 3g, pushing weight past the cutoff
        solve = amplifier.eigh_tridiagonal

        def wrong(d, e):
            lam, v = solve(d, e)
            return 3.0 * lam, v

        monkeypatch.setattr(amplifier, "eigh_tridiagonal", wrong)
        with pytest.raises(NumericalError):
            propagate_hamiltonian(Qubit(1.0, 0.0), AmplifierConfig.for_gain(1.13, 100))

    def test_zero_gain_returns_input(self):
        cfg = AmplifierConfig.for_gain(0.0)
        st = propagate_hamiltonian(Qubit(1.0, 0.0), cfg)
        assert st.amplitudes == {FockIndex4(1, 0, 0, 0): 1.0}

    @pytest.mark.parametrize("g", [0.07, 0.3])
    def test_matches_closed_form_at_low_gain(self, g, rng):
        cfg = AmplifierConfig.for_gain(g)
        q = random_qubit(rng)
        assert fidelity(propagate_hamiltonian(q, cfg), amplify(q, cfg)) \
            >= 1.0 - 1e-8

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
