import dataclasses
import enum
import itertools
import json
import math
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from qiopa import amplifier, fock, montecarlo
from qiopa.amplifier import AmplifierConfig, _largest_gain, amplify, vacuum_output
from qiopa.errors import NumericalError
from qiopa.fock import rotate_mode_pair
from qiopa.montecarlo import (DETECTORS, DetectorConfig, PulseSampler,
                              calibrate_visibility_loss, run)
from qiopa.observables import DETECTED_FIELD_UNITARY, g1_closed_form, visibility
from qiopa.polarization import BlochPath, Qubit

from conftest import BALANCED
from reference import (broadcast_totals, enumerated_law, grid_law, per_pulse_totals,
                       thinned_joint, thinning)

LG = AmplifierConfig.for_gain(0.07)
RATES = ("qe", "attenuation", "dark_rate", "p_inject")


def _hg():
    return AmplifierConfig.for_gain(1.13, 100)


def _top():
    """The largest gain AmplifierConfig accepts, at its default cutoff."""
    return AmplifierConfig.for_gain(_largest_gain())


class TestDetectorConfig:
    def test_real_rates_of_any_type_are_stored_as_floats(self):
        # a Fraction or numpy scalar kept as given made the config unprintable as JSON
        rate = enum.IntEnum("Rate", {"ONE": 1})
        for v in (1, np.float32(0.5), np.float64(0.25), Fraction(1, 5), rate.ONE, -0.0):
            det = DetectorConfig(coincidence_mask=["D2", "D_T"], **dict.fromkeys(RATES, v))
            stored = [getattr(det, k) for k in RATES]
            assert all(type(x) is float and repr(x) == repr(float(v) + 0.0) for x in stored)
            assert json.dumps(dataclasses.asdict(det), default=sorted)
        assert det.coincidence_mask == frozenset({"D_T", "D2"})

    def test_unknown_detector_rejected(self):
        # a string is not split into its characters, and a mask that is no
        # collection of strings is the wrong kind; only an unknown name is a ValueError
        for mask, error in ((frozenset({"D_T", "D9"}), ValueError), (["D9"], ValueError),
                            ("D2", TypeError), (None, TypeError), (5, TypeError),
                            ([["D2"]], TypeError), ([1, "x"], TypeError),
                            (frozenset({1, "x"}), TypeError), ([None], TypeError)):
            with pytest.raises(error, match="^coincidence_mask must "):
                DetectorConfig(coincidence_mask=mask)
        names = frozenset({"D_T", "D2"})
        assert DetectorConfig(coincidence_mask=names).coincidence_mask is names


FOUR_FOLD = frozenset({"D_T", "D2", "D1", "D1*"})
LOSSY = {"qe": 0.6, "attenuation": 0.7, "dark_rate": 0.03, "p_inject": 0.6}


def _reference_laws(q, cfg):
    """Normalised (rows (n1H, n1V, n2H, n2V), probabilities) of the injected
    and the vacuum output: the four-mode states with both mode pairs rotated
    by the analyzer, which no sampler reads."""
    laws = []
    for state in (amplify(q, cfg), vacuum_output(cfg)):
        for pair in ("mode2", "mode1"):
            state = rotate_mode_pair(state, pair, DETECTED_FIELD_UNITARY)
        laws.append((state.occ, np.abs(state.amp) ** 2))
    return [(occ, p / p.sum()) for occ, p in laws]


def _detector_law(n, eta, dark):
    """{(click, survivors): probability} of a threshold detector fed n
    photons, each kept with probability eta, by explicit loops over the
    survivors and the dark count."""
    law = {}
    for s in range(n + 1):
        kept = math.comb(n, s) * eta ** s * (1.0 - eta) ** (n - s)
        for fired, p_dark in ((True, dark), (False, 1.0 - dark)):
            key = (s > 0 or fired, s)
            law[key] = law.get(key, 0.0) + kept * p_dark
    return law


def _brute_force_law(q, cfg, det):
    """{outcome: probability} of one pulse, enumerated row by row and over
    every detector's thinning and dark outcomes: (oH, oV) of a gated pulse,
    o = 0 (no click), 1 (dark click, no survivor) or 1 + s, and "sink" for
    a pulse the gate rejects.  D_T is a detector fed the herald photon."""
    mask = det.coincidence_mask
    columns = {"D1": 0, "D1*": 1, "D2": 2, "D2*": 3}
    eta, dark = det.qe * det.attenuation, det.dark_rate
    code = lambda click, s: 0 if not click else 1 + s
    out = {}
    for share, (occ, p) in zip((det.p_inject, 1.0 - det.p_inject),
                               _reference_laws(q, cfg)):
        for row, p_row in zip(occ.tolist(), p):
            laws = [_detector_law(1, det.qe, dark) if d == "D_T"
                    else _detector_law(row[columns[d]], eta, dark)
                    for d in sorted(mask - {"D2", "D2*"})]
            gate = {True: 0.0, False: 0.0}
            for combo in itertools.product(*(law.items() for law in laws)):
                gate[all(click for (click, _s), _p in combo)] += math.prod(
                    p_d for _key, p_d in combo)
            out["sink"] = out.get("sink", 0.0) + share * p_row * gate[False]
            for (kh, ph), (kv, pv) in itertools.product(
                    _detector_law(row[columns["D2"]], eta, dark).items(),
                    _detector_law(row[columns["D2*"]], eta, dark).items()):
                cell = (code(*kh), code(*kv))
                out[cell] = out.get(cell, 0.0) + share * p_row * gate[True] * ph * pv
    return out


def _brute_force_rates(q, cfg, det):
    """Per-pulse probabilities of counts_h, counts_v and coincidences."""
    law = _brute_force_law(q, cfg, det)
    cells = [(cell, p) for cell, p in law.items() if cell != "sink"]
    mask = det.coincidence_mask
    return (sum(p for (oh, _ov), p in cells if oh),
            sum(p for (_oh, ov), p in cells if ov),
            sum(p for (oh, ov), p in cells
                if (oh or "D2" not in mask) and (ov or "D2*" not in mask)))


class TestThinning:
    @pytest.mark.parametrize("cutoff", [12, 100, 363])
    @pytest.mark.parametrize("eta", [0.0, 0.18, 1.0])
    def test_equals_library_binomial(self, cutoff, eta):
        n = np.arange(cutoff + 1)
        pmf = binom.pmf(n[:, None], n, eta)     # pmf[s, n]
        dark = 0.01
        expected = np.vstack([pmf[0] * (1.0 - dark), pmf[0] * dark, pmf[1:]])
        assert np.abs(thinning(cutoff, eta, dark) - expected).max() < 1e-14

    @pytest.mark.parametrize("eta, dark", [(0.126, 0.01), (1.0, 0.0)])
    def test_joint_skips_only_zero_blocks(self, eta, dark, rng):
        # the dense product is the definition.  Each of its two products sums
        # n non-negative terms, within n eps relative in any order, so the
        # blocks, which sum them in another order, part by at most 4 n eps
        cutoff = 300
        h, v = np.indices((cutoff + 1, cutoff + 1))
        gated = np.where(h + v <= cutoff, rng.uniform(size=h.shape), 0.0)
        thin = thinning(cutoff, eta, dark)
        dense = thin @ gated @ thin.T
        assert np.all(np.abs(thinned_joint(thin, gated) - dense)
                      <= 4 * (cutoff + 1) * np.finfo(float).eps * dense)

@pytest.fixture
def scale_axis_laws(monkeypatch):
    """scale(factor, tilts) scales the per-axis outcome vectors of the terms
    with the given tilts; the closed-form pass probability the sampler checks
    against stays.  The memo of axis laws is emptied before the patch, so no
    entry built earlier in the test hides it."""
    def scale(factor, tilts=(0, 1)):
        montecarlo._axis_laws.cache_clear()
        thinned = montecarlo._thinned_geometric
        monkeypatch.setattr(
            montecarlo, "_thinned_geometric",
            lambda z, rest, tilt, *args: (factor if tilt in tilts else 1.0)
            * thinned(z, rest, tilt, *args))

    return scale


class TestPulseSampler:
    def test_lost_norm_raises_instead_of_renormalising(self, scale_axis_laws):
        # 2% of the injected terms' mass goes missing from the grid
        scale_axis_laws(0.98, tilts=(1,))
        with pytest.raises(NumericalError, match="drops"):
            PulseSampler(BALANCED, LG, DetectorConfig(coincidence_mask=FOUR_FOLD))

    def test_law_lost_norm_raises_instead_of_renormalising(self, scale_axis_laws):
        scale_axis_laws(0.98, tilts=(1,))
        with pytest.raises(NumericalError, match="drops"):
            PulseSampler(BALANCED, LG, DetectorConfig())

    def test_gated_mass_above_one_raises(self, scale_axis_laws):
        # both axes scaled by sqrt(1.001): the law is scaled by 1.001
        scale_axis_laws(math.sqrt(1.001))
        with pytest.raises(NumericalError, match="gated weight .* > 1"):
            PulseSampler(BALANCED, LG, DetectorConfig(qe=1.0, coincidence_mask={"D2"}))

    def test_patch_after_an_unpatched_build_still_raises(self, scale_axis_laws):
        # an entry the unpatched sampler left in the memo must not hide the patch
        PulseSampler(BALANCED, LG, DetectorConfig())
        scale_axis_laws(0.98, tilts=(1,))
        with pytest.raises(NumericalError, match="drops"):
            PulseSampler(BALANCED, LG, DetectorConfig())

    def test_no_mask_builds_a_four_mode_state(self, monkeypatch):
        # every mask's law is a closed form of the gain and the qubit: every
        # module attribute bound to a four-mode state builder or the rotation
        # kernel raises
        def refuse(*_args, **_kwargs):
            raise AssertionError("a sampler built a four-mode state")

        builders = (amplifier.amplify, amplifier.vacuum_output,
                    amplifier.propagate_hamiltonian, fock.rotate_mode_pair)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "qiopa" or name.startswith("qiopa.")):
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in builders):
                        monkeypatch.setattr(module, attr, refuse)
        cfg = _hg()
        for k in range(len(DETECTORS) + 1):
            for mask in itertools.combinations(DETECTORS, k):
                det = DetectorConfig(coincidence_mask=mask, pulses=1_000)
                sampler = PulseSampler(Qubit(0.6, 0.8, 0.7), cfg, det)
                # the per-axis form holds O(cutoff) numbers, no grid
                arrays = [v for v in vars(sampler).values() if isinstance(v, np.ndarray)]
                assert arrays and max(v.size for v in arrays) <= 6 * (cfg.cutoff + 1)
                assert run(BALANCED, cfg, det).pulses == 1_000

    @pytest.mark.parametrize("cfg", [LG, _hg(), _top()], ids=["LG", "HG", "top"])
    def test_sink_is_one_less_the_exact_sum_of_the_cells(self, cfg):
        q = Qubit(0.6, 0.8, 0.7)
        for detectors in ({}, LOSSY):
            for k in range(len(DETECTORS) + 1):
                for mask in itertools.combinations(DETECTORS, k):
                    det = DetectorConfig(coincidence_mask=mask, **detectors)
                    cells = PulseSampler(q, cfg, det).cells
                    assert cells[12] == max(1.0 - math.fsum(cells[:12]), 0.0), mask

    @pytest.mark.parametrize("cfg", [LG, _hg(), AmplifierConfig.for_gain(_largest_gain(), 1000)],
                             ids=["LG", "HG", "top-1000"])
    @pytest.mark.parametrize("mask", [{"D_T", "D2"}, FOUR_FOLD], ids=["D2,D_T", "D1,D1*,D2,D_T"])
    def test_cells_are_the_nested_loop_products(self, cfg, mask):
        # cells[4 t + 2 zH + zV] is (c_t * zH) * zV, rounded in that order,
        # over the no-click and click masses of term t's H and V axes
        q = Qubit(0.6, 0.8, 0.7)
        det = DetectorConfig(coincidence_mask=mask, **LOSSY)
        table = montecarlo._axis_laws(
            cfg.gain.Gamma ** 2, cfg.gain.C ** -2, cfg.cutoff, det.qe * det.attenuation,
            det.dark_rate, "D1*" in mask, "D1" in mask)[0]
        herald = 1.0 - (1.0 - det.qe) * (1.0 - det.dark_rate) if "D_T" in mask else 1.0
        a = 0.5 + q.alpha * q.beta * math.cos(q.phi)
        p, gamma2 = det.p_inject, cfg.gain.gamma ** 2
        c = (herald * (p * (1.0 - a) * gamma2), herald * (p * a * gamma2),
             herald * ((1.0 - p) * cfg.gain.C ** -4))
        want = []
        for t in range(3):
            for zh in (table[4 * t][1], table[4 * t + 2][1]):
                for zv in (table[4 * t][2], table[4 * t + 1][2]):
                    want.append((c[t] * zh) * zv)
        got = PulseSampler(q, cfg, det).cells[:12]
        assert got.tobytes() == np.array(want).tobytes()

    def test_sink_moves_no_draw(self):
        # numpy's multinomial never reads the last cell: the sink's last bits
        # cannot move a seeded run
        sampler = PulseSampler(BALANCED, _hg(), DetectorConfig(coincidence_mask=FOUR_FOLD))
        want = sampler.sample_chunk(np.random.default_rng(5), 100_000)
        sampler.cells[12] = 0.123456
        assert sampler.sample_chunk(np.random.default_rng(5), 100_000) == want

    @pytest.mark.parametrize("mask,detectors", [
        *(pytest.param(m, LOSSY, id=",".join(sorted(m))) for m in (
            {"D_T", "D2"}, {"D_T", "D2", "D2*"}, {"D_T", "D1", "D2"}, FOUR_FOLD, {"D2"})),
        pytest.param({"D2"}, {**LOSSY, "qe": 0.0, "dark_rate": 0.0}, id="D2-blind"),
        pytest.param({"D_T", "D2"}, {**LOSSY, "qe": 0.0, "dark_rate": 0.0},
                     id="D2,D_T-blind"),
        pytest.param({"D_T", "D2"}, {**LOSSY, "qe": 0.0, "dark_rate": 1.0},
                     id="D2,D_T-dark"),
        pytest.param(FOUR_FOLD, {**LOSSY, "qe": 0.0, "dark_rate": 1.0},
                     id="D1,D1*,D2,D_T-dark"),
        pytest.param({"D_T", "D2"}, {**LOSSY, "qe": 1.0, "dark_rate": 0.0},
                     id="D2,D_T-ideal"),
        pytest.param(FOUR_FOLD, {**LOSSY, "qe": 1.0, "dark_rate": 0.0},
                     id="D1,D1*,D2,D_T-ideal")])
    def test_outcome_law_equals_brute_force(self, mask, detectors):
        q = Qubit(0.6, 0.8, 0.7)
        det = DetectorConfig(coincidence_mask=mask, **detectors)
        law = grid_law(PulseSampler(q, LG, det))
        side = LG.cutoff + 2
        assert law.shape == (side * side + 1,)
        want = np.zeros_like(law)
        for cell, p in _brute_force_law(q, LG, det).items():
            want[-1 if cell == "sink" else cell[0] * side + cell[1]] += p
        assert np.abs(law - want).max() < 1e-14
        assert abs(law.sum() - 1.0) < 1e-12
        cells = law[:-1].reshape(side, side)    # [oH, oV] of gated pulses
        if det.qe == 0.0 and det.dark_rate == 0.0:      # nothing can click
            assert not cells[1:].any() and not cells[:, 1:].any()
        if det.qe == 0.0 and det.dark_rate == 1.0:      # every detector fires dark
            assert np.flatnonzero(cells).tolist() == [side + 1]
        if det.qe == 1.0 and det.dark_rate == 0.0:      # a click is a survivor
            assert not cells[1].any() and not cells[:, 1].any()

    @pytest.mark.parametrize("cfg", [LG, _hg(), _top()], ids=["LG", "HG", "top"])
    def test_outcome_law_equals_enumerated_reference(self, cfg):
        # the enumeration truncates photon numbers, the closed form survivors:
        # they part by at most the pair tail.  D2 and D2* pick coincidences
        # out of the law but do not gate it, and the herald at D_T scales the
        # gated cells, so the reference is enumerated once per D1/D1* gate
        q = Qubit(0.6, 0.8, 0.7)
        qe, dark = 0.18, 0.01
        detectors = {"qe": qe, "attenuation": 0.7, "dark_rate": dark, "p_inject": 0.6}
        thin = thinning(cfg.cutoff, qe * 0.7, dark)
        herald = 1.0 - (1.0 - qe) * (1.0 - dark)
        references = {}
        for k in range(len(DETECTORS) + 1):
            for mask in itertools.combinations(DETECTORS, k):
                det = DetectorConfig(coincidence_mask=mask, **detectors)
                gate = det.coincidence_mask & {"D1", "D1*"}
                if gate not in references:
                    references[gate] = enumerated_law(
                        q, cfg, dataclasses.replace(det, coincidence_mask=gate), thin)
                want = references[gate].copy()
                if "D_T" in mask:
                    want[:-1] *= herald
                    want[-1] = 1.0 - want[:-1].sum()
                law = grid_law(PulseSampler(q, cfg, det))
                assert np.abs(law - want).max() < cfg.epsilon_trunc + 1e-15
        assert len(references) == 4


class TestAxisLawMemo:
    @pytest.mark.parametrize("cfg", [LG, _hg(), _top()], ids=["LG", "HG", "top"])
    @pytest.mark.parametrize("detectors", [{}, LOSSY], ids=["default", "lossy"])
    def test_warm_sampler_equals_cold(self, cfg, detectors):
        # a warm entry, filled by another qubit, seed and p_inject, gives the
        # bytes a cold build gives, and its arrays are shared read-only
        q, other = Qubit(0.6, 0.8, 0.7), Qubit(0.28, 0.96, 2.1)
        for k in range(len(DETECTORS) + 1):
            for mask in itertools.combinations(DETECTORS, k):
                det = DetectorConfig(coincidence_mask=mask, **detectors)
                montecarlo._axis_laws.cache_clear()
                cold = PulseSampler(q, cfg, det)
                montecarlo._axis_laws.cache_clear()
                filler = PulseSampler(other, cfg, dataclasses.replace(
                    det, seed=det.seed + 5, p_inject=0.5 * det.p_inject))
                warm = PulseSampler(q, cfg, det)
                assert warm.axes is filler.axes and warm.moments is filler.moments
                for name in ("cells", "axes", "moments"):
                    a, b = getattr(cold, name), getattr(warm, name)
                    assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
                for shared in (warm.axes, warm.moments):
                    with pytest.raises(ValueError):
                        shared[0, 0] = 0

    def test_the_memo_is_keyed_by_the_amplifiers_scalars(self):
        # two configurations of one gain and cutoff, built apart, share an
        # entry; the same gain at another cutoff builds its own
        det = DetectorConfig()
        first = PulseSampler(BALANCED, AmplifierConfig.for_gain(1.13, 100), det)
        second = PulseSampler(BALANCED, AmplifierConfig.for_gain(1.13, 100), det)
        assert montecarlo._axis_laws.cache_info().misses == 1
        assert second.axes is first.axes and first.axes.shape == (6, 101)
        wider = PulseSampler(BALANCED, AmplifierConfig.for_gain(1.13, 101), det)
        assert montecarlo._axis_laws.cache_info().misses == 2
        assert wider.axes.shape == (6, 102) and wider.moments.shape == (102, 2)

    def test_a_sweep_builds_the_axis_laws_once(self, monkeypatch):
        # a gated setup builds two plain and two gated vectors, not two plain
        # and six gated ones per point; an ungated one only the plain two
        calls = []
        thinned = montecarlo._thinned_geometric
        monkeypatch.setattr(montecarlo, "_thinned_geometric",
                            lambda *args: calls.append(args) or thinned(*args))
        det = DetectorConfig(coincidence_mask=frozenset(DETECTORS), seed=4)
        run(montecarlo.phase_sweep(BALANCED, 32), _top(), det)
        assert len(calls) == 4
        calls.clear()
        montecarlo._axis_laws.cache_clear()
        calibrate_visibility_loss(0.2, BALANCED, _hg(), DetectorConfig(seed=4))
        assert len(calls) == 2


class TestExactRates:
    @pytest.mark.parametrize("q,det", [
        (Qubit(0.6, 0.8, 0.7),
         DetectorConfig(qe=0.8, attenuation=0.7, dark_rate=0.01, p_inject=0.6,
                        pulses=200_000, seed=31,
                        coincidence_mask=frozenset({"D_T", "D1", "D2"}))),
        (BALANCED,
         DetectorConfig(qe=0.7, attenuation=0.8, dark_rate=0.005, p_inject=0.8,
                        pulses=200_000, seed=32,
                        coincidence_mask=frozenset({"D_T", "D2", "D2*"}))),
    ], ids=["D_T,D1,D2", "D_T,D2,D2*"])
    def test_seeded_counts_match_enumerated_rates(self, q, det):
        # rates from the row-by-row enumeration, at a gain where mode 2
        # often holds several photons
        cfg = AmplifierConfig.for_gain(0.5)
        stats = run(q, cfg, det)
        for count, rate in zip((stats.counts_h, stats.counts_v, stats.coincidences),
                               _brute_force_rates(q, cfg, det)):
            z = (count - det.pulses * rate) / math.sqrt(det.pulses * rate * (1 - rate))
            assert abs(z) < 4


class TestRunPoint:
    def test_threaded_run_matches_serial(self):
        det = DetectorConfig(pulses=450_000, seed=5)
        serial = run(BALANCED, LG, det)
        assert all(run(BALANCED, LG, det, threads=n) == serial for n in (2, 4))

    def test_totals_match_grid_law_expectations(self):
        # every mask at HG with dark counts: each of the eight totals of one
        # large draw lies within noise of its exact mean on the 2-D law
        n, cfg, q = 10 ** 7, _hg(), Qubit(0.6, 0.8, 0.7)
        for k in range(len(DETECTORS) + 1):
            for mask in itertools.combinations(DETECTORS, k):
                det = DetectorConfig(coincidence_mask=mask, **LOSSY)
                sampler = PulseSampler(q, cfg, det)
                totals = sampler.sample_chunk(np.random.default_rng(k), n)
                f = per_pulse_totals(sampler)
                p = grid_law(sampler)
                mean, var = f @ p, f ** 2 @ p - (f @ p) ** 2
                z = (totals - n * mean) / np.sqrt(np.maximum(n * var, 1e-300))
                assert np.all((np.abs(z) < 5) | ((var == 0) & (totals == n * mean))), \
                    (mask, z)

    def test_single_pulse_draws_follow_grid_law(self):
        # n = 1 totals name the pulse's cell: chi-square against the 2-D law
        det = DetectorConfig(qe=1.0, dark_rate=0.2, p_inject=0.6,
                             coincidence_mask=frozenset({"D_T", "D1", "D2"}))
        sampler = PulseSampler(Qubit(0.6, 0.8, 0.7), LG, det)
        f = per_pulse_totals(sampler)
        rng = np.random.default_rng(17)
        draws = np.array([sampler.sample_chunk(rng, 1) for _ in range(20_000)])
        clicks_h, clicks_v, _, gated, s_h, _, s_v, _ = draws.T
        side = LG.cutoff + 2
        cell = np.where(gated > 0, np.where(clicks_h > 0, 1 + s_h, 0) * side
                        + np.where(clicks_v > 0, 1 + s_v, 0), side * side)
        assert (f[:, cell].T == draws).all()
        counts = np.bincount(cell, minlength=f.shape[1])
        expected = len(draws) * grid_law(sampler)
        rich = expected >= 5
        observed = np.append(counts[rich], counts[~rich].sum())
        want = np.append(expected[rich], expected[~rich].sum())
        assert rich.sum() >= 6
        assert chisquare(observed, want * observed.sum() / want.sum()).pvalue > 1e-3

    def test_huge_run_is_fast_and_consistent(self):
        # 10^12 pulses at g = 2.5 with D2 and D2* in the mask: the draws do not
        # grow with the pulse count, and no count exceeds the gated pulses
        cfg = AmplifierConfig.for_gain(2.5)
        det = DetectorConfig(pulses=10 ** 12, seed=3,
                             coincidence_mask=frozenset(DETECTORS))
        start = time.perf_counter()
        stats = run(BALANCED, cfg, det)
        assert time.perf_counter() - start < 1.0
        totals = PulseSampler(BALANCED, cfg, det).sample_chunk(
            np.random.default_rng(3), det.pulses)
        counts_h, counts_v, coincident, gated = totals[:4]
        assert 0 < coincident <= min(counts_h, counts_v)
        assert max(counts_h, counts_v) <= gated <= det.pulses
        assert 0 < stats.coincidences <= min(stats.counts_h, stats.counts_v)
        assert max(stats.counts_h, stats.counts_v) <= det.pulses

    @pytest.mark.parametrize("cfg", [LG, _hg()], ids=["LG", "HG"])
    def test_law_on_one_cell_runs(self, cfg):
        # blind detectors and no gate put every vacuum pulse on one cell, whose
        # product of masses rounds past 1; numpy's multinomial refuses that
        det = DetectorConfig(qe=0.0, p_inject=0.0, coincidence_mask=frozenset(),
                             pulses=1_000)
        assert PulseSampler(BALANCED, cfg, det).cells.max() <= 1.0
        stats = run(BALANCED, cfg, det)
        assert (stats.counts_h, stats.counts_v, stats.coincidences) == (0, 0, 1_000)

    def test_survivor_sums_cannot_wrap(self):
        # the int64 sum of s^2 over the pulses reaches pulses * cutoff^2: at
        # cutoff 988 a larger count is refused, naming the largest, and that
        # one runs to the closed-form channel means
        cfg = AmplifierConfig.for_gain(2.5)
        largest = montecarlo.INT64_MAX // cfg.cutoff ** 2
        for pulses in (2 ** 62, largest + 1):
            with pytest.raises(ValueError, match=f"the largest pulse count is {largest}$"):
                run(BALANCED, cfg, DetectorConfig(pulses=pulses))
        det = DetectorConfig(pulses=largest, seed=6)
        stats = run(BALANCED, cfg, det)
        cf = g1_closed_form(BALANCED, cfg.gain)
        for mean, se, g2 in ((stats.mean_photons_h, stats.stderr_mean_h, cf.g2h),
                             (stats.mean_photons_v, stats.stderr_mean_v, cf.g2v)):
            assert se > 0 and mean == pytest.approx(det.qe * g2, rel=1e-4, abs=0)

    @pytest.mark.parametrize("cfg,det,counts", [
        # exact counts of seeded runs (the TestPulseSampler law tests check
        # the law they are drawn from, TestPerAxisDraws the draws).
        # Changes to the cell or axis order, to the laws' rounding or to the
        # draws move them.
        (LG, DetectorConfig(qe=1.0, p_inject=0.5, pulses=200_000, seed=3,
                            coincidence_mask=frozenset({"D_T", "D1", "D2"})),
         (9, 1005, 9)),
        (_hg(), DetectorConfig(p_inject=0.5, pulses=100_000, seed=11),
         (6230, 4759, 6230)),
    ], ids=["LG-D_T,D1,D2", "HG"])
    def test_seeded_counts_pinned(self, cfg, det, counts):
        stats = run(BALANCED, cfg, det)
        assert (stats.counts_h, stats.counts_v, stats.coincidences) == counts


# 2^96 - 1 .. 2^128 hold 3, 4, 4 and 5 words: numpy pads a seed to the
# four-word pool before a spawn key, 2^128 is the first seed with a word
# past the pool, and 2^2048 + 1 (65 words) is longer than the hash's tables
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 + 5, 2 ** 96 - 1, 2 ** 96,
         2 ** 128 - 1, 2 ** 128, 2 ** 299 + 0x9E3779B97F4A7C15, 2 ** 2048 + 1]


class TestSeedStreams:
    # a point's stream is numpy's SeedSequence -> PCG64 stream, hashed on
    # Python ints; numpy's own SeedSequence is the reference
    @pytest.mark.parametrize("key", [(), (0,), (31,), (2 ** 32 + 1,)], ids=str)
    def test_pcg64_state_equals_numpys(self, key):
        seed_class = montecarlo._seed_class()
        for seed in SEEDS:
            want = np.random.SeedSequence(seed, spawn_key=key)
            got = seed_class(seed, key[0] if key else None)
            assert np.random.PCG64(got).state == np.random.PCG64(want).state, seed
            a, b = got.generate_state(9, np.uint64), want.generate_state(9, np.uint64)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), seed

    def test_spawned_children_are_the_point_keys(self):
        seed_class = montecarlo._seed_class()
        for seed in SEEDS:
            for i, child in enumerate(np.random.SeedSequence(seed).spawn(32)):
                assert np.random.PCG64(seed_class(seed, i)).state == \
                    np.random.PCG64(child).state, (seed, i)

    def test_every_spelling_of_uint64_is_accepted(self):
        want = np.random.SeedSequence(7).generate_state(4, np.uint64).tolist()
        for dtype in (np.uint64, np.dtype("uint64"), "uint64"):
            got = montecarlo._seed_class()(7, None).generate_state(4, dtype)
            assert got.dtype == np.uint64 and got.tolist() == want, dtype

    def test_other_dtypes_rejected(self):
        for dtype in (np.uint32, np.int64, np.float64):
            with pytest.raises(ValueError):
                montecarlo._seed_class()(0, None).generate_state(4, dtype)


class TestPerAxisDraws:
    @pytest.mark.parametrize("cfg", [LG, _hg(), _top()], ids=["LG", "HG", "top"])
    def test_totals_equal_the_broadcast_draw(self, cfg):
        # one multinomial per clicked axis, in axis order, takes the same
        # numbers from the stream as one multinomial over all six term-axes:
        # the eight totals agree as integers, and so does the next draw
        q = Qubit(0.6, 0.8, 0.7)
        detectors = ({"dark_rate": 0.0}, {"dark_rate": 0.05}, {"qe": 0.0})
        for k in range(len(DETECTORS) + 1):
            for mask in itertools.combinations(DETECTORS, k):
                for p, extra in itertools.product((0.0, 0.5, 1.0), detectors):
                    det = DetectorConfig(coincidence_mask=mask, p_inject=p, **extra)
                    sampler = PulseSampler(q, cfg, det)
                    for seed, n in ((1, 1), (2, 1_000), (3, 200_000), (4, 10 ** 12)):
                        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                        got = sampler.sample_chunk(rng, n)
                        want = broadcast_totals(sampler, ref, n)
                        assert all(type(v) is int for v in got)
                        assert got == tuple(want.tolist()), (mask, p, extra, seed)
                        assert rng.random() == ref.random()


class TestNullPvalue:
    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 8, 31, 32, 69, 100, 501, 1000, 2001])
    def test_tail_matches_extended_precision_oracle(self, dof):
        # the regularised upper incomplete gamma Q(dof / 2, stat / 2); each
        # term's log carries about (stat / 2 + dof) ulps of rounding.  Past the
        # smallest normal float the tail underflows to 0 or a subnormal
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for stat in (1e-3, 0.1 * dof, 0.5 * dof, dof - 0.5, dof, 2 * dof + 5,
                         5 * dof + 50, 10 * dof + 200):
                want = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(stat) / 2, mp.inf,
                                   regularized=True)
                got = montecarlo._chi2_tail(dof, stat)
                if want < 2.3e-308:
                    assert 0.0 <= got < 2.3e-308, (stat, got)
                else:
                    tol = 4 * (stat / 2 + dof) * 2.0 ** -52
                    assert abs(got / want - 1) <= tol, (stat, got, want)

    def test_no_click_and_zero_statistic_give_one(self):
        point = lambda h, v: SimpleNamespace(counts_h=h, counts_v=v)
        assert montecarlo._null_pvalue([point(0, 0)] * 4) == 1.0
        assert montecarlo._null_pvalue([point(5, 5), point(0, 0)]) == 1.0
        assert montecarlo._chi2_tail(3, 0.0) == 1.0
        assert montecarlo._chi2_tail(0, 0.0) == 1.0


class TestSweep:
    def _sweep(self, n_points=8):
        angles = tuple(2 * math.pi * k / n_points for k in range(n_points))
        return BlochPath("z", angles, BALANCED)

    def test_sweep_determinism(self):
        det = DetectorConfig(pulses=10_000, seed=3)
        assert run(self._sweep(), _hg(), det) == run(self._sweep(), _hg(), det)

    def test_bad_target_type_rejected(self):
        with pytest.raises(TypeError):
            run(3.14, _hg(), DetectorConfig())

    @pytest.mark.parametrize("angles", [
        (0.0, 1.5, 3.0), (0.0, 1.0, 3.0, 4.7), (0.0, 0.785, 1.57, 2.355, 3.14, 3.925, 4.71)],
        ids=["short", "unequal", "one-step-short"])
    def test_grid_off_one_period_rejected(self, angles):
        with pytest.raises(ValueError, match="2 pi"):
            run(BlochPath("z", angles, BALANCED), LG, DetectorConfig(pulses=10))


class TestCalibration:
    def test_recovers_analytic_injection_probability(self):
        # with partial injection the fringe dilutes to V(p) = p / (2 + p), at
        # any efficiency and dark rate
        target = 0.2
        expected = 2 * target / (1 - target)
        for detectors in ({"qe": 1.0}, {"qe": 0.6, "attenuation": 0.7, "dark_rate": 0.03}):
            det = DetectorConfig(pulses=30_000, seed=19,
                                 coincidence_mask=frozenset({"D_T"}), **detectors)
            res = calibrate_visibility_loss(target, BALANCED, _hg(), det)
            assert res.p_inject == pytest.approx(expected, abs=1e-12)
            assert res.ci_low <= res.p_inject <= res.ci_high
            assert abs(res.visibility - target) < 4 * res.visibility_stderr

    def test_unattainable_target_rejected(self):
        det = DetectorConfig(qe=1.0, pulses=5_000, seed=19,
                             coincidence_mask=frozenset({"D_T"}))
        with pytest.raises(ValueError):
            calibrate_visibility_loss(0.9, BALANCED, _hg(), det)

    def test_attainable_range_ends_at_full_injection(self):
        q = Qubit(0.6, 0.8, 0.7)
        det = DetectorConfig(pulses=5_000, seed=19, coincidence_mask=frozenset({"D_T"}))
        top = visibility(q)
        assert calibrate_visibility_loss(top, q, LG, det).p_inject == pytest.approx(
            1.0, abs=1e-12)
        with pytest.raises(ValueError, match="visibility"):
            calibrate_visibility_loss(math.nextafter(top, 1.0), q, LG, det)

    @pytest.mark.parametrize("detectors", [
        {"coincidence_mask": frozenset({"D_T", "D1"})},
        {"coincidence_mask": frozenset({"D_T", "D2", "D1*"})},
        {"qe": 0.0}, {"attenuation": 0.0}], ids=["D1", "D1*", "qe-0", "attenuation-0"])
    def test_fringe_without_closed_form_rejected(self, detectors):
        # D1 and D1* gate on the amplified state, so V(p) has no closed form
        # (and need not be monotone); with no survivor there is no fringe
        with pytest.raises(ValueError):
            calibrate_visibility_loss(0.1, BALANCED, LG, DetectorConfig(**detectors))


def _exact_point(sampler):
    """The gated survivor means of a run point, from the exact outcome law."""
    side = sampler.axes.shape[1] + 1
    cells = grid_law(sampler)[:-1].reshape(side, side)
    survivors = np.maximum(np.arange(side) - 1, 0)
    gated = cells.sum()
    return SimpleNamespace(mean_photons_h=cells.sum(axis=1) @ survivors / gated,
                           mean_photons_v=cells.sum(axis=0) @ survivors / gated,
                           stderr_mean_h=0.0, stderr_mean_v=0.0)


@pytest.mark.parametrize("cfg", [LG, _hg()], ids=["LG", "HG"])
@pytest.mark.parametrize("mask", [{"D_T"}, {"D_T", "D2", "D2*"}, {"D2"}],
                         ids=["D_T", "D2,D2*,D_T", "D2"])
def test_closed_form_fringe_equals_exact_law_estimate(cfg, mask):
    # the fringe calibrate_visibility_loss inverts, against the estimator on
    # the exact means of every sweep point
    for q in (BALANCED, Qubit(0.6, 0.8, 0.7)):
        path = montecarlo.phase_sweep(q, 12)
        for p in (0.1, 0.5, 1.0):
            det = DetectorConfig(qe=0.6, attenuation=0.7, dark_rate=0.03, p_inject=p,
                                 coincidence_mask=mask)
            points = [_exact_point(PulseSampler(x, cfg, det)) for x in path.qubits()]
            v, _se = montecarlo._estimate_visibility(np.asarray(path.angles), points)
            assert v == pytest.approx(3 * visibility(q) * p / (2 + p), abs=1e-12)
