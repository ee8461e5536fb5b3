import dataclasses
import math

import numpy as np
import pytest

from qiopa import montecarlo
from qiopa.amplifier import AmplifierConfig
from qiopa.errors import NumericalError
from qiopa.fock import FockState4
from qiopa.montecarlo import (DETECTORS, CalibrationResult, DetectorConfig,
                              PulseSampler, RunStats, SweepStats,
                              calibrate_visibility_loss, run)
from qiopa.polarization import BlochPath, Qubit

BALANCED = Qubit(2 ** -0.5, 2 ** -0.5, 0.0)
LG = AmplifierConfig.for_gain(0.07)


def _hg():
    return AmplifierConfig.for_gain(1.13, 100)


class TestDetectorConfig:
    @pytest.mark.parametrize("field,value", [
        ("qe", -0.1), ("qe", 1.5), ("attenuation", 2.0),
        ("dark_rate", -1e-3), ("p_inject", 1.01)])
    def test_probabilities_bounded(self, field, value):
        with pytest.raises(ValueError):
            DetectorConfig(**{field: value})

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(coincidence_mask=frozenset({"D_T", "D9"}))

    def test_pulses_positive(self):
        with pytest.raises(ValueError):
            DetectorConfig(pulses=0)


class TestSamplePulse:
    def test_reports_all_detectors(self):
        det = DetectorConfig(pulses=1, seed=7)
        rec = PulseSampler(BALANCED, LG, det).sample_pulse(np.random.default_rng(7))
        assert set(rec.clicks) == set(DETECTORS)
        assert rec.coincidence == all(
            rec.clicks[d] for d in det.coincidence_mask)

    def test_zero_efficiency_never_clicks(self):
        rng = np.random.default_rng(3)
        sampler = PulseSampler(BALANCED, LG, DetectorConfig(qe=0.0))
        for _ in range(50):
            rec = sampler.sample_pulse(rng)
            assert not any(rec.clicks.values())

    def test_dark_counts_fire_on_empty_input(self):
        det = DetectorConfig(qe=0.0, dark_rate=1.0)
        rec = PulseSampler(BALANCED, LG, det).sample_pulse(np.random.default_rng(0))
        assert all(rec.clicks.values())


class TestPulseSampler:
    def test_lost_norm_raises_instead_of_renormalising(self, monkeypatch):
        rotate = montecarlo.rotate_mode_pair

        def lossy(state, pair, u):
            out = rotate(state, pair, u)
            return FockState4({k: 0.99 * v for k, v in out.amplitudes.items()},
                              out.cutoff)

        monkeypatch.setattr(montecarlo, "rotate_mode_pair", lossy)
        with pytest.raises(NumericalError):
            PulseSampler(BALANCED, LG, DetectorConfig())


class TestRunPoint:
    def test_determinism_across_calls(self):
        det = DetectorConfig(pulses=30_000, seed=42)
        a = run(BALANCED, LG, det)
        b = run(BALANCED, LG, det)
        assert a == b

    def test_threaded_run_matches_serial(self):
        det = DetectorConfig(pulses=450_000, seed=5)
        assert run(BALANCED, LG, det) == run(BALANCED, LG, det, threads=4)

    def test_seed_changes_counts(self):
        det = DetectorConfig(pulses=30_000, seed=1)
        a = run(BALANCED, _hg(), det)
        b = run(BALANCED, _hg(), dataclasses.replace(det, seed=2))
        assert a.counts_h != b.counts_h

    def test_ungated_mean_photons_approach_analytic(self):
        # qe=1, no herald gating beyond D_T with qe=1: every pulse counted
        det = DetectorConfig(qe=1.0, pulses=200_000, seed=12,
                             coincidence_mask=frozenset({"D_T"}))
        cfg = _hg()
        stats = run(BALANCED, cfg, det)
        total = stats.mean_photons_h + stats.mean_photons_v
        se = math.hypot(stats.stderr_mean_h, stats.stderr_mean_v)
        assert abs(total - 3 * cfg.gain.nbar) < 3 * se

    def test_channel_asymmetry_tracks_interference(self):
        det = DetectorConfig(qe=1.0, pulses=200_000, seed=13,
                             coincidence_mask=frozenset({"D_T"}))
        stats = run(BALANCED, _hg(), det)
        # g2H = 2 nbar vs g2V = nbar at phi = 0
        assert stats.mean_photons_h > 1.5 * stats.mean_photons_v

    def test_xi_monotone_in_efficiency(self):
        low = run(BALANCED, _hg(),
                  DetectorConfig(qe=0.05, pulses=60_000, seed=21))
        high = run(BALANCED, _hg(),
                   DetectorConfig(qe=0.6, pulses=60_000, seed=21))
        assert high.xi_h > low.xi_h

    def test_xi_is_a_rate(self):
        stats = run(BALANCED, _hg(), DetectorConfig(pulses=50_000, seed=2))
        for xi in (stats.xi_h, stats.xi_v):
            assert 0.0 <= xi <= 1.0
        assert stats.counts_h == round(stats.xi_h * stats.pulses)

    @pytest.mark.parametrize("cfg,det,counts", [
        # exact counts of seeded runs; the LG mask rotates both mode pairs.
        # Table order or sampling changes move them.
        (LG, DetectorConfig(qe=1.0, p_inject=0.5, pulses=200_000, seed=3,
                            coincidence_mask=frozenset({"D_T", "D1", "D2"})),
         (6, 961, 6)),
        (_hg(), DetectorConfig(p_inject=0.5, pulses=100_000, seed=11),
         (6345, 4668, 6345)),
    ], ids=["LG-D_T,D1,D2", "HG"])
    def test_seeded_counts_pinned(self, cfg, det, counts):
        stats = run(BALANCED, cfg, det)
        assert (stats.counts_h, stats.counts_v, stats.coincidences) == counts

    def test_four_fold_mask_rarer_than_two_fold(self):
        det2 = DetectorConfig(pulses=80_000, seed=9)
        det4 = dataclasses.replace(
            det2, coincidence_mask=frozenset({"D_T", "D2", "D1", "D1*"}))
        assert run(BALANCED, _hg(), det4).coincidences <= \
            run(BALANCED, _hg(), det2).coincidences


class TestSweep:
    def _sweep(self, n_points=8):
        angles = tuple(2 * math.pi * k / n_points for k in range(n_points))
        return BlochPath("z", angles, BALANCED)

    def test_visibility_near_one_third_ideal(self):
        det = DetectorConfig(qe=1.0, pulses=40_000, seed=77,
                             coincidence_mask=frozenset({"D_T"}))
        stats = run(self._sweep(), _hg(), det)
        assert isinstance(stats, SweepStats)
        assert abs(stats.visibility - 1.0 / 3.0) < 4 * stats.visibility_stderr

    def test_no_injection_fringe_consistent_with_flat(self):
        det = DetectorConfig(qe=1.0, p_inject=0.0, pulses=20_000, seed=31,
                             coincidence_mask=frozenset({"D_T"}))
        stats = run(self._sweep(), _hg(), det)
        assert stats.visibility < 4 * stats.visibility_stderr \
            or math.isnan(stats.visibility_stderr)
        assert stats.null_pvalue > 0.01

    def test_sweep_determinism(self):
        det = DetectorConfig(pulses=10_000, seed=3)
        assert run(self._sweep(), _hg(), det) == run(self._sweep(), _hg(), det)

    def test_bad_target_type_rejected(self):
        with pytest.raises(TypeError):
            run(3.14, _hg(), DetectorConfig())


class TestCalibration:
    def test_recovers_analytic_injection_probability(self):
        # with partial injection the fringe dilutes to V(p) = p / (2 + p)
        target = 0.2
        det = DetectorConfig(qe=1.0, pulses=30_000, seed=19,
                             coincidence_mask=frozenset({"D_T"}))
        res = calibrate_visibility_loss(target, BALANCED, _hg(), det,
                                        tol=0.005)
        expected = 2 * target / (1 - target)
        assert res.p_inject == pytest.approx(expected, abs=0.08)
        assert res.ci_low <= res.p_inject <= res.ci_high

    def test_unattainable_target_rejected(self):
        det = DetectorConfig(qe=1.0, pulses=5_000, seed=19,
                             coincidence_mask=frozenset({"D_T"}))
        with pytest.raises(ValueError):
            calibrate_visibility_loss(0.9, BALANCED, _hg(), det)

    def test_target_domain_validated(self):
        with pytest.raises(ValueError):
            calibrate_visibility_loss(0.0, BALANCED, LG, DetectorConfig())
