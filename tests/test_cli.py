import json
import math

import pytest

from qiopa.cli import _load_preset, main, selftest


def _read(path):
    return path.read_text(encoding="utf-8")


class TestPresets:
    def test_builtin_presets(self):
        assert _load_preset("LG")["g"] == 0.07
        assert _load_preset("HG") == {"g": 1.13, "cutoff": 100, "qe": 0.18}

    def test_preset_file(self, tmp_path):
        f = tmp_path / "my.preset"
        f.write_text("# comment\ng = 0.3\npulses = 500\n")
        assert _load_preset(str(f)) == {"g": 0.3, "pulses": 500}

    def test_preset_file_unknown_key_rejected(self, tmp_path, capsys):
        f = tmp_path / "typo.preset"
        f.write_text("gain = 1.5\n")
        with pytest.raises(ValueError, match="gain"):
            _load_preset(str(f))
        assert main(["pairs", "--preset", str(f)]) == 2
        assert "gain" in capsys.readouterr().err

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            _load_preset("no-such-preset")


class TestFringe:
    def test_csv_structure(self, tmp_path, capsys):
        out = tmp_path / "fringe.csv"
        assert main(["fringe", "--g", "0.5", "--path", "z:0:0.5:4",
                     "--out", str(out)]) == 0
        lines = _read(out).splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# g=0.5") for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "Phi,dG,g2H,g2V"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 4

    def test_sum_rule_in_rows(self, tmp_path):
        out = tmp_path / "fringe.csv"
        main(["fringe", "--preset", "HG", "--path", "z:0:0.7:6",
              "--out", str(out)])
        nbar = None
        for line in _read(out).splitlines():
            if line.startswith("# nbar="):
                nbar = float(line.split("=", 1)[1])
            elif not line.startswith(("#", "Phi")):
                _, _, g2h, g2v = map(float, line.split(","))
                assert g2h + g2v == pytest.approx(3 * nbar, abs=1e-9)

    def test_json_format(self, tmp_path):
        out = tmp_path / "fringe.json"
        main(["fringe", "--g", "0.3", "--path", "z:0:1:3",
              "--format", "json", "--out", str(out)])
        doc = json.loads(_read(out))
        assert doc["columns"] == ["Phi", "dG", "g2H", "g2V"]
        assert len(doc["rows"]) == 3

    def test_monte_carlo_columns_appear_with_pulses(self, tmp_path):
        out = tmp_path / "fringe.csv"
        main(["fringe", "--g", "0.5", "--path", "z:0:1.57:4",
              "--pulses", "2000", "--out", str(out)])
        text = _read(out)
        assert "xi_H" in text
        assert "# mc_visibility=" in text


class TestPairs:
    def test_distribution_sums_to_one(self, capsys):
        assert main(["pairs", "--preset", "LG"]) == 0
        lines = capsys.readouterr().out.splitlines()
        total = sum(float(l.split(",")[1]) for l in lines
                    if not l.startswith(("#", "n,")))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_high_gain_tail_report_flags_disagreement(self, capsys):
        assert main(["pairs", "--preset", "HG", "--threshold", "8"]) == 0
        out = capsys.readouterr().out
        assert "# tail_probability=0.278693840345" in out
        assert "# reported_tail=0.14" in out
        assert "# reported_tail_agreement=no" in out

    def test_mean_matches_three_nbar(self, capsys):
        main(["pairs", "--g", "1.13", "--cutoff", "100"])
        meta = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("# "):
                k, _, v = line[2:].partition("=")
                meta[k] = v
        assert float(meta["mean_pairs"]) == pytest.approx(
            float(meta["three_nbar"]), abs=1e-9)


class TestEntropy:
    def test_zero_gain_report(self, capsys):
        assert main(["entropy", "--g", "0", "--alpha", "1", "--beta", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entropy_mode1_bits"] == 0.0
        assert doc["entropy_mode2_bits"] == 0.0
        assert doc["branch_hs_distance"] == pytest.approx(2.0, abs=1e-12)

    def test_high_gain_report(self, capsys):
        assert main(["entropy", "--preset", "HG"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entropy_difference"] <= 1e-9
        assert doc["branch_hs_distance"] == pytest.approx(2.0, abs=1e-8)
        assert doc["branch_overlap"] == 0.0


class TestMonteCarlo:
    def test_outputs_csv_and_json(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["montecarlo", "--g", "0.5", "--path", "z:0:1.57:4",
                     "--pulses", "2000", "--seed", "9",
                     "--out", str(out)]) == 0
        assert out.exists()
        summary = json.loads(_read(tmp_path / "mc.csv.json"))
        assert summary["totals"]["pulses"] == 8000
        assert "estimate" in summary["visibility"]

    def test_equal_seeds_byte_identical(self, tmp_path):
        args = ["montecarlo", "--g", "0.5", "--path", "z:0:1.57:4",
                "--pulses", "2000", "--seed", "123"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.json").read_bytes() == \
            (tmp_path / "b.csv.json").read_bytes()


class TestErrorHandling:
    def test_invalid_config_exits_2_without_partial_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["fringe", "--g", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_bad_qe_exits_2(self, capsys):
        assert main(["montecarlo", "--qe", "1.5", "--pulses", "10"]) == 2
        capsys.readouterr()

    def test_malformed_path_exits_2(self, capsys):
        assert main(["fringe", "--path", "z:0:1"]) == 2
        capsys.readouterr()

    def test_bad_mask_exits_2(self, capsys):
        assert main(["montecarlo", "--mask", "D_T,D9", "--pulses", "10"]) == 2
        capsys.readouterr()

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.csv"
        assert main(["pairs", "--g", "0.1", "--out", str(target)]) == 4
        assert "i/o error:" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["--selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_selftest_flag_wins_over_a_subcommand(self, capsys):
        assert main(["--selftest", "pairs", "--preset", "LG"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "n,p_n,cumulative" not in out
