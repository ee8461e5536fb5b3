import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from qiopa import amplifier, cli, density
from qiopa.amplifier import GainParams
from qiopa.cli import _load_preset, main
from qiopa.errors import NumericalError
from qiopa.observables import g1_closed_form
from qiopa.polarization import BlochPath, Qubit


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

    def test_preset_file_repeated_key_rejected(self, tmp_path, capsys):
        # the last value used to win silently: this file ran at g = 0.5
        f = tmp_path / "twice.preset"
        f.write_text("g = 1.13\ng = 0.5\n")
        with pytest.raises(ValueError, match="'g' repeats"):
            _load_preset(str(f))
        assert main(["fringe", "--preset", str(f)]) == 2
        assert "'g' repeats" in capsys.readouterr().err

    def test_preset_value_that_does_not_parse_names_key_and_file(self, tmp_path, capsys):
        # the conversion's own message named neither the key nor the file
        f = tmp_path / "bad.preset"
        for line, expected in (("qe=", "qe='' does not parse as float"),
                               ("cutoff=1e3", "cutoff='1e3' does not parse as int")):
            f.write_text(line + "\n")
            assert main(["pairs", "--preset", str(f)]) == 2
            assert capsys.readouterr().err == f"error: preset {str(f)!r}: {expected}\n"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            _load_preset("no-such-preset")

    def test_preset_file_detector_values_reach_montecarlo(self, tmp_path):
        f = tmp_path / "det.preset"
        f.write_text("g = 0.3\nqe = 0.4\ndark = 0.02\npulses = 3000\n")
        out = tmp_path / "mc.csv"
        argv = ["montecarlo", "--preset", str(f), "--path", f"z:0:{math.pi}:2",
                "--out", str(out)]
        assert main(argv) == 0
        summary = json.loads(_read(tmp_path / "mc.csv.json"))
        assert summary["config"]["g"] == 0.3
        det = summary["config"]["detectors"]
        assert (det["qe"], det["dark_rate"], det["pulses"]) == (0.4, 0.02, 3000)
        assert summary["totals"]["pulses"] == 6000
        # a flag beats the preset
        assert main([*argv, "--pulses", "500"]) == 0
        summary = json.loads(_read(tmp_path / "mc.csv.json"))
        assert summary["config"]["detectors"]["pulses"] == 500
        assert summary["config"]["detectors"]["qe"] == 0.4

    @pytest.mark.parametrize("command", ["pairs", "fringe", "entropy"])
    def test_closed_form_commands_ignore_preset_detector_values(
            self, command, tmp_path, capsys):
        # only montecarlo builds a DetectorConfig, so an out-of-range qe in
        # the preset neither stops nor changes the closed-form commands
        plain, bad = tmp_path / "plain.preset", tmp_path / "bad.preset"
        plain.write_text("g = 0.3\ncutoff = 40\n")
        bad.write_text("g = 0.3\ncutoff = 40\nqe = 1.5\n")
        assert main([command, "--preset", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main([command, "--preset", str(bad)]) == 0
        assert capsys.readouterr().out == expected

    def test_preset_cutoff_holds_only_at_its_gain(self, capsys):
        def rows(*argv):
            assert main(["pairs", *argv, "--format", "json"]) == 0
            return len(json.loads(capsys.readouterr().out)["rows"])

        assert rows("--preset", "LG") == 13
        # LG's cutoff 12 would truncate 1.3e-7 of the pair weight at g = 0.5
        assert main(["pairs", "--g", "0.5"]) == 0
        expected = capsys.readouterr().out
        assert main(["pairs", "--preset", "LG", "--g", "0.5"]) == 0
        assert capsys.readouterr().out == expected
        # an explicit cutoff beats both
        assert rows("--preset", "LG", "--g", "0.5", "--cutoff", "40") == 41
        assert main(["pairs", "--preset", "LG", "--g", "0.5", "--cutoff", "12"]) == 2

    def test_preset_run_builds_one_parser(self, monkeypatch, capsys):
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        assert main(["pairs", "--preset", "LG", "--g", "0.5"]) == 0
        assert len(builds) == 1

    def test_montecarlo_rejects_preset_qe_out_of_range(self, tmp_path, capsys):
        f = tmp_path / "bad.preset"
        f.write_text("g = 0.3\ncutoff = 40\nqe = 1.5\n")
        assert main(["montecarlo", "--preset", str(f)]) == 2
        assert "qe must lie in [0, 1]" in capsys.readouterr().err


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

    @pytest.mark.parametrize("g", [3.0, 5.0, 10.0, 100.0])
    def test_rows_are_the_closed_form_beyond_the_cutoff_limit(self, g, capsys):
        # fringe reads only the gain, so MAX_CUTOFF does not bind it
        assert main(["fringe", "--g", repr(g), "--path", "z:0:0.5:4",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        path = BlochPath("z", (0.0, 0.5, 1.0, 1.5), Qubit(2 ** -0.5, 2 ** -0.5))
        gain = GainParams(g)
        pairs = [g1_closed_form(q, gain) for q in path.qubits()]
        assert rows == [[angle, p.difference, p.g2h, p.g2v]
                        for angle, p in zip(path.angles, pairs)]

    @pytest.mark.parametrize("argv, missing, start", [
        (["fringe", "--alpha", "0.6"], "--beta", "(0.6,0.8,0)"),
        (["fringe", "--beta", "0.6"], "--alpha", "(0.8,0.6,0)"),
        (["fringe", "--beta", "0.8", "--phi", "0.3"], "--alpha", "(0.6,0.8,0.3)"),
        (["montecarlo", "--alpha", "0", "--preset", "LG", "--pulses", "1000",
          "--path", f"z:0:{math.pi}:2"], "--beta", None)],
        ids=["alpha", "beta", "beta-phi", "montecarlo-alpha"])
    def test_one_amplitude_is_completed_to_a_unit_qubit(self, argv, missing, start, capsys):
        assert main(argv) == 0
        alone = capsys.readouterr().out
        # montecarlo prints no start qubit
        assert start is None or f"# start_qubit={start}\n" in alone
        # the run equals one given both, the other sqrt(1 - given^2)
        assert main([*argv, missing, repr(math.sqrt(1 - float(argv[2]) ** 2))]) == 0
        assert capsys.readouterr().out == alone

    def test_json_format(self, tmp_path):
        out = tmp_path / "fringe.json"
        main(["fringe", "--g", "0.3", "--path", "z:0:1:3",
              "--format", "json", "--out", str(out)])
        doc = json.loads(_read(out))
        assert doc["columns"] == ["Phi", "dG", "g2H", "g2V"]
        assert len(doc["rows"]) == 3


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

    @pytest.mark.parametrize("argv, reported", [
        (["--preset", "HG", "--g", "1.5", "--cutoff", "200"], []),
        (["--g", "1.13"], ["# reported_mean_pairs=4"]),
        (["--g", "0.07", "--threshold", "8"], ["# reported_mean_pairs=0.009"]),
        (["--g", "1.13", "--threshold", "8"],
         ["# reported_mean_pairs=4", "# reported_tail=0.14",
          "# reported_tail_agreement=no (computed 0.2787 differs from reported 0.14)"])],
        ids=["HG-preset-at-g-1.5", "g-1.13", "g-0.07-threshold-8", "g-1.13-threshold-8"])
    def test_reported_values_follow_the_gain(self, argv, reported, capsys):
        # reported values print on a run at a preset's gain, whatever the preset
        assert main(["pairs", *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [l for l in out if l.startswith("# reported")] == reported

    @pytest.mark.parametrize("exponent", [154, 400])
    def test_huge_threshold_has_zero_tail(self, exponent, capsys):
        assert main(["pairs", "--preset", "HG", "--threshold", str(10 ** exponent)]) == 0
        assert "# tail_probability=0\n" in capsys.readouterr().out

    def test_negative_threshold_exits_2(self, capsys):
        # pair_tail reads a start <= 0 as the whole law; the command rejects it
        assert main(["pairs", "--g", "0.5", "--threshold", "-1"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_mean_matches_three_nbar(self, capsys):
        main(["pairs", "--g", "1.13", "--cutoff", "100"])
        meta = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("# "):
                k, _, v = line[2:].partition("=")
                meta[k] = v
        assert float(meta["mean_pairs"]) == pytest.approx(
            float(meta["three_nbar"]), abs=1e-9)


class TestGainLimit:
    @pytest.mark.parametrize("argv, code", [
        (["pairs", "--g", "8"], 2), (["pairs", "--g", "20"], 2),
        (["pairs", "--cutoff", "1001"], 2), (["pairs", "--g", "2.5"], 0),
        (["entropy", "--g", "8"], 2), (["montecarlo", "--g", "8"], 2)],
        ids=["g-8", "g-20", "cutoff-1001", "g-2.5", "entropy-g-8", "montecarlo-g-8"])
    def test_commands_beyond_the_cutoff_limit_exit_2(self, argv, code, capsys):
        # g = 20 divided by 1 - tanh(20)^2 = 0, and g = 8 searched for a
        # cutoff near the millions; g = 2.5 (cutoff 988) is the top that runs.
        # entropy and montecarlo build the same configuration as pairs
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("g = 2.5062" in err) == bool(code)

    @pytest.mark.parametrize("command", ["pairs", "fringe", "entropy", "montecarlo"])
    def test_gain_whose_constants_overflow_exits_2(self, command, capsys):
        # sinh(400)^2 raised OverflowError, which ended in a traceback (exit 1)
        assert main([command, "--g", "400"]) == 2
        assert "355.035" in capsys.readouterr().err

    def test_explicit_cutoff_beyond_the_gain_limit_names_the_limit(self, capsys):
        # no cutoff within MAX_CUTOFF holds g = 8, so "increase the cutoff"
        # would send the user to a cutoff the configuration rejects
        assert main(["pairs", "--g", "8", "--cutoff", "500"]) == 2
        err = capsys.readouterr().err
        assert "MAX_CUTOFF 1000" in err and "g = 2.5062" in err
        assert "increase the cutoff" not in err

    def test_explicit_cutoff_below_the_tail_rule_asks_for_more(self, capsys):
        assert main(["pairs", "--g", "1.13", "--cutoff", "50"]) == 2
        err = capsys.readouterr().err
        assert "increase the cutoff" in err and "MAX_CUTOFF" not in err


class TestEntropy:
    def test_zero_gain_report(self, capsys):
        assert main(["entropy", "--g", "0"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["entropy_mode1_bits"] == 0.0
        assert doc["entropy_mode2_bits"] == 0.0
        # a pure state's entropy is 0.0, not -0.0
        assert '"entropy_mode1_bits": 0.0' in out

    def test_high_gain_report(self, capsys):
        assert main(["entropy", "--preset", "HG"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entropy_difference"] <= 1e-9

    def test_report_at_g_2_5(self, capsys):
        # cutoff 988: one sector sum over 989 pair weights, where an
        # eigensolve over the 490k band entries of a density takes seconds
        assert main(["entropy", "--g", "2.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entropy_difference"] <= 1e-9

    def test_builds_no_four_mode_state(self, monkeypatch, capsys):
        # the report reads only the pair weights: every module attribute bound
        # to a four-mode state builder or to the density class raises
        def refuse(*_args, **_kwargs):
            raise AssertionError("entropy built a four-mode state or a density")

        builders = (amplifier.amplify, amplifier.vacuum_output,
                    amplifier.propagate_hamiltonian, density.SectorDensity)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "qiopa" or name.startswith("qiopa.")):
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in builders):
                        monkeypatch.setattr(module, attr, refuse)
        assert main(["entropy", "--g", "2.5"]) == 0
        assert json.loads(capsys.readouterr().out)["entropy_difference"] <= 1e-9

    def test_report_keys(self, capsys):
        assert main(["entropy", "--preset", "LG"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "g", "entropy_mode1_bits", "entropy_mode2_bits", "entropy_difference"]


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

    def test_summary_is_strict_json(self, tmp_path):
        # with qe = 0 nothing survives: the undefined stderr is null, not NaN
        out = tmp_path / "mc.csv"
        assert main(["montecarlo", "--preset", "LG", "--qe", "0", "--pulses", "1000",
                     "--path", "z:0:3.14159:2", "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        summary = json.loads(_read(tmp_path / "mc.csv.json"), parse_constant=refuse)
        assert summary["visibility"] == {"estimate": 0.0, "stderr": None,
                                         "ci95": [None, None]}

    @pytest.mark.parametrize("path, code", [
        ("z:0:1.5:3", 2), ("z:0:0.785:8", 0), ("z:0:1.57:4", 0),
        (f"z:0:{math.pi}:2", 0)])
    def test_sweep_must_cover_one_period(self, path, code, capsys):
        # the visibility estimator needs equal steps over one full period
        assert main(["montecarlo", "--preset", "HG", "--path", path,
                     "--pulses", "1000", "--seed", "11"]) == code
        assert ("2 pi" in capsys.readouterr().err) == bool(code)

# sha256 of each run's stdout, pinned across commits (test_13 compares two
# runs of one commit) and across hosts: every per-entry pow, log2, cos and sin
# on a command's path is Python's scalar libm, never numpy's SIMD kernels,
# which round differently on CPUs with AVX-512.  The montecarlo digest also
# depends on numpy's random stream, as test_seeded_counts_pinned does
PINNED_STDOUT = {
    "fringe --preset HG --path z:0:0.785:8":
        "c117f04f2307d68edd87956570eabeebf27fd878277de09d5d3728dc55ff47be",
    "pairs --preset HG --threshold 8 --format json":
        "f4b151c4ed64449ec50c52d0051347a62aa4eb2dbc2a15710cb77ab39ae2a5e4",
    "entropy --preset HG":
        "13d283554c3e5104568e2131029e9c3874bbbb7de09372d36fa05eb220f5371c",
    "montecarlo --preset HG --path z:0:0.785:8 --pulses 5000 --seed 31415":
        "c042b0330ff4942e963ddba3b8ffb366fa69cf7c173262d5c96b00b0e8726dcc",
}


def _stdout_digests() -> dict:
    """The sha256 of each pinned command's stdout, or the exit code it failed with."""
    digests = {}
    for args in PINNED_STDOUT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args.split())
        digests[args] = (hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
                         if code == 0 else f"exit {code}")
    return digests


def test_stdout_matches_pinned_digests():
    digests = _stdout_digests()
    changed = [args for args, digest in PINNED_STDOUT.items() if digests[args] != digest]
    assert not changed, f"stdout changed for: {changed}"


def _cpu_dispatch():
    """numpy's dispatch targets and the CPU features this process uses."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:     # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


# a fresh interpreter, whose numpy read NPY_DISABLE_CPU_FEATURES at import:
# the pinned digests and the dispatch targets still on
DISPATCH_CHILD = """
import json
from test_cli import _cpu_dispatch, _stdout_digests
targets, found = _cpu_dispatch()
print(json.dumps({"digests": _stdout_digests(), "on": [t for t in targets if found.get(t)]}))
"""


@pytest.mark.parametrize("avx512_only", [False, True], ids=["all-targets", "avx512"])
def test_stdout_does_not_depend_on_numpy_cpu_dispatch(avx512_only):
    # the same digests with numpy's SIMD targets switched off, as on a CPU that
    # lacks them; the names come from numpy (a baseline name would fail the
    # import, an unknown one is ignored), and the variable acts only on the
    # child that reads it
    targets = [t for t in _cpu_dispatch()[0] if not avx512_only or "AVX512" in t or t == "X86_V4"]
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    env.update(NPY_DISABLE_CPU_FEATURES=" ".join(targets), PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", DISPATCH_CHILD], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    child = json.loads(out.stdout)
    assert set(child["on"]).isdisjoint(targets)
    assert child["digests"] == _stdout_digests()


@pytest.mark.parametrize("argv, line", [
    (["entropy"], '  "g": 0.0,\n'), (["pairs"], "# g=0\n"), (["fringe"], "# g=0\n"),
    (["montecarlo", "--pulses", "100", "--path", f"z:0:{math.pi}:2"], "# g=0\n")],
    ids=["entropy", "pairs", "fringe", "montecarlo"])
def test_negative_zero_gain_prints_zero(argv, line, capsys):
    # GainParams kept -0.0, which printed as "g": -0.0 and # g=-0
    assert main([*argv[:1], "--g", "-0", *argv[1:]]) == 0
    assert line in capsys.readouterr().out


class TestErrorHandling:
    @pytest.mark.parametrize("argv", [[], ["--selftest"]], ids=["none", "--selftest"])
    def test_no_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_invalid_config_exits_2_without_partial_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["fringe", "--g", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_bad_qe_exits_2(self, capsys):
        assert main(["montecarlo", "--qe", "1.5", "--pulses", "10"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("path", ["z:0:1", "z:0:0:4", "z:0:-1:4", "z:0:1:1",
                                      "z:0:nan:4", "z:nan:1:4"])
    def test_malformed_path_exits_2(self, path, capsys):
        # BlochPath alone checks the count, the ordering and finiteness
        assert main(["fringe", "--path", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_mask_exits_2(self, capsys):
        assert main(["montecarlo", "--mask", "D_T,D9", "--pulses", "10"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,message", [
        (["--pulses", str(2 ** 63)], "pulses must lie in"),
        (["--g", "2.5", "--pulses", str(2 ** 62)], "the largest pulse count is"),
    ], ids=["past-int64", "survivor-sums-overflow"])
    def test_pulse_count_past_int64_exits_2(self, argv, message, capsys):
        assert main(["montecarlo", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        assert main(["montecarlo", "--preset", "LG", "--pulses", "10", "--seed", "-1"]) == 2
        assert "seed must lie in 0 .. inf, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fmt", [("entropy", "csv"),
                                              ("montecarlo", "json")])
    def test_format_the_command_cannot_write_exits_2(self, command, fmt, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", fmt])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pairs", "--threads", "0"], ["pairs", "--pulses", "5"],
        ["pairs", "--mask", "D1"], ["pairs", "--path", "z:0:1:2"],
        ["pairs", "--alpha", "1"], ["entropy", "--threshold", "8"],
        ["entropy", "--pulses", "5"], ["entropy", "--seed", "3"],
        ["entropy", "--alpha", "1"], ["entropy", "--beta", "0"],
        ["entropy", "--phi", "0.3"],
        ["fringe", "--threshold", "8"], ["montecarlo", "--threshold", "8"],
        ["fringe", "--threads", "2"], ["montecarlo", "--threads", "2"],
        ["fringe", "--pulses", "5"], ["fringe", "--seed", "3"],
        ["fringe", "--qe", "0.5"], ["fringe", "--cutoff", "5"],
        ["entropy", "--format", "json"], ["montecarlo", "--format", "csv"]],
        ids=" ".join)
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv[:1], "--preset", "LG", *argv[1:]])
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_unnormalized_qubit_exits_2(self, capsys):
        assert main(["fringe", "--alpha", "0.6", "--beta", "0.6"]) == 2
        assert "error: qubit must be normalized" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, monkeypatch, capsys):
        def fail(_weights):
            raise NumericalError("forced")

        monkeypatch.setattr(cli, "cloner_entropy", fail)
        assert main(["entropy", "--preset", "LG"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: forced\n" and captured.out == ""

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.csv"
        assert main(["pairs", "--g", "0.1", "--out", str(target)]) == 4
        assert "i/o error:" in capsys.readouterr().err
