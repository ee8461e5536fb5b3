"""qiopa benchmark: three closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hg-sweep --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    hg-sweep   one HG `montecarlo.run` sweep point of 200k pulses per operation
    lg-pulses  one LG `montecarlo.run` of 1M pulses, p_inject 0.5, per operation
    hg-oracle  one HG brute-force cross-check round per operation

Each run imports qiopa from ./src, builds the configuration and the inputs
from --seed, runs one untimed warm-up operation (this fills the
per-process rotation cache), then runs operations for --seconds and checks
every output against the closed forms.

--trace 0 reports the end-to-end metrics: op_s (median seconds per
operation), setup_s (median over the run's set-ups, each a fresh
interpreter: import, configuration, warm-up) and peak_rss_mb.  The extra
set-ups run before the timed seconds.  The host's speed drifts by tens of
percent within minutes, so both times are given in seconds at the
reference speed: each set-up and each operation is bracketed by blocks of
passes of the fixed kernel in reference.py, and its raw seconds, printed
with the machine facts, are scaled by REF_NOMINAL_S over the mean pass
time of the two blocks around it.  The workload-specific name
of op_s (point_s, pulses_per_s or round_s) is printed with the machine
facts.

--trace 1 alternates traced and untraced operations, probes the layers
the workload's operation does not call once at the LG preset, and reports
the raw per-layer metrics.  The last stdout line is the JSON result; the line
before it holds the machine facts.  A traced run also writes its spans to
.bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("hg-sweep", "lg-pulses", "hg-oracle")
IMPORT_RUNS = 3         # fresh-interpreter imports behind qiopa.import_s
REF_SHARE = 0.25        # reference-kernel seconds per second of timed interval
REF_BLOCK_MAX_S = 0.5   # longest block of reference passes
REF_NOMINAL_S = 0.07    # a pass's median on a 2-vCPU Xeon, 3.11.7/numpy 2.4.6
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "import"), default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Counter:
    """Operations attempted and failed; a failure is logged to stderr."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, label: str, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)

    def attempt(self, label: str, fn):
        """Run fn() -> (result, errors); an exception counts as a failure."""
        try:
            result, errors = fn()
        except Exception:  # noqa: BLE001 - the benchmark keeps going and reports it
            traceback.print_exc()
            result, errors = None, ["raised"]
        self.record(label, errors)
        return result


def checked(wl, inp):
    result = wl.op(inp)
    return result, wl.check(inp, result)


def import_qiopa() -> float:
    t0 = time.perf_counter()
    import qiopa
    elapsed = time.perf_counter() - t0
    if Path(qiopa.__file__).resolve().parent != (SRC / "qiopa").resolve():
        raise ImportError(f"qiopa imported from {qiopa.__file__}, not {SRC}")
    return elapsed


def run_child(args, mode: str) -> dict | None:
    """A fresh interpreter that sets up (or only imports) and reports its time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--child", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_report(times: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(times), "median": statistics.median(times)}
    for q in (99, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(times, n=100)[q - 1]
            break
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qiopa" / "__init__.py").is_file():
        print(f"error: no qiopa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one closed-loop caller: BLAS runs single-threaded too, so that idle
    # BLAS threads spinning on a shared machine do not set the timings
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    t0 = time.perf_counter()
    import_s = import_qiopa()
    if args.child == "import":
        print(json.dumps({"import_s": import_s}))
        return 0
    import workloads
    tracer = Tracer() if args.trace else None
    counter = Counter()
    wl = workloads.WORKLOADS[args.workload]()
    t_inputs = time.perf_counter()
    warm, pool = workloads.make_inputs(args.seed)
    qubits_s = time.perf_counter() - t_inputs

    if tracer:
        with tracer.installed():
            counter.attempt("warm-up", lambda: checked(wl, warm))
    else:
        counter.attempt("warm-up", lambda: checked(wl, warm))
    setup_s = time.perf_counter() - t0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s, "failed": counter.failed}))
        return 0
    import reference    # after the set-up, which it must not speed up

    # An untraced run brackets each set-up and each operation by blocks of
    # reference passes and converts the raw seconds into seconds at the
    # reference speed: raw * REF_NOMINAL_S / (mean pass time of the blocks
    # just before and just after).
    blocks = []

    def at_ref_speed(raw_s: float) -> float:
        blocks.append(reference.block(min(REF_SHARE * raw_s, REF_BLOCK_MAX_S)))
        return raw_s * REF_NOMINAL_S * 2 / (blocks[-2] + blocks[-1])

    # closed loop; a traced run alternates traced and untraced operations
    times = {True: [], False: []}
    op_ref_s = []

    def run_ops(seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            i = len(times[True]) + len(times[False])
            inp = pool[i % len(pool)]
            traced = bool(tracer) and i % 2 == 0
            box = {}

            def timed(inp=inp, box=box):
                t = time.perf_counter()
                try:
                    result = wl.op(inp)
                finally:
                    box["s"] = time.perf_counter() - t
                return result, wl.check(inp, result)

            if traced:
                tracer.phase, tracer.op = "op", i
                with tracer.installed(), tracer.span("workload.op"):
                    counter.attempt(f"op {i}", timed)
            else:
                counter.attempt(f"op {i}", timed)
            times[traced].append(box["s"])
            if not tracer:
                op_ref_s.append(at_ref_speed(box["s"]))
            if time.perf_counter() >= deadline:
                return

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "machine": platform.machine(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "qiopa": sys.modules["qiopa"].__version__,
        "g": wl.cfg.gain.g, "cutoff": wl.cfg.cutoff,
        "epsilon_trunc": wl.cfg.epsilon_trunc,
    }
    if tracer:
        run_ops(args.seconds)
        metrics = layer_metrics(args, wl, tracer, counter, warm, import_s, qubits_s,
                                times)
        facts["trace_overhead_s"] = (metrics["trace.op_s"]["value"]
                                     - metrics["trace.untraced_op_s"]["value"])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.dump()))
    else:
        # the process's own set-up has no block before it: the block after
        # it stands on both sides
        blocks.append(reference.block(min(REF_SHARE * setup_s, REF_BLOCK_MAX_S)))
        setups, setup_ref_s = [setup_s], [setup_s * REF_NOMINAL_S / blocks[0]]
        for _ in range(wl.setups - 1):
            child = run_child(args, "setup")
            counter.record("set-up", [] if child and not child["failed"]
                           else ["set-up child failed"])
            if child:
                setups.append(child["setup_s"])
                setup_ref_s.append(at_ref_speed(child["setup_s"]))
        run_ops(args.seconds)
        op_s = statistics.median(op_ref_s)
        alias, value, unit = wl.headline(op_s)
        facts["ops_ref_s"] = percentile_report(op_ref_s)
        facts["ops_raw_s"] = percentile_report(times[False])
        facts["setup_raw_s"] = setups
        facts["reference_block_s"] = percentile_report(blocks)
        facts[alias] = {"value": value, "unit": unit}
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_ref_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if not tracer:
        print(f"{alias:40s} {value:.6g} {unit}")
    print(f"{'ops_failed':40s} {counter.failed} of {counter.attempted}")
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": counter.failed == 0, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": metrics}))
    return 0


def layer_metrics(args, wl, tr: Tracer, counter: Counter, warm, import_s, qubits_s,
                  times) -> dict:
    import workloads

    # probes at LG for the layers the workload's operation may not call
    tr.phase = "probe"
    lg_oracle = workloads.Oracle("probe", workloads.LG, setups=1)
    tr.op = "oracle"
    with tr.installed():
        counter.attempt("probe oracle", lambda: checked(lg_oracle, warm))
        counter.attempt("probe vacuum_output", lambda: (
            workloads.amplifier.vacuum_output(lg_oracle.cfg), []))
    tr.op = "cli"
    with tr.installed():
        counter.attempt("probe cli", lambda: (None, workloads.probe_cli(args.seed)))
    tr.phase = "threads"
    stats = {}
    for n in workloads.THREAD_COUNTS:
        tr.op = n
        with tr.installed():
            stats[n] = counter.attempt(f"probe threads-{n}",
                                       lambda n=n: workloads.probe_threads(warm, n))
    serial = stats[workloads.THREAD_COUNTS[0]]
    counter.record("probe threads agree",
                   [] if all(s == serial for s in stats.values())
                   else ["thread counts disagree"])
    slack = workloads.rotation_slack(wl.cfg, warm[0])

    imports = [import_s]
    for _ in range(IMPORT_RUNS - 1):
        child = run_child(args, "import")
        if child:
            imports.append(child["import_s"])

    def sampling_rate(n):
        """Pulses per second of the n-thread probe, table build excluded."""
        spans = [s for s in tr.spans if s.phase == "threads" and s.op == n]
        run_s = sum(s.duration for s in spans if s.name == "montecarlo.run")
        build_s = sum(s.duration for s in spans if s.name == "montecarlo.sampler_build")
        return workloads.PROBE_PULSES / (run_s - build_s) if run_s > build_s else 0.0

    cold = tr.first("warmup", "fock.rotate_mode_pair", source="amplify")
    self_time = lambda spans: sum(s.self_s for s in spans)
    first_count = lambda spans: spans[0].count or 0
    chunk = "montecarlo.sample_chunk"
    m = {
        "qiopa.import_s": (statistics.median(imports), "s"),
        "polarization.qubits_s": (qubits_s, "s"),
        "fock.rotate_cold_s": (cold.duration if cold else 0.0, "s"),
        "fock.rotate_s": (tr.per_op("fock.rotate_mode_pair", source="amplify"), "s"),
        "fock.rotated_amplitudes": (tr.per_op("fock.rotate_mode_pair", first_count,
                                              source="amplify"), "count"),
        "fock.rotation_norm_loss": (slack["fock.rotation_norm_loss"], "ratio"),
        "fock.column_norm_defect_max": (slack["fock.column_norm_defect_max"], "ratio"),
        "amplifier.amplify_s": (tr.per_op("amplifier.amplify"), "s"),
        "amplifier.vacuum_output_s": (tr.per_op("amplifier.vacuum_output"), "s"),
        "amplifier.amplitudes": (tr.per_op("amplifier.amplify", first_count), "count"),
        "amplifier.propagate_s": (tr.per_op("amplifier.propagate_hamiltonian"), "s"),
        "density.partial_trace_s": (tr.per_op("density.partial_trace"), "s"),
        "density.closed_form_s": (tr.per_op("density.closed_form"), "s"),
        "density.entropy_s": (tr.per_op("density.entropy"), "s"),
        "observables.g1_oracle_s": (tr.per_op("observables.g1_oracle"), "s"),
        "observables.g1_oracle_self_s": (tr.per_op("observables.g1_oracle", self_time),
                                         "s"),
        "montecarlo.sampler_build_s": (tr.per_op("montecarlo.sampler_build"), "s"),
        "montecarlo.sampler_self_s": (tr.per_op("montecarlo.sampler_build", self_time),
                                      "s"),
        "montecarlo.table_entries": (tr.per_op("montecarlo.sampler_build", first_count),
                                     "count"),
        "montecarlo.sample_s": (tr.per_op(chunk), "s"),
        "montecarlo.run_self_s": (tr.per_op("montecarlo.run", self_time), "s"),
        "montecarlo.sample_ns_per_pulse": (tr.per_op(chunk, lambda g: 1e9 * sum(
            s.duration for s in g) / sum(s.count for s in g)), "ns"),
        "montecarlo.gated_fraction": (tr.per_op(chunk, lambda g: sum(
            s.gated or 0 for s in g) / sum(s.count for s in g)), "ratio"),
        "cli.self_s": (tr.per_op("cli.main", self_time), "s"),
        "trace.op_s": (statistics.median(times[True]) if times[True] else 0.0, "s"),
        "trace.untraced_op_s": (statistics.median(times[False]) if times[False] else 0.0,
                                "s"),
    }
    for n in workloads.THREAD_COUNTS:
        m[f"montecarlo.pulses_per_s.threads-{n}"] = (sampling_rate(n), "1/s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
