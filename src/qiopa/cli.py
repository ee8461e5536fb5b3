"""Command-line front end: presets, sweeps and CSV/JSON emission.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .amplifier import AmplifierConfig, amplify, vacuum_output
from .density import (entropy, hs_distance, pair_distribution,
                      rho1_closed_form, rho2_closed_form, tail_probability)
from .errors import NumericalError
from .fock import inner_product, make_gain, number_expectation
from .montecarlo import DetectorConfig, RunStats, SweepStats, run
from .observables import fringe_sweep, g1_closed_form, g1_oracle, visibility
from .polarization import BlochPath, Qubit

PRESETS = {
    "LG": {"g": 0.07, "cutoff": 12, "qe": 0.18},
    "HG": {"g": 1.13, "cutoff": 100, "qe": 0.18},
}

# reported experimental reference values, printed for comparison only
REPORTED_TAIL = {"HG": (8, 0.14)}
REPORTED_MEAN_PAIRS = {"LG": 0.009, "HG": 4.0}

DEFAULT_SWEEP_POINTS = 32


def _load_preset(name_or_path: str) -> dict:
    if name_or_path in PRESETS:
        return dict(PRESETS[name_or_path])
    values = {}
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ValueError(f"unknown preset {name_or_path!r} "
                         f"(not built-in, not readable: {exc})") from exc
    convert = {"g": float, "cutoff": int, "qe": float, "attenuation": float,
               "p_inject": float, "dark": float, "pulses": int}
    unknown = sorted(set(values) - set(convert))
    if unknown:
        raise ValueError(f"unknown keys in preset {name_or_path!r}: {unknown}; "
                         f"known keys are {sorted(convert)}")
    return {key: convert[key](val) for key, val in values.items()}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--g", type=float, default=None, help="amplifier gain")
    shared.add_argument("--cutoff", type=int, default=None,
                        help="pair-number cutoff override")
    shared.add_argument("--alpha", type=float, default=None)
    shared.add_argument("--beta", type=float, default=None)
    shared.add_argument("--phi", type=float, default=0.0)
    shared.add_argument("--path", default=None, metavar="AXIS:START:STEP:COUNT",
                        help="Bloch-sphere sweep, e.g. z:0:0.196:32")
    shared.add_argument("--qe", type=float, default=None)
    shared.add_argument("--attenuation", type=float, default=None)
    shared.add_argument("--p-inject", type=float, default=None)
    shared.add_argument("--dark", type=float, default=None)
    shared.add_argument("--mask", default=None,
                        help="comma-separated coincidence detectors")
    shared.add_argument("--pulses", type=int, default=None)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--out", default=None, help="output path ('-' = stdout)")
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    shared.add_argument("--preset", default=None,
                        help="LG, HG, or a key=value preset file")
    shared.add_argument("--threads", type=int, default=1)
    shared.add_argument("--threshold", type=int, default=None,
                        help="pair-number threshold for tail reporting")

    parser = argparse.ArgumentParser(
        prog="qiopa",
        description="Quantum-injected optical parametric amplifier simulator")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fast invariant suite and exit")
    sub = parser.add_subparsers(dest="command")
    for name, hlp in (("fringe", "interference fringe table over a Bloch path"),
                      ("pairs", "photon-pair number distribution"),
                      ("entropy", "reduced-state entropies and distances"),
                      ("montecarlo", "conditional coincidence-detection run")):
        sub.add_parser(name, parents=[shared], help=hlp)
    return parser


class _Resolved:
    """Validated run configuration assembled from preset plus flags."""

    def __init__(self, args):
        preset = _load_preset(args.preset) if args.preset else {}
        g = args.g if args.g is not None else preset.get("g", 0.07)
        cutoff = args.cutoff if args.cutoff is not None else preset.get("cutoff")
        self.preset = args.preset
        self.cfg = AmplifierConfig.for_gain(g, cutoff)

        alpha, beta = args.alpha, args.beta
        if alpha is None and beta is None:
            alpha = beta = 2 ** -0.5
        elif beta is None:
            beta = math.sqrt(max(1.0 - alpha ** 2, 0.0))
        elif alpha is None:
            alpha = math.sqrt(max(1.0 - beta ** 2, 0.0))
        self.qubit = Qubit(alpha, beta, args.phi)

        self.path = None
        if args.path is not None:
            try:
                axis, start, step, count = args.path.split(":")
                start, step, count = float(start), float(step), int(count)
            except ValueError as exc:
                raise ValueError(
                    f"--path must look like axis:start:step:count, got {args.path!r}"
                ) from exc
            if count < 2 or step <= 0:
                raise ValueError("--path needs count >= 2 and step > 0")
            angles = tuple(start + step * k for k in range(count))
            self.path = BlochPath(axis, angles, self.qubit)

        det_kwargs = {}
        for flag, name in (("qe", "qe"), ("attenuation", "attenuation"),
                           ("dark", "dark_rate"), ("p_inject", "p_inject"),
                           ("pulses", "pulses")):
            val = getattr(args, flag.replace("-", "_"))
            if val is None:
                val = preset.get(flag)
            if val is not None:
                det_kwargs[name] = val
        if args.mask is not None:
            det_kwargs["coincidence_mask"] = frozenset(
                m.strip() for m in args.mask.split(",") if m.strip())
        self.detectors = DetectorConfig(seed=args.seed, **det_kwargs)
        self.mc_requested = args.pulses is not None
        self.threads = max(1, args.threads)
        self.threshold = args.threshold
        self.fmt = args.format
        self.out = args.out

    def default_path(self) -> BlochPath:
        step = 2 * math.pi / DEFAULT_SWEEP_POINTS
        return BlochPath("z", tuple(step * k for k in range(DEFAULT_SWEEP_POINTS)),
                         self.qubit)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv(meta: dict, header: list, rows: list) -> str:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def cmd_fringe(res: _Resolved) -> None:
    path = res.path or res.default_path()
    table = fringe_sweep(path, res.cfg.gain)
    meta = {"g": _fmt(res.cfg.gain.g), "nbar": _fmt(res.cfg.gain.nbar),
            "axis": path.axis,
            "start_qubit": f"({_fmt(path.start.alpha)},{_fmt(path.start.beta)},"
                           f"{_fmt(path.start.phi)})"}
    header = ["Phi", "dG", "g2H", "g2V"]
    rows = [list(r) for r in table.rows]
    if res.mc_requested:
        sweep = run(path, res.cfg, res.detectors, threads=res.threads)
        header += ["xi_H", "xi_V", "dxi", "stderr"]
        for row, pt in zip(rows, sweep.points):
            row += [pt.xi_h, pt.xi_v, pt.xi_h - pt.xi_v,
                    math.hypot(pt.stderr_xi_h, pt.stderr_xi_v)]
        meta["mc_visibility"] = _fmt(sweep.visibility)
        meta["mc_visibility_stderr"] = _fmt(sweep.visibility_stderr)
    if res.fmt == "json":
        _emit(json.dumps({"meta": meta, "columns": header, "rows": rows},
                         indent=2) + "\n", res.out)
    else:
        _emit(_csv(meta, header, rows), res.out)


def cmd_pairs(res: _Resolved) -> None:
    dist = pair_distribution(res.cfg)
    cum = dist.cumulative()
    meta = {"g": _fmt(res.cfg.gain.g),
            "mean_pairs": _fmt(dist.mean()),
            "three_nbar": _fmt(3 * res.cfg.gain.nbar)}
    if res.preset in REPORTED_MEAN_PAIRS:
        meta["reported_mean_pairs"] = _fmt(REPORTED_MEAN_PAIRS[res.preset])
    if res.threshold is not None:
        tail = tail_probability(dist, res.threshold)
        meta["tail_threshold"] = res.threshold
        meta["tail_probability"] = _fmt(tail)
        for name, (thr, reported) in REPORTED_TAIL.items():
            if res.threshold == thr and abs(res.cfg.gain.g - PRESETS[name]["g"]) < 1e-12:
                meta["reported_tail"] = _fmt(reported)
                meta["reported_tail_agreement"] = (
                    "yes" if abs(tail - reported) < 0.01 else
                    f"no (computed {tail:.4f} differs from reported {reported:.2f})")
    rows = [[int(n), float(p), float(c)]
            for n, (p, c) in enumerate(zip(dist.probabilities, cum))]
    if res.fmt == "json":
        _emit(json.dumps({"meta": meta, "columns": ["n", "p_n", "cumulative"],
                          "rows": rows}, indent=2) + "\n", res.out)
    else:
        _emit(_csv(meta, ["n", "p_n", "cumulative"], rows), res.out)


def cmd_entropy(res: _Resolved) -> None:
    q, cfg = res.qubit, res.cfg
    s1 = entropy(rho1_closed_form(q, cfg))
    s2 = entropy(rho2_closed_form(q, cfg))
    branch_h = amplify(Qubit(1.0, 0.0), cfg)
    branch_v = amplify(Qubit(0.0, 1.0), cfg)
    report = {
        "g": cfg.gain.g,
        "qubit": {"alpha": q.alpha, "beta": q.beta, "phi": q.phi},
        "entropy_mode1_bits": s1,
        "entropy_mode2_bits": s2,
        "entropy_difference": abs(s1 - s2),
        "branch_hs_distance": hs_distance(branch_h, branch_v),
        "branch_overlap": abs(inner_product(branch_h, branch_v)),
    }
    _emit(json.dumps(report, indent=2) + "\n", res.out)


def cmd_montecarlo(res: _Resolved) -> None:
    target = res.path or res.default_path()
    sweep = run(target, res.cfg, res.detectors, threads=res.threads)
    meta = {"g": _fmt(res.cfg.gain.g), "seed": res.detectors.seed,
            "pulses_per_point": res.detectors.pulses}
    header = ["sweep", "xi_H", "xi_V", "dxi", "stderr"]
    rows = [[float(a), pt.xi_h, pt.xi_v, pt.xi_h - pt.xi_v,
             math.hypot(pt.stderr_xi_h, pt.stderr_xi_v)]
            for a, pt in zip(sweep.angles, sweep.points)]
    csv_text = _csv(meta, header, rows)

    det = asdict(res.detectors)
    det["coincidence_mask"] = sorted(det["coincidence_mask"])
    summary = {
        "config": {"g": res.cfg.gain.g, "cutoff": res.cfg.cutoff,
                   "detectors": det},
        "totals": {
            "pulses": sum(pt.pulses for pt in sweep.points),
            "counts_h": sum(pt.counts_h for pt in sweep.points),
            "counts_v": sum(pt.counts_v for pt in sweep.points),
            "coincidences": sum(pt.coincidences for pt in sweep.points),
        },
        "visibility": {
            "estimate": sweep.visibility,
            "stderr": sweep.visibility_stderr,
            "ci95": [sweep.visibility - 1.96 * sweep.visibility_stderr,
                     sweep.visibility + 1.96 * sweep.visibility_stderr],
        },
        "null_pvalue": sweep.null_pvalue,
    }
    json_text = json.dumps(summary, indent=2) + "\n"
    if res.out is None or res.out == "-":
        sys.stdout.write(csv_text)
        sys.stdout.write(json_text)
    else:
        _emit(csv_text, res.out)
        _emit(json_text, res.out + ".json")


def selftest() -> int:
    """Fast invariant suite; returns a process exit code."""
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)
    for g in (0.07, 0.5):
        cfg = AmplifierConfig.for_gain(g)
        u = math.sqrt(rng.uniform(0.1, 0.9))
        q = Qubit(u, math.sqrt(1 - u * u), rng.uniform(-math.pi, math.pi))
        st = amplify(q, cfg)
        check(f"normalization within truncation bound (g={g})",
              1.0 - cfg.epsilon_trunc - 1e-12 <= st.norm_sq() <= 1.0 + 1e-12)
        a = amplify(Qubit(1.0, 0.0), cfg)
        b = amplify(Qubit(0.0, 1.0), cfg)
        check(f"branch orthogonality (g={g})", inner_product(a, b) == 0)
        cf = g1_closed_form(q, cfg.gain)
        check(f"sum rule g2H+g2V=3nbar (g={g})",
              abs(cf.g2h + cf.g2v - 3 * cfg.gain.nbar) < 1e-10)
        orc = g1_oracle(q, cfg)
        tol = 1e-8 + cfg.epsilon_trunc * (2 * cfg.cutoff + 1)
        check(f"closed form matches number-operator oracle (g={g})",
              abs(cf.g2h - orc.g2h) < tol and abs(cf.g2v - orc.g2v) < tol)
        s1 = entropy(rho1_closed_form(q, cfg))
        s2 = entropy(rho2_closed_form(q, cfg))
        check(f"entropy symmetry S1=S2 (g={g})", abs(s1 - s2) < 1e-9)
        vac = vacuum_output(cfg)
        check(f"vacuum output noise floor nbar (g={g})",
              abs(number_expectation(vac, "2h") - cfg.gain.nbar) < 1e-9)
    check("ideal visibility 1/3 at alpha=beta",
          visibility(Qubit(2 ** -0.5, 2 ** -0.5)) == 2 * 0.5 / 3)
    return 0 if failures == 0 else 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.command is None:
        parser.error("a command is required (fringe, pairs, entropy, montecarlo)")
    try:
        res = _Resolved(args)
        {"fringe": cmd_fringe, "pairs": cmd_pairs,
         "entropy": cmd_entropy, "montecarlo": cmd_montecarlo}[args.command](res)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
