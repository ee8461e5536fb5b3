"""Command-line front end: presets, sweeps and CSV/JSON emission.

Commands: fringe, pairs, entropy (the closed-form entropies of both
output modes) and montecarlo.  A --preset supplies defaults and flags
override them, all in one merge, the parser; the detector flags default to
DetectorConfig's fields.  A preset's cutoff is a default only at the
preset's own gain.  Each command builds only what it reads: fringe reads
only the gain, so it builds no AmplifierConfig and takes no --cutoff, and
only montecarlo builds a DetectorConfig.  Exit codes: 0 success, 2
validation error, 3 numerical failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .amplifier import AmplifierConfig, GainParams, pair_tail, pair_weights
from .density import cloner_entropy
from .errors import NumericalError
from .montecarlo import DetectorConfig, phase_sweep, run
from .observables import g1_closed_form
from .polarization import BlochPath, Qubit

PRESETS = {
    "LG": {"g": 0.07, "cutoff": 12, "qe": 0.18},
    "HG": {"g": 1.13, "cutoff": 100, "qe": 0.18},
}

# experimental values reported in each preset's regime, printed for comparison
# only, and only by a run at that preset's gain
REPORTED = {PRESETS["LG"]["g"]: {"mean_pairs": 0.009},
            PRESETS["HG"]["g"]: {"mean_pairs": 4.0, "tail_threshold": 8, "tail": 0.14}}

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
                key = key.strip()
                if key in values:
                    raise ValueError(f"key {key!r} repeats in preset {name_or_path!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ValueError(f"unknown preset {name_or_path!r} "
                         f"(not built-in, not readable: {exc})") from exc
    convert = {"g": float, "cutoff": int, "qe": float, "attenuation": float,
               "p_inject": float, "dark": float, "pulses": int}
    unknown = sorted(set(values) - set(convert))
    if unknown:
        raise ValueError(f"unknown keys in preset {name_or_path!r}: {unknown}; "
                         f"known keys are {sorted(convert)}")
    for key, val in values.items():
        try:
            values[key] = convert[key](val)
        except ValueError as exc:
            raise ValueError(f"preset {name_or_path!r}: {key}={val!r} "
                             f"does not parse as {convert[key].__name__}") from exc
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command, to which main gives a preset's
    values as defaults: a flag beats the preset, the preset the built-in default."""
    common, cutoff, qubit, path, detector, tail, fmt = (
        argparse.ArgumentParser(add_help=False) for _ in range(7))
    common.add_argument("--g", type=float, default=0.07, help="amplifier gain")
    cutoff.add_argument("--cutoff", type=int, default=None, help="pair-number cutoff override")
    common.add_argument("--out", default=None, help="output path ('-' = stdout)")
    common.add_argument("--preset", default=None, help="LG, HG, or a key=value preset file")
    qubit.add_argument("--alpha", type=float, default=None)
    qubit.add_argument("--beta", type=float, default=None)
    qubit.add_argument("--phi", type=float, default=0.0)
    path.add_argument("--path", default=None, metavar="AXIS:START:STEP:COUNT",
                      help="Bloch-sphere sweep, e.g. z:0:0.196:32")
    detector.add_argument("--qe", type=float, default=DetectorConfig.qe)
    detector.add_argument("--attenuation", type=float, default=DetectorConfig.attenuation)
    detector.add_argument("--p-inject", type=float, default=DetectorConfig.p_inject)
    detector.add_argument("--dark", type=float, default=DetectorConfig.dark_rate)
    detector.add_argument("--mask", default=DetectorConfig.coincidence_mask,
                          type=lambda text: frozenset(
                              m.strip() for m in text.split(",") if m.strip()),
                          help="comma-separated coincidence detectors")
    detector.add_argument("--pulses", type=int, default=DetectorConfig.pulses)
    detector.add_argument("--seed", type=int, default=DetectorConfig.seed)
    tail.add_argument("--threshold", type=int, default=None,
                      help="pair-number threshold for tail reporting")
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="qiopa",
        description="Quantum-injected optical parametric amplifier simulator")
    sub = parser.add_subparsers(dest="command")
    # a command takes only the flags it reads, so one it would ignore is an error;
    # only fringe and pairs take --format: entropy writes JSON, and montecarlo
    # writes its CSV table followed by a JSON summary
    for name, command, parents, hlp in (
            ("fringe", cmd_fringe, (common, qubit, path, fmt),
             "closed-form interference fringe table over a Bloch path"),
            ("pairs", cmd_pairs, (common, cutoff, tail, fmt),
             "photon-pair number distribution"),
            ("entropy", cmd_entropy, (common, cutoff),
             "reduced-state entropies of both modes"),
            ("montecarlo", cmd_montecarlo, (common, cutoff, qubit, path, detector),
             "conditional coincidence-detection run")):
        sub.add_parser(name, parents=parents, help=hlp).set_defaults(run=command)
    return parser, sub.choices


def _qubit(args) -> Qubit:
    """The balanced qubit, or the given amplitudes; one given alone is
    completed to a unit vector."""
    alpha, beta = args.alpha, args.beta
    if alpha is None and beta is None:
        alpha = beta = 2 ** -0.5
    elif beta is None:
        beta = math.sqrt(max(1.0 - alpha ** 2, 0.0))
    elif alpha is None:
        alpha = math.sqrt(max(1.0 - beta ** 2, 0.0))
    return Qubit(alpha, beta, args.phi)


def _path(args, qubit: Qubit) -> BlochPath:
    """--path from qubit, or one full period of z in DEFAULT_SWEEP_POINTS steps."""
    if args.path is None:
        return phase_sweep(qubit, DEFAULT_SWEEP_POINTS)
    try:
        axis, start, step, count = args.path.split(":")
        start, step, count = float(start), float(step), int(count)
    except ValueError as exc:
        raise ValueError(f"--path must look like axis:start:step:count, "
                         f"got {args.path!r}") from exc
    return BlochPath(axis, tuple(start + step * k for k in range(count)), qubit)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _table(fmt: str, meta: dict, header: list, rows: list) -> str:
    if fmt == "json":
        return json.dumps({"meta": meta, "columns": header, "rows": rows}, indent=2) + "\n"
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def cmd_fringe(args) -> None:
    gain = GainParams(args.g)
    path = _path(args, _qubit(args))
    meta = {"g": _fmt(gain.g), "nbar": _fmt(gain.nbar),
            "axis": path.axis,
            "start_qubit": f"({_fmt(path.start.alpha)},{_fmt(path.start.beta)},"
                           f"{_fmt(path.start.phi)})"}
    header = ["Phi", "dG", "g2H", "g2V"]
    rows = []
    for angle, qubit in zip(path.angles, path.qubits()):
        pair = g1_closed_form(qubit, gain)
        rows.append([angle, pair.difference, pair.g2h, pair.g2v])
    _emit(_table(args.format, meta, header, rows), args.out)


def cmd_pairs(args) -> None:
    cfg = AmplifierConfig.for_gain(args.g, args.cutoff)
    reported = REPORTED.get(cfg.gain.g, {})
    n = np.arange(cfg.cutoff + 1)
    p = pair_weights(cfg) * (n + 1) * (n + 2) / 2
    meta = {"g": _fmt(cfg.gain.g),
            "mean_pairs": _fmt(np.sum(n * p)),
            "three_nbar": _fmt(3 * cfg.gain.nbar)}
    if "mean_pairs" in reported:
        meta["reported_mean_pairs"] = _fmt(reported["mean_pairs"])
    if args.threshold is not None:
        if args.threshold < 0:
            # pair_tail reads any start <= 0 as the whole law
            raise ValueError("threshold must be >= 0")
        tail = pair_tail(cfg.gain, args.threshold)
        meta["tail_threshold"] = args.threshold
        meta["tail_probability"] = _fmt(tail)
        if args.threshold == reported.get("tail_threshold"):
            meta["reported_tail"] = _fmt(reported["tail"])
            meta["reported_tail_agreement"] = (
                "yes" if abs(tail - reported["tail"]) < 0.01 else
                f"no (computed {tail:.4f} differs from reported {reported['tail']:.2f})")
    rows = [[k, float(pk), float(c)] for k, (pk, c) in enumerate(zip(p, np.cumsum(p)))]
    _emit(_table(args.format, meta, ["n", "p_n", "cumulative"], rows), args.out)


def cmd_entropy(args) -> None:
    cfg = AmplifierConfig.for_gain(args.g, args.cutoff)
    s = cloner_entropy(pair_weights(cfg))   # both modes, any qubit
    report = {"g": cfg.gain.g, "entropy_mode1_bits": s, "entropy_mode2_bits": s,
              "entropy_difference": 0.0}
    _emit(json.dumps(report, indent=2) + "\n", args.out)


def _json_number(x: float) -> float | None:
    """x, or None (JSON null) for a NaN, which strict JSON cannot hold: the
    visibility has no stderr when no photon survives."""
    return None if math.isnan(x) else x


def cmd_montecarlo(args) -> None:
    cfg = AmplifierConfig.for_gain(args.g, args.cutoff)
    target = _path(args, _qubit(args))
    detectors = DetectorConfig(qe=args.qe, attenuation=args.attenuation,
                               dark_rate=args.dark, p_inject=args.p_inject,
                               coincidence_mask=args.mask, pulses=args.pulses,
                               seed=args.seed)
    sweep = run(target, cfg, detectors)
    meta = {"g": _fmt(cfg.gain.g), "seed": detectors.seed,
            "pulses_per_point": detectors.pulses}
    header = ["sweep", "xi_H", "xi_V", "dxi", "stderr"]
    rows = [[float(a), pt.xi_h, pt.xi_v, pt.xi_h - pt.xi_v,
             math.hypot(pt.stderr_xi_h, pt.stderr_xi_v)]
            for a, pt in zip(sweep.angles, sweep.points)]
    csv_text = _table("csv", meta, header, rows)

    det = asdict(detectors)
    det["coincidence_mask"] = sorted(det["coincidence_mask"])
    summary = {
        "config": {"g": cfg.gain.g, "cutoff": cfg.cutoff,
                   "detectors": det},
        "totals": {
            "pulses": sum(pt.pulses for pt in sweep.points),
            "counts_h": sum(pt.counts_h for pt in sweep.points),
            "counts_v": sum(pt.counts_v for pt in sweep.points),
            "coincidences": sum(pt.coincidences for pt in sweep.points),
        },
        "visibility": {
            "estimate": _json_number(sweep.visibility),
            "stderr": _json_number(sweep.visibility_stderr),
            "ci95": [_json_number(sweep.visibility - 1.96 * sweep.visibility_stderr),
                     _json_number(sweep.visibility + 1.96 * sweep.visibility_stderr)],
        },
        "null_pvalue": sweep.null_pvalue,
    }
    _emit(csv_text, args.out)
    _emit(json.dumps(summary, indent=2) + "\n",
          args.out if args.out in (None, "-") else args.out + ".json")


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required (fringe, pairs, entropy, montecarlo)")
    try:
        if args.preset:
            preset = _load_preset(args.preset)
            # a preset key the command has no flag for is set and never read
            commands[args.command].set_defaults(**preset)
            args = parser.parse_args(argv)
            if args.g != preset.get("g", args.g):
                # a preset's cutoff fits its own gain; another takes the tail rule's
                commands[args.command].set_defaults(cutoff=None)
                args = parser.parse_args(argv)
        args.run(args)
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
