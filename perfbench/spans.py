"""In-memory spans recorded around calls into qiopa's layers.

Tracing wraps the public functions of the qiopa modules for the duration of
one operation.  Every module attribute that holds a traced function is
swapped, so calls the program makes internally (``run`` building a
``PulseSampler`` that calls ``amplify`` and ``rotate_mode_pair``) become
child spans of the caller's span.  Outside ``Tracer.installed()`` the
program runs untouched.
"""
from __future__ import annotations

import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    phase: str          # "warmup", "op" or "probe"
    op: object          # operation index, or a probe label
    start: float
    parent: int | None
    end: float = 0.0
    children_s: float = 0.0
    count: int | None = None    # work done by the call, e.g. amplitudes built
    gated: int | None = None    # pulses that passed the herald gate
    source: str = ""            # which layer produced the input state

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _table_entries(sampler) -> int:
    return sum(len(occ) for occ, _cum in getattr(sampler, "tables", {}).values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()     # per-thread stack of open spans
        self.phase, self.op = "warmup", 0
        self._last_amplified = None

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        s = Span(name, self.phase, self.op, 0.0, parent)
        self.spans.append(s)
        stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                self.spans[parent].children_s += s.duration

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
            if note is not None:
                note(s, args, out)
            return out
        return traced

    def _note_amplified(self, s, _args, out):
        s.count = len(out)
        self._last_amplified = out

    def _note_rotated(self, s, args, out):
        s.count = len(out)
        s.source = "amplify" if args and args[0] is self._last_amplified else "other"

    @staticmethod
    def _note_chunk(s, args, out):
        # sample_chunk(self, rng, n) -> (occ, survivors, clicks, trigger);
        # for the {D_T, D2} mask the herald trigger alone is the gate
        s.count = int(args[2]) if len(args) > 2 else None
        if isinstance(out, tuple) and len(out) == 4:
            s.gated = int(out[3].sum())

    def _targets(self):
        """(function, span name, note) for every traced layer entry point."""
        from qiopa import (amplifier, cli, density, fock, montecarlo,
                           observables)
        sizes = lambda s, _a, out: setattr(s, "count", len(out))
        tables = lambda s, _a, out: setattr(s, "count", _table_entries(out))
        return [
            (fock.rotate_mode_pair, "fock.rotate_mode_pair", self._note_rotated),
            (fock.fidelity, "fock.fidelity", None),
            (amplifier.amplify, "amplifier.amplify", self._note_amplified),
            (amplifier.vacuum_output, "amplifier.vacuum_output", sizes),
            (amplifier.propagate_hamiltonian, "amplifier.propagate_hamiltonian", None),
            (density.partial_trace, "density.partial_trace", None),
            (density.rho1_closed_form, "density.closed_form", None),
            (density.rho2_closed_form, "density.closed_form", None),
            (density.entropy, "density.entropy", None),
            (observables.g1_oracle, "observables.g1_oracle", None),
            (observables.g1_closed_form, "observables.g1_closed_form", None),
            (montecarlo.PulseSampler, "montecarlo.sampler_build", tables),
            (montecarlo.run, "montecarlo.run", None),
            (cli.main, "cli.main", None),
        ]

    @contextmanager
    def installed(self):
        """Swap every qiopa module attribute bound to a traced function."""
        from qiopa import montecarlo
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qiopa" or k.startswith("qiopa."))]
        saved = []
        try:
            sampler_cls = montecarlo.PulseSampler
            if hasattr(sampler_cls, "sample_chunk"):
                orig = sampler_cls.sample_chunk
                saved.append((sampler_cls, "sample_chunk", orig))
                sampler_cls.sample_chunk = self._wrap(
                    "montecarlo.sample_chunk", orig, self._note_chunk)
            for fn, name, note in self._targets():
                traced = self._wrap(name, fn, note)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            saved.append((mod, attr, val))
                            setattr(mod, attr, traced)
            yield self
        finally:
            for obj, attr, val in reversed(saved):
                setattr(obj, attr, val)
            self._last_amplified = None

    # -- aggregation --------------------------------------------------------

    def _groups(self, name: str, source: str | None) -> list:
        """Spans of one layer grouped by operation.

        Timed operations come first; layers the workload's operations never
        call fall back to the probe operations, so every traced run reports
        every layer.
        """
        for phase in ("op", "probe"):
            groups: dict = {}
            for s in self.spans:
                if s.phase == phase and s.name == name and (
                        source is None or s.source == source):
                    groups.setdefault(s.op, []).append(s)
            if groups:
                return list(groups.values())
        return []

    def per_op(self, name: str, total=None, source: str | None = None) -> float:
        """Median over operations of total(spans of the layer in one operation).

        The default total is the wall time the operation spent in the layer.
        """
        total = total or (lambda spans: sum(s.duration for s in spans))
        groups = self._groups(name, source)
        return statistics.median(total(g) for g in groups) if groups else 0.0

    def first(self, phase: str, name: str, source: str | None = None):
        for s in self.spans:
            if s.phase == phase and s.name == name and (
                    source is None or s.source == source):
                return s
        return None

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]
