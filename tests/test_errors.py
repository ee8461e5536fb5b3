import argparse
import ast
import contextlib
import enum
import io
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from qiopa import cli, errors
from qiopa.amplifier import AmplifierConfig, GainParams, pair_tail
from qiopa.density import rho2_closed_form
from qiopa.errors import as_int, as_real
from qiopa.montecarlo import INT64_MAX, DetectorConfig, calibrate_visibility_loss, phase_sweep, run
from qiopa.polarization import BlochPath, Qubit, babinet, su2_rotation, waveplate

from conftest import BALANCED

Count = enum.IntEnum("Count", {"ONE": 1, "THIRTEEN": 13})
INF = math.inf


def _name(value) -> str:
    return getattr(value, "__name__", None) or repr(value)[:24]


# value, low, high, and the Python int returned or the error raised
AS_INT = [
    (13, 0, INF, 13), (np.int64(13), 0, INF, 13), (np.uint64(2 ** 64 - 1), 0, INF, 2 ** 64 - 1),
    (2 ** 70, 0, INF, 2 ** 70), (np.uint64(INT64_MAX), 1, INT64_MAX, INT64_MAX),
    (Count.THIRTEEN, 0, INF, 13), (0, 0, 0, 0),
    (12.5, 0, INF, TypeError), (13.0, 0, INF, TypeError), (np.float64(13.0), 0, INF, TypeError),
    ("13", 0, INF, TypeError), (True, 0, INF, TypeError), (np.bool_(True), 0, INF, TypeError),
    (None, 0, INF, TypeError), (math.nan, 0, INF, TypeError),
    (-1, 0, INF, ValueError), (np.int64(0), 1, INT64_MAX, ValueError),
    (2 ** 63, 1, INT64_MAX, ValueError),
]


@pytest.mark.parametrize("value, low, high, expected", AS_INT, ids=_name)
def test_as_int(value, low, high, expected):
    if isinstance(expected, type):
        head = {TypeError: "be an integer, got ", ValueError: "lie in "}[expected]
        with pytest.raises(expected, match=f"^count must {head}"):
            as_int(value, "count", low, high)
    else:
        out = as_int(value, "count", low, high)
        assert type(out) is int and out == expected


# value, low, high, and the Python float returned (repr tells -0.0 from 0.0)
# or the error raised
AS_REAL = [
    (0.5, -INF, INF, 0.5), (-0.0, 0.0, 1.0, 0.0), (np.float64(-0.0), -INF, INF, 0.0),
    (np.float32(0.5), -INF, INF, 0.5), (np.int64(3), -INF, INF, 3.0),
    (Count.THIRTEEN, -INF, INF, 13.0), (Fraction(1, 4), -INF, INF, 0.25), (1.0, 0.0, 1.0, 1.0),
    (True, -INF, INF, TypeError), (np.bool_(False), -INF, INF, TypeError),
    ("1", -INF, INF, TypeError), (1j, -INF, INF, TypeError),
    (np.complex128(1.0), -INF, INF, TypeError), (None, -INF, INF, TypeError),
    (math.nan, -INF, INF, ValueError), (np.float64(math.nan), -INF, INF, ValueError),
    (math.inf, -INF, INF, ValueError), (-math.inf, -INF, INF, ValueError),
    (10 ** 400, -INF, INF, ValueError), (-0.1, 0.0, 1.0, ValueError),
    (1.5, 0.0, 1.0, ValueError),
]


@pytest.mark.parametrize("value, low, high, expected", AS_REAL, ids=_name)
def test_as_real(value, low, high, expected):
    if isinstance(expected, type):
        head = {TypeError: "be a real number, got ", ValueError: "be finite and lie in "}[expected]
        with pytest.raises(expected, match=f"^rate must {head}"):
            as_real(value, "rate", low, high)
    else:
        assert repr(as_real(value, "rate", low, high)) == repr(expected)


def _rate(name):
    """The stored detector rate."""
    return lambda v: getattr(DetectorConfig(**{name: v}), name)


def _pairs_stdout(threshold) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.cmd_pairs(argparse.Namespace(g=0.5, cutoff=None, threshold=threshold,
                                         format="csv", out=None))
    return out.getvalue()


# (entry point, field): a call with the field set to a value, the values out
# of its range, and a value it accepts, whose numpy and IntEnum spellings
# must give the same result
INT_ROUTES = {
    ("AmplifierConfig", "cutoff"): (lambda v: AmplifierConfig(GainParams(0.07), v), (-1, 1001), 13),
    ("AmplifierConfig.for_gain", "cutoff"): (lambda v: AmplifierConfig.for_gain(0.07, v),
                                             (-1, 1001), 13),
    ("DetectorConfig", "pulses"): (lambda v: DetectorConfig(pulses=v), (0, 2 ** 63), 13),
    ("DetectorConfig", "seed"): (lambda v: DetectorConfig(seed=v), (-1,), 13),
    ("phase_sweep", "n_points"): (lambda v: phase_sweep(BALANCED, v).angles, (1,), 13),
    ("pair_tail", "start"): (lambda v: pair_tail(GainParams(0.5), v), (-1,), 13),
    ("pairs", "threshold"): (_pairs_stdout, (-1,), 13),
    ("run", "threads"): (lambda v: run(BALANCED, AmplifierConfig.for_gain(0.07),
                                       DetectorConfig(pulses=10), v), (0, -5), 13),
    # the 13 sectors 0 .. 12 of the anticloning mode at the LG cutoff
    ("SectorDensity.sector", "t"): (
        lambda v: rho2_closed_form(BALANCED, AmplifierConfig.for_gain(0.07)).sector(v),
        (-1, 13), 1),
}
# DetectorConfig checks its rates in a loop, as_real(v, name, ...): the lint
# below reads that name as these four
RATES = ("qe", "attenuation", "dark_rate", "p_inject")
COMPUTED_FIELDS = {("montecarlo.py", "name"): RATES}
REAL_ROUTES = {
    ("GainParams", "g"): (GainParams, (-0.1, np.int64(-1), 355.036), 1),
    **{("DetectorConfig", name): (_rate(name), (-0.1, np.float64(-0.5), 1.5, 2), 1)
       for name in RATES},
    # 1e200 squared overflows a float
    ("Qubit", "alpha"): (lambda v: Qubit(v, 0.0), (-1.0, 1e200), 1),
    ("Qubit", "beta"): (lambda v: Qubit(0.0, v), (-1.0, 1e200), 1),
    ("Qubit", "phi"): (lambda v: Qubit(0.6, 0.8, v), (), 1),
    ("su2_rotation", "angle"): (lambda v: su2_rotation("y", v).matrix.tolist(), (), 1),
    ("waveplate", "theta"): (lambda v: waveplate("quarter", v).matrix.tolist(), (), 1),
    ("babinet", "delta"): (lambda v: babinet(v).matrix.tolist(), (), 1),
    # v is the last angle, then the first: an ordering check written with b <= a
    # let a NaN last through
    ("BlochPath", "angles"): (lambda v: BlochPath("z", (-5.0, v), BALANCED), (-6.0,), 1),
    ("BlochPath first", "angles"): (lambda v: BlochPath("z", (v, 5.0), BALANCED),
                                    (6.0,), 1),
    ("calibrate_visibility_loss", "target_v"): (
        lambda v: calibrate_visibility_loss(v, BALANCED, AmplifierConfig.for_gain(0.07),
                                            DetectorConfig(pulses=200)), (0.0, 0.5), 0.25),
}
KINDS = [True, np.bool_(False), "1", 1j, None]
# the one message of a range check that words every value out of range alike,
# NaN and +-inf among them (the visibility of BALANCED is 1/3)
RANGE_MESSAGES = {("calibrate_visibility_loss", "target_v"): r" must lie in \(0, 0\.333333\], "}
# None is the default of these fields: the tail rule's cutoff, no tail report
NONE_IS_LEFT_OUT = {("AmplifierConfig.for_gain", "cutoff"), ("pairs", "threshold")}


@pytest.mark.parametrize("route", [*INT_ROUTES, *REAL_ROUTES], ids=" ".join)
def test_each_entry_point_routes_its_field_through_the_helper(route):
    field = route[1]
    wrong = [v for v in KINDS if v is not None or route not in NONE_IS_LEFT_OUT]
    if route in INT_ROUTES:
        build, out_of_range, ok = INT_ROUTES[route]
        # a float is the wrong kind for a count, a non-finite one included
        wrong += [2.5, math.nan, math.inf]
        same = [np.int32(ok), np.uint64(ok), Count(ok)]
    else:
        build, out_of_range, ok = REAL_ROUTES[route]
        out_of_range = (math.nan, math.inf, -math.inf, *out_of_range)
        same = [np.float64(ok), np.float32(ok)]
        same += [np.int64(ok), Count(ok)] if type(ok) is int else []
    # a wrong kind gets the helper's message (angles[1] is angles); a value out
    # of range may fail the entry point's own check, as a cutoff past
    # MAX_CUTOFF does, whose message also starts with the field
    head = {TypeError: r"\S* must be (an integer|a real number), got ",
            ValueError: RANGE_MESSAGES.get(route, "")}
    for error, values in ((TypeError, wrong), (ValueError, out_of_range)):
        for value in values:
            with pytest.raises(error, match=rf"^{field}\b{head[error]}"):
                build(value)
    # the result repeats the Python value's; a repr shows a numpy scalar kept
    assert all(repr(build(value)) == repr(build(ok)) for value in same)


def test_every_checked_field_has_a_route():
    # a field passed to as_int or as_real, written as a string or the literal
    # prefix of an f-string (angles[{i}] is angles), needs a row above
    routed = {field for _, field in [*INT_ROUTES, *REAL_ROUTES]}
    calls = [(path.name, node) for path in pathlib.Path(errors.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("as_int", "as_real")]
    missing = []
    for module, call in calls:
        name = call.args[1]
        if isinstance(name, ast.Constant):
            fields = [name.value]
        elif isinstance(name, ast.JoinedStr) and isinstance(name.values[0], ast.Constant):
            fields = [name.values[0].value.partition("[")[0]]
        else:
            fields = COMPUTED_FIELDS.get((module, ast.unparse(name)), [ast.unparse(name)])
        missing += [f"{module}:{call.lineno} {f}" for f in fields if f not in routed]
    assert len(calls) > 15 and missing == []
