"""The error type and the one check for each kind of number from outside."""
import math
import numbers
import operator

import numpy as np


class NumericalError(RuntimeError):
    """A numerical invariant failed beyond its tolerance."""


def as_int(value, name: str, low: int = 0, high: float = math.inf) -> int:
    """value as a Python int: TypeError unless it has an integer index but
    is no bool, ValueError unless it lies in low .. high."""
    try:    # numpy 1.x bools still have an index
        n = operator.index(None if isinstance(value, (bool, np.bool_)) else value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not low <= n <= high:
        raise ValueError(f"{name} must lie in {low} .. {high}, got {value}")
    return n


def as_real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a Python float, -0.0 as 0.0: TypeError unless it is a real number
    but no bool (np.bool_ is no Real), ValueError unless finite in low .. high."""
    if isinstance(value, float):    # np.float64 among them
        value = float(value)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    else:
        try:
            value = float(value)
        except OverflowError:   # an int past the float range
            value = math.inf
    if not (math.isfinite(value) and low <= value <= high):
        raise ValueError(f"{name} must be finite and lie in {low:g} .. {high:g}, got {value}")
    return value + 0.0  # -0.0 + 0.0 is 0.0
