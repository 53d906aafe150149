"""Numpy-free value rules shared by the label types, the prediction reader and polygon functions."""

import math
import numbers
from itertools import chain
from typing import Any


def _integer(value: Any) -> int:
    """``value`` as an int: integral floats pass (40.0 reads as 40); bools,
    strings and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value: Any) -> float:
    """``value`` as a finite float; bools, strings and other non-numbers are refused."""
    if type(value) not in (int, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _vertex_values(vertices: Any) -> list[float]:
    """x0, y0, x1, y1, ... of ``vertices``, V >= 3 pairs, as floats. A list or tuple of pairs
    of finite exact ints and floats is read in one pass; any other input is read a coordinate
    at a time by _number, which raises its errors."""
    try:  # fsum reads each value as a float: a huge int overflows, inf - inf is a ValueError
        plain = (type(vertices) in (list, tuple) and {2}.issuperset(map(len, vertices))
                 and {int, float}.issuperset(map(type, flat := [*chain(*vertices)]))
                 and math.isfinite(math.fsum(flat)))
    except (TypeError, OverflowError, ValueError):  # TypeError: a vertex without a length
        plain = False
    values = [*map(float, flat)] if plain else [
        number for x, y in vertices for number in (_number(x), _number(y))]
    if len(values) < 6:
        raise ValueError(f"polygon needs >= 3 vertices, got {len(values) // 2}")
    return values
