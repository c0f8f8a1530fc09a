"""The one reader of AnalysisConfig's and WaferSpec's field annotations (the
strings `from __future__ import annotations` leaves), and their fields' rules."""

from __future__ import annotations

import re
import sys
from dataclasses import Field, fields
from numbers import Integral, Real

_ANNOTATION = re.compile(r"(tuple\[)?(int|float|str)(?(1), \.\.\.\])( \| None)?")
# kind: (its parser, the test of one value, what a field and a tuple must hold);
# a finite number lies in the float range, so an int beyond it fails too
_KINDS = {
    "int": (int, lambda v: isinstance(v, Integral), "be an integer", "hold integers"),
    "float": (float, lambda v: isinstance(v, Real) and abs(v) <= sys.float_info.max,
              "be a finite number", "hold finite numbers"),
    "str": (str, None, None, None),
}


def field_kind(f: Field) -> tuple[str, bool, bool]:
    """(kind, optional, many) of field f: kind "int", "float" or "str", and
    whether f may be None and whether it is a tuple of kind."""
    m = _ANNOTATION.fullmatch(f.type)
    if m is None:
        raise TypeError(f"field {f.name} has an unsupported annotation {f.type!r}")
    return m[2], m[3] is not None, m[1] is not None


def check_fields(obj, ranges: dict[str, str]) -> None:
    """ValueError naming the first field of the dataclass obj whose value, or
    a tuple element of it, fails its kind's test (a bool fails both tests) or
    lies outside its interval in ranges, such as "(0, inf)" (else [-inf, inf]).
    None passes where the field is optional; a str field is not checked."""
    for f in fields(obj):
        kind, optional, many = field_kind(f)
        _, test, one, each = _KINDS[kind]
        x, interval = getattr(obj, f.name), ranges.get(f.name, "[-inf, inf]")
        if test is None or x is None and optional:
            continue
        values = x if many else (x,)
        if not all(test(v) and not isinstance(v, bool) for v in values):
            raise ValueError(f"{f.name} must {each if many else one}, got {x!r}")
        lo, hi = map(float, interval[1:-1].split(","))
        if not all((lo < v if interval[0] == "(" else lo <= v)
                   and (v < hi if interval[-1] == ")" else v <= hi) for v in values):
            raise ValueError(f"{f.name} must {'hold values' if many else 'lie'} in "
                             f"{interval}, got {x!r}")


def parse_field(f: Field, text: str):
    """The value text gives field f: None for "none" or "null" (any case) if
    f is optional, comma-separated values if f is a tuple.  ValueError if
    text does not parse as f's kind."""
    kind, optional, many = field_kind(f)
    parse, text = _KINDS[kind][0], text.strip()
    if optional and text.lower() in ("none", "null"):
        return None
    return tuple(parse(tok) for tok in text.split(",") if tok) if many else parse(text)
