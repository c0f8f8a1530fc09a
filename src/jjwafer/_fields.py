"""The rule the parameter dataclasses (AnalysisConfig, WaferSpec) hold
their numeric fields to."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields


def check_finite_fields(obj) -> None:
    """ValueError naming the first float field of the dataclass obj that is
    not a finite real number; a bool is not one.  None passes where the
    field's annotation allows it, and a tuple field is held to the rule
    element by element.  The annotations are read as the strings that
    `from __future__ import annotations` leaves."""
    for f in fields(obj):
        x = getattr(obj, f.name)
        if "float" not in f.type or x is None and "None" in f.type:
            continue
        many = f.type.startswith("tuple")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and math.isfinite(v) for v in (x if many else (x,))):
            what = "hold finite numbers" if many else "be a finite number"
            raise ValueError(f"{f.name} must {what}, got {x!r}")
