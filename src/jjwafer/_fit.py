"""The ordinary least-squares line shared by the extraction stages: the
C-vs-A regression, the Weibull shape line, the knee scan and the
field-emission window.  The through-origin fit of fit_k_from_dt is one
expression and stays inline.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Line(NamedTuple):
    """Least-squares line with the sums callers derive errors from.

    sse : residual sum of squares
    sst : total sum of squares of y about its mean
    sxx : sum of squares of x about its mean (0 when x is flat)
    xm  : mean of x
    """

    slope: float
    intercept: float
    sse: float
    sst: float
    sxx: float
    xm: float

    @property
    def r2(self) -> float:
        return 1.0 if self.sst == 0.0 else 1.0 - self.sse / self.sst


def fit_line(x: np.ndarray, y: np.ndarray) -> Line:
    """OLS line through (x, y).

    When x is flat the slope is undefined: the result is the horizontal line
    through mean(y), with sse equal to sst.  Callers that must refuse a flat
    regressor test `sxx == 0.0` and raise their own error.
    """
    xm, ym = float(x.mean()), float(y.mean())
    sxx = float(np.sum((x - xm) ** 2))
    sst = float(np.sum((y - ym) ** 2))
    if sxx == 0.0:
        return Line(0.0, ym, sst, sst, sxx, xm)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    sse = float(np.sum((y - intercept - slope * x) ** 2))
    return Line(slope, intercept, sse, sst, sxx, xm)
