"""The shared least-squares line."""

import numpy as np
import pytest

from jjwafer._fit import fit_line


@pytest.mark.parametrize("seed", range(4))
def test_matches_polyfit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    x = rng.normal(0.0, 10.0, n)
    y = 2.5 * x - 1.0 + rng.normal(0.0, 3.0, n)
    line = fit_line(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    assert line.slope == pytest.approx(slope, rel=1e-10)
    assert line.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)
    resid = y - np.polyval([slope, intercept], x)
    assert line.sse == pytest.approx(float(resid @ resid), rel=1e-10)
    assert line.sst == pytest.approx(float(np.sum((y - y.mean()) ** 2)), rel=1e-12)
    assert line.xm == pytest.approx(x.mean())
    assert line.r2 == pytest.approx(1.0 - line.sse / line.sst)


def test_flat_x_gives_the_horizontal_line_through_the_mean():
    x = np.full(6, 3.0)
    y = np.array([1.0, 4.0, 2.0, 8.0, 5.0, 7.0])
    line = fit_line(x, y)
    assert line.sxx == 0.0
    assert line.slope == 0.0
    assert line.intercept == y.mean()
    assert line.sse == line.sst == float(np.sum((y - y.mean()) ** 2))
    assert line.r2 == 0.0


def test_exact_line_has_unit_r2():
    x = np.linspace(-2.0, 5.0, 9)
    line = fit_line(x, 0.5 - 4.0 * x)
    assert line.slope == pytest.approx(-4.0)
    assert line.intercept == pytest.approx(0.5)
    assert line.sse == pytest.approx(0.0, abs=1e-24)
    assert line.r2 == pytest.approx(1.0)
    assert fit_line(x, np.full(9, 2.0)).r2 == 1.0
