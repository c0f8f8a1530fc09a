"""
Oxide thickness from an area series of plate capacitors
=======================================================

Wafer maps of capacitance at six plate sizes; the slope of C against A is
the per-area capacitance, the intercept absorbs the pad parasitics, and the
slope fixes the oxide thickness once the permittivity is known.
"""

from jjwafer import (
    EPS_R_REFERENCE,
    WaferSpec,
    fit_capacitance_per_area,
    generate_wafer,
    oxide_thickness_from_ca,
    wafer_statistics,
)
from jjwafer.dataset import cap_maps

spec = WaferSpec(label="cap-demo", seed=12, cap_noise_pct=2.3,
                 thickness_jitter_pct=1.0, dead_die_rate=0.02)
ds = generate_wafer(spec).dataset

points = []
print(f"{'area [um2]':>11} {'mean [fF]':>10} {'RSD [%]':>8} {'yield [%]':>9}")
for a, wmap in cap_maps(ds).items():
    stats = wafer_statistics(wmap)
    points.append((a, stats.mean))
    print(f"{a:11.0f} {stats.mean:10.2f} {stats.rsd_pct:8.2f} {stats.yield_pct:9.1f}")

reg = fit_capacitance_per_area(points)
print("\nC/A =", round(reg.ca_ff_per_um2, 4), "+/-",
      round(reg.ca_stderr, 4), "fF/um^2")
print("intercept =", round(reg.intercept_ff, 3), "fF (pad parasitics)")
print("r^2 =", round(reg.r2, 6))

t_ox = oxide_thickness_from_ca(reg.ca_ff_per_um2, EPS_R_REFERENCE)
print("\noxide thickness:", round(t_ox, 3), "nm (generated with 4.4)")
