"""Reachable plateau levels of the prefractal tent member.

The level-3 construction keeps 8 intervals where f vanishes identically.
Only their left endpoints are reachable as far-field limits: the potential
has to strictly dominate everything below, and inside a flat stretch it
cannot. The probes show that only the profile's own launch slope reaches a
level: a launch kicked 1e-4 above it crosses the level with slope to spare,
and one kicked 1e-4 below it runs out of slope short of the level and stalls.
"""

from fractions import Fraction

from farfield.nonlinearity import compute_Zf, make, zero_set
from farfield.profile1d import disconnectedness_probe

nl = make("cantor:3")
E = zero_set(nl)
zf = compute_Zf(nl)

print(f"zero set: {len(E.points)} isolated points, {len(E.intervals)} flat intervals")
for a, b in E.intervals:
    print(f"  [{a:.9f}, {b:.9f}]")

print(f"\nreachable levels ({len(zf.points)}):")
for z in zf.points:
    frac = Fraction(z).limit_denominator(27)
    print(f"  {z:.12f}  ~ {frac}")

# kick the launch slope of the profile to the second level both ways: from
# above it crosses the level (crossed_limit), from below its slope vanishes
# under the level (stalled_below)
print()
for sign, side in ((+1, "above"), (-1, "below")):
    probe = disconnectedness_probe(nl, zf.points[1], 1e-4, sign, xi_max=60.0)
    print(f"launch 1e-4 {side} the slope to {zf.points[1]:.6f}: event '{probe.event}' "
          f"at xi = {probe.xi_event:.2f}, V = {probe.v_event:.4f}")
