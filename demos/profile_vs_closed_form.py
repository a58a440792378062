"""Rising profile for the oscillatory member against its closed form.

For f(s) = |sin s| the profile climbing from 0 to pi is a Gudermannian,
V(xi) = 4 arctan(e^xi) - pi, which makes it the natural smoke test for the
xi inversion + ODE construction: both routes must land on this curve.
"""

import math

import numpy as np

from farfield.nonlinearity import make
from farfield.profile1d import compute_profile, profile_residual

nl = make("abs-sin")
p = compute_profile(nl, math.pi, xi_max=10.0, n=2048)
exact = 4.0 * np.arctan(np.exp(p.xi)) - math.pi

print(f"launch slope V'(0) = {p.slope0:.15g}   (exact 2)")
print(f"route agreement    = {p.crosscheck:.3e}")
print(f"max |V - closed|   = {np.max(np.abs(p.values - exact)):.3e}")
print(f"stencil residual   = {profile_residual(p, nl):.3e}")
print()
print("  xi        V(xi)         closed form")
for i in range(0, p.xi.size, 256):
    print(f"  {p.xi[i]:5.2f}  {p.values[i]:.12f}  {exact[i]:.12f}")
