"""Radial cap construction, the energy split, and a sliding certificate.

The cap is a compactly supported radial state sitting just under a plateau
level. Its energy over a large ball grows like the surface shell (exponent
about 1), while filling the ball at a fixed sub-plateau level costs volume
(exponent N). Sliding the cap under a solved field certifies a pointwise
floor along the path.
"""

import numpy as np

from farfield.elliptic import solve_field
from farfield.grids import make_grid
from farfield.nonlinearity import make
from farfield.sliding import level_energy, radial_bubble, ramp_energy, sliding_verify
from farfield.traces import bump


def main():
    lg = make("logistic")
    cap = radial_bubble(lg, 1.0, 0.1)
    print(f"cap: center height {cap.v[0]:g}, radius {cap.R:.6f}, "
          f"{cap.bisections} bisections")
    e_cap, e_ramp = cap.energy, ramp_energy(lg, cap.z, cap.R, N=cap.N)
    print(f"energy over its own ball: cap {e_cap:.4f} vs ramp {e_ramp:.4f}")

    rs = np.array([5.0, 10.0, 20.0])
    ramp = [ramp_energy(lg, 1.0, r) for r in rs]
    level = [level_energy(lg, 1.0, 0.9, r) for r in rs]
    p_ramp = np.polyfit(np.log(rs), np.log(ramp), 1)[0]
    p_level = np.polyfit(np.log(rs), np.log(level), 1)[0]
    print(f"growth exponents: ramp {p_ramp:.3f}, constant level {p_level:.3f}")

    nl = make("linear-decay")
    grid = make_grid(60.0, 30.0, 0.25)
    field = solve_field(nl, grid, "quarter",
                        bump(grid.x2("quarter"), 10.0, 5.0, 0.5))
    rep = sliding_verify(field, cap, (15.0, 10.0), (45.0, 10.0))
    verdict = "holds" if rep.ok else "FAILS"
    print(f"slide (15,10) -> (45,10): ordering {verdict}, "
          f"min margin {rep.min_margin:.4f}")
    print(f"certified: field >= {rep.implied_floor:g} at every visited center")


if __name__ == "__main__":
    main()
