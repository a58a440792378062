"""Random-start sweeps on the compact surrogate domains.

Box trials should flatten to constants at zeros of f; strip trials should
forget the lateral direction and land on a rising height profile. The runs
are seeded, so the printed table is reproducible bit for bit.
"""

from farfield.liouville import halfspace_strip_sweep, periodic_box_sweep
from farfield.nonlinearity import make

nl = make("abs-sin")

box = periodic_box_sweep(nl, L=8.0, h=0.25, n_trials=6, seed=0)
for note in box.notes:
    print(f"note: {note}")
print(f"\nbox sweep, {box.n_trials} trials:")
for t in box.trials:
    print(f"  trial {t.index}: {t.outcome:9s} level {t.level:.9f} "
          f"spread {t.deviation:.1e}")

strip = halfspace_strip_sweep(nl, L=8.0, h=0.25, n_trials=6, seed=0)
print(f"\nstrip sweep, {strip.n_trials} trials:")
for t in strip.trials:
    print(f"  trial {t.index}: {t.outcome:9s} nearest level {t.nearest_z:.6f} "
          f"distance {t.profile_distance:.2e} lateral {t.lateral_variation:.1e}")
