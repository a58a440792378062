"""Far-field structure of semilinear elliptic fields on truncated domains."""

from .errors import (ConfigError, ConsistencyError, FarfieldError,
                     InfeasibleProfileError, InputError, NumericError)
from .grids import Field, Grid2D, as_trace, load_field_csv, make_grid, save_field_csv
from .nonlinearity import (HypothesisReport, Nonlinearity, ZeroSet, abs_sin, cantor,
                           check_hypotheses, compute_Zf, eval_capped, from_table,
                           integral_between, linear_decay, logistic, make, zero_set)
from .odes import OdeResult, integrate
from .profile1d import (ProbeReport, Profile1D, compute_profile,
                        disconnectedness_probe, integrate_profile_ode,
                        profile_residual, save_profile_csv, shoot_slope)
from .elliptic import (FlowOperator, flow_operator, flow_relax, laplacian_full,
                       newton_solve, residual_max, solve_field)
from .sliding import (Bubble, EigenResult, SlideReport, ball_volume, cap_energy,
                      dirichlet_eigenpair, level_energy, radial_bubble, ramp_energy,
                      sliding_verify, sphere_area)
from .trajectory import (AttractorTable, MEstimate, TrajectoryReport,
                         attractor_table, estimate_M, omega_limit, shift)
from .liouville import (SweepReport, TrialResult, halfspace_strip_sweep, noise_start,
                        periodic_box_sweep)
from .traces import bump, make_trace, trace_from_table

__version__ = "0.1.0"
