"""Adaptive online and stochastic optimization with regret accounting.

The package plays FTRL / mirror-descent style updates under adaptive
regularizer schedules, records every round, and verifies the exact regret
decomposition and the matching upper bounds on the recorded runs.
"""

from .core import (INF, DimensionMismatch, QuadMetric, SingularMetricError,
                   as_point, bregman, delta_term, dir_derivative, dot,
                   dual_norm_sq, quad_norm_sq)
from .regularizers import (L1, Difference, Indicatrix, Linear,
                           ProximalConditionError, Quadratic, Regularizer,
                           ScheduleState, Sum, Zero,
                           adagrad_diag_step, adagrad_full_step,
                           adagrad_initial_metric, check_proximal,
                           composite_wrap, final_attack_eta,
                           ftrl_prox_increment, optimistic_shift,
                           proximal_eta_increment, scale_free_eta,
                           validate_psi_sequence)
from .solvers import (Ball, Box, FeasibleSet, IllPosedError,
                      NumericArgminError, Objective, Simplex, Unconstrained,
                      argmin_l1_composite, argmin_numeric, argmin_quadratic,
                      linear_argmin, minimize, simplex_project)
from .losses import (BregmanAround, DriftingQuadratic, FixedLoss, LinearStream,
                     Loss, LossSequence, StochasticLoss, alternating_stream,
                     check_pl, drift_then_constant_stream, estimate_tau,
                     estimate_tau_strong, l1_loss, linear_loss,
                     power_product, quadratic_loss, random_stream,
                     sine_drift_quadratic, sqrt_abs, two_slope_abs,
                     variation_estimate, verify_star_convex,
                     verify_tau_star_strong)
from .learners import (Driver, HINT_POLICIES, PRESETS, preset_defaults,
                       run_rounds)
from .regret import (BoundInputs, BoundReport, Ledger, RoundRecord,
                     TABLE2_CASES, bound_ao_ftrl, bound_ao_md,
                     bound_final_attack, bound_forward_ftrl, bound_forward_md,
                     bound_table2, bound_variational_smooth,
                     decomposition_residual, decomposition_terms,
                     empirical_regret, forward_regret, ledger_header,
                     ledger_rows, scale_tau, select_comparator,
                     sum_sqrt_check)

__version__ = "0.1.0"
