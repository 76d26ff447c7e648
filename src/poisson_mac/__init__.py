"""
Sum-rate capacity of the two-user Poisson multiple-access channel observed
through a photon-counting receiver whose dead time equals its sampling
interval.

The channel reduces to a binary-output slot model where each user's only
knob is a duty cycle; the library enumerates the at-most-four stationary
candidates of the resulting non-concave box problem, specializes the
equal-peak case through its majorization structure, reduces multi-antenna
users to the summed-peak single-antenna problem, and checks everything
against brute-force and continuous-time references.
"""

from .channel import (
    ChannelParams,
    DutyPair,
    HitProbs,
    alpha_cont,
    binary_entropy,
    entropy_slope,
    grad_mutual_info,
    hessian_mutual_info,
    hit_prob,
    hit_probs,
    mutual_info,
    mutual_info_rate,
    p_hat,
    phi,
)
from .continuous import (
    ContinuousParams,
    ConvergenceRow,
    cont_capacity,
    cont_f,
    cont_g,
    cont_mutual_info_rate,
    convergence_report,
)
from .gridsearch import (
    GridResult,
    GridSpec,
    fd_gradient,
    fd_hessian,
    grid_capacity,
    miso_pmf_enumeration,
)
from .miso import (
    JointPmf,
    MisoConfig,
    MisoReport,
    NuPmf,
    miso_mutual_info,
    nu_pmf,
    solve_miso,
    subset_rates,
)
from .siso import (
    Candidate,
    IntersectionSearch,
    LineCoefficients,
    Scenario,
    SolveBatch,
    SolveReport,
    Strategy,
    SufficiencyRecord,
    f_mac,
    find_intersections,
    g_mac,
    regime_fraction_rule,
    single_user_duty,
    solve,
    solve_many,
    sufficiency_tests,
    sweep_strategy_region,
    uvw,
)
from .symmetric import (
    BoundaryHalfSums,
    SchurMode,
    SchurRegion,
    SymmetricReport,
    ThresholdSearch,
    boundary_half_sums,
    flip_log_odds,
    line_constrained_max,
    peak_threshold,
    schur_classify,
    solve_symmetric,
    symmetric_fixed_point,
)

__version__ = "0.1.0"
