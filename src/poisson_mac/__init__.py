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

Every public name lives in a submodule, its home in _HOMES, which is
imported on the name's first access (PEP 562), so a process pays only for
the modules it uses: an in-regime `poisson-mac solve` never loads the grid,
continuous, multi-antenna or equal-peak modules.  The names are not cached
here; each access reads the home module's attribute.
"""

from importlib import import_module

from . import _numpy  # a missing or blocked numpy fails here, at import

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    name: module
    for module, names in {
        "channel": (
            "ChannelParams DutyPair HitProbs alpha_cont binary_entropy entropy_slope grad_mutual_info"
            " hessian_mutual_info hit_prob hit_probs mutual_info mutual_info_rate p_hat phi"
        ),
        "continuous": (
            "ContinuousParams ConvergenceRow cont_capacity cont_f cont_g cont_mutual_info_rate convergence_report"
        ),
        "gridsearch": "GridResult GridSpec fd_gradient fd_hessian grid_capacity",
        "miso": "JointPmf MisoConfig miso_mutual_info miso_pmf_enumeration nu_pmf solve_miso subset_rates",
        "siso": (
            "Candidate IntersectionSearch LineCoefficients SolveBatch SolveReport Strategy SufficiencyRecord f_mac"
            " find_intersections g_mac single_user_duty solve solve_many sufficiency_tests sweep_strategy_region uvw"
        ),
        "symmetric": (
            "BoundaryHalfSums SchurMode SchurRegion SymmetricReport ThresholdSearch boundary_half_sums"
            " flip_log_odds line_constrained_max peak_threshold schur_classify solve_symmetric"
            " symmetric_fixed_point"
        ),
    }.items()
    for name in names.split()
}

__all__ = [*_HOMES]


def __getattr__(name: str) -> object:
    """A public name, read from its home module, which is imported if need be.
    An unknown name raises AttributeError, so `from poisson_mac import cli`
    goes on to import the submodule."""
    if (home := _HOMES.get(name)) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
