"""qgames: a numerical laboratory for quantum estimation and cloning games.

Build the equilibrium strategies (optimal measure-and-resend POVMs, the
optimal universal cloner), evaluate their game values exactly through
symmetric-subspace moment identities, and cross-check the game-theoretic
structure (minimax values, universality, equilibrium interchange, the
asymmetric-cloning bound) with discretized matrix games, Monte Carlo play,
and brute-force channel scans.
"""

from .core import (
    DensityOperator,
    InvalidArity,
    PureState,
    RandomStream,
    ShapeError,
    SizeCapExceeded,
    haar_random_state,
    overlap,
    tensor_power,
)
from .symmetric import coherent_coordinates, dim_sym, sym_isometry, sym_projector
from .swap_test import draw_outcome, expected_payoff, pass_probability, sample_outcome
from .cloning import (
    Channel,
    CloningValues,
    global_fidelity,
    haar_avg_global_fidelity,
    optimal_cloner,
    single_clone_haar_fidelity,
    value_formulas,
)
from .estimation import (
    Direction,
    IncompletePovm,
    Povm,
    build_povm,
    default_directions,
    design_directions,
    mean_fidelity,
    universal_povm,
)
from .zerosum import (
    CovarianceViolation,
    EquilibriumPair,
    MatrixGame,
    MixedStrategy,
    NonConvergence,
    NotAGroup,
    best_response,
    exploitability,
    interchange_check,
    rock_paper_scissors,
    solve,
    symmetrize,
)
from .harness import (
    GameSpec,
    MonteCarloRecord,
    SandwichReport,
    ScanReport,
    asym_bound_scan,
    discretize_cloning_game,
    discretize_estimation_game,
    monte_carlo_play,
    perturb_best_response_check,
    sandwich_report,
)

__version__ = "0.1.0"
