"""Two-player games on binary choice trees.

Trees, clopen payoffs, both strategy formalisms, exact backward
induction with brute-force cross-checks, an order-preserving embedding
into the {0,1} tree, the four-phase reduction game with branch
extraction and cardinality bounds, and a verification lab.
"""

from .embedding import RhoMap, build_rho, pull_back_strategy, push_game, push_payoff
from .lab import CampaignConfig, Report, SplitMix64, random_payoffs, run_campaign
from .payoff import (
    ClopenAntichain,
    DiffPayoff,
    ExitEvent,
    OpenSet,
    compile_diff,
    eval_diff,
    first_exit,
    outcome_psi,
    parse_payoff,
    serialize_payoff,
)
from .players import Player, mover_at
from .reduction import (
    BranchReport,
    ReductionGame,
    ReductionPolicy,
    Transcript,
    build_reduction_game,
    check_cardinality_bound,
    decode,
    extract_branch,
    solve_reduction,
    verify_winning_policy,
)
from .solver import (
    Def34Report,
    Game,
    SolveResult,
    brute_force_oracle,
    check_def3_def4,
    def3_winner,
    exit_game,
    solve,
    verify_winning,
)
from .strategy import (
    EXIT,
    RegularStrategy,
    RestrictedStrategy,
    enumerate_restricted,
    parse_strategy,
    product_restricted,
    serialize_strategy,
    validate_restricted,
)
from .trees import (
    FiniteTree,
    enumerate_trees,
    parse_tree,
    serialize_tree,
    subtree,
    validate_tree,
    zero_free_transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
