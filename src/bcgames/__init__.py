"""Two-player games on binary choice trees.

Trees, clopen payoffs, both strategy formalisms, exact backward
induction with brute-force cross-checks, an order-preserving embedding
into the {0,1} tree, the four-phase reduction game with branch
extraction and cardinality bounds, and a verification lab.

The names below are the entry points the demos use; everything else is
imported from its module.
"""

from .embedding import build_rho, pull_back_strategy, push_game
from .payoff import ClopenAntichain, first_exit, outcome_psi
from .reduction import (
    build_reduction_game,
    check_cardinality_bound,
    decode,
    extract_branch,
    solve_reduction,
    verify_winning_policy,
)
from .solver import (
    Game,
    brute_force_oracle,
    check_def3_def4,
    exit_game,
    solve,
    verify_winning,
)
from .strategy import validate_restricted
from .trees import (
    enumerate_trees,
    parse_tree,
    serialize_tree,
    subtree,
    validate_tree,
    zero_free_transform,
)

__all__ = [
    "ClopenAntichain",
    "Game",
    "brute_force_oracle",
    "build_reduction_game",
    "build_rho",
    "check_cardinality_bound",
    "check_def3_def4",
    "decode",
    "enumerate_trees",
    "exit_game",
    "extract_branch",
    "first_exit",
    "outcome_psi",
    "parse_tree",
    "pull_back_strategy",
    "push_game",
    "serialize_tree",
    "solve",
    "solve_reduction",
    "subtree",
    "validate_restricted",
    "validate_tree",
    "verify_winning",
    "verify_winning_policy",
    "zero_free_transform",
]
__version__ = "0.1.0"
