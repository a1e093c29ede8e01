"""Wrong routes for the lab's suites, one per suite.

Each route answers like the library's own on every tree except those of
``FAULTY_SIZE`` nodes, where it goes wrong.  Patched into ``bcgames.lab``
under the name in ``FAULTS``, it makes that suite record a counterexample
for some instances on those trees and pass the rest, so the tests can
check what a failing campaign reports and how its records replay.
"""

from __future__ import annotations

import dataclasses

from bcgames import lab
from bcgames.embedding import push_game
from bcgames.payoff import ClopenAntichain
from bcgames.reduction import check_cardinality_bound, solve_reduction
from bcgames.solver import Def34Report, Game, check_def3_def4, solve

FAULTY_SIZE = 4


def flipped_solve(game):
    """The solver's result with the other winner."""
    result = solve(game)
    if game.tree.size != FAULTY_SIZE:
        return result
    return dataclasses.replace(result, winner=result.winner.other)


def disagreeing_def34(game):
    """Both readings, with the restricted winner flipped."""
    report = check_def3_def4(game)
    if game.tree.size != FAULTY_SIZE:
        return report
    return Def34Report(report.regular_winner, report.restricted_winner.other)


def flipped_solve_reduction(tree):
    """The reduction's solve with the other winner and the same policy."""
    result = solve_reduction(tree)
    if tree.size != FAULTY_SIZE:
        return result
    return dataclasses.replace(result, winner=result.winner.other)


def inverted_bound(tree, report):
    """The cardinality check's answer, negated."""
    return check_cardinality_bound(tree, report) != (tree.size == FAULTY_SIZE)


def flipped_push_game(rho, game):
    """The pushed game with every entry's winner and the default flipped."""
    pushed = push_game(rho, game)
    if game.tree.size != FAULTY_SIZE:
        return pushed
    payoff = pushed.payoff
    entries = tuple((prefix, winner.other) for prefix, winner in payoff.entries)
    return Game(pushed.tree, ClopenAntichain(entries, payoff.default.other), pushed.decision_depth)


#: Suite name -> (the ``bcgames.lab`` name to patch, the wrong route).
FAULTS = {
    "oracle": ("solve", flipped_solve),
    "def34": ("check_def3_def4", disagreeing_def34),
    "reduction": ("solve_reduction", flipped_solve_reduction),
    "bounds": ("check_cardinality_bound", inverted_bound),
    "embedding": ("push_game", flipped_push_game),
}


def patch_faults(monkeypatch, suites=tuple(FAULTS)) -> None:
    """Patch the wrong route of every named suite into ``bcgames.lab``."""
    for suite in suites:
        name, route = FAULTS[suite]
        monkeypatch.setattr(lab, name, route)
