"""Exact solving of games on binary choice trees.

A game couples a tree with a clopen payoff and a decision depth.  A
play is settled the moment it leaves the tree (the offender loses) or
reaches the decision depth while still inside it (the payoff decides).
A player whose turn comes at a node with no in-tree successor is forced
out and loses.  Under those rules backward induction yields the winner
and a certified restricted strategy for the winner, stopping at a
node's first successor won by its mover, and counts the reachable nodes.

The searches run on a game graph, so the reduction game, another finite
game with at most two moves per turn, shares the one induction (memoized,
and stopping at first wins too), its policy read-off and the certificate
walk.  All keep an explicit stack: no Python frame is spent per ply,
however tall the tree or long the play.

Two independent brute-force routes cross-check the induction: one
builds the normal form, the endpoint of every restricted strategy pair,
once per tree and scores each endpoint literally, the other enumerates
quotiented regular strategies and walks every opponent line against
each, on the game graph of the wrapped outcome, with the same
certificate walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .payoff import ClopenAntichain, DiffPayoff, compile_diff, outcome_psi
from .players import Player, mover_at
from .strategy import (
    RegularStrategy,
    RestrictedStrategy,
    enumerate_regular_quotient,
    quotient_count,
    realize_exit,
    validate_restricted,
)
from .trees import FiniteTree, Seq


class SolverError(Exception):
    pass


class UndecidedGame(SolverError):
    """The payoff does not settle every play at the game's decision depth."""


class Infeasible(SolverError):
    """The brute-force strategy space exceeds ``PAIR_CAP``."""


#: Hard cap on strategy pairs explored by the brute-force routes.
PAIR_CAP = 2**20


@dataclass(frozen=True)
class Game:
    """A game on a tree, presented as a game graph: a state is a node, and
    a move appends the label of an in-tree successor.  A node at the
    decision depth has no moves and the payoff decides it; a node with
    no in-tree successor has no moves either, and its mover loses."""

    tree: FiniteTree
    payoff: ClopenAntichain
    decision_depth: int
    initial = ()

    def __post_init__(self) -> None:
        if self.decision_depth < 0:
            raise UndecidedGame("decision depth must be non-negative")
        # An antichain plus default decides every prefix at least as long as
        # its longest entry, so only a shallower depth can leave a play open.
        if self.decision_depth < self.payoff.decision_depth:
            raise UndecidedGame(
                f"decision depth {self.decision_depth} is shallower than the payoff's "
                f"{self.payoff.decision_depth}"
            )

    def mover(self, node: Seq) -> Player:
        return mover_at(len(node))

    def transitions(self, node: Seq) -> tuple[tuple[int, Seq], ...]:
        """In-tree moves with the nodes they reach, ascending by move."""
        if len(node) == self.decision_depth:
            return ()
        return tuple([(child[-1], child) for child in self.tree.children(node)])

    def winner(self, node: Seq) -> Player:
        """Winner where an in-tree play ends: the payoff at or past the
        decision depth, else the opponent of the mover forced out."""
        if len(node) >= self.decision_depth:
            return self.payoff.winner_at(node)
        return mover_at(len(node)).other


def exit_game(tree: FiniteTree) -> Game:
    """The pure exit game: the payoff is unreachable, so being forced out
    of the tree is the only way to lose."""
    return Game(tree, ClopenAntichain((), Player.II), tree.height + 1)


def game_for(tree: FiniteTree, payoff: ClopenAntichain | DiffPayoff) -> Game:
    """The game ``payoff`` sets on ``tree``, at the payoff's own decision depth."""
    if isinstance(payoff, DiffPayoff):
        return Game(tree, compile_diff(payoff, tree), payoff.decision_depth)
    return Game(tree, payoff, payoff.decision_depth)


@dataclass(frozen=True)
class SolveResult:
    winner: Player
    strategy: Any
    explored: int


# The game-graph core below serves every finite game that offers
# ``initial``, ``mover(state)``, ``transitions(state)`` (``(move, next)``
# pairs ascending by move) and ``winner(state)`` for a state without
# transitions.  States must be hashable and the graph acyclic.


def _follow(trans, move):
    for legal, nxt in trans:
        if legal == move:
            return nxt
    return None


def step(game, state, move):
    """The state ``move`` leads to from ``state``, or None when the move is
    not legal there."""
    return _follow(game.transitions(state), move)


def induction(game, state, values: dict, first_win: dict) -> Player:
    """The winner from ``state``, by backward induction with an explicit
    stack that stops at a state's first successor won by its mover.

    A state without transitions takes ``game.winner``; elsewhere the
    mover wins iff some successor is won by the mover.  ``values`` is
    the memo: every state solved is stored there, and a state already
    in it is not expanded again.  Each state its mover wins maps in
    ``first_win`` to the ``(move, successor)`` transition to the
    leftmost successor the mover wins.  A state its mover loses has had
    every successor solved.
    """
    stack: list = []  # (transition reaching a state, its mover, its moves left)
    edge = (None, state)
    value = values.get(state)
    while True:
        if value is None:  # ``edge`` reaches a new state: expand it or score it
            state = edge[1]
            if trans := game.transitions(state):
                stack.append((edge, game.mover(state), iter(trans)))
            else:
                value = values[state] = game.winner(state)
        if not stack:
            return value
        reached, who, rest = stack[-1]
        if value is who:
            first_win[reached[1]] = edge
        elif nxt := next(rest, None):
            edge = nxt
            value = values.get(edge[1])
            continue
        else:
            value = who.other
        values[reached[1]] = value
        edge = stack.pop()[0]


def counterplay(game, owner: Player, choose: Callable) -> list | None:
    """Play every opponent line while ``owner`` plays ``choose(state)``.

    Returns None when every line ends in a state without transitions won
    by ``owner``, else the moves of the first line found, leftmost first,
    that ends in a loss or in an owner state whose chosen move is not
    legal.  States already walked are not walked again.
    """
    seen = set()
    path: list = []
    # Each entry carries the length of the path to its parent state.
    stack = [(0, None, game.initial)]
    while stack:
        depth, move, state = stack.pop()
        del path[depth:]
        if move is not None:
            path.append(move)
        if state in seen:
            continue
        seen.add(state)
        trans = game.transitions(state)
        depth = len(path)
        if not trans:
            if game.winner(state) is not owner:
                return path
        elif game.mover(state) is owner:
            move = choose(state)
            nxt = _follow(trans, move)
            if nxt is None:
                return path
            stack.append((depth, move, nxt))
        else:
            stack.extend((depth, m, n) for m, n in reversed(trans))
    return None


def solve(game: Game) -> SolveResult:
    """Backward induction from the root that stops at a node's first
    successor won by its mover, which the winner's strategy then takes.
    Nodes at the decision depth take the payoff's verdict.  ``explored``
    counts the game's reachable states, the tree nodes down to the
    decision depth, whether or not the search solved them."""
    first_win: dict = {}
    winner = induction(game, game.initial, {}, first_win)
    tree, nodes, stack = game.tree, set(), [()]
    while stack:
        node = stack.pop()
        nodes.add(node)
        kids = tree.children(node)
        if kids and mover_at(len(node)) is winner:
            # Below the decision depth the choice no longer matters, so the
            # leftmost successor keeps the subtree valid.
            edge = first_win.get(node)
            kids = [edge[1] if edge else kids[0]]
        stack.extend(kids)
    explored = sum(tree.depth_counts[: game.decision_depth + 1])
    return SolveResult(winner, RestrictedStrategy(winner, frozenset(nodes)), explored)


def solve_graph(game) -> SolveResult:
    """``induction`` from ``game.initial``, with the winner's policy read
    off by a walk from there: at a winner state it takes the move to the
    first successor the winner wins, elsewhere it follows every move.
    The winner wins every state the walk reaches, so each was evaluated.
    ``explored`` counts the states the search evaluated, terminals
    included; stopping at first wins, it can leave reachable states out.
    """
    values: dict = {}
    first_win: dict = {}
    winner = induction(game, game.initial, values, first_win)
    moves: dict = {}
    seen, stack = set(), [game.initial]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        if edge := first_win.get(state):  # each winner state with moves
            moves[state] = edge[0]
            stack.append(edge[1])
        else:
            stack.extend(nxt for _, nxt in game.transitions(state))
    return SolveResult(winner, RegularStrategy(winner, moves), len(values))


def verify_winning(game: Game, strategy: RestrictedStrategy) -> Seq | None:
    """Exhaustively play every opponent line inside ``strategy``.

    Returns None when every settled transcript is won by the strategy's
    owner, else the first losing position found.
    """
    validate_restricted(game.tree, strategy.nodes, strategy.owner)

    def choose(node: Seq) -> int | None:
        # Validation leaves exactly one kept successor at every owner node
        # the walk reaches.
        kept = (child[-1] for child in game.tree.children(node) if child in strategy.nodes)
        return next(kept, None)

    play = counterplay(game, strategy.owner, choose)
    return None if play is None else tuple(play)


@dataclass(frozen=True, eq=False)
class NormalForm:
    """The normal form of the game on a tree: ``rows[i][j]`` is the leaf
    where the play of player I's i-th and player II's j-th restricted
    strategy ends, strategies listed leftmost choices first; ``columns``
    is the same table read by II's strategies, and ``ends`` holds its
    distinct leaves.  It depends on the tree alone, so one form scores
    every game on that tree."""

    tree: FiniteTree
    rows: list[list[Seq]]
    columns: list[tuple[Seq, ...]]
    ends: frozenset[Seq]

    def winner(self, game: Game) -> Player:
        """Winner by literal evaluation over all restricted strategy pairs:
        some row of the table is all I's, or some column all II's.  Each
        distinct leaf is scored once, by ``game.winner``."""
        if game.tree != self.tree:
            raise SolverError("the game is played on another tree than the normal form's")
        won_by_one = {end for end in self.ends if game.winner(end) is Player.I}
        won_by_two = self.ends - won_by_one
        if any(won_by_two.isdisjoint(row) for row in self.rows):
            return Player.I
        if any(won_by_one.isdisjoint(column) for column in self.columns):
            return Player.II
        raise SolverError("neither player has a winning restricted strategy")


def _fold(tree: FiniteTree, leaf: Callable, join: Callable):
    """One bottom-up pass over ``tree``: a leaf takes ``leaf(node)``, a
    lone successor's value passes up unchanged, and a node with two
    successors takes ``join(node, left, right)``."""
    # Reversed preorder meets a node right after its subtrees, so its
    # successors' values are on top of the stack, the left one uppermost.
    values: list = []
    for node in reversed(tree.sorted_nodes):
        kids = tree.children(node)
        if len(kids) == 2:
            left = values.pop()
            values.append(join(node, left, values.pop()))
        elif not kids:
            values.append(leaf(node))
    return values[0]


def _count_pairs(node: Seq, left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int]:
    # Where a player moves, that player's strategies are those of either
    # successor and the opponent's are pairs of one per successor.
    (left_one, left_two), (right_one, right_two) = left, right
    if mover_at(len(node)) is Player.I:
        ones, twos = left_one + right_one, left_two * right_two
    else:
        ones, twos = left_one * right_one, left_two + right_two
    if ones * twos > PAIR_CAP:
        raise Infeasible(
            f"{ones * twos} strategy pairs in the subtree at {node!r} "
            f"exceed the cap of {PAIR_CAP}"
        )
    return ones, twos


def _join_tables(node: Seq, left: list[list[Seq]], right: list[list[Seq]]) -> list[list[Seq]]:
    # The same rule on the tables: where I moves, I's rows are either
    # side's and II's column j * width + k answers the left side with its
    # j-th strategy and the right side with its k-th; where II moves, the
    # other way round.
    if mover_at(len(node)) is Player.I:
        width = len(right[0])
        rows = [[end for end in row for _ in range(width)] for row in left]
        return rows + [row * len(left[0]) for row in right]
    return [row + other for row in left for other in right]


def normal_form(tree: FiniteTree) -> NormalForm:
    """The normal form of the game on ``tree``, refused above ``PAIR_CAP``
    strategy pairs rather than sampled.

    A first pass counts both players' restricted strategies and raises
    ``Infeasible`` at the first node whose subtree alone has more pairs
    than the cap.  Counts never shrink going up the tree, so it refuses
    exactly when the count at the root would, and no table is built for
    a refused tree.  A second pass builds the table by the same rule."""
    _fold(tree, lambda node: (1, 1), _count_pairs)
    rows = _fold(tree, lambda node: [[node]], _join_tables)
    return NormalForm(tree, rows, list(zip(*rows)), frozenset().union(*rows))


def brute_force_oracle(game: Game) -> Player:
    """Winner by literal evaluation over all restricted strategy pairs of
    the game's normal form; refused above ``PAIR_CAP`` pairs."""
    return normal_form(game.tree).winner(game)


@dataclass(frozen=True)
class WrappedGame:
    """A game under the wrapped outcome, as a game graph: an in-tree node
    short of the decision depth moves to its successors or off the tree by
    its off-tree label; every other node ends the play for ``outcome_psi``."""

    game: Game
    initial = ()

    def mover(self, node: Seq) -> Player:
        return mover_at(len(node))

    def transitions(self, node: Seq) -> tuple[tuple[int, Seq], ...]:
        tree = self.game.tree
        if node not in tree or len(node) >= self.game.decision_depth:
            return ()
        exit_move = realize_exit(tree, node)
        moves = [(child[-1], child) for child in tree.children(node)]
        return (*moves, (exit_move, node + (exit_move,)))

    def winner(self, node: Seq) -> Player:
        return outcome_psi(self.game.tree, self.game.payoff, node)

    def certifies(self, strategy: RegularStrategy) -> bool:
        """Does a quotiented regular strategy win every opponent line?
        Only on-path responses matter, so this covers every opponent."""
        return counterplay(self, strategy.owner, strategy.move_at) is None


def quotient_capped(tree: FiniteTree) -> FiniteTree:
    """``tree``, refused past ``PAIR_CAP`` pairs of the strategies ``def3_winner`` tries."""
    pairs = quotient_count(tree, Player.I) * quotient_count(tree, Player.II)
    if pairs > PAIR_CAP:
        raise Infeasible(f"{pairs} quotient pairs exceed the cap of {PAIR_CAP}")
    return tree


def def3_winner(game: Game) -> Player:
    """Winner under the wrapped-outcome semantics, by brute force over
    quotiented regular strategies.  Both players' searches are run and
    must disagree on exactly one winner."""
    tree = quotient_capped(game.tree)
    view = WrappedGame(game)
    one_wins = any(map(view.certifies, enumerate_regular_quotient(tree, Player.I)))
    two_wins = any(map(view.certifies, enumerate_regular_quotient(tree, Player.II)))
    if one_wins == two_wins:
        raise SolverError("quotient search found no unique winner")
    return Player.I if one_wins else Player.II


@dataclass(frozen=True)
class Def34Report:
    regular_winner: Player
    restricted_winner: Player

    @property
    def agree(self) -> bool:
        return self.regular_winner is self.restricted_winner


def check_def3_def4(game: Game) -> Def34Report:
    """Compare the two determinacy readings on one game: regular
    strategies scored by the wrapped outcome versus restricted
    strategies scored literally."""
    return Def34Report(def3_winner(game), brute_force_oracle(game))
