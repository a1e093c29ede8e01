"""Reference routes that only the tests use.

Each one restates a rule of the library in the most literal way
available, so the tests can compare the library's fast paths against
it: the exit rule read two ways, the settling prefix of a play, the
four terminal rules of the reduction game applied to decoded pieces, a
play scored move by move, and the reduction game's positions as an
explicit tree.
"""

from __future__ import annotations

from bcgames.players import Player, mover_at
from bcgames.reduction import NotTerminal, ReductionError, ReductionGame
from bcgames.solver import Game, UndecidedGame, step
from bcgames.trees import FiniteTree, Seq


def exit_win_existential(tree: FiniteTree, x: Seq, player: Player) -> bool:
    """Some prefix is a first exit whose offender is the opponent."""
    opponent = player.other
    for n in range(1, len(x) + 1):
        if x[:n] not in tree and x[: n - 1] in tree and mover_at(n - 1) is opponent:
            return True
    return False


def exit_win_universal(tree: FiniteTree, x: Seq, player: Player) -> bool:
    """Every out-of-tree prefix is explained by an opponent first exit at
    or before it.  Agrees with the existential form on transcripts that
    have left the tree; vacuously true on ones that never do."""
    opponent = player.other
    for n in range(1, len(x) + 1):
        if x[:n] in tree:
            continue
        if not any(
            x[:m] not in tree and x[: m - 1] in tree and mover_at(m - 1) is opponent
            for m in range(1, n + 1)
        ):
            return False
    return True


def decided_prefix(game: Game, play: Seq) -> Seq:
    """Shortest prefix of a play at which this game is settled: the first
    step out of the tree, or the in-tree prefix at the decision depth."""
    for k in range(len(play) + 1):
        prefix = play[:k]
        if prefix not in game.tree:
            return prefix
        if k == game.decision_depth:
            return prefix
    raise UndecidedGame(f"play of length {len(play)} never settles")


def apply_rules(tree: FiniteTree, t: Seq, u0: int, v: Seq, u_prime: Seq) -> tuple[Player, str]:
    """The four terminal rules, applied in order to decoded pieces."""
    if t + v not in tree:
        return Player.II, "rule1"
    if len(v) == 0 or v[0] == u0:
        return Player.II, "rule2"
    u = (u0,) + u_prime
    if t + u not in tree:
        return Player.I, "rule3"
    return (Player.II, "rule4") if len(v) <= len(u) else (Player.I, "rule4")


def terminal_outcome(game: ReductionGame, play: Seq) -> tuple[Player, str]:
    """Winner of a finished play plus the rule that fired.

    A move with no legal counterpart, including any move made after the
    end of the game, loses for its mover on the spot.
    """
    st = game.initial
    for ply, move in enumerate(play):
        if game.is_terminal(st):
            return mover_at(ply).other, "exit"
        nxt = step(game, st, move)
        if nxt is None:
            return game.mover(st).other, "exit"
        st = nxt
    if not game.is_terminal(st):
        raise NotTerminal(f"play of length {len(play)} ends mid-game")
    return st.winner, st.rule


def terminal_winner(game: ReductionGame, play: Seq) -> Player:
    return terminal_outcome(game, play)[0]


def encode_build_moves(game: ReductionGame, target: Seq) -> list[int]:
    """Move list realizing phase 1 for ``target``, ending on the signal:
    per element, extend, a forced idle, name the leftmost label, a forced
    idle, confirm it or swap in the rightmost label, a forced idle."""
    tree = game.source
    st = game.initial
    moves: list[int] = []

    def push(move: int) -> None:
        nonlocal st
        nxt = step(game, st, move)
        if nxt is None:
            raise ReductionError(f"move {move} is illegal in state {st!r}")
        moves.append(move)
        st = nxt

    for element in target:
        push(0)
        push(0)
        kids = tree.children(st.cur)
        push(kids[0][-1])
        push(0)
        kids = tree.children(st.cur)
        if element == kids[0][-1]:
            push(0)
        elif len(kids) == 2 and element == kids[1][-1]:
            push(element)
        else:
            raise ReductionError(f"{element!r} does not label a successor of {st.cur!r}")
        push(0)
    push(1)
    return moves


def materialize_game_tree(game: ReductionGame) -> FiniteTree:
    """All legal positions as an explicit tree; small sources only."""
    nodes: list[Seq] = []
    stack = [(game.initial, ())]
    while stack:
        st, pos = stack.pop()
        nodes.append(pos)
        for mv, nxt in game.transitions(st):
            stack.append((nxt, pos + (mv,)))
    return FiniteTree(frozenset(nodes))
