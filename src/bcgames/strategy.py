"""Strategies over binary choice game trees.

Two formalisms live here.  A regular strategy is a function from
positions where its owner moves to a move, with an optional default;
the reduction game's policies are regular strategies over its abstract
states.  A restricted strategy is a subtree of the game tree that keeps
exactly one successor wherever its owner moves and every successor
wherever the opponent moves.  Nodes without successors are strategy
leaves for either player: the mover there has no in-tree option and
will be the one forced out.

Regular strategies over all of the naturals are quotiented to a finite
alphabet per position: the in-tree successor labels plus one off-tree
label, one more than the largest in-tree successor label, or 0 at
positions with no in-tree successor.  All off-tree moves lose
identically for the mover, so the quotient never changes an outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from .players import Player, mover_at, parse_player
from .trees import FiniteTree, MissingPrefix, NodeNotInTree, Seq, format_preorder
from .trees import parse_node_lines, read_header


class StrategyError(Exception):
    """Base class for strategy violations."""


class UndefinedAt(StrategyError):
    def __init__(self, position: Seq):
        self.position = position
        super().__init__(f"strategy undefined at position {position!r}")


class NotExactlyOne(StrategyError):
    def __init__(self, node: Seq):
        self.node = node
        super().__init__(f"owner node {node!r} does not select exactly one successor")


class MissingOpponentOption(StrategyError):
    def __init__(self, node: Seq):
        self.node = node
        super().__init__(f"opponent node {node!r} drops an in-tree successor")


class StrategySyntaxError(StrategyError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def realize_exit(tree: FiniteTree, position: Seq) -> int:
    """The quotient's one off-tree label at a position."""
    if position not in tree:
        return 0
    kids = tree.children(position)
    return kids[-1][-1] + 1 if kids else 0


@dataclass(frozen=True)
class RegularStrategy:
    """A positional strategy: explicit moves plus an optional default."""

    owner: Player
    moves: Mapping[Hashable, int]
    default: int | None = None

    def move_at(self, position: Hashable) -> int:
        if position in self.moves:
            return self.moves[position]
        if self.default is None:
            raise UndefinedAt(position)
        return self.default


@dataclass(frozen=True)
class RestrictedStrategy:
    """A strategy as a subtree; must be prefix closed and contain the root."""

    owner: Player
    nodes: frozenset[Seq]

    def __post_init__(self) -> None:
        nodes = self.nodes
        if () not in nodes:
            raise StrategyError("a restricted strategy must contain the empty sequence")
        orphans = [node for node in nodes if node and node[:-1] not in nodes]
        if orphans:
            raise MissingPrefix(min(orphans))


def validate_restricted(
    tree: FiniteTree, candidate: Iterable[Seq], owner: Player
) -> RestrictedStrategy:
    """Check the two defining clauses over the given game tree.

    Wherever the owner moves and the tree offers successors, exactly one
    must be kept; wherever the opponent moves, all in-tree successors
    must be kept.  Nodes the tree gives no successor are leaves for
    either player.
    """
    nodes = frozenset(tuple(n) for n in candidate)
    strays = nodes - tree.nodes
    if strays:
        raise NodeNotInTree(min(strays))
    strategy = RestrictedStrategy(owner, nodes)
    # Preorder, leftmost first, is sorted order: the least failing node raises.
    stack: list[Seq] = [()]
    while stack:
        node = stack.pop()
        in_tree = tree.children(node)
        kept = [c for c in in_tree if c in nodes]
        if mover_at(len(node)) is owner:
            if in_tree and len(kept) != 1:
                raise NotExactlyOne(node)
        elif len(kept) != len(in_tree):
            raise MissingOpponentOption(node)
        stack.extend(reversed(kept))
    return strategy


def quotient_positions(tree: FiniteTree, owner: Player) -> tuple[Seq, ...]:
    return tuple(n for n in tree.sorted_nodes if mover_at(len(n)) is owner)


def quotient_count(tree: FiniteTree, owner: Player) -> int:
    total = 1
    for node in quotient_positions(tree, owner):
        total *= len(tree.children(node)) + 1
    return total


def enumerate_regular_quotient(tree: FiniteTree, owner: Player) -> Iterator[RegularStrategy]:
    """All quotiented regular strategies: per in-tree position where the
    owner moves, a successor label or the off-tree label, and by default
    0, the label ``realize_exit`` gives every position off the tree."""
    positions = quotient_positions(tree, owner)
    options = [[c[-1] for c in tree.children(p)] + [realize_exit(tree, p)] for p in positions]
    for combo in itertools.product(*options):
        yield RegularStrategy(owner, dict(zip(positions, combo)), default=0)


STRATEGY_HEADER = "strategy v1"


def serialize_strategy(strategy: RestrictedStrategy) -> str:
    """Canonical text form mirroring the tree format; the root is implicit."""
    header = f"{STRATEGY_HEADER} owner={strategy.owner.value}"
    return "\n".join([header, *format_preorder(sorted(strategy.nodes))]) + "\n"


def parse_strategy(text: str) -> RestrictedStrategy:
    lines = text.splitlines()
    try:
        owner = parse_player(read_header(lines, STRATEGY_HEADER, "owner", StrategySyntaxError))
    except ValueError as exc:
        raise StrategySyntaxError(1, str(exc)) from None
    return RestrictedStrategy(owner, parse_node_lines(lines, StrategySyntaxError))
