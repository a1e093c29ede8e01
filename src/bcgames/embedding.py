"""Order-preserving embedding of a binary choice tree into the {0,1} tree.

Each node maps to the word of left/right turns that reaches it: the
leftmost (or lone) successor appends 0, the other successor appends 1.
The image is again a binary choice tree of the same shape, payoff
entries transport through the node bijection, and a winning strategy on
the image pulls back to a winning strategy on the source.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import le

from .payoff import ClopenAntichain
from .solver import Game
from .strategy import RestrictedStrategy
from .trees import FiniteTree, Seq, lay_out


class EmbeddingError(Exception):
    pass


def _position(order: tuple[Seq, ...], node: Seq) -> int:
    """The index of ``node`` in the sorted ``order``; KeyError if absent."""
    i = bisect_left(order, node)
    if i == len(order) or order[i] != node:
        raise KeyError(node)
    return i


@dataclass(frozen=True)
class RhoMap:
    """The embedding of ``source`` onto ``range_tree``: a node and its image
    hold the same preorder position, so lookups go through it."""

    source: FiniteTree
    range_tree: FiniteTree

    def __call__(self, node: Seq) -> Seq:
        return self.range_tree.sorted_nodes[_position(self.source.sorted_nodes, node)]

    @cached_property
    def forward(self) -> dict[Seq, Seq]:
        return dict(zip(self.source.sorted_nodes, self.range_tree.sorted_nodes))

    @cached_property
    def inverse(self) -> dict[Seq, Seq]:
        return dict(zip(self.range_tree.sorted_nodes, self.source.sorted_nodes))


def build_rho(tree: FiniteTree) -> RhoMap:
    """Length- and order-preserving bijection onto a {0,1}-labelled tree:
    a node's image is its parent's image plus its place among siblings."""
    depths = list(map(len, tree.sorted_nodes))
    # In preorder a node is a second successor iff it is no deeper than
    # the node before it, which then lies in its sibling's subtree.
    steps = zip(depths[1:], map(int, map(le, depths[1:], depths)))
    return RhoMap(tree, lay_out(steps, tree.depth_counts))


def push_payoff(rho: RhoMap, payoff: ClopenAntichain) -> ClopenAntichain:
    """Transport each entry prefix through the embedding; the default and
    the exit penalty semantics carry over unchanged.  An entry that is not
    a node of the source tree is dropped: no in-tree play can reach it."""
    order, image = rho.source.sorted_nodes, rho.range_tree.sorted_nodes
    entries, i = [], 0
    for prefix, winner in payoff.entries:  # sorted: each bisect starts where the last landed
        i = bisect_left(order, prefix, i)
        if i < len(order) and order[i] == prefix:
            entries.append((image[i], winner))
    return ClopenAntichain(tuple(entries), payoff.default)


def push_game(rho: RhoMap, game: Game) -> Game:
    if game.tree != rho.source:
        raise EmbeddingError("game tree does not match the embedding's source")
    return Game(rho.range_tree, push_payoff(rho, game.payoff), game.decision_depth)


def pull_back_strategy(rho: RhoMap, strategy: RestrictedStrategy) -> RestrictedStrategy:
    """Preimage of a strategy on the range tree, node by node."""
    source, image = rho.source.sorted_nodes, rho.range_tree.sorted_nodes
    try:
        nodes = frozenset(source[_position(image, n)] for n in strategy.nodes)
    except KeyError as exc:
        raise EmbeddingError(f"strategy node {exc.args[0]!r} is outside the range tree") from None
    return RestrictedStrategy(strategy.owner, nodes)
