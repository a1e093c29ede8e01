"""Order-preserving embedding of a binary choice tree into the {0,1} tree.

Each node maps to the word of left/right turns that reaches it: the
leftmost (or lone) successor appends 0, the other successor appends 1.
The image is again a binary choice tree of the same shape, payoff
entries transport through the node bijection, and a winning strategy on
the image pulls back to a winning strategy on the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .payoff import ClopenAntichain
from .solver import Game
from .strategy import RestrictedStrategy
from .trees import FiniteTree, Seq


class EmbeddingError(Exception):
    pass


@dataclass(frozen=True)
class RhoMap:
    source: FiniteTree
    forward: Mapping[Seq, Seq]
    inverse: Mapping[Seq, Seq]
    range_tree: FiniteTree

    def __call__(self, node: Seq) -> Seq:
        return self.forward[node]


def build_rho(tree: FiniteTree) -> RhoMap:
    """Length- and order-preserving bijection onto a {0,1}-labelled tree."""
    forward: dict[Seq, Seq] = {(): ()}
    for node in tree.sorted_nodes:
        image = forward[node]
        for i, child in enumerate(tree.children(node)):
            forward[child] = image + (i,)
    inverse = {image: node for node, image in forward.items()}
    range_tree = FiniteTree(frozenset(forward.values()))
    return RhoMap(tree, forward, inverse, range_tree)


def push_payoff(rho: RhoMap, payoff: ClopenAntichain) -> ClopenAntichain:
    """Transport each entry prefix through the embedding; the default and
    the exit penalty semantics carry over unchanged.  An entry that is not
    a node of the source tree is dropped: no in-tree play can reach it."""
    entries = tuple(
        (rho.forward[prefix], winner) for prefix, winner in payoff.entries if prefix in rho.forward
    )
    return ClopenAntichain(entries, payoff.default)


def push_game(rho: RhoMap, game: Game) -> Game:
    if game.tree != rho.source:
        raise EmbeddingError("game tree does not match the embedding's source")
    return Game(rho.range_tree, push_payoff(rho, game.payoff), game.decision_depth)


def pull_back_strategy(rho: RhoMap, strategy: RestrictedStrategy) -> RestrictedStrategy:
    """Preimage of a strategy on the range tree, node by node."""
    try:
        nodes = frozenset(rho.inverse[n] for n in strategy.nodes)
    except KeyError as exc:
        raise EmbeddingError(f"strategy node {exc.args[0]!r} is outside the range tree") from None
    return RestrictedStrategy(strategy.owner, nodes)
