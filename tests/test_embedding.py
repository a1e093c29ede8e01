import pytest

from bcgames.embedding import EmbeddingError, build_rho, pull_back_strategy, push_game, push_payoff
from bcgames.lab import SplitMix64, game_for, random_payoffs
from bcgames.payoff import ClopenAntichain
from bcgames.players import Player
from bcgames.solver import Game, exit_game, solve, verify_winning
from bcgames.strategy import RestrictedStrategy
from bcgames.trees import enumerate_trees, parse_tree, serialize_tree, validate_tree, zero_free_transform
from oracles import relabel, tree_fields

T = validate_tree([(), (1,), (2,), (1, 3)])


def test_build_rho_examples():
    rho = build_rho(T)
    assert rho((1,)) == (0,)
    assert rho((2,)) == (1,)
    assert rho((1, 3)) == (0, 0)
    assert build_rho(validate_tree([()])).forward == {(): ()}
    chain = build_rho(validate_tree([(), (5,), (5, 9)]))
    assert chain((5,)) == (0,) and chain((5, 9)) == (0, 0)


def test_rho_is_length_and_order_preserving_bijection():
    for tree in enumerate_trees(6):
        rho = build_rho(tree)
        assert len(rho.forward) == tree.size
        assert rho.range_tree.size == tree.size
        for node in tree:
            assert len(rho(node)) == len(node)
            assert rho.inverse[rho(node)] == node
            kids = tree.children(node)
            images = [rho(c) for c in kids]
            assert images == sorted(images)
        for image in rho.range_tree:
            assert rho(rho.inverse[image]) == image


def test_push_payoff_examples():
    rho = build_rho(T)
    pay = ClopenAntichain((((1, 3), Player.I),), Player.II)
    assert push_payoff(rho, pay).entries == (((0, 0), Player.I),)
    empty = ClopenAntichain((), Player.II)
    assert push_payoff(rho, empty) == empty
    assert push_payoff(rho, ClopenAntichain((((2,), Player.II),), Player.I)).entries == (
        ((1,), Player.II),
    )
    # an entry off the source tree is dropped: no in-tree play reaches it
    off_tree = ClopenAntichain((((9,), Player.I), ((1, 3), Player.II)), Player.I)
    assert push_payoff(rho, off_tree).entries == (((0, 0), Player.II),)
    game = Game(T, off_tree, 2)
    assert solve(game).winner is solve(push_game(rho, game)).winner


def test_pull_back_examples():
    rho = build_rho(T)
    s = RestrictedStrategy(Player.I, frozenset({(), (1,)}))
    assert pull_back_strategy(rho, s).nodes == frozenset({(), (2,)})

    # a {0,1} tree with leftmost 0 maps to itself
    binary = validate_tree([(), (0,), (1,)])
    rho_id = build_rho(binary)
    assert all(rho_id(n) == n for n in binary)


def test_embedding_refuses_a_foreign_game_or_strategy():
    rho = build_rho(T)
    with pytest.raises(EmbeddingError, match="source"):
        push_game(rho, exit_game(validate_tree([(), (1,)])))
    with pytest.raises(EmbeddingError, match="outside the range tree"):
        pull_back_strategy(rho, RestrictedStrategy(Player.I, frozenset({(), (5,)})))


def test_winner_preserved_and_pullback_certified():
    for index, tree in enumerate(enumerate_trees(6)):
        payoff = random_payoffs(tree, 2, 100 + index, depth=3)[0]
        game = game_for(tree, payoff)
        rho = build_rho(tree)
        pushed = push_game(rho, game)
        source = solve(game)
        image = solve(pushed)
        assert source.winner is image.winner
        pulled = pull_back_strategy(rho, image.strategy)
        assert verify_winning(game, pulled) is None


SHAPES_8 = list(enumerate_trees(8))
TALL_PATH = validate_tree([(7,) * i for i in range(2001)])


def laid_out_cases():
    rng = SplitMix64(0x4E1B)
    return [*SHAPES_8, *(relabel(shape, rng) for shape in SHAPES_8), TALL_PATH]


def image_by_positions(tree, node):
    """The word of sibling positions that reaches ``node``, read off the
    child index one prefix at a time."""
    return tuple(tree.children(node[:i]).index(node[: i + 1]) for i in range(len(node)))


def test_laid_out_trees_match_the_checked_constructor():
    for tree in laid_out_cases():
        rho = build_rho(tree)
        image = rho.range_tree
        assert tree_fields(image) == tree_fields(validate_tree(image.nodes))
        shifted = zero_free_transform(tree)
        assert shifted.nodes == {tuple(x + 1 for x in node) for node in tree.nodes}
        assert tree_fields(shifted) == tree_fields(validate_tree(shifted.nodes))
        if len(tree) <= 8:
            assert rho.forward == {node: image_by_positions(tree, node) for node in tree}
        assert rho.inverse == {v: k for k, v in rho.forward.items()}
        assert all(rho(node) == rho.forward[node] for node in tree)


def test_pull_back_matches_the_inverse_dict():
    rng = SplitMix64(0x4E1C)
    for tree in [*laid_out_cases()[::7], TALL_PATH]:
        rho = build_rho(tree)
        image = rho.range_tree.sorted_nodes
        picks = [{()} for _ in range(3)]
        for kept in picks:  # prefix closed: a node is drawn only below a kept one
            kept.update(n for n in image[1:] if n[:-1] in kept and rng.below(2))
        for nodes in [*map(frozenset, picks), solve(exit_game(rho.range_tree)).strategy.nodes]:
            pulled = pull_back_strategy(rho, RestrictedStrategy(Player.II, nodes))
            assert pulled.nodes == frozenset(rho.inverse[n] for n in nodes)
    # Nodes off the tree between two of its nodes in preorder, and past the last.
    rho = build_rho(T)
    with pytest.raises(KeyError):
        rho((1, 2))
    stray = RestrictedStrategy(Player.I, frozenset({(), (0,), (0, 1)}))
    for source in [T, TALL_PATH]:
        with pytest.raises(EmbeddingError, match=r"\(0, 1\) is outside"):
            pull_back_strategy(build_rho(source), stray)


def parsed(nodes):
    return parse_tree(serialize_tree(validate_tree(nodes)))


@pytest.mark.parametrize("build", [validate_tree, parsed])
def test_explored_counts_the_nodes_down_to_the_decision_depth(build):
    rng = SplitMix64(0x4E1D)
    for tree in [*laid_out_cases()[::5], TALL_PATH]:
        tree = build(tree.nodes)
        for t in (tree, build_rho(tree).range_tree, zero_free_transform(tree)):
            for depth in (0, t.height // 2, t.height, t.height + 3):
                game = Game(t, ClopenAntichain((), (Player.I, Player.II)[rng.below(2)]), depth)
                assert solve(game).explored == sum(len(n) <= depth for n in t.nodes)
