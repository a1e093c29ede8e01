import pytest

from bcgames.embedding import EmbeddingError, build_rho, pull_back_strategy, push_game, push_payoff
from bcgames.lab import game_for, random_payoffs
from bcgames.payoff import ClopenAntichain
from bcgames.players import Player
from bcgames.solver import Game, exit_game, solve, verify_winning
from bcgames.strategy import RestrictedStrategy
from bcgames.trees import enumerate_trees, validate_tree

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
