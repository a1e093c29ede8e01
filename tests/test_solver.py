import itertools
import re

import pytest
from hypothesis import given

from bcgames.embedding import build_rho, pull_back_strategy, push_game
from bcgames.lab import SplitMix64, game_for, random_payoffs
from bcgames.payoff import ClopenAntichain
from bcgames.players import Player, mover_at
from bcgames.solver import (
    PAIR_CAP,
    Game,
    Infeasible,
    SolverError,
    UndecidedGame,
    WrappedGame,
    brute_force_oracle,
    check_def3_def4,
    def3_winner,
    exit_game,
    normal_form,
    solve,
    verify_winning,
)
from bcgames.strategy import (
    enumerate_regular_quotient,
    quotient_count,
    validate_restricted,
)
from bcgames.payoff import outcome_psi
from bcgames.trees import enumerate_trees, validate_tree
from oracles import (
    count_restricted,
    decided_prefix,
    horizon,
    oracle_by_pairs,
    product_regular,
    relabel,
    restricted_to_regular,
    retrograde,
    solve_by_retrograde,
    sparse_trees,
    wins_by_recursion,
)

CORPUS_5 = list(enumerate_trees(5))


def small_games(max_size=5, payoffs=4, depth=3, seed=11):
    for index, tree in enumerate(enumerate_trees(max_size)):
        for payoff in random_payoffs(tree, payoffs, seed + index, depth):
            yield game_for(tree, payoff)


def test_solve_pure_exit_examples():
    g = exit_game(validate_tree([(), (1,), (2,), (1, 3)]))
    assert solve(g).winner is Player.I
    assert solve(exit_game(validate_tree([(), (1,)]))).winner is Player.I
    assert solve(exit_game(validate_tree([()]))).winner is Player.II


def test_solve_payoff_example():
    full2 = validate_tree([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)])
    pay = ClopenAntichain((((0,), Player.I),), Player.II)
    result = solve(Game(full2, pay, 1))
    assert result.winner is Player.I
    assert (0,) in result.strategy.nodes


def test_solve_result_contract():
    g = exit_game(validate_tree([(), (1,), (2,), (1, 3)]))
    result = solve(g)
    values, _ = retrograde(g)
    assert values[()] is result.winner
    assert result.explored == len(values)
    validate_restricted(g.tree, result.strategy.nodes, result.winner)
    assert verify_winning(g, result.strategy) is None


def test_undecided_game_rejected():
    pay = ClopenAntichain((((1, 1), Player.I),), Player.II)
    with pytest.raises(UndecidedGame):
        Game(validate_tree([(), (1,), (1, 1)]), pay, 1)


def test_verify_winning_counterplay():
    tree = validate_tree([(), (1,), (2,), (1, 3)])
    g = exit_game(tree)
    losing = validate_restricted(tree, [(), (1,), (1, 3)], Player.I)
    assert verify_winning(g, losing) == (1, 3)
    root_only = validate_restricted(validate_tree([()]), [()], Player.II)
    assert verify_winning(exit_game(validate_tree([()])), root_only) is None


def test_oracle_examples():
    assert brute_force_oracle(exit_game(validate_tree([(), (1,), (2,)]))) is Player.I
    full1 = validate_tree([(), (0,), (1,)])
    assert brute_force_oracle(Game(full1, ClopenAntichain((), Player.II), 0)) is Player.II


def test_oracle_infeasible_cap():
    # the complete depth-6 {0,1} tree is past the cap for both routes
    tree = validate_tree([node for n in range(7) for node in itertools.product((0, 1), repeat=n)])
    assert len(tree) == 127
    restricted = count_restricted(tree, Player.I) * count_restricted(tree, Player.II)
    quotient = quotient_count(tree, Player.I) * quotient_count(tree, Player.II)
    assert restricted == 2_097_152 and quotient > 10**30
    assert PAIR_CAP < restricted < quotient
    with pytest.raises(
        Infeasible,
        match=f"^{restricted} strategy pairs in the subtree at \\(\\) exceed the cap of {PAIR_CAP}$",
    ):
        brute_force_oracle(exit_game(tree))
    with pytest.raises(Infeasible, match=f"^{quotient} quotient pairs exceed the cap of {PAIR_CAP}$"):
        def3_winner(exit_game(tree))


def test_game_winner_scores_plays_past_the_decision_depth():
    # a restricted strategy pair may end below the decision depth, where
    # the payoff still decides
    full2 = validate_tree([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)])
    game = Game(full2, ClopenAntichain((((0,), Player.I), ((1,), Player.II)), Player.II), 1)
    assert [game.winner(node) for node in [(0,), (0, 1), (1, 0)]] == [Player.I, Player.I, Player.II]
    assert exit_game(validate_tree([(), (1,)])).winner((1,)) is Player.I  # II is forced out


def test_solver_agrees_with_oracle_on_small_corpus():
    for game in small_games():
        assert solve(game).winner is brute_force_oracle(game)


def test_oracle_matches_pair_loop():
    # the play table gives the winner the pair-by-pair intersection gives,
    # and one normal form per tree scores every game on that tree
    for index, tree in enumerate(enumerate_trees(7)):
        form = normal_form(tree)
        payoffs = random_payoffs(tree, 5, 60 + index, 4)
        for game in [exit_game(tree), *(game_for(tree, p) for p in payoffs)]:
            assert brute_force_oracle(game) is oracle_by_pairs(game)
            assert form.winner(game) is brute_force_oracle(game)


def complete_tree(depth, base=()):
    return [base + node for n in range(depth + 1) for node in itertools.product((0, 1), repeat=n)]


def refuses(tree):
    try:
        normal_form(tree)
    except Infeasible:
        return True
    return False


def test_oracle_refuses_exactly_above_the_cap():
    # the capped count refuses iff the product of the two full counts
    # passes the cap
    for tree in enumerate_trees(7):
        pairs = count_restricted(tree, Player.I) * count_restricted(tree, Player.II)
        assert refuses(tree) is (pairs > PAIR_CAP)


@given(sparse_trees())
def test_oracle_refuses_exactly_above_the_cap_on_sparse_labels(nodes):
    tree = validate_tree(nodes)
    pairs = count_restricted(tree, Player.I) * count_restricted(tree, Player.II)
    assert refuses(tree) is (pairs > PAIR_CAP)


def test_oracle_cap_boundaries():
    depth5 = validate_tree(complete_tree(5))
    assert count_restricted(depth5, Player.I) * count_restricted(depth5, Player.II) == 8192
    form = normal_form(depth5)
    assert len(form.rows) * len(form.columns) == 8192
    game = exit_game(depth5)
    assert form.winner(game) is solve(game).winner
    depth6 = validate_tree(complete_tree(6))
    with pytest.raises(Infeasible, match=r"^2097152 strategy pairs in the subtree at \(\) "):
        normal_form(depth6)
    # the first subtree past the cap is refused, however far below the root
    tip = (1,) * 2000
    tall = validate_tree([tip[:i] for i in range(len(tip))] + complete_tree(6, tip))
    with pytest.raises(Infeasible, match=f" in the subtree at {re.escape(repr(tip))} exceed"):
        brute_force_oracle(exit_game(tall))


def test_normal_form_refuses_a_game_on_another_tree():
    form = normal_form(validate_tree([(), (1,), (2,)]))
    assert form.winner(exit_game(validate_tree([(), (1,), (2,)]))) is Player.I
    with pytest.raises(SolverError, match="another tree"):
        form.winner(exit_game(validate_tree([(), (1,)])))


def test_def34_examples():
    assert check_def3_def4(exit_game(validate_tree([()]))).agree
    assert check_def3_def4(exit_game(validate_tree([(), (1,)]))).agree


def test_def34_small_corpus():
    for game in small_games(max_size=4, payoffs=3):
        report = check_def3_def4(game)
        assert report.agree
        assert report.restricted_winner is solve(game).winner


def test_determinacy_and_values_monotone():
    for game in small_games(max_size=5, payoffs=3, seed=23):
        result = solve(game)
        assert result.winner in (Player.I, Player.II)
        values, _ = retrograde(game)
        assert values[()] is result.winner
        for node, value in values.items():
            if len(node) == game.decision_depth:
                continue
            kids = game.tree.children(node)
            mover = mover_at(len(node))
            if not kids:
                assert value is mover.other
            else:
                child_values = [values[c] for c in kids]
                expected = mover if mover in child_values else mover.other
                assert value is expected


def test_exit_parity_flips_with_dummy_ply():
    for tree in enumerate_trees(6):
        winner = solve(exit_game(tree)).winner
        padded = validate_tree([()] + [(1,) + n for n in tree.nodes])
        assert solve(exit_game(padded)).winner is winner.other


def test_def3_matches_literal_pair_products():
    # a second, fully literal route: enumerate both assignment spaces and
    # score every single pair with the wrapped outcome on the settled play
    for game in small_games(max_size=3, payoffs=3, seed=41):
        sigmas = list(enumerate_regular_quotient(game.tree, Player.I))
        taus = list(enumerate_regular_quotient(game.tree, Player.II))

        def psi_wins(sigma, tau, player):
            play = product_regular(sigma, tau, horizon(game), tree=game.tree)
            settled = decided_prefix(game, play)
            return outcome_psi(game.tree, game.payoff, settled) is player

        one = any(all(psi_wins(s, t, Player.I) for t in taus) for s in sigmas)
        two = any(all(psi_wins(s, t, Player.II) for s in sigmas) for t in taus)
        assert one != two
        literal = Player.I if one else Player.II
        assert def3_winner(game) is literal


def test_def3_certificate_matches_recursive_walk():
    # the shared certificate walk on the wrapped game graph gives the
    # recursive walk's verdict on every quotient strategy of both owners
    verdicts = set()
    for tree in enumerate_trees(4):
        games = [exit_game(tree)] + [game_for(tree, p) for p in random_payoffs(tree, 3, 7, 3)]
        for game in games:
            view = WrappedGame(game)
            for owner in (Player.I, Player.II):
                for strat in enumerate_regular_quotient(tree, owner):
                    verdict = view.certifies(strat)
                    assert verdict is wins_by_recursion(game, strat, owner)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def test_def3_route_on_every_tree_to_size_8():
    # past the def34 suite's size 5: every option the quotient lists short
    # of the decision depth is a move of the wrapped game, and the def3,
    # solve and restricted brute-force routes name one winner
    games = 0
    for index, tree in enumerate(enumerate_trees(8)):
        options = {
            option
            for owner in (Player.I, Player.II)
            for strat in enumerate_regular_quotient(tree, owner)
            for option in strat.moves.items()
        }
        for game in _games_with_payoffs(tree, 3, index):
            view = WrappedGame(game)
            for position, move in options:
                if len(position) < game.decision_depth:
                    assert move in dict(view.transitions(position)), (position, move)
            assert def3_winner(game) is solve(game).winner is brute_force_oracle(game)
            games += 1
    assert games == 864


def test_conversion_soundness_small():
    # a winning restricted strategy, made regular, still beats every
    # quotiented opponent under the wrapped outcome
    for game in small_games(max_size=4, payoffs=2, seed=5):
        result = solve(game)
        regular = restricted_to_regular(result.strategy)
        owner = result.winner
        opponent_owner = owner.other
        plies = horizon(game)
        for opponent in enumerate_regular_quotient(game.tree, opponent_owner):
            sigma, tau = (regular, opponent) if owner is Player.I else (opponent, regular)
            play = product_regular(sigma, tau, plies, tree=game.tree)
            settled = decided_prefix(game, play)
            assert outcome_psi(game.tree, game.payoff, settled) is owner


def test_tall_path_solves_certifies_and_embeds():
    # Taller than the default recursion limit: every route here walks
    # with an explicit stack.
    height = 2000
    tree = validate_tree([(1,) * i for i in range(height + 1)])
    game = exit_game(tree)
    result = solve(game)
    assert result.winner is Player.II  # player I moves at the leaf and is forced out
    assert result.explored == height + 1
    assert verify_winning(game, result.strategy) is None
    assert brute_force_oracle(game) is result.winner
    rho = build_rho(tree)
    image = solve(push_game(rho, game))
    assert image.winner is result.winner
    pulled = pull_back_strategy(rho, image.strategy)
    assert pulled.nodes == result.strategy.nodes
    assert verify_winning(game, pulled) is None


def _games_with_payoffs(tree, count, seed, depth=4):
    return [exit_game(tree)] + [game_for(tree, p) for p in random_payoffs(tree, count, seed, depth)]


def test_cutoff_solve_equals_the_full_walk():
    # The campaign's oracle corpus: every tree of at most nine nodes, 20
    # payoffs each, drawn as the oracle suite draws them at seed 1.
    games = [
        game_for(tree, payoff)
        for index, tree in enumerate(enumerate_trees(9))
        for payoff in random_payoffs(tree, 20, 1 + index, depth=4)
    ]
    assert len(games) == 10_780
    # Tall shapes: the 2,000-tall path and a comb, a spine with a leaf at
    # every level, on either side of the spine.
    path = validate_tree([(1,) * i for i in range(2001)])
    spine = [(1,) * i for i in range(301)]
    for leaf in (0, 2):
        comb = validate_tree(spine + [node + (leaf,) for node in spine[:-1]])
        games += _games_with_payoffs(comb, 3, 17 + leaf, depth=12)
    games += _games_with_payoffs(path, 3, 13, depth=12)
    # Complete trees under sparse labels, then the same labels made large.
    rng = SplitMix64(29)
    for depth in range(1, 9):
        sparse = relabel(validate_tree(complete_tree(depth)), rng)
        large = validate_tree([tuple(10**20 + label for label in node) for node in sparse.nodes])
        for tree in (sparse, large):
            games += _games_with_payoffs(tree, 4, 31 + depth, depth=depth + 1)
    for game in games:
        assert solve(game) == solve_by_retrograde(game)


def test_cutoff_solve_skips_what_a_won_move_decides(monkeypatch):
    expanded = []
    transitions = Game.transitions

    def counting(game, node):
        expanded.append(node)
        return transitions(game, node)

    monkeypatch.setattr(Game, "transitions", counting)
    # I wins at the root by moving to (1,), where II is forced out; nothing
    # under (2,) can change that.
    tree = validate_tree([(), (1,), (2,), (2, 1), (2, 2), (2, 1, 1)])
    result = solve(exit_game(tree))
    assert result.winner is Player.I
    assert expanded == [(), (1,)]
    assert result.explored == len(tree)
    expanded.clear()
    game = exit_game(validate_tree(complete_tree(10)))
    result = solve(game)
    assert result.explored == 2**11 - 1
    assert len(set(expanded)) == len(expanded) < result.explored
    assert verify_winning(game, result.strategy) is None
