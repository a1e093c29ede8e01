import pytest

from bcgames.players import Player, mover_at
from bcgames.reduction import (
    BranchReport,
    IllegalPosition,
    NotTerminal,
    ReductionGame,
    StrategyNotWinning,
    ZeroLabeledTree,
    _phase2_pins,
    build_reduction_game,
    check_cardinality_bound,
    decode,
    extract_branch,
    horizon_bound,
    principal_play,
    realizable_claim_traces,
    scan_positions,
    solve_reduction,
    verify_winning_policy,
)
from bcgames.solver import retrograde
from bcgames.trees import enumerate_trees, validate_tree
from oracles import (
    apply_rules,
    encode_build_moves,
    materialize_game_tree,
    terminal_outcome,
    terminal_winner,
)

T_ROOT = validate_tree([()])
T_FORK = validate_tree([(), (1,), (2,)])
T_PATH2 = validate_tree([(), (1,), (1, 1)])
ZERO_FREE_5 = list(enumerate_trees(5, zero_free=True))
ZERO_FREE_6 = list(enumerate_trees(6, zero_free=True))
ZERO_FREE_7 = list(enumerate_trees(7, zero_free=True))


def tall_tree(length, decoy=True):
    nodes = [()] + [tuple([1] * i) for i in range(1, length + 1)]
    if decoy:
        nodes.append((2,))
    return validate_tree(nodes)


def test_rejects_zero_labelled_tree():
    with pytest.raises(ZeroLabeledTree):
        build_reduction_game(validate_tree([(), (0,)]))


def test_root_tree_has_single_line_to_rule2():
    game = build_reduction_game(T_ROOT)
    assert [m for m, _ in game.transitions(game.initial)] == [1]
    result = solve_reduction(T_ROOT)
    assert result.winner is Player.II
    play = principal_play(game, result)
    transcript = decode(game, tuple(play))
    assert transcript.t == () and transcript.u0 == 0 and transcript.v == ()
    assert transcript.rule == "rule2"
    assert terminal_outcome(game, tuple(play)) == (Player.II, "rule2")


def test_gadget_micro_moves_on_fork():
    game = build_reduction_game(T_FORK)
    st = game.initial
    # ctrl offers extend and end
    assert [m for m, _ in game.transitions(st)] == [0, 1]
    st = dict(game.transitions(st))[0]
    st = game.transitions(st)[0][1]  # forced idle
    # micro move A offers only the leftmost label
    assert [m for m, _ in game.transitions(st)] == [1]
    st = game.transitions(st)[0][1]
    st = game.transitions(st)[0][1]  # forced idle
    # micro move B offers confirm or the rightmost label
    assert [m for m, _ in game.transitions(st)] == [0, 2]


def test_decode_examples():
    game = build_reduction_game(T_FORK)
    fragment = decode(game, (1, 0))
    assert fragment.t == () and fragment.phase == 2

    fragment = decode(game, (0, 0, 1, 0, 0, 0))
    assert fragment.t == (1,) and fragment.phase == 1

    with pytest.raises(IllegalPosition) as err:
        decode(game, (0, 0, 7))
    assert err.value.ply == 2


def test_decode_encode_round_trip():
    for tree in ZERO_FREE_5:
        game = build_reduction_game(tree)
        for target in tree:
            moves = encode_build_moves(game, target)
            fragment = decode(game, tuple(moves))
            assert fragment.t == target
            assert fragment.phase == 2


def test_terminal_rules_examples():
    assert apply_rules(validate_tree([(), (1,)]), (), 0, (1,), ()) == (Player.I, "rule3")
    assert apply_rules(T_FORK, (), 1, (2,), ()) == (Player.II, "rule4")
    assert apply_rules(T_FORK, (), 1, (2, 9), ()) == (Player.II, "rule1")
    assert apply_rules(T_FORK, (), 1, (1,), ()) == (Player.II, "rule2")


def test_terminal_winner_on_offender():
    game = build_reduction_game(T_FORK)
    # player I plays an illegal 7 at the opening control turn and loses
    assert terminal_winner(game, (7,)) is Player.II
    # player II fails to idle with 0 and loses
    assert terminal_winner(game, (0, 5)) is Player.I
    with pytest.raises(NotTerminal):
        terminal_winner(game, (0, 0))


def test_state_rules_match_textual_rules():
    # every terminal of every small game agrees with the rule chain
    for tree in ZERO_FREE_5:
        game = build_reduction_game(tree)
        stack = [(game.initial, ())]
        while stack:
            st, pos = stack.pop()
            if game.is_terminal(st):
                transcript = decode(game, pos)
                expected = apply_rules(
                    tree, transcript.t, transcript.u0, transcript.v, transcript.u_prime
                )
                assert (st.winner, st.rule) == expected
                continue
            for mv, nxt in game.transitions(st):
                stack.append((nxt, pos + (mv,)))


def test_reduction_second_player_wins_small():
    for tree in ZERO_FREE_7:
        result = solve_reduction(tree)
        assert result.winner is Player.II
        game = build_reduction_game(tree)
        assert verify_winning_policy(game, result.strategy) is None


def test_binary_choice_and_horizon_small():
    for tree in ZERO_FREE_7[:40]:
        game = build_reduction_game(tree)
        stats = scan_positions(game)
        assert stats.max_moves <= 2
        assert stats.max_length <= horizon_bound(tree)


def test_game_tree_materializes_as_binary_choice_tree():
    for tree in ZERO_FREE_5:
        game = build_reduction_game(tree)
        concrete = materialize_game_tree(game)
        for node in concrete:
            assert len(concrete.children(node)) <= 2


def test_concrete_exit_game_matches_abstract_solution():
    # independent route: materialize all legal positions, play the pure
    # exit game where stalling at a terminal makes the mover leave, with
    # the terminal loser given one extra forced move when needed
    for tree in ZERO_FREE_5:
        game = build_reduction_game(tree)
        abstract = solve_reduction(tree).winner

        def value(st, depth):
            if game.is_terminal(st):
                return game.winner(st)
            mover = mover_at(depth)
            vals = [value(nxt, depth + 1) for _, nxt in game.transitions(st)]
            return mover if mover in vals else mover.other

        assert value(game.initial, 0) is abstract


def test_extract_branch_examples():
    result = solve_reduction(T_PATH2)
    report = extract_branch(T_PATH2, result.strategy)
    assert report.f == (1, 1) and report.fail_index == 2

    chain = validate_tree([(), (1,)])
    report = extract_branch(chain, solve_reduction(chain).strategy)
    assert report.f == (1,) and report.fail_index == 1

    tall = tall_tree(12)
    report = extract_branch(tall, solve_reduction(tall).strategy)
    assert report.f == tuple([1] * 12) and report.fail_index == 12


def test_extract_branch_rejects_losing_policy():
    # a policy that claims immediately at the root is not winning on a
    # tree whose root has a successor
    result = solve_reduction(T_PATH2)
    bad = dict(result.strategy.moves)
    bad.update(_phase2_pins(T_PATH2, (), 0))
    result.strategy.moves = bad
    with pytest.raises(StrategyNotWinning):
        extract_branch(T_PATH2, result.strategy)


def test_branch_prefixes_satisfy_theta():
    for tree in ZERO_FREE_7:
        report = extract_branch(tree, solve_reduction(tree).strategy)
        assert report.fail_index is not None
        for n in range(report.fail_index):
            prefix = report.f[:n]
            assert prefix in tree and tree.children(prefix)
        assert not tree.children(report.f)


def test_phase2_pins_name_reachable_states():
    # a pin on a state the game never reaches would silently pin nothing
    for tree in ZERO_FREE_6:
        reachable = retrograde(ReductionGame(tree))[0]
        for node in tree:
            for answer in [0] + [kid[-1] for kid in tree.children(node)]:
                for state in _phase2_pins(tree, node, answer):
                    assert state in reachable


def test_cardinality_bound_examples():
    report = BranchReport((1, 1), 2)
    assert check_cardinality_bound(T_PATH2, report) and report.bound_holds
    assert check_cardinality_bound(T_ROOT, BranchReport((), 0))


def test_cardinality_bound_all_winning_policies_small():
    for tree in ZERO_FREE_5:
        seen_realizable = False
        for node, realizable in realizable_claim_traces(tree):
            if not realizable:
                continue
            seen_realizable = True
            assert not tree.children(node)
            assert check_cardinality_bound(tree, BranchReport(node, len(node)))
        assert seen_realizable


def test_early_claims_are_never_realizable():
    for tree in ZERO_FREE_5:
        for node, realizable in realizable_claim_traces(tree):
            if tree.children(node):
                assert not realizable


def test_horizon_formula():
    assert horizon_bound(T_ROOT) == 20
    for tree in ZERO_FREE_5:
        assert horizon_bound(tree) == 4 * (tree.height + 1) * 3 + 8
