import itertools
from dataclasses import dataclass

import pytest

from bcgames import reduction
from bcgames.lab import SplitMix64
from bcgames.players import Player, mover_at
from bcgames.reduction import (
    BranchReport,
    IllegalPosition,
    NotTerminal,
    ReductionError,
    ReductionGame,
    ScanStats,
    StrategyNotWinning,
    ZeroLabeledTree,
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
from bcgames.solver import counterplay, induction, solve_graph
from bcgames.strategy import RegularStrategy
from bcgames.trees import enumerate_trees, subtree, validate_tree
from oracles import (
    FullReductionGame,
    SeqReductionGame,
    apply_rules,
    claim_traces_by_full_walk,
    deepest_branch,
    encode_build_moves,
    height_policy_answers,
    materialize_game_tree,
    phase2_pins,
    quotient_state,
    realizable_by_pinning,
    recode,
    relabel,
    retrograde,
    scan_by_walk,
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


def comb(length):
    """A spine on the larger label with a one-node tooth on the smaller
    one below every inner spine node."""
    spine = [tuple([2] * i) for i in range(length + 1)]
    return validate_tree(spine + [node + (1,) for node in spine[:-1]])


def complete(depth, seed):
    """The complete binary tree of the given depth with labels seeded by
    ``relabel``."""
    nodes = [node for n in range(depth + 1) for node in itertools.product((0, 1), repeat=n)]
    return relabel(validate_tree(nodes), SplitMix64(seed))


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


def test_mover_and_winner_refuse_the_other_kind_of_state():
    game = build_reduction_game(T_FORK)
    terminal = next(st for st in retrograde(game)[0] if st.phase == 5)
    with pytest.raises(NotTerminal):
        game.mover(terminal)
    with pytest.raises(NotTerminal):
        game.winner(game.initial)


def test_state_rules_match_textual_rules():
    # every terminal of every small game agrees with the rule chain
    for tree in ZERO_FREE_5:
        game = build_reduction_game(tree)
        stack = [(game.initial, ())]
        while stack:
            st, pos = stack.pop()
            if not game.transitions(st):
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
            if not game.transitions(st):
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
    bad = RegularStrategy(Player.II, result.strategy.moves | phase2_pins(T_PATH2, (), 0))
    with pytest.raises(StrategyNotWinning):
        extract_branch(T_PATH2, bad)
    # a policy that answers off the tree, or not at all
    moves = result.strategy.moves
    entry = reduction._phase2_entry(0)  # t = (), the root, whose preorder id is 0
    off_tree = RegularStrategy(Player.II, {**moves, entry: 5})
    with pytest.raises(StrategyNotWinning, match=r"illegal answer 5 after t=\(\)"):
        extract_branch(T_PATH2, off_tree)
    silent = RegularStrategy(Player.II, {st: m for st, m in moves.items() if st != entry})
    with pytest.raises(StrategyNotWinning, match=r"no answer recorded after t=\(\)"):
        extract_branch(T_PATH2, silent)


def test_certificate_walk_reports_an_owner_state_without_a_legal_move():
    # the README example tree; the policy loses its answer at t = (),
    # which player I reaches by ending phase 1 at once
    tree = validate_tree([(), (1,), (1, 3), (2,)])
    moves = dict(solve_reduction(tree).strategy.moves)
    del moves[reduction._phase2_entry(0)]  # t = (), the root
    policy = RegularStrategy(Player.II, moves)
    assert verify_winning_policy(build_reduction_game(tree), policy) == [1]


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
                for state in phase2_pins(tree, node, answer):
                    assert state in reachable


def test_claim_traces_match_pinned_re_solve(monkeypatch):
    expanded = []
    transitions = ReductionGame.transitions

    def counting(game, st):
        expanded.append(st)
        return transitions(game, st)

    for tree in ZERO_FREE_6:
        pinned = list(realizable_by_pinning(tree))
        with monkeypatch.context() as patch:
            patch.setattr(ReductionGame, "transitions", counting)
            del expanded[:]
            traces = list(realizable_claim_traces(tree))
        assert traces == pinned
        # one memoized search serves every node: no state is expanded twice
        assert expanded and len(set(expanded)) == len(expanded)


def assert_matches_full_walk(game, result):
    """The first-win search against the walk that evaluates every
    reachable state; returns how many of those states it left out."""
    values, policy = retrograde(game)
    memo = {}
    assert induction(game, game.initial, memo, {}) is result.winner is values[game.initial]
    assert list(result.strategy.moves.items()) == list(policy.items())
    assert all(values[st] is value for st, value in memo.items())
    assert result.explored == len(memo) <= len(values)
    return len(values) - len(memo)


def test_first_win_search_matches_the_full_walk():
    rng = SplitMix64(0x4E18)
    trees = list(enumerate_trees(8, zero_free=True))
    trees += [relabel(shape, rng) for shape in enumerate_trees(8)]
    trees += [tall_tree(24), tall_tree(60), comb(16), comb(40)]
    skipped = [
        assert_matches_full_walk(ReductionGame(tree), solve_reduction(tree)) for tree in trees
    ]
    assert any(skipped)
    for tree in ZERO_FREE_7:
        game = FullReductionGame(tree)
        assert_matches_full_walk(game, solve_graph(game))


def test_id_states_match_the_sequence_game():
    # the library's states hold preorder ids where the reference's hold
    # node tuples; mapped back through the preorder they are the same game
    rng = SplitMix64(0x4E20)
    shapes = list(enumerate_trees(8))
    assert len(shapes) == 216
    trees = list(enumerate_trees(8, zero_free=True))
    trees += [relabel(shape, rng) for shape in shapes]
    trees += [tall_tree(24), tall_tree(60), comb(16), comb(40)]
    for tree in trees:
        game, reference = build_reduction_game(tree), SeqReductionGame(tree)
        result, expected = solve_reduction(tree), solve_graph(reference)
        assert (result.winner, result.explored) == (expected.winner, expected.explored)
        assert scan_positions(game) == scan_positions(reference)
        moves = result.strategy.moves.items()
        policy = [(recode(tree, st, to_ids=False), move) for st, move in moves]
        assert policy == list(expected.strategy.moves.items())
        assert verify_winning_policy(game, result.strategy) is None
        assert verify_winning_policy(reference, expected.strategy) is None


def test_first_win_search_skips_states_on_a_comb():
    assert solve_reduction(comb(16)).explored == 1950
    assert len(retrograde(ReductionGame(comb(16)))[0]) == 4003


def test_claim_traces_match_the_full_walk():
    rng = SplitMix64(0x4E19)
    for shape in ZERO_FREE_7:
        tree = relabel(shape, rng)
        assert list(realizable_claim_traces(tree)) == list(claim_traces_by_full_walk(tree))


def test_cardinality_bound_examples():
    report = BranchReport((1, 1), 2)
    assert check_cardinality_bound(T_PATH2, report) is True
    assert report == BranchReport((1, 1), 2)  # the check reads the report only
    assert check_cardinality_bound(T_PATH2, BranchReport((1,), 1)) is False
    assert check_cardinality_bound(T_ROOT, BranchReport((), 0))
    with pytest.raises(ReductionError, match="no fail index"):
        check_cardinality_bound(T_PATH2, BranchReport((1, 1), None))


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


def test_quotient_gives_every_full_state_its_value():
    # the full game keeps both phase-4 lengths; each of its states, mapped
    # to the deficit it stands for, is a state of the quotient worth the same
    merged = 0
    for tree in ZERO_FREE_7:
        full, _ = retrograde(FullReductionGame(tree))
        quotient, _ = retrograde(ReductionGame(tree))
        assert {quotient_state(tree, st) for st in full} == set(quotient)
        for st, value in full.items():
            assert quotient[quotient_state(tree, st)] is value
        merged += len(full) - len(quotient)
    assert merged


def test_quotient_policy_certified_on_full_game():
    for tree in ZERO_FREE_7:
        policy = solve_reduction(tree).strategy
        lifted = counterplay(
            FullReductionGame(tree), policy.owner, lambda st: policy.moves.get(quotient_state(tree, st))
        )
        assert lifted is None


def test_scan_over_states_matches_position_walk():
    for tree in ZERO_FREE_7:
        assert scan_positions(ReductionGame(tree)) == scan_by_walk(FullReductionGame(tree))


def test_decode_grows_u_prime_with_the_current_node():
    # in phase 4 the node being navigated is t + u, at every position
    for tree in ZERO_FREE_5:
        game = build_reduction_game(tree)
        stack = [(game.initial, ())]
        while stack:
            st, pos = stack.pop()
            if st.phase == 4 and st.cur is not None:
                transcript = decode(game, pos)
                u_node = recode(tree, st, to_ids=False).cur
                assert transcript.t + (transcript.u0,) + transcript.u_prime == u_node
            stack.extend((nxt, pos + (mv,)) for mv, nxt in game.transitions(st))


@dataclass(frozen=True)
class FlippedMover(ReductionGame):
    """The reduction game with the mover swapped at one state."""

    flipped: object = None

    def mover(self, st):
        who = super().mover(st)
        return who.other if st == self.flipped else who


def test_scan_rejects_a_flipped_mover():
    tree = T_PATH2
    phase4 = [st for st in retrograde(ReductionGame(tree))[0] if st.phase == 4]
    assert phase4
    for st in phase4:
        game = FlippedMover(tree, st)
        with pytest.raises(ReductionError, match="mover parity"):
            scan_positions(game)
        with pytest.raises(ReductionError, match="mover parity"):
            scan_by_walk(game)


class Diamond:
    """a -> b -> end and a -> end: the end state is met at plies 1 and 2."""

    initial = "a"
    edges = {"a": ((0, "b"), (1, "end")), "b": ((0, "end"),)}

    def transitions(self, st):
        return self.edges.get(st, ())

    def mover(self, st):
        return Player.I if st == "a" else Player.II


def test_scan_rejects_a_state_met_at_both_parities():
    # the walk checks movers only, so it lets a terminal at both parities by
    with pytest.raises(ReductionError, match="both ply parities"):
        scan_positions(Diamond())
    assert scan_by_walk(Diamond()) == ScanStats(4, 2, 2)


def test_deepest_branch_examples():
    assert deepest_branch(T_ROOT) == ()
    assert deepest_branch(T_FORK) == (1,)
    assert deepest_branch(validate_tree([(), (1,), (2,), (2, 5)])) == (2, 5)
    assert deepest_branch(tall_tree(5)) == (1,) * 5
    assert deepest_branch(comb(4)) == (2, 2, 2, 1)


def assert_extracts_deepest_branch(tree):
    result = solve_reduction(tree)
    report = extract_branch(tree, result.strategy)
    assert (report.f, report.fail_index) == (deepest_branch(tree), tree.height)
    return result


def test_extract_branch_is_the_leftmost_deepest_branch():
    rng = SplitMix64(0x4E16)
    for tree in enumerate_trees(8, zero_free=True):
        assert_extracts_deepest_branch(tree)
    for shape in ZERO_FREE_7:
        assert_extracts_deepest_branch(relabel(shape, rng))


@pytest.mark.parametrize(
    "tree",
    [tall_tree(60), comb(60), complete(6, 0xC6), complete(7, 0xC7)],
    ids=["path-decoy-60", "comb-60", "complete-6", "complete-7"],
)
def test_tall_trees_extract_the_deepest_branch(tree):
    result = assert_extracts_deepest_branch(tree)
    assert verify_winning_policy(build_reduction_game(tree), result.strategy) is None


def test_realizable_claim_traces_are_the_deepest_leaves():
    total = 0
    for tree in ZERO_FREE_6:
        realized = {node for node, ok in realizable_claim_traces(tree) if ok}
        assert realized == {node for node in tree if len(node) == tree.height}
        total += len(realized)
    assert total == 54


def test_phase3_entry_values_follow_the_heights():
    # II wins from the entry to phase 3 iff the height oracle lists u0
    rng = SplitMix64(0x4E17)
    corpora = [ZERO_FREE_7, [relabel(shape, rng) for shape in enumerate_trees(6)]]
    for corpus, expected in zip(corpora, (1017, 354)):
        entries = 0
        for tree in corpus:
            answers = height_policy_answers(tree)
            values, _ = retrograde(build_reduction_game(tree))
            for st, won in values.items():
                if st == reduction._phase3_entry(st.t, st.u0):
                    t = recode(tree, st, to_ids=False).t
                    assert (won is Player.II) == (st.u0 in answers[t]), (tree, st)
                    entries += 1
        assert entries == expected


def test_answering_a_shallower_child_loses():
    # a policy total over player II's states, winning wherever II can;
    # pinning one answer keeps it winning iff the answer is height-maximal
    checked = 0
    for tree in ZERO_FREE_6:
        game = build_reduction_game(tree)
        values, _ = retrograde(game)
        total = {}
        for st in values:
            if game.transitions(st) and game.mover(st) is Player.II:
                trans = game.transitions(st)
                total[st] = next((m for m, n in trans if values[n] is Player.II), trans[0][0])
        assert verify_winning_policy(game, RegularStrategy(Player.II, total)) is None
        for node in tree:
            kids = tree.children(node)
            if len(kids) < 2:
                continue
            tallest = max(subtree(tree, kid).height for kid in kids)
            for kid in kids:
                pinned = RegularStrategy(Player.II, total | phase2_pins(tree, node, kid[-1]))
                play = verify_winning_policy(game, pinned)
                if subtree(tree, kid).height == tallest:
                    assert play is None
                else:
                    checked += 1
                    assert terminal_winner(game, tuple(play)) is Player.I
    assert checked
