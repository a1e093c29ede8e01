import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bcgames.lab import SplitMix64
from bcgames.players import Player, mover_at
from bcgames.solver import normal_form
from bcgames.strategy import (
    MissingOpponentOption,
    NotExactlyOne,
    RegularStrategy,
    RestrictedStrategy,
    StrategyError,
    UndefinedAt,
    enumerate_regular_quotient,
    parse_strategy,
    quotient_count,
    realize_exit,
    serialize_strategy,
    validate_restricted,
)
from bcgames.trees import MissingPrefix, TreeError, enumerate_trees, validate_tree
from oracles import (
    EXIT,
    NotAPath,
    count_restricted,
    enumerate_restricted,
    messy_text,
    node_sets,
    product_by_walk,
    product_regular,
    product_restricted,
    relabel,
    restricted_to_regular,
    sparse_trees,
    validate_restricted_by_sorting,
)

T_FORK = validate_tree([(), (1,), (2,)])
CORPUS_6 = list(enumerate_trees(6))


def test_product_regular_constants():
    sigma = RegularStrategy(Player.I, {}, default=1)
    tau = RegularStrategy(Player.II, {}, default=2)
    assert product_regular(sigma, tau, 4) == (1, 2, 1, 2)


def test_product_regular_positional():
    sigma = RegularStrategy(Player.I, {(): 5, (5, 0): 5})
    tau = RegularStrategy(Player.II, {(5,): 0})
    assert product_regular(sigma, tau, 3) == (5, 0, 5)
    with pytest.raises(UndefinedAt):
        product_regular(sigma, tau, 5)


def test_product_regular_exit_realization():
    tree = validate_tree([(), (1,)])
    sigma = RegularStrategy(Player.I, {(): EXIT}, default=0)
    tau = RegularStrategy(Player.II, {}, default=0)
    play = product_regular(sigma, tau, 2, tree=tree)
    assert play[0] == 2  # one past the largest successor label
    assert realize_exit(tree, ()) == 2
    assert realize_exit(tree, (1,)) == 0  # no successors
    assert realize_exit(validate_tree([(), (0,), (1,)]), ()) == 2


def test_validate_restricted_examples():
    ok = validate_restricted(T_FORK, [(), (1,)], Player.I)
    assert ok.nodes == frozenset({(), (1,)})
    with pytest.raises(NotExactlyOne):
        validate_restricted(T_FORK, [(), (1,), (2,)], Player.I)
    with pytest.raises(MissingOpponentOption):
        validate_restricted(T_FORK, [(), (1,)], Player.II)
    # both of player II's nodes keep two successors: the least one is named
    full2 = validate_tree([(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)])
    with pytest.raises(NotExactlyOne) as err:
        validate_restricted(full2, full2.nodes, Player.II)
    assert err.value.node == (1,)


@settings(max_examples=300)
@given(st.sampled_from(CORPUS_6), st.sampled_from([Player.I, Player.II]), st.data())
def test_validate_restricted_matches_sorted_reference(tree, owner, data):
    # A valid strategy, or a drawn prefix-closed part of the tree in which
    # opponent nodes keep every successor and owner nodes each one with
    # odds 1 in 4, so that owner nodes fail in several subtrees at once.
    # Then drawn edits: dropping a node loses a successor and orphans what
    # lies below it (or drops the root), adding a tree node gives an owner
    # an extra successor or adds an orphan, and a drawn sequence may lie
    # off the tree.
    if data.draw(st.booleans()):
        nodes = set(data.draw(st.sampled_from(list(enumerate_restricted(tree, owner)))).nodes)
    else:
        nodes = {()}
        for node in tree.sorted_nodes[1:]:
            owner_kid = mover_at(len(node) - 1) is owner
            if node[:-1] in nodes and (not owner_kid or data.draw(st.integers(0, 3)) == 0):
                nodes.add(node)
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(["drop", "add", "stray"]))
        if edit == "drop" and nodes:
            nodes.discard(data.draw(st.sampled_from(sorted(nodes))))
        elif edit == "add":
            nodes.add(data.draw(st.sampled_from(tree.sorted_nodes)))
        elif edit == "stray":
            nodes.add(tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))))
    candidate = data.draw(st.permutations(sorted(nodes)))

    def outcome(validate):
        try:
            return validate(tree, candidate, owner).nodes
        except (StrategyError, TreeError) as exc:
            return type(exc), getattr(exc, "node", None), str(exc)

    assert outcome(validate_restricted) == outcome(validate_restricted_by_sorting)


def test_product_restricted_examples():
    sigma = validate_restricted(T_FORK, [(), (1,)], Player.I)
    tau = validate_restricted(T_FORK, [(), (1,), (2,)], Player.II)
    assert product_restricted(sigma, tau) == (1,)

    deep = validate_tree([(), (1,), (1, 3), (1, 4)])
    sigma = validate_restricted(deep, [(), (1,), (1, 3), (1, 4)], Player.I)
    tau = validate_restricted(deep, [(), (1,), (1, 4)], Player.II)
    assert product_restricted(sigma, tau) == (1, 4)

    root = validate_tree([()])
    assert product_restricted(
        RestrictedStrategy(Player.I, frozenset({()})),
        RestrictedStrategy(Player.II, frozenset({()})),
    ) == ()


def test_product_restricted_rejects_two_continuations():
    fork = frozenset({(), (1,), (2,)})
    with pytest.raises(NotAPath, match=r"two continuations below \(\)"):
        product_restricted(RestrictedStrategy(Player.I, fork), RestrictedStrategy(Player.II, fork))
    deep = frozenset({(), (1,), (1, 3), (1, 4)})
    with pytest.raises(NotAPath, match=r"two continuations below \(1,\)"):
        product_restricted(RestrictedStrategy(Player.II, deep), RestrictedStrategy(Player.I, deep))


def prefix_closure(nodes) -> frozenset:
    return frozenset(node[:i] for node in nodes for i in range(len(node) + 1))


@given(node_sets(), node_sets(), st.data())
def test_product_restricted_matches_index_walk(mine, theirs, data):
    # tau keeps a random part of sigma's nodes, so the shared nodes range
    # from the root alone to several forks at different depths
    kept = data.draw(st.lists(st.sampled_from([()] + mine)))
    sigma = RestrictedStrategy(Player.I, prefix_closure([()] + mine))
    tau = RestrictedStrategy(Player.II, prefix_closure([()] + theirs + kept))
    try:
        expected = product_by_walk(sigma, tau)
    except NotAPath as exc:
        with pytest.raises(NotAPath) as err:
            product_restricted(sigma, tau)
        assert str(err.value) == str(exc)
    else:
        assert product_restricted(sigma, tau) == expected


@given(node_sets())
def test_restricted_strategy_checks_root_then_least_orphan(nodes):
    node_set = frozenset(nodes)
    orphans = sorted(n for n in nodes if n and n[:-1] not in node_set)
    if () not in node_set:
        with pytest.raises(StrategyError) as err:
            RestrictedStrategy(Player.I, node_set)
        assert type(err.value) is StrategyError
    elif orphans:
        with pytest.raises(MissingPrefix) as err:
            RestrictedStrategy(Player.I, node_set)
        assert err.value.node == orphans[0]
    else:
        # no successor cap: a restricted strategy is checked against a tree
        # only by validate_restricted
        strategy = RestrictedStrategy(Player.I, node_set)
        moves = restricted_to_regular(strategy).moves
        for node in nodes:
            kids = [c for c in nodes if c and c[:-1] == node]
            if mover_at(len(node)) is Player.I and len(kids) == 1:
                assert moves[node] == kids[0][-1]
            else:
                assert node not in moves


def test_enumerate_restricted_examples():
    assert len(list(enumerate_restricted(T_FORK, Player.I))) == 2
    assert len(list(enumerate_restricted(T_FORK, Player.II))) == 1
    deep = validate_tree([(), (1,), (2,), (1, 1), (1, 2)])
    strategies = list(enumerate_restricted(deep, Player.II))
    assert len(strategies) == 2


def test_count_formula_against_enumeration():
    for tree in CORPUS_6:
        for owner in (Player.I, Player.II):
            strategies = list(enumerate_restricted(tree, owner))
            assert len(strategies) == count_restricted(tree, owner)
            # no duplicates
            assert len({s.nodes for s in strategies}) == len(strategies)


def test_enumerated_strategies_validate():
    for tree in CORPUS_6[:20]:
        for owner in (Player.I, Player.II):
            for s in enumerate_restricted(tree, owner):
                validate_restricted(tree, s.nodes, owner)


@given(st.sampled_from(CORPUS_6))
def test_intersection_is_path_and_matches_stepwise_play(tree):
    sigmas = list(enumerate_restricted(tree, Player.I))
    taus = list(enumerate_restricted(tree, Player.II))
    for sigma, tau in itertools.product(sigmas[:4], taus[:4]):
        endpoint = product_restricted(sigma, tau)
        # replay move by move: owner picks its unique choice each turn
        node = ()
        while True:
            strat = sigma if mover_at(len(node)) is Player.I else tau
            kept = [child for child in tree.children(node) if child in strat.nodes]
            if not kept:
                break
            assert len(kept) == 1
            node = kept[0]
        assert node == endpoint
        for n in range(len(endpoint) + 1):
            assert endpoint[:n] in sigma.nodes and endpoint[:n] in tau.nodes


def test_play_table_examples():
    assert normal_form(validate_tree([()])).rows == [[()]]
    # I picks a side: one row per choice, one column for II
    assert normal_form(T_FORK).rows == [[(1,)], [(2,)]]
    # II's two strategies answer (1,) with (1, 1) or (1, 2); I's row for
    # (2,) ends there against both
    deep = validate_tree([(), (1,), (2,), (1, 1), (1, 2)])
    assert normal_form(deep).rows == [[(1, 1), (1, 2)], [(2,), (2,)]]


def test_play_table_matches_pair_products():
    rng = SplitMix64(8)
    trees = list(enumerate_trees(7))
    trees += [relabel(tree, rng) for tree in enumerate_trees(6)]
    for tree in trees:
        sigmas = list(enumerate_restricted(tree, Player.I))
        taus = list(enumerate_restricted(tree, Player.II))
        assert normal_form(tree).rows == [[product_restricted(s, t) for t in taus] for s in sigmas]


def test_restricted_to_regular_examples():
    s = validate_restricted(T_FORK, [(), (1,)], Player.I)
    reg = restricted_to_regular(s)
    assert reg.move_at(()) == 1
    assert reg.move_at((2,)) == 0
    assert reg.move_at((17, 3)) == 0

    root_only = RestrictedStrategy(Player.II, frozenset({()}))
    reg2 = restricted_to_regular(root_only)
    assert reg2.move_at((5,)) == 0

    # rightmost everywhere on a depth-2 tree
    deep = validate_tree([(), (1,), (2,), (2, 1), (2, 2)])
    s3 = validate_restricted(deep, [(), (2,), (2, 1), (2, 2)], Player.I)
    assert restricted_to_regular(s3).move_at(()) == 2


def test_quotient_enumeration_size():
    for tree in CORPUS_6[:15]:
        for owner in (Player.I, Player.II):
            got = list(enumerate_regular_quotient(tree, owner))
            assert len(got) == quotient_count(tree, owner)


@given(sparse_trees(), st.sampled_from([Player.I, Player.II]), st.data())
def test_strategy_codec_canonical_from_messy_text(nodes, owner, data):
    header = f"strategy v1 owner={owner.value}"
    lines = [" ".join(map(str, node)) for node in sorted(nodes) if node]
    canonical = "\n".join([header, *lines]) + "\n"
    parsed = parse_strategy(data.draw(messy_text(header, lines)))
    assert (parsed.owner, parsed.nodes) == (owner, nodes)
    assert serialize_strategy(parsed) == canonical
    assert parse_strategy(canonical) == parsed


def test_strategy_codec_round_trip():
    s = validate_restricted(T_FORK, [(), (1,)], Player.I)
    text = serialize_strategy(s)
    back = parse_strategy(text)
    assert back.owner is Player.I and back.nodes == s.nodes
    assert serialize_strategy(back) == text
