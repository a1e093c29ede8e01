import pytest
from hypothesis import given, strategies as st

from bcgames.payoff import (
    ClopenAntichain,
    DiffPayoff,
    OverlappingEntries,
    PayoffError,
    PayoffSyntaxError,
    PrefixTooShort,
    UndecidedTranscript,
    compile_diff,
    eval_diff,
    first_exit,
    outcome_psi,
    parse_payoff,
    serialize_diff,
    serialize_payoff,
)
from bcgames.players import Player
from bcgames.trees import enumerate_trees, validate_tree
from oracles import (
    decide_by_scan,
    exit_win_existential,
    exit_win_universal,
    first_overlap,
    messy_text,
)

T_CHAIN = validate_tree([(), (1,)])
CORPUS_5 = list(enumerate_trees(5))


def test_first_exit_examples():
    ev = first_exit(T_CHAIN, (1, 5))
    assert (ev.exit_length, ev.offender) == (2, Player.II)
    ev = first_exit(T_CHAIN, (7,))
    assert (ev.exit_length, ev.offender) == (1, Player.I)
    assert first_exit(validate_tree([(), (1,), (1, 3)]), (1, 3)) is None


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=6), st.sampled_from(CORPUS_5))
def test_exit_exclusivity(moves, tree):
    # at most one first exit, with a unique parity
    x = tuple(moves)
    ev = first_exit(tree, x)
    if ev is not None:
        assert x[: ev.exit_length] not in tree
        assert x[: ev.exit_length - 1] in tree
        # everything before the exit is inside the tree
        for n in range(ev.exit_length):
            assert x[:n] in tree


def test_eval_diff_examples():
    diff = DiffPayoff((frozenset({(1,)}), frozenset({(1, 2)})))
    assert eval_diff(diff, (1, 2)) is False
    assert eval_diff(diff, (1, 1)) is True
    assert eval_diff(diff, (2, 2)) is False
    with pytest.raises(PrefixTooShort):
        eval_diff(diff, (1,))


@given(
    st.lists(
        st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=0, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(0, 2), min_size=0, max_size=4),
)
def test_eval_diff_stable_under_extension(levels, suffix):
    diff = DiffPayoff(tuple(frozenset(map(tuple, gens)) for gens in levels))
    base = tuple(range(diff.decision_depth))
    verdict = eval_diff(diff, base)
    assert eval_diff(diff, base + tuple(suffix)) == verdict


def test_outcome_psi_examples():
    pay = ClopenAntichain((), Player.II)
    assert outcome_psi(T_CHAIN, pay, (7, 0, 0)) is Player.II  # player I exited
    assert outcome_psi(T_CHAIN, pay, (1, 5, 0)) is Player.I  # player II exited
    full2 = validate_tree([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)])
    pay2 = ClopenAntichain((((0,), Player.I),), Player.II)
    assert outcome_psi(full2, pay2, (0, 1)) is Player.I
    with pytest.raises(UndecidedTranscript):
        outcome_psi(full2, pay2, ())


@given(st.sampled_from(CORPUS_5), st.lists(st.integers(0, 2), min_size=0, max_size=8))
def test_psi_truth_table(tree, moves):
    # with an exit the offender loses regardless of the payoff;
    # with no exit the payoff decides
    x = tuple(moves)
    for default in (Player.I, Player.II):
        pay = ClopenAntichain((), default)
        ev = first_exit(tree, x)
        if ev is not None:
            assert outcome_psi(tree, pay, x) is ev.offender.other
        else:
            assert outcome_psi(tree, pay, x) is default


@given(st.sampled_from(CORPUS_5), st.lists(st.integers(0, 2), min_size=0, max_size=8))
def test_dual_exit_renderings_agree_once_exited(tree, moves):
    x = tuple(moves)
    # pad until the transcript has certainly left the tree
    x = x + tuple(9 for _ in range(tree.height + 1))
    for player in (Player.I, Player.II):
        assert exit_win_existential(tree, x, player) == exit_win_universal(tree, x, player)


def test_dual_renderings_differ_only_before_exit():
    # vacuous universal reading on a transcript still inside the tree
    tree = validate_tree([(), (1,), (1, 1)])
    assert exit_win_universal(tree, (1,), Player.I)
    assert not exit_win_existential(tree, (1,), Player.I)


def test_antichain_rejects_overlap():
    with pytest.raises(OverlappingEntries):
        ClopenAntichain((((1,), Player.I), ((1, 2), Player.II)), Player.I)
    # a repeated prefix overlaps itself, whichever winners the two name
    with pytest.raises(OverlappingEntries) as err:
        ClopenAntichain((((1,), Player.I), ((1,), Player.II)), Player.I)
    assert str(err.value) == str(OverlappingEntries((1,), (1,)))


def test_antichain_decide():
    pay = ClopenAntichain((((0,), Player.I), ((1, 0), Player.II)), Player.I)
    assert pay.decision_depth == 2
    assert pay.decide((0, 5)) is Player.I
    assert pay.decide((1,)) is None
    assert pay.decide((1, 1)) is Player.I  # default at depth
    assert pay.decide((1, 0)) is Player.II


PREFIXES = st.lists(st.integers(0, 2), max_size=4).map(tuple)
PLAYERS = st.sampled_from(Player)


@given(st.lists(st.tuples(PREFIXES, PLAYERS), max_size=8), PLAYERS)
def test_antichain_overlap_check_matches_pairwise_oracle(entries, default):
    entries = tuple(entries)
    overlap = first_overlap(entries)
    if overlap is None:
        ClopenAntichain(entries, default)
        return
    with pytest.raises(OverlappingEntries) as err:
        ClopenAntichain(entries, default)
    assert str(err.value) == str(OverlappingEntries(*overlap))


@given(st.dictionaries(PREFIXES, PLAYERS, max_size=8), PLAYERS, st.data())
def test_antichain_decide_matches_linear_scan(winners, default, data):
    # keep the entries no other entry extends, which leaves an antichain
    entries = tuple(
        (p, w) for p, w in winners.items() if not any(q != p and q[: len(p)] == p for q in winners)
    )
    pay = ClopenAntichain(entries, default)
    suffix = data.draw(st.lists(st.integers(0, 2), max_size=6).map(tuple))
    start = data.draw(st.sampled_from([()] + [p for p, _ in entries]))
    for prefix in (suffix, start + suffix):
        assert pay.decide(prefix) is decide_by_scan(entries, default, prefix)


def test_compile_diff_matches_eval():
    diff = DiffPayoff((frozenset({(1,)}), frozenset({(1, 2)})))
    for tree in CORPUS_5:
        compiled = compile_diff(diff, tree)
        for node in tree:
            if len(node) == diff.decision_depth:
                want = Player.I if eval_diff(diff, node) else Player.II
                assert compiled.decide(node) is want


def test_payoff_codec_round_trip():
    pay = ClopenAntichain((((1, 3), Player.I), ((2,), Player.II)), Player.II)
    text = serialize_payoff(pay)
    assert parse_payoff(text) == pay
    assert serialize_payoff(parse_payoff(text)) == text


def test_diff_codec_round_trip():
    diff = DiffPayoff((frozenset({(1,), (2, 2)}), frozenset({(1, 2)})))
    text = serialize_diff(diff)
    assert parse_payoff(text) == diff


SPARSE = st.lists(st.integers(1, 999), max_size=4).map(tuple)


def write(node) -> str:
    return " ".join(map(str, node))


@given(st.lists(SPARSE, max_size=6), st.data())
def test_clopen_codec_canonical_from_messy_text(prefixes, data):
    # in sorted order a prefix comes before its extensions, so keeping
    # each prefix that extends no kept one leaves an antichain
    kept: list = []
    for p in sorted(set(prefixes)):
        if not any(p[: len(q)] == q for q in kept):
            kept.append(p)
    entries = tuple((p, data.draw(PLAYERS)) for p in kept)
    default = data.draw(PLAYERS)
    lines = [f"{w.value}: {write(p)}".rstrip() for p, w in entries] + [f"default: {default.value}"]
    canonical = "\n".join(["payoff clopen v1", *lines]) + "\n"
    parsed = parse_payoff(data.draw(messy_text("payoff clopen v1", lines)))
    assert parsed == ClopenAntichain(entries, default)
    assert serialize_payoff(parsed) == canonical
    assert parse_payoff(canonical) == parsed


@given(st.lists(st.frozensets(SPARSE, max_size=5), min_size=1, max_size=3), st.data())
def test_diff_codec_canonical_from_messy_text(levels, data):
    header = f"payoff diff v1 k={len(levels)}"
    blocks = [
        (f"level {i}:", [write(g) or "()" for g in sorted(gens)]) for i, gens in enumerate(levels, 1)
    ]
    body = [line for head, lines in blocks for line in [head, *lines]]
    canonical = "\n".join([header, *body]) + "\n"
    messy = header + "\n" + "".join(data.draw(messy_text(head, lines)) for head, lines in blocks)
    parsed = parse_payoff(messy)
    assert parsed == DiffPayoff(tuple(levels))
    assert serialize_diff(parsed) == canonical
    assert parse_payoff(canonical) == parsed


def test_diff_codec_keeps_the_empty_generator():
    # the empty generator makes every play a member
    diff = DiffPayoff((frozenset({()}),))
    text = serialize_diff(diff)
    assert text == "payoff diff v1 k=1\nlevel 1:\n()\n"
    assert eval_diff(diff, ()) is True
    assert parse_payoff(text) == diff
    assert eval_diff(parse_payoff(text), ()) is True


def test_payoff_codec_errors():
    with pytest.raises(PayoffSyntaxError):
        parse_payoff("payoff clopen v1\nI: 1\n")  # missing default
    with pytest.raises(PayoffSyntaxError):
        parse_payoff("payoff clopen v1\nIII: 1\ndefault: I\n")
    with pytest.raises(PayoffSyntaxError):
        parse_payoff("payoff diff v1 k=2\nlevel 1:\n1 2\n")  # level count mismatch
    with pytest.raises(PayoffSyntaxError):
        parse_payoff("")
    for text, message in [
        ("payoff clopen v1\nI 1\ndefault: I\n", "line 2: expected 'I:'"),
        ("payoff clopen v1\ndefault: I\ndefault: II\n", "line 3: duplicate default"),
        ("payoff clopen v1\nI: 1\nII: 1\ndefault: I\n", r"line 3: duplicate entry \(1,\)"),
        ("payoff diff v1 k=one\nlevel 1:\n", "line 1: bad level count"),
        ("payoff diff v1 k=1\nlevel 2:\n", "line 2: expected 'level 1:'"),
        ("payoff diff v1 k=1\n1\nlevel 1:\n", "line 2: generator line before"),
        ("payoff diff v1 k=1\nlevel 1:\n1\n1\n", r"line 4: duplicate generator \(1,\)"),
        ("payoff diff v1 k=1\nlevel 1:\n()\n()\n", r"line 4: duplicate generator \(\)"),
        ("payoff diff v1 k=1\nlevel1\n1\n", "line 2: expected 'level 1:'"),
        ("payoff diff v1 k=1\nlevel 1\n1\n", "line 2: expected 'level 1:'"),
    ]:
        with pytest.raises(PayoffSyntaxError, match=message):
            parse_payoff(text)
    with pytest.raises(PayoffError, match="at least one level"):
        DiffPayoff(())
