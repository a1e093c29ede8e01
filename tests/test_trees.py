import tracemalloc

import pytest
from hypothesis import given, strategies as st

from bcgames import trees
from bcgames.payoff import PayoffSyntaxError, parse_payoff
from bcgames.strategy import StrategySyntaxError, parse_strategy
from bcgames.trees import (
    FiniteTree,
    MissingPrefix,
    NodeNotInTree,
    TooManySuccessors,
    TreeError,
    TreeSyntaxError,
    child_index,
    enumerate_trees,
    format_node,
    format_preorder,
    is_zero_free,
    parse_node,
    parse_node_lines,
    parse_tree,
    serialize_tree,
    subtree,
    validate_tree,
    zero_free_transform,
)
from oracles import (
    check_tree_by_sorting,
    messy_text,
    node_sets,
    parse_node_by_parts,
    read_node_lines_by_line,
    sparse_trees,
    tree_fields,
)

CORPUS_6 = list(enumerate_trees(6))


def test_validate_single_root():
    tree = validate_tree([()])
    assert tree.nodes == frozenset({()})


def test_validate_three_successors():
    with pytest.raises(TooManySuccessors) as err:
        validate_tree([(), (1,), (2,), (3,)])
    assert err.value.node == ()


def test_validate_missing_prefix():
    with pytest.raises(MissingPrefix) as err:
        validate_tree([(), (1, 3)])
    assert err.value.node == (1, 3)


def test_successors_examples():
    tree = validate_tree([(), (1,), (2,)])
    assert tree.children(()) == ((1,), (2,))
    assert tree.children((1,)) == ()
    chain = validate_tree([(), (1,), (1, 3)])
    assert chain.children((1,)) == ((1, 3),)
    with pytest.raises(NodeNotInTree):
        tree.children((9,))


def test_subtree_examples():
    chain = validate_tree([(), (1,), (1, 3)])
    assert subtree(chain, (1,)).nodes == frozenset({(), (3,)})
    assert subtree(validate_tree([(), (1,)]), (1,)).nodes == frozenset({()})
    tree = validate_tree([(), (1,), (2,), (2, 1), (2, 2)])
    assert subtree(tree, (2,)).nodes == frozenset({(), (1,), (2,)})


def test_metrics_examples():
    def metrics(tree):
        return tree.size, tree.height

    assert metrics(validate_tree([()])) == (1, 0)
    assert metrics(validate_tree([(), (1,), (2,)])) == (3, 1)
    assert metrics(validate_tree([(), (1,), (1, 3)])) == (3, 2)


def test_zero_free_transform_examples():
    assert zero_free_transform(validate_tree([(), (0,), (1,)])).nodes == frozenset(
        {(), (1,), (2,)}
    )
    assert zero_free_transform(validate_tree([()])).nodes == frozenset({()})
    assert zero_free_transform(validate_tree([(), (0,), (0, 5)])).nodes == frozenset(
        {(), (1,), (1, 6)}
    )


@pytest.mark.parametrize("tree", CORPUS_6, ids=lambda t: str(sorted(t.nodes)))
def test_zero_free_preserves_shape(tree):
    shifted = zero_free_transform(tree)
    assert is_zero_free(shifted)
    assert (shifted.size, shifted.height) == (tree.size, tree.height)
    for node in tree:
        image = tuple(x + 1 for x in node)
        assert len(shifted.children(image)) == len(tree.children(node))


def test_enumerate_counts():
    # Unary-binary tree counts by node count: 1, 1, 2, 4, 9, 21, 51, 127, 323.
    per_size = [1, 1, 2, 4, 9, 21, 51, 127, 323]
    trees = list(enumerate_trees(9))
    assert len(trees) == sum(per_size)
    by_size = {}
    for t in trees:
        by_size[t.size] = by_size.get(t.size, 0) + 1
    assert [by_size[i] for i in range(1, 10)] == per_size


def test_enumerate_small_examples():
    assert [sorted(t.nodes) for t in enumerate_trees(1)] == [[()]]
    assert [sorted(t.nodes) for t in enumerate_trees(2, zero_free=True)] == [[()], [(), (1,)]]
    assert [sorted(t.nodes) for t in enumerate_trees(3, zero_free=True)] == [
        [()],
        [(), (1,)],
        [(), (1,), (1, 1)],
        [(), (1,), (2,)],
    ]


def test_enumerate_no_duplicates_and_valid():
    seen = set()
    for tree in enumerate_trees(7):
        assert tree.nodes not in seen
        seen.add(tree.nodes)
        for node in tree:
            assert len(tree.children(node)) <= 2


def test_codec_examples():
    assert parse_tree("tree v1\n1\n2\n1 3\n").nodes == frozenset({(), (1,), (2,), (1, 3)})
    assert serialize_tree(validate_tree([()])) == "tree v1\n"
    with pytest.raises(MissingPrefix):
        parse_tree("tree v1\n1 3\n")


def test_codec_rejects_bad_input():
    with pytest.raises(TreeSyntaxError):
        parse_tree("nope\n")
    with pytest.raises(TreeSyntaxError):
        parse_tree("tree v1\n1\n1\n")  # duplicate line
    with pytest.raises(TreeSyntaxError):
        parse_tree("tree v1\n1 x\n")
    with pytest.raises(TreeSyntaxError):
        parse_tree("tree v1\n-1\n")


# Each codec's header variants, accepted then rejected, each followed by
# a body the codec accepts.
_HEADER_VARIANTS = [
    (parse_tree, TreeSyntaxError, "1\n",
     ["tree v1", "  tree v1  "],
     ["tree v1 x", "tree v1x", "tree  v1", "tree v2", "tree"]),
    (parse_strategy, StrategySyntaxError, "",
     ["strategy v1 owner=I", " strategy v1   owner=II "],
     ["strategy v1", "strategy v1 owner=III", "strategy v1 x owner=I", "strategy v1owner=I",
      "strategy v1 owner= I"]),
    (parse_payoff, PayoffSyntaxError, "default: I\n",
     ["payoff clopen v1", " payoff clopen v1 "],
     ["payoff clopen v1 x", "payoff clopen v1x"]),
    (parse_payoff, PayoffSyntaxError, "level 1:\n1\n",
     ["payoff diff v1 k=1", " payoff diff v1  k=1 "],
     ["payoff diff v1", "payoff diff v1 k=0", "payoff diff v1 k=1 x", "payoff diff v1 x k=1",
      "payoff diff v1k=1", "payoff diff v1 k= 1"]),
]
HEADER_CASES = [
    pytest.param(parse, error, f"{header}\n{body}", header in accepted, id=f"{parse.__name__}-{header!r}")
    for parse, error, body, accepted, rejected in _HEADER_VARIANTS
    for header in accepted + rejected
] + [
    pytest.param(parse, error, "", False, id=f"{parse.__name__}-empty-file")
    for parse, error, *_ in _HEADER_VARIANTS[:3]
]


@pytest.mark.parametrize("parse, error, text, accepted", HEADER_CASES)
def test_codecs_accept_exactly_these_headers(parse, error, text, accepted):
    if accepted:
        parse(text)
        return
    with pytest.raises(error) as err:
        parse(text)
    assert err.value.line == 1


# Node text the line parser meets: digit runs, signs, digit separators,
# non-ASCII digits, letters and float or hex spellings, split by spaces
# and tabs or run together.
NODE_PARTS = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    st.sampled_from(["+3", "-3", "-0", "1_0", "_1", "1__0", "\u0663", "\uff15", "x", "a1", "1e3", "0x1f", "3.0"]),
)
NODE_TEXTS = st.lists(st.tuples(NODE_PARTS, st.sampled_from([" ", "\t", " \t", ""])), max_size=5).map(
    lambda parts: "".join(part + gap for part, gap in parts)
)


def parsed_or_error(parse, text):
    try:
        return parse(text, 7, TreeSyntaxError)
    except TreeSyntaxError as exc:
        return type(exc), str(exc)


@given(NODE_TEXTS)
def test_parse_node_matches_part_by_part_reference(text):
    assert parsed_or_error(parse_node, text) == parsed_or_error(parse_node_by_parts, text)


# What a line may add to the line before it: a messy last token, a
# trailing tab or space, a doubled space, or any node part.
LAST_TOKENS = st.one_of(
    st.sampled_from(["-3", "-0", "1_0", "\u0663", "x", "7\t", "7 ", " 7", "7"]),
    NODE_PARTS,
)


@st.composite
def node_lines(draw) -> list[str]:
    """A sparse tree's lines in preorder, with lines that extend the line
    just before them by one more token, duplicate lines and blank lines."""
    lines = [format_node(node) for node in sorted(draw(sparse_trees())) if node]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, (lines[at - 1] + " " if at else "") + draw(LAST_TOKENS))
    if lines:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return lines


def read_or_error(read, lines, error):
    try:
        return read(lines, error)
    except error as exc:
        return type(exc), exc.line, str(exc)


@given(
    st.sampled_from([("tree v1", TreeSyntaxError), ("strategy v1 owner=I", StrategySyntaxError)]),
    node_lines(),
    st.booleans(),
    st.data(),
)
def test_node_line_reader_matches_reference(codec, lines, shuffle, data):
    header, error = codec
    text = data.draw(messy_text(header, lines)) if shuffle else "\n".join([header, *lines]) + "\n"
    rows = text.splitlines()
    assert read_or_error(parse_node_lines, rows, error) == read_or_error(read_node_lines_by_line, rows, error)


def test_node_line_reader_shares_parent_labels():
    # Every label is 777, past the interpreter's small-int cache, so a
    # reader that parses each line in full holds n²/2 distinct ints.
    lines = ["tree v1", *(" ".join(["777"] * depth) for depth in range(1, 1001))]

    def peak(read):
        tracemalloc.start()
        try:
            read(lines, TreeSyntaxError)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert parse_node_lines(lines, TreeSyntaxError) == read_node_lines_by_line(lines, TreeSyntaxError)
    assert peak(parse_node_lines) < peak(read_node_lines_by_line) / 2


def test_preorder_writer_matches_format_node():
    trees = [*CORPUS_6, validate_tree([(1,) * i for i in range(2001)])]
    for tree in trees:
        assert format_preorder(tree.sorted_nodes) == [format_node(n) for n in tree.sorted_nodes if n]


def test_sorted_nodes_is_tuple_order():
    trees = list(enumerate_trees(7))
    trees.append(validate_tree([(1,) * i for i in range(2001)]))
    for tree in trees:
        assert tree.sorted_nodes == tuple(sorted(tree.nodes))
        assert list(tree) == list(tree.sorted_nodes)


@given(sparse_trees())
def test_sorted_nodes_is_tuple_order_on_sparse_labels(nodes):
    tree = validate_tree(nodes)
    assert tree.sorted_nodes == tuple(sorted(nodes))
    assert list(tree) == list(tree.sorted_nodes)


@pytest.mark.parametrize("tree", CORPUS_6, ids=lambda t: str(sorted(t.nodes)))
def test_codec_round_trip(tree):
    text = serialize_tree(tree)
    assert parse_tree(text) == tree
    assert serialize_tree(parse_tree(text)) == text


@given(sparse_trees(), st.data())
def test_codec_canonical_from_messy_text(nodes, data):
    lines = [" ".join(map(str, node)) for node in sorted(nodes) if node]
    assert format_preorder(sorted(nodes)) == lines
    canonical = "\n".join(["tree v1", *lines]) + "\n"
    parsed = parse_tree(data.draw(messy_text("tree v1", lines)))
    assert parsed.nodes == nodes
    assert serialize_tree(parsed) == canonical
    assert parse_tree(canonical) == parsed


@given(st.sampled_from(CORPUS_6), st.data())
def test_subtree_is_valid_tree(tree, data):
    node = data.draw(st.sampled_from(sorted(tree.nodes)))
    sub = subtree(tree, node)
    # construction re-validates both clauses
    assert isinstance(validate_tree(sub.nodes), FiniteTree)


@given(st.sampled_from(CORPUS_6))
def test_children_sorted_leftmost_first(tree):
    for node in tree:
        kids = tree.children(node)
        labels = [c[-1] for c in kids]
        assert labels == sorted(labels)


@given(node_sets())
def test_constructor_matches_sorting_validator(nodes):
    def literal_children(node):
        return tuple(sorted(c for c in nodes if c and c[:-1] == node))

    try:
        check_tree_by_sorting(frozenset(nodes))
    except TreeError as exc:
        expected = exc
    else:
        expected = None
    if isinstance(expected, MissingPrefix):
        with pytest.raises(MissingPrefix) as err:
            child_index(nodes)
        assert err.value.node == expected.node
    else:
        assert child_index(nodes) == {node: literal_children(node) for node in nodes}
    if expected is None:
        tree = validate_tree(nodes)
        for node in nodes:
            assert tree.children(node) == literal_children(node)
        return
    with pytest.raises(TreeError) as err:
        validate_tree(nodes)
    assert type(err.value) is type(expected)
    assert str(err.value) == str(expected)
    assert getattr(err.value, "node", None) == getattr(expected, "node", None)


def fields_or_error(build, text):
    try:
        return tree_fields(build(text))
    except TreeError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def parse_by_checked_constructor(text):
    return validate_tree(parse_node_lines(text.splitlines(), TreeSyntaxError))


@given(node_lines(), st.booleans(), st.data())
def test_parse_tree_matches_checked_constructor(lines, shuffle, data):
    text = data.draw(messy_text("tree v1", lines)) if shuffle else "\n".join(["tree v1", *lines]) + "\n"
    assert fields_or_error(parse_tree, text) == fields_or_error(parse_by_checked_constructor, text)


TALL_PATH_TEXT = serialize_tree(validate_tree([(7,) * i for i in range(2001)]))


@pytest.mark.parametrize(
    "text, laid_out",
    [
        *[(serialize_tree(tree), True) for tree in CORPUS_6],
        ("tree v1\n10\n10 20\n10 20 30\n10 40\n99\n99 3\n", True),
        (TALL_PATH_TEXT, True),
        ("tree v1\n2\n1\n", False),  # siblings out of order
        ("tree v1\n1\n1 5\n1 3\n", False),
        ("tree v1\n1\n2\n3\n", False),  # a third successor
        ("tree v1\n1\n1 1\n1 2\n1 3\n", False),  # a third successor after the others' subtrees
        ("tree v1\n1\n1 1\n1 1 4\n1 2\n1 3\n", False),
        ("tree v1\n1\n1\n", False),  # a repeated line
        ("tree v1\n1\n1 2\n1\n", False),
        ("tree v1\n1\n1 2\n1 2\n", False),
        ("tree v1\n1 3\n", False),  # a missing prefix
        ("tree v1\n1\n\n2\n", False),  # a blank line
        ("tree v1\n1\n1 -2\n", False),
        ("tree v1\n1\n1 x\n", False),
        (TALL_PATH_TEXT.replace("\n7 7\n", "\n"), False),
        (TALL_PATH_TEXT + TALL_PATH_TEXT.splitlines()[-1] + "\n", False),
    ],
)
def test_parse_tree_matches_checked_constructor_on_examples(text, laid_out, monkeypatch):
    expected = fields_or_error(parse_by_checked_constructor, text)
    assert fields_or_error(parse_tree, text) == expected

    def no_checked_reader(lines, error):
        raise error(0, "the checked reader was called")

    # Without the checked reader only a file the one-pass layout takes parses.
    monkeypatch.setattr(trees, "parse_node_lines", no_checked_reader)
    assert (fields_or_error(parse_tree, text) == expected) is laid_out
