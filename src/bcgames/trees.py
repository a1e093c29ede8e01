"""Finite binary choice trees.

A tree is a finite, prefix-closed set of finite sequences of natural
numbers in which no node has more than two immediate successors.
Sequences are plain tuples of non-negative ints and the empty tuple is
the root.  Successors are ordered by their last element, so the
leftmost successor of a node is the one with the least label.

Node order everywhere in this package is shortest-prefix-first
lexicographic, which is exactly Python's tuple order; iteration over a
tree is therefore deterministic.

``FiniteTree(nodes)`` checks every rule on any node set; ``lay_out``
builds a tree from a preorder known to give one, checking nothing twice.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator

Seq = tuple[int, ...]

ROOT: Seq = ()


class TreeError(Exception):
    """Base class for tree violations and lookup failures."""


class MissingPrefix(TreeError):
    """Prefix closure fails: a node's immediate prefix is absent."""

    def __init__(self, node: Seq):
        self.node = node
        super().__init__(f"node {node!r} is present but its prefix {node[:-1]!r} is not")


class TooManySuccessors(TreeError):
    """Binary choice fails: a node has three or more successors."""

    def __init__(self, node: Seq):
        self.node = node
        super().__init__(f"node {node!r} has more than two successors")


class NodeNotInTree(TreeError):
    def __init__(self, node: Seq):
        self.node = node
        super().__init__(f"node {node!r} is not in the tree")


class TreeSyntaxError(TreeError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class FiniteTree:
    """Immutable binary choice tree with a precomputed child index, its
    preorder (``sorted_nodes``) and its nodes per depth (``depth_counts``),
    derived on demand unless ``lay_out`` set them."""

    nodes: frozenset[Seq]

    def __post_init__(self) -> None:
        index = child_index(self.nodes)
        if ROOT not in index:
            raise TreeError("a tree must contain the empty sequence")
        if max(map(len, index.values())) > 2:
            raise TooManySuccessors(min(p for p, kids in index.items() if len(kids) > 2))
        object.__setattr__(self, "_children", index)

    @classmethod
    def _from_preorder(cls, order: list[Seq], index: dict, counts: tuple[int, ...] | None) -> FiniteTree:
        # Unchecked.  ``frozenset`` of a dict reuses the hashes it holds.
        tree = object.__new__(cls)
        vars(tree).update(nodes=frozenset(index), _children=index, sorted_nodes=tuple(order))
        if counts is not None:
            vars(tree)["depth_counts"] = counts
        return tree

    def __contains__(self, node: Seq) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Seq]:
        return iter(self.sorted_nodes)

    def __repr__(self) -> str:
        return f"FiniteTree({sorted(self.nodes)!r})"

    @cached_property
    def sorted_nodes(self) -> tuple[Seq, ...]:
        """Every node in tuple order, which is the preorder of the child
        index, leftmost first, read with an explicit stack."""
        index = self._children
        order = []
        stack = [ROOT]
        while stack:
            node = stack.pop()
            order.append(node)
            stack += index[node][::-1]
        return tuple(order)

    def children(self, node: Seq) -> tuple[Seq, ...]:
        """Immediate successors of ``node``, leftmost first."""
        try:
            return self._children[node]
        except KeyError:
            raise NodeNotInTree(node) from None

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def depth_counts(self) -> tuple[int, ...]:
        """The number of nodes at each depth, the root's first."""
        counts = Counter(map(len, self.nodes))
        return tuple(counts[depth] for depth in range(len(counts)))

    @cached_property
    def height(self) -> int:
        return len(self.depth_counts) - 1


def child_index(nodes: Iterable[Seq]) -> dict[Seq, tuple[Seq, ...]]:
    """Each node's immediate successors, leftmost first, built in one
    pass in any node order; a node whose immediate prefix is absent
    raises ``MissingPrefix`` on the least such node."""
    index: dict[Seq, tuple[Seq, ...]] = dict.fromkeys(nodes, ())
    orphans = []
    for node in index:
        if node:
            parent = node[:-1]
            kids = index.get(parent)
            if kids is None:
                orphans.append(node)
            elif kids and kids[-1] > node:
                index[parent] = tuple(sorted((*kids, node)))
            else:
                index[parent] = (*kids, node)
    if orphans:
        raise MissingPrefix(min(orphans))
    return index


def lay_out(steps: Iterable[tuple[int, int]], counts: tuple[int, ...] | None = None) -> FiniteTree:
    """The tree whose non-root nodes, in preorder, come from ``(depth,
    label)`` steps: each appends its label to the open node one depth up.
    Each node is hashed once, as it closes.  Only siblings are checked:
    ValueError for a label not above the last one, or for a third."""
    order, index = [ROOT], {}
    path, kids = [ROOT], [[]]  # the open nodes, root first, and their successors so far
    for depth, label in steps:
        while len(path) > depth:
            index[path.pop()] = tuple(kids.pop())
        siblings = kids[-1]
        if siblings and (len(siblings) == 2 or siblings[-1][-1] >= label):
            raise ValueError(f"successor {label} out of preorder at depth {depth}")
        node = path[-1] + (label,)
        siblings.append(node)
        path.append(node)
        kids.append([])
        order.append(node)
    while path:
        index[path.pop()] = tuple(kids.pop())
    return FiniteTree._from_preorder(order, index, counts)


def validate_tree(candidate: Iterable[Seq]) -> FiniteTree:
    """Check prefix closure, then the root, then the two-successor cap;
    closure and cap failures name the least offending node."""
    return FiniteTree(frozenset(tuple(node) for node in candidate))


def subtree(tree: FiniteTree, node: Seq) -> FiniteTree:
    """The tree of suffixes s with node + s in the tree."""
    if node not in tree:
        raise NodeNotInTree(node)
    k = len(node)
    return FiniteTree(frozenset(n[k:] for n in tree.nodes if n[:k] == node))


def is_zero_free(tree: FiniteTree) -> bool:
    return all(0 not in node for node in tree.nodes)


def zero_free_transform(tree: FiniteTree) -> FiniteTree:
    """Shift every label up by one, freeing 0 for use as a control symbol;
    the result has the source's shape, laid out from its preorder."""
    return lay_out(((len(node), node[-1] + 1) for node in tree.sorted_nodes[1:]), tree.depth_counts)


@cache
def _shapes(size: int) -> tuple[tuple, ...]:
    # A shape is a tuple of child shapes (at most two); () is a leaf.
    if size == 1:
        return ((),)
    out: list[tuple] = [(s,) for s in _shapes(size - 1)]
    for left in range(1, size - 1):
        for a in _shapes(left):
            for b in _shapes(size - 1 - left):
                out.append((a, b))
    return tuple(out)


def _shape_steps(shape: tuple, depth: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    for label, child in zip((lo, hi), shape):
        yield depth, label
        yield from _shape_steps(child, depth + 1, lo, hi)


def enumerate_trees(max_size: int, zero_free: bool = False) -> Iterator[FiniteTree]:
    """All binary choice trees with at most ``max_size`` nodes, one per shape.

    Labels are canonical: {1, 2} when ``zero_free`` else {0, 1}, and a
    lone successor always carries the smaller label.  The stream is
    duplicate-free and deterministically ordered by size, then by a
    fixed structural order (single-child shapes before splitting ones).
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    lo, hi = (1, 2) if zero_free else (0, 1)
    for size in range(1, max_size + 1):
        for shape in _shapes(size):
            yield lay_out(_shape_steps(shape, 1, lo, hi))


TREE_HEADER = "tree v1"


def serialize_tree(tree: FiniteTree) -> str:
    """Canonical text form: header line, then one non-root node per line."""
    return "\n".join([TREE_HEADER, *format_preorder(tree.sorted_nodes)]) + "\n"


def format_node(node: Seq) -> str:
    """One node written as space-separated naturals, as ``parse_node`` reads it."""
    return " ".join(map(str, node))


def format_preorder(nodes: Iterable[Seq]) -> list[str]:
    """The ``format_node`` line of every non-root node of a prefix-closed
    sequence in preorder, each made as its parent's line plus its label."""
    heads = [""]  # heads[d]: the line of the last node at depth d, plus a space
    lines = []
    for node in nodes:
        if node:
            depth = len(node)
            line = heads[depth - 1] + str(node[-1])
            del heads[depth:]
            heads.append(line + " ")
            lines.append(line)
    return lines


def parse_node(text: str, lineno: int, error: Callable[[int, str], Exception]) -> Seq:
    """One node written as space-separated naturals; malformed text raises
    ``error(lineno, message)``, the calling codec's syntax error."""
    try:
        node = tuple(map(int, text.split()))
    except ValueError:
        raise error(lineno, f"not a sequence of naturals: {text!r}") from None
    if "-" in text and min(node) < 0:  # int() reads only "-" as a minus sign
        raise error(lineno, f"negative entry in {text!r}")
    return node


def parse_node_lines(lines: list[str], error: Callable[[int, str], Exception]) -> frozenset[Seq]:
    """The root plus one node per non-blank line after the header line;
    duplicate node lines are rejected.  Only the last line read at each
    depth is kept: a line that is the one a depth up, a space and a
    natural reads as that line's node plus one label, so a file in
    preorder costs one label per line.  Any other line goes through
    ``parse_node``; the nodes and errors are the same either way."""
    nodes: set[Seq] = {ROOT}
    last = {0: ("", ROOT)}  # depth -> text and node of the last line read there
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        head, _, label = raw.rpartition(" ")
        # A single-spaced line at depth d has d - 1 spaces: its parent's depth.
        text, parent = last.get(raw.count(" "), (None, ROOT))
        try:
            x = int(label) if text == head else -1
        except ValueError:
            x = -1
        node = parent + (x,) if x >= 0 else parse_node(raw, lineno, error)
        if node in nodes:
            raise error(lineno, f"duplicate node {node!r}")
        nodes.add(node)
        last[len(node)] = (raw, node)
    return frozenset(nodes)


def read_header(lines: list[str], header: str, key: str | None, error: Callable) -> str:
    """Check a file's first line, spaces at either end aside: ``header``,
    then nothing more when ``key`` is None, or else whitespace and one
    ``key=value`` word, whose value it returns.  Anything else raises
    ``error(1, message)``, the calling codec's syntax error."""
    line = lines[0].strip() if lines else ""
    field = f"{key}=" if key else ""
    match = re.fullmatch(re.escape(header) + (rf"\s+{field}(\S*)" if key else ""), line)
    if match:
        return match[1] if key else ""
    raise error(1, f"expected header {f'{header} {field}'.strip()!r}, got {line!r}")


def parse_tree(text: str) -> FiniteTree:
    """Parse the tree file format; the root is implicit and line order is
    irrelevant, but duplicate node lines are rejected.  A file in which
    each line is the open line one depth up, a space and a natural is laid
    out in one pass; any other is read by ``parse_node_lines`` and checked
    whole by the constructor, which raise every error."""
    lines = text.splitlines()
    read_header(lines, TREE_HEADER, None, TreeSyntaxError)
    texts = [""]  # texts[d]: the open line at depth d

    def step(raw: str) -> tuple[int, int]:
        head, _, label = raw.rpartition(" ")
        depth = raw.count(" ") + 1
        if depth > len(texts) or texts[depth - 1] != head or (x := int(label)) < 0:
            raise ValueError(f"{raw!r} does not continue the preorder")
        del texts[depth:]
        texts.append(raw)
        return depth, x

    try:
        return lay_out(map(step, lines[1:]))
    except ValueError:
        return FiniteTree(parse_node_lines(lines, TreeSyntaxError))
