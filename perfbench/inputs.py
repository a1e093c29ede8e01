"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own code: the instances are made as
file text (the formats `bcgames` reads) from a SplitMix64 stream, so the
program under test receives only the generated inputs.  The same seed
gives byte-identical inputs.

Shapes are fixed or drawn with a fixed number of nodes per level, so the
work a pass does is nearly the same for every seed; the seed moves the
labels and, for the random trees, which parents carry the children.
Labels are three-digit numbers above 256: every one is non-zero (as the
reduction game needs), takes the same number of characters to print and
is a distinct int object, so time and memory do not drift with the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_MASK = (1 << 64) - 1
LABEL_LO, LABEL_HI = 300, 999

# Instance caps, recorded in perfbench/README.md.
COMPLETE_EXIT_DEPTH = 14
RANDOM_EXIT_SHAPE = (1800, 20)  # (nodes per level once grown, levels)
DIFF_TREE_DEPTH, DIFF_DEPTH, DIFF_GENERATORS = 12, 10, 48
RANDOM_CLOPEN_SHAPE = (1200, 14)
CLOPEN_ENTRIES = 400
PATH_DECOY_LENGTHS = (16, 20, 24)
COMB_LENGTHS = (12, 16)
COMPLETE_REDUCTION_DEPTHS = (4, 5)
TALL_PATH_PROBE = 1000
REDUCTION_PROBE_LENGTH = 40
CAMPAIGN_COMMANDS = (
    (9, 20, ("oracle", "def34", "embedding")),
    (7, 20, ("reduction", "bounds")),
)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _labels(rng: SplitMix64, count: int) -> list[int]:
    """``count`` (1 or 2) distinct labels in ascending order."""
    span = LABEL_HI - LABEL_LO + 1
    a = LABEL_LO + rng.below(span)
    if count == 1:
        return [a]
    b = LABEL_LO + rng.below(span - 1)
    if b >= a:
        b += 1
    return sorted((a, b))


def tree_text(nodes) -> str:
    """The canonical tree file for a node set, as ``serialize_tree`` writes it."""
    return "tree v1\n" + "".join(" ".join(map(str, n)) + "\n" for n in sorted(nodes) if n)


def complete_tree(rng: SplitMix64, depth: int) -> list[tuple]:
    nodes, level = [()], [()]
    for _ in range(depth):
        level = [node + (x,) for node in level for x in _labels(rng, 2)]
        nodes += level
    return nodes


def layered_tree(rng: SplitMix64, cap: int, levels: int) -> list[tuple]:
    """A random tree of height ``levels`` whose level sizes depend only on
    ``cap``: each level is as wide as its parents allow, up to ``cap``.

    One parent in eight gets no child; which parents get one child or
    two is drawn from the seed.
    """
    nodes, level = [()], [()]
    for _ in range(levels):
        parents = len(level)
        bearing = parents - parents // 8
        two = min(cap, 2 * bearing) - bearing
        counts = [2] * two + [1] * (bearing - two) + [0] * (parents - bearing)
        rng.shuffle(counts)
        level = [node + (x,) for node, c in zip(level, counts) if c for x in _labels(rng, c)]
        nodes += level
    return nodes


# In both shapes below the long path takes the smaller label wherever it
# has a sibling, as in the repository's own tall trees.  Which side it
# takes changes how many reduction states the solver explores, so fixing
# the side keeps the work the same for every seed.


def path_decoy_tree(rng: SplitMix64, length: int) -> tuple[list[tuple], tuple]:
    """A path of ``length`` nodes below the root plus a one-node decoy."""
    first, decoy = _labels(rng, 2)
    path = (first,) + tuple(_labels(rng, 1)[0] for _ in range(length - 1))
    return [path[:i] for i in range(length + 1)] + [(decoy,)], path


def comb_tree(rng: SplitMix64, length: int) -> list[tuple]:
    """A spine of ``length`` nodes with a one-node tooth at every inner level."""
    nodes, spine = [()], ()
    for _ in range(length):
        keep, tooth = _labels(rng, 2)
        nodes.append(spine + (tooth,))
        spine += (keep,)
        nodes.append(spine)
    return nodes


def _seq(node) -> str:
    return " ".join(map(str, node))


def diff_payoff_text(rng: SplitMix64, nodes, depth: int, generators: int, levels: int = 3) -> str:
    """A ``levels``-deep difference payoff whose decision depth is ``depth``:
    every level holds prefixes of random depth-``depth`` nodes."""
    deep = sorted(n for n in nodes if len(n) == depth)
    lines = [f"payoff diff v1 k={levels}"]
    for level in range(1, levels + 1):
        gens = {deep[rng.below(len(deep))][: 2 + rng.below(depth - 1)] for _ in range(generators)}
        if level == 1:
            gens.add(deep[rng.below(len(deep))])
        lines.append(f"level {level}:")
        lines += [_seq(g) for g in sorted(gens)]
    return "\n".join(lines) + "\n"


def clopen_payoff_text(rng: SplitMix64, nodes, entries: int) -> str:
    """``entries`` distinct nodes at the deepest level, each with a drawn
    winner, plus a drawn default: an antichain, so a valid clopen payoff."""
    depth = max(len(n) for n in nodes)
    deep = sorted(n for n in nodes if len(n) == depth)
    rng.shuffle(deep)
    lines = ["payoff clopen v1"]
    lines += [f"{('I', 'II')[rng.below(2)]}: {_seq(n)}" for n in sorted(deep[:entries])]
    lines.append(f"default: {('I', 'II')[rng.below(2)]}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TreeCase:
    """One ``bcgames solve`` + ``bcgames embed`` instance."""

    name: str
    tree: str
    payoff: str | None


@dataclass(frozen=True)
class ReductionCase:
    """One ``bcgames reduce --extract`` instance.  ``branch`` is the long
    path a path-plus-decoy tree must yield; ``fail_index`` the index the
    extraction must stop at."""

    name: str
    tree: str
    fail_index: int
    branch: tuple | None


@dataclass(frozen=True)
class CampaignCase:
    """One ``bcgames lab`` command."""

    max_size: int
    payoffs_per_tree: int
    seed: int
    suites: tuple[str, ...]


def tree_large(seed: int) -> list[TreeCase]:
    rng = SplitMix64(seed ^ 0x7EE1A26E)
    complete = complete_tree(rng, COMPLETE_EXIT_DEPTH)
    random_exit = layered_tree(rng, *RANDOM_EXIT_SHAPE)
    diff_tree = complete_tree(rng, DIFF_TREE_DEPTH)
    diff = diff_payoff_text(rng, diff_tree, DIFF_DEPTH, DIFF_GENERATORS)
    clopen_tree = layered_tree(rng, *RANDOM_CLOPEN_SHAPE)
    clopen = clopen_payoff_text(rng, clopen_tree, CLOPEN_ENTRIES)
    return [
        TreeCase(f"complete-{COMPLETE_EXIT_DEPTH}-exit", tree_text(complete), None),
        TreeCase(f"random-{len(random_exit)}-exit", tree_text(random_exit), None),
        TreeCase(f"complete-{DIFF_TREE_DEPTH}-diff", tree_text(diff_tree), diff),
        TreeCase(f"random-{len(clopen_tree)}-clopen", tree_text(clopen_tree), clopen),
    ]


def reduction_large(seed: int) -> list[ReductionCase]:
    rng = SplitMix64(seed ^ 0x4ED0C710)
    cases = []
    for length in PATH_DECOY_LENGTHS:
        nodes, path = path_decoy_tree(rng, length)
        cases.append(ReductionCase(f"path-decoy-{length}", tree_text(nodes), length, path))
    for length in COMB_LENGTHS:
        cases.append(ReductionCase(f"comb-{length}", tree_text(comb_tree(rng, length)), length, None))
    for depth in COMPLETE_REDUCTION_DEPTHS:
        cases.append(ReductionCase(f"complete-{depth}", tree_text(complete_tree(rng, depth)), depth, None))
    return cases


def campaign(seed: int) -> list[CampaignCase]:
    return [CampaignCase(size, per_tree, seed, suites) for size, per_tree, suites in CAMPAIGN_COMMANDS]


def probes(seed: int) -> dict[str, list]:
    """Known-hard inputs run after the timed passes, per workload."""
    rng = SplitMix64(seed ^ 0x960BE5)
    label = _labels(rng, 1)[0]
    tall = [(label,) * i for i in range(TALL_PATH_PROBE + 1)]
    decoy, path = path_decoy_tree(rng, REDUCTION_PROBE_LENGTH)
    return {
        "tree-large": [
            TreeCase(f"tall-path-{TALL_PATH_PROBE}", tree_text(tall), None),
            # The README's example tree with a payoff entry off the tree.
            TreeCase("readme-embed", "tree v1\n1\n1 3\n2\n", "payoff clopen v1\nI: 5\nII: 1\ndefault: I\n"),
        ],
        "reduction-large": [
            ReductionCase(f"path-decoy-{REDUCTION_PROBE_LENGTH}", tree_text(decoy), REDUCTION_PROBE_LENGTH, path),
            ReductionCase(
                f"comb-{REDUCTION_PROBE_LENGTH}",
                tree_text(comb_tree(rng, REDUCTION_PROBE_LENGTH)),
                REDUCTION_PROBE_LENGTH,
                None,
            ),
        ],
        "campaign": [],
    }


BUILDERS = {"campaign": campaign, "tree-large": tree_large, "reduction-large": reduction_large}


def digest(cases) -> str:
    return hashlib.sha256(repr(cases).encode()).hexdigest()[:16]
