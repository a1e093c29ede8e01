"""Verification campaigns over enumerated instance corpora.

Every suite is a deterministic instance stream plus one check, which
cross-checks independent routes against each other on an instance: the
solver against the restricted-strategy brute force, the two determinacy
readings against one another, the reduction game against its invariants
and bounds, and the embedding round trip.  Campaign randomness comes
from SplitMix64, a fixed 64-bit generator implemented here so that the
same seed reproduces the same corpus on any platform.

A counterexample record is the failing instance's fields merged with
the check's outcome.  ``replay`` reads a record back into its instance
and runs the same check, so a replayed record reproduces its outcome by
construction.

A report is a deterministic function of its configuration: identical
config means byte-identical rendered output.  Timing therefore never
appears in a report; the command line prints it separately.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, NamedTuple

from .embedding import build_rho, pull_back_strategy, push_game
from .payoff import ClopenAntichain, PayoffError, parse_payoff, serialize_payoff
from .players import Player
from .reduction import (
    BranchReport,
    build_reduction_game,
    check_cardinality_bound,
    extract_branch,
    horizon_bound,
    realizable_claim_traces,
    scan_positions,
    solve_reduction,
    verify_winning_policy,
)
from .solver import SolverError, check_def3_def4, game_for, normal_form, quotient_capped, solve
from .solver import verify_winning
from .trees import FiniteTree, TreeError, enumerate_trees, is_zero_free, parse_tree, serialize_tree

_MASK = (1 << 64) - 1

#: Seeded games the embedding suite draws per campaign.
EMBEDDING_INSTANCES = 200


class SplitMix64:
    """SplitMix64: a tiny, portable 64-bit generator with a fixed spec."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); the slight modulo bias is harmless
        for corpus generation and keeps the generator spec minimal."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def random_payoffs(tree: FiniteTree, count: int, seed: int, depth: int) -> list[ClopenAntichain]:
    """Deterministic pseudo-random clopen payoffs over the tree's nodes.

    Each payoff draws its own decision horizon up to ``depth``, then
    greedily keeps a shuffled antichain of in-tree prefixes with random
    winners and a random default.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = SplitMix64(seed)
    out: list[ClopenAntichain] = []
    players = (Player.I, Player.II)
    for _ in range(count):
        horizon = 1 + rng.below(depth)
        candidates = [n for n in tree.sorted_nodes if 1 <= len(n) <= horizon]
        rng.shuffle(candidates)
        keep = rng.below(len(candidates) + 1) if candidates else 0
        entries: list[tuple[tuple[int, ...], Player]] = []
        for node in candidates[:keep]:
            if any(node[: len(p)] == p or p[: len(node)] == node for p, _ in entries):
                continue
            entries.append((node, players[rng.below(2)]))
        out.append(ClopenAntichain(tuple(entries), players[rng.below(2)]))
    return out


def _oracle_stream(cfg: CampaignConfig) -> Iterator[tuple]:
    for index, tree in enumerate(enumerate_trees(cfg.max_size)):
        form = normal_form(tree)
        for payoff in random_payoffs(tree, cfg.payoffs_per_tree, cfg.seed + index, depth=4):
            yield tree, payoff, form


def _check_oracle(instance: tuple) -> tuple[bool, dict]:
    """Solver winner versus restricted-strategy brute force, read off the
    tree's normal form, plus the winner's certificate."""
    tree, payoff, form = instance
    game = game_for(tree, payoff)
    solved = solve(game)
    oracle = form.winner(game)
    certified = verify_winning(game, solved.strategy) is None
    ok = solved.winner is oracle and certified
    return ok, {"solver": solved.winner.value, "oracle": oracle.value, "certified": certified}


def _def34_stream(cfg: CampaignConfig) -> Iterator[tuple]:
    for index, tree in enumerate(enumerate_trees(min(cfg.max_size, 5))):
        for payoff in random_payoffs(tree, cfg.payoffs_per_tree, cfg.seed + index, depth=4):
            yield tree, payoff


def _check_def34(instance: tuple) -> tuple[bool, dict]:
    """Agreement of the two determinacy readings."""
    report = check_def3_def4(game_for(*instance))
    outcome = {"regular": report.regular_winner.value, "restricted": report.restricted_winner.value}
    return report.agree, outcome


def _reduction_stream(cfg: CampaignConfig) -> Iterator[tuple]:
    return ((tree,) for tree in enumerate_trees(min(cfg.max_size, 9), zero_free=True))


def _check_reduction(instance: tuple) -> tuple[bool, dict]:
    """Player II wins the reduction game, certified, with at most two
    legal moves at every reachable position and a bounded play length."""
    (tree,) = instance
    solved = solve_reduction(tree)
    game = build_reduction_game(tree)
    counterplay = verify_winning_policy(game, solved.strategy)
    stats = scan_positions(game)
    ok = (
        solved.winner is Player.II
        and counterplay is None
        and stats.max_moves <= 2
        and stats.max_length <= horizon_bound(tree)
    )
    return ok, {
        "winner": solved.winner.value,
        "counterplay": counterplay,
        "max_moves": stats.max_moves,
        "max_length": stats.max_length,
    }


def _bounds_stream(cfg: CampaignConfig) -> Iterator[tuple]:
    yield from _reduction_stream(cfg)
    for tree in enumerate_trees(min(cfg.max_size, 5), zero_free=True):
        for node, realizable in realizable_claim_traces(tree):
            if realizable:
                yield tree, node


def _check_bounds(instance: tuple) -> tuple[bool, dict]:
    """Cardinality bounds for the branch extracted from the solver's
    policy, or for a claim at the end of a realizable claim trace."""
    if len(instance) == 2:
        tree, node = instance
        report = BranchReport(node, len(node))
        return not tree.children(node) and check_cardinality_bound(tree, report), {}
    (tree,) = instance
    report = extract_branch(tree, solve_reduction(tree).strategy)
    ok = report.fail_index is not None and check_cardinality_bound(tree, report)
    return ok, {"f": list(report.f), "fail_index": report.fail_index}


def _embedding_stream(cfg: CampaignConfig) -> Iterator[tuple]:
    corpus = list(enumerate_trees(min(cfg.max_size, 9)))
    rng = SplitMix64(cfg.seed ^ 0xE3BEDD1)
    for i in range(EMBEDDING_INSTANCES):
        tree = corpus[rng.below(len(corpus))]
        yield tree, random_payoffs(tree, 1, cfg.seed + 7919 * i, depth=4)[0]


def _check_embedding(instance: tuple) -> tuple[bool, dict]:
    """Winner preservation through the {0,1} embedding, plus
    certification of the pulled-back strategy."""
    game = game_for(*instance)
    rho = build_rho(game.tree)
    source = solve(game)
    image = solve(push_game(rho, game))
    pulled = pull_back_strategy(rho, image.strategy)
    ok = source.winner is image.winner and verify_winning(game, pulled) is None
    return ok, {"source": source.winner.value, "image": image.winner.value}


def _reducible(fields: tuple) -> tuple:
    """Refuse what the reduction checks cannot take: a 0 label, a claim off the tree."""
    if not is_zero_free(fields[0]):
        raise ValueError("tree has a 0 label, which the reduction game reserves")
    if fields[1:] and fields[1] not in fields[0]:
        raise ValueError(f"claimed_at {list(fields[1])} is not a node of the tree")
    return fields


def _clopen(text: str) -> ClopenAntichain:
    payoff = parse_payoff(text)
    if not isinstance(payoff, ClopenAntichain):
        raise ValueError("is not a clopen payoff")
    return payoff


def _naturals(items: list) -> tuple[int, ...]:
    if not all(type(x) is int and x >= 0 for x in items):
        raise ValueError("is not a list of naturals")
    return tuple(items)


#: Each instance field's type in a record, its writer and its reader.
_CODECS = {
    "tree": (str, serialize_tree, parse_tree),
    "payoff": (str, serialize_payoff, _clopen),
    "claimed_at": (list, list, _naturals),
}


class Suite(NamedTuple):
    """A deterministic instance stream and the one check every instance
    goes through.  An instance is a plain tuple that starts with the
    record fields named in ``fields``; a record, and its instance, may
    leave out those in ``optional``.  ``prepare`` turns the fields read
    back from a record into the instance the stream yields."""

    stream: Callable[[CampaignConfig], Iterator[tuple]]
    check: Callable[[tuple], tuple[bool, dict]]
    fields: tuple[str, ...]
    optional: tuple[str, ...] = ()
    prepare: Callable[[tuple], tuple] = tuple


SUITES = {
    "oracle": Suite(
        _oracle_stream,
        _check_oracle,
        ("tree", "payoff"),
        prepare=lambda fields: (*fields, normal_form(fields[0])),
    ),
    "def34": Suite(
        _def34_stream,
        _check_def34,
        ("tree", "payoff"),
        prepare=lambda fields: (quotient_capped(fields[0]), *fields[1:]),
    ),
    "reduction": Suite(_reduction_stream, _check_reduction, ("tree",), prepare=_reducible),
    "bounds": Suite(
        _bounds_stream, _check_bounds, ("tree", "claimed_at"), ("claimed_at",), _reducible
    ),
    "embedding": Suite(_embedding_stream, _check_embedding, ("tree", "payoff")),
}

SUITE_NAMES = tuple(SUITES)


def _record(suite: Suite, instance: tuple, outcome: dict) -> dict:
    record = {name: _CODECS[name][1](value) for name, value in zip(suite.fields, instance)}
    return {**record, **outcome}


def _instance(suite: Suite, record: object) -> tuple:
    if not isinstance(record, dict):
        raise ValueError("is not an object")
    fields = []
    for name in suite.fields:
        if name in record:
            kind, _, read = _CODECS[name]
            try:
                if not isinstance(record[name], kind):
                    raise ValueError(f"is not a {kind.__name__}")
                fields.append(read(record[name]))
            except (TreeError, PayoffError, ValueError) as exc:
                raise ValueError(f"{name} {exc}") from None
        elif name not in suite.optional:
            raise ValueError(f"has no {name}")
    return suite.prepare(tuple(fields))


@dataclass(frozen=True)
class CampaignConfig:
    max_size: int = 6
    payoffs_per_tree: int = 20
    seed: int = 1
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self) -> None:
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ValueError(f"suites named more than once: {', '.join(repeated)}")
        if not self.suites:  # a campaign that runs no suite checks nothing
            raise ValueError("suites must name at least one suite")
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        if self.payoffs_per_tree < 1:  # the oracle and def34 suites would check nothing
            raise ValueError(f"payoffs_per_tree must be at least 1, got {self.payoffs_per_tree}")


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexamples: list[dict] = field(default_factory=list)


@dataclass
class Report:
    config: CampaignConfig
    suites: list[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.failed == 0 for s in self.suites)

    @property
    def total(self) -> int:
        return sum(s.passed + s.failed for s in self.suites)

    def render(self) -> str:
        cfg = self.config
        lines = [
            "campaign v1",
            f"config: max_size={cfg.max_size} payoffs_per_tree={cfg.payoffs_per_tree} "
            f"seed={cfg.seed} suites={','.join(cfg.suites)}",
        ]
        for suite in self.suites:
            total = suite.passed + suite.failed
            lines.append(f"suite {suite.name}: {suite.passed}/{total} pass")
            for ce in suite.counterexamples:
                lines.append("  counterexample: " + " ".join(f"{k}={ce[k]!r}" for k in sorted(ce)))
        lines.append(f"total instances: {self.total}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {**asdict(self), "total": self.total, "ok": self.ok}


def run_campaign(cfg: CampaignConfig) -> Report:
    """Run the configured suites in declaration order: each instance of a
    suite's stream goes through its check, and a failing one is recorded."""
    results = []
    for name in cfg.suites:
        suite = SUITES[name]
        result = SuiteResult(name)
        for instance in suite.stream(cfg):
            ok, outcome = suite.check(instance)
            if ok:
                result.passed += 1
            else:
                result.failed += 1
                result.counterexamples.append(_record(suite, instance, outcome))
        results.append(result)
    return Report(cfg, results)


def replay(report: dict) -> list[tuple[bool, dict]]:
    """Re-run every counterexample of a ``lab --json`` report, in report
    order, through the check that recorded it: whether each instance now
    passes, and the record its check gives now.  Every record is read
    back into its instance first, so one whose fields cannot be read, or
    that its suite refuses to prepare, raises ``ValueError`` before any
    check runs."""
    suites = report.get("suites") if isinstance(report, dict) else None
    if not isinstance(suites, list):
        raise ValueError("a lab report is a JSON object with a suites list")
    instances = []
    for entry in suites:
        name = entry.get("name") if isinstance(entry, dict) else None
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite in report: {name!r}")
        suite, records = SUITES[name], entry.get("counterexamples")
        if not isinstance(records, list):
            raise ValueError(f"suite {name}: counterexamples is not a list")
        for index, record in enumerate(records):
            try:
                instances.append((suite, _instance(suite, record)))
            except (ValueError, SolverError) as exc:
                raise ValueError(f"suite {name} counterexample {index}: {exc}") from None
    replayed = []
    for suite, instance in instances:
        ok, outcome = suite.check(instance)
        replayed.append((ok, _record(suite, instance, outcome)))
    return replayed
