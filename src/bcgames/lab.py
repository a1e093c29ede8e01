"""Verification campaigns over enumerated instance corpora.

Every suite replays an exhaustive or seeded family of instances and
cross-checks independent routes against each other: the solver against
the restricted-strategy brute force, the two determinacy readings
against one another, the reduction game against its invariants and
bounds, and the embedding round trip.  Campaign randomness comes from
SplitMix64, a fixed 64-bit generator implemented here so that the same
seed reproduces the same corpus on any platform.

A report is a deterministic function of its configuration: identical
config means byte-identical rendered output.  Timing therefore never
appears in a report; the command line prints it separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .embedding import build_rho, pull_back_strategy, push_game
from .payoff import ClopenAntichain, parse_payoff, serialize_payoff
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
from .solver import Game, brute_force_oracle, check_def3_def4, normal_form, solve, verify_winning
from .trees import FiniteTree, enumerate_trees, parse_tree, serialize_tree

_MASK = (1 << 64) - 1

SUITE_NAMES = ("oracle", "def34", "reduction", "bounds", "embedding")

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


def game_for(tree: FiniteTree, payoff: ClopenAntichain) -> Game:
    return Game(tree, payoff, payoff.decision_depth)


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

    def record(self, ok: bool, counterexample: Callable[[], dict]) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.counterexamples.append(counterexample())


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
                lines.append("  counterexample: " + _render_counterexample(ce))
        lines.append(f"total instances: {self.total}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "config": {
                "max_size": self.config.max_size,
                "payoffs_per_tree": self.config.payoffs_per_tree,
                "seed": self.config.seed,
                "suites": list(self.config.suites),
            },
            "suites": [
                {
                    "name": s.name,
                    "passed": s.passed,
                    "failed": s.failed,
                    "counterexamples": s.counterexamples,
                }
                for s in self.suites
            ],
            "total": self.total,
            "ok": self.ok,
        }


def _render_counterexample(ce: dict) -> str:
    parts = [f"{key}={ce[key]!r}" for key in sorted(ce)]
    return " ".join(parts)


def _payoff_record(tree: FiniteTree, payoff: ClopenAntichain, **extra) -> dict:
    record = {"tree": serialize_tree(tree), "payoff": serialize_payoff(payoff)}
    record.update(extra)
    return record


def run_suite_oracle(cfg: CampaignConfig) -> SuiteResult:
    """Solver winner versus restricted-strategy brute force, plus the
    winner's certificate, over every canonical tree and seeded payoff."""
    result = SuiteResult("oracle")
    for index, tree in enumerate(enumerate_trees(cfg.max_size)):
        form = normal_form(tree)
        payoffs = random_payoffs(tree, cfg.payoffs_per_tree, cfg.seed + index, depth=4)
        for payoff in payoffs:
            game = game_for(tree, payoff)
            solved = solve(game)
            oracle = form.winner(game)
            certified = verify_winning(game, solved.strategy) is None
            ok = solved.winner is oracle and certified
            result.record(
                ok,
                lambda t=tree, p=payoff, s=solved, o=oracle, c=certified: _payoff_record(
                    t, p, solver=s.winner.value, oracle=o.value, certified=c
                ),
            )
    return result


def run_suite_def34(cfg: CampaignConfig) -> SuiteResult:
    """Agreement of the two determinacy readings on the small corpus."""
    result = SuiteResult("def34")
    for index, tree in enumerate(enumerate_trees(min(cfg.max_size, 5))):
        payoffs = random_payoffs(tree, cfg.payoffs_per_tree, cfg.seed + index, depth=4)
        for payoff in payoffs:
            report = check_def3_def4(game_for(tree, payoff))
            result.record(
                report.agree,
                lambda t=tree, p=payoff, r=report: _payoff_record(
                    t,
                    p,
                    regular=r.regular_winner.value,
                    restricted=r.restricted_winner.value,
                ),
            )
    return result


def run_suite_reduction(cfg: CampaignConfig) -> SuiteResult:
    """Player II wins every reduction game, certified, with at most two
    legal moves at every reachable position and a bounded play length."""
    result = SuiteResult("reduction")
    for tree in enumerate_trees(min(cfg.max_size, 9), zero_free=True):
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
        result.record(
            ok,
            lambda t=tree, s=solved, c=counterplay, st=stats: {
                "tree": serialize_tree(t),
                "winner": s.winner.value,
                "counterplay": c,
                "max_moves": st.max_moves,
                "max_length": st.max_length,
            },
        )
    return result


def run_suite_bounds(cfg: CampaignConfig) -> SuiteResult:
    """Cardinality bounds for the branch extracted from the solver's
    policy everywhere, and from every winning policy on small trees."""
    result = SuiteResult("bounds")
    for tree in enumerate_trees(min(cfg.max_size, 9), zero_free=True):
        solved = solve_reduction(tree)
        report = extract_branch(tree, solved.strategy)
        ok = report.fail_index is not None and check_cardinality_bound(tree, report)
        result.record(
            ok,
            lambda t=tree, r=report: {
                "tree": serialize_tree(t),
                "f": list(r.f),
                "fail_index": r.fail_index,
            },
        )
    for tree in enumerate_trees(min(cfg.max_size, 5), zero_free=True):
        for node, realizable in realizable_claim_traces(tree):
            if not realizable:
                continue
            trace_ok = not tree.children(node) and check_cardinality_bound(
                tree, BranchReport(node, len(node))
            )
            result.record(
                trace_ok,
                lambda t=tree, n=node: {"tree": serialize_tree(t), "claimed_at": list(n)},
            )
    return result


def run_suite_embedding(cfg: CampaignConfig) -> SuiteResult:
    """Winner preservation through the {0,1} embedding plus certification
    of the pulled-back strategy, on seeded instances."""
    result = SuiteResult("embedding")
    corpus = list(enumerate_trees(min(cfg.max_size, 9)))
    rng = SplitMix64(cfg.seed ^ 0xE3BEDD1)
    for i in range(EMBEDDING_INSTANCES):
        tree = corpus[rng.below(len(corpus))]
        payoff = random_payoffs(tree, 1, cfg.seed + 7919 * i, depth=4)[0]
        game = game_for(tree, payoff)
        rho = build_rho(tree)
        pushed = push_game(rho, game)
        source = solve(game)
        image = solve(pushed)
        pulled = pull_back_strategy(rho, image.strategy)
        ok = source.winner is image.winner and verify_winning(game, pulled) is None
        result.record(
            ok,
            lambda t=tree, p=payoff, s=source, m=image: _payoff_record(
                t, p, source=s.winner.value, image=m.winner.value
            ),
        )
    return result


_SUITE_RUNNERS = {
    "oracle": run_suite_oracle,
    "def34": run_suite_def34,
    "reduction": run_suite_reduction,
    "bounds": run_suite_bounds,
    "embedding": run_suite_embedding,
}


def run_campaign(cfg: CampaignConfig) -> Report:
    """Run the configured suites in declaration order and merge results
    deterministically."""
    suites = [_SUITE_RUNNERS[name](cfg) for name in cfg.suites]
    return Report(cfg, suites)


def replay_counterexample(record: dict) -> dict:
    """Re-run the solver routes on a recorded instance.

    Feeding back a counterexample reproduces the recorded outcome, which
    is what makes campaign failures debuggable offline.
    """
    tree = parse_tree(record["tree"])
    out: dict = {}
    if "payoff" in record:
        payoff = parse_payoff(record["payoff"])
        game = game_for(tree, payoff)
        out["solver"] = solve(game).winner.value
        out["oracle"] = brute_force_oracle(game).value
    else:
        solved = solve_reduction(tree)
        out["winner"] = solved.winner.value
    return out
