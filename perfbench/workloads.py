"""One operation per instance, as the `bcgames` command line runs it,
with the correctness checks on its outputs and the exact work counters.

Every call into the library goes through ``tr.call(span_name, fn, ...)``
so a traced pass puts a span around it; span names are
``<module>.<function>`` and become the per-layer ``<name>_s`` metrics.
An operation returns the bytes of its rendered output, which the pass
hashes, and raises ``CheckFailed`` when a check on its output fails.
"""

from __future__ import annotations

import hashlib
import json
from statistics import median
from time import perf_counter

from bcgames.embedding import build_rho, pull_back_strategy, push_game
from bcgames.lab import CampaignConfig, Report, run_campaign
from bcgames.payoff import DiffPayoff, compile_diff, parse_payoff
from bcgames.players import Player
from bcgames.reduction import (
    build_reduction_game,
    check_cardinality_bound,
    decode,
    extract_branch,
    horizon_bound,
    principal_play,
    scan_positions,
    solve_reduction,
    verify_winning_policy,
)
from bcgames.solver import Game, Infeasible, brute_force_oracle, exit_game, solve, verify_winning
from bcgames.strategy import parse_strategy, serialize_strategy
from bcgames.trees import parse_tree, serialize_tree

import inputs
from tracing import NullTracer

SUITES = ("oracle", "def34", "reduction", "bounds", "embedding")
COUNTERS = (
    "trees.nodes",
    "payoff.entries",
    "payoff.depth_nodes",
    "solver.explored",
    "strategy.nodes",
    "reduction.states",
    "reduction.policy_states",
    "reduction.positions",
) + tuple(f"lab.suite.{s}.instances" for s in SUITES)
LAYER_SPANS = (
    "trees.parse_tree",
    "trees.serialize_tree",
    "payoff.parse_payoff",
    "payoff.compile_diff",
    "solver.game",
    "solver.solve",
    "solver.verify_winning",
    "solver.brute_force_oracle",
    "strategy.serialize_strategy",
    "strategy.parse_strategy",
    "embedding.build_rho",
    "embedding.push_game",
    "embedding.pull_back_strategy",
    "reduction.solve_reduction",
    "reduction.verify_winning_policy",
    "reduction.scan_positions",
    "reduction.extract_branch",
    "reduction.check_cardinality_bound",
    "reduction.principal_play",
    "reduction.decode",
) + tuple(f"lab.suite.{s}" for s in SUITES)

# Realizable claim traces over the 17 zero-free trees of size <= 5: the
# part of a `bounds` suite's instance count that is not one per tree.
REALIZABLE_TRACES_UP_TO_5 = 23
EMBEDDING_INSTANCES = 200


class CheckFailed(Exception):
    pass


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _dump(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _strategy_codec(tr, strategy) -> str:
    text = tr.call("strategy.serialize_strategy", serialize_strategy, strategy)
    back = tr.call("strategy.parse_strategy", parse_strategy, text)
    again = tr.call("strategy.serialize_strategy", serialize_strategy, back)
    _check(back == strategy and again == text, "strategy codec round trip")
    return text


def tree_op(case: inputs.TreeCase, tr, counters: dict) -> bytes:
    """``bcgames solve`` then ``bcgames embed`` on one tree game."""
    tree = tr.call("trees.parse_tree", parse_tree, case.tree)
    _check(tr.call("trees.serialize_tree", serialize_tree, tree) == case.tree, "tree codec round trip")
    if case.payoff is None:
        game = tr.call("solver.game", exit_game, tree)
    else:
        payoff = tr.call("payoff.parse_payoff", parse_payoff, case.payoff)
        depth = payoff.decision_depth
        if isinstance(payoff, DiffPayoff):
            payoff = tr.call("payoff.compile_diff", compile_diff, payoff, tree)
        game = tr.call("solver.game", Game, tree, payoff, depth)
    source = tr.call("solver.solve", solve, game)
    _check(tr.call("solver.verify_winning", verify_winning, game, source.strategy) is None, "source certificate")
    try:
        oracle = tr.call("solver.brute_force_oracle", brute_force_oracle, game)
    except Infeasible:
        oracle = None
    _check(oracle in (None, source.winner), "oracle agrees with solve")
    rho = tr.call("embedding.build_rho", build_rho, tree)
    pushed = tr.call("embedding.push_game", push_game, rho, game)
    image = tr.call("solver.solve", solve, pushed)
    _check(image.winner is source.winner, "source and image winners agree")
    pulled = tr.call("embedding.pull_back_strategy", pull_back_strategy, rho, image.strategy)
    _check(tr.call("solver.verify_winning", verify_winning, game, pulled) is None, "pulled-back certificate")
    texts = [_strategy_codec(tr, s) for s in (source.strategy, pulled)]

    counters["trees.nodes"] += len(tree)
    counters["payoff.entries"] += len(game.payoff.entries)
    counters["payoff.depth_nodes"] += sum(1 for n in tree.nodes if len(n) == game.decision_depth)
    counters["solver.explored"] += source.explored + image.explored
    counters["strategy.nodes"] += len(source.strategy.nodes) + len(pulled.nodes)
    return _dump(
        {
            "winner": source.winner.value,
            "explored": [source.explored, image.explored],
            "oracle_checked": oracle is not None,
            "strategies": texts,
        }
    )


def reduction_op(case: inputs.ReductionCase, tr, counters: dict) -> bytes:
    """``bcgames reduce --extract`` plus the criterion-3 checks."""
    tree = tr.call("trees.parse_tree", parse_tree, case.tree)
    result = tr.call("reduction.solve_reduction", solve_reduction, tree)
    game = tr.call("reduction.build_reduction_game", build_reduction_game, tree)
    play = tr.call("reduction.principal_play", principal_play, game, result)
    transcript = tr.call("reduction.decode", decode, game, tuple(play))
    _check(result.winner is Player.II, "player II wins")
    _check(transcript.terminal and transcript.winner is result.winner, "principal play decodes to the winner")
    counterplay = tr.call("reduction.verify_winning_policy", verify_winning_policy, game, result.strategy)
    _check(counterplay is None, "policy certificate")
    stats = tr.call("reduction.scan_positions", scan_positions, game)
    _check(stats.max_moves <= 2 and stats.max_length <= horizon_bound(tree), "move and length bounds")
    report = tr.call("reduction.extract_branch", extract_branch, tree, result.strategy)
    bound = tr.call("reduction.check_cardinality_bound", check_cardinality_bound, tree, report)
    _check(bound, "cardinality bound")
    _check(report.fail_index == case.fail_index == len(report.f), "fail index")
    _check(report.f in tree and not tree.children(report.f), "branch ends at a leaf")
    _check(case.branch is None or report.f == case.branch, "branch is the long path")

    counters["trees.nodes"] += len(tree)
    counters["reduction.states"] += result.explored
    counters["reduction.policy_states"] += len(result.strategy.moves)
    counters["reduction.positions"] += stats.positions
    return _dump(
        {
            "winner": result.winner.value,
            "explored": result.explored,
            "play": play,
            "t": list(transcript.t),
            "u0": transcript.u0,
            "v": list(transcript.v),
            "u_prime": list(transcript.u_prime),
            "rule_fired": transcript.rule,
            "branch": list(report.f),
            "fail_index": report.fail_index,
            "scan": [stats.positions, stats.max_length, stats.max_moves],
        }
    )


def _corpus_size(max_size: int) -> int:
    """Trees of at most ``max_size`` nodes, one per shape: the sum of the
    Motzkin numbers M(0) .. M(max_size - 1)."""
    motzkin = [1, 1]
    while len(motzkin) < max_size:
        n = len(motzkin)
        motzkin.append(motzkin[n - 1] + sum(motzkin[k] * motzkin[n - 2 - k] for k in range(n - 1)))
    return sum(motzkin[:max_size])


def expected_instances(suite: str, case: inputs.CampaignCase) -> int:
    """Instance count a suite's configuration implies."""
    if suite == "oracle":
        return _corpus_size(case.max_size) * case.payoffs_per_tree
    if suite == "def34":
        return _corpus_size(min(case.max_size, 5)) * case.payoffs_per_tree
    if suite == "reduction":
        return _corpus_size(min(case.max_size, 9))
    if suite == "bounds":
        if case.max_size < 5:
            raise ValueError("the bounds count is pinned for max_size >= 5")
        return _corpus_size(min(case.max_size, 9)) + REALIZABLE_TRACES_UP_TO_5
    return EMBEDDING_INSTANCES


def campaign_op(case: inputs.CampaignCase, tr, counters: dict) -> bytes:
    """One ``bcgames lab`` command, one ``run_campaign`` call per suite."""
    results = []
    for suite in case.suites:
        cfg = CampaignConfig(case.max_size, case.payoffs_per_tree, case.seed, (suite,))
        (result,) = tr.call(f"lab.suite.{suite}", run_campaign, cfg).suites
        total = result.passed + result.failed
        _check(total == expected_instances(suite, case), f"{suite} instance count")
        counters[f"lab.suite.{suite}.instances"] += total
        results.append(result)
    report = Report(CampaignConfig(case.max_size, case.payoffs_per_tree, case.seed, case.suites), results)
    _check(report.ok, "campaign passes")
    _check(report.total == sum(expected_instances(s, case) for s in case.suites), "campaign total")
    return report.render().encode()


OPS = {"campaign": campaign_op, "tree-large": tree_op, "reduction-large": reduction_op}


def _op_name(case) -> str:
    if isinstance(case, inputs.CampaignCase):
        return f"lab-{','.join(case.suites)}-max{case.max_size}"
    return case.name


def run_pass(workload: str, cases, tr) -> dict:
    """One timed pass over every instance; failures are recorded, not raised."""
    op = OPS[workload]
    counters = dict.fromkeys(COUNTERS, 0)
    rendered = hashlib.sha256()
    failures = []
    start = perf_counter()
    with tr.span("bench.pass"):
        for case in cases:
            name = _op_name(case)
            try:
                with tr.span(f"op.{name}"):
                    rendered.update(op(case, tr, counters))
            except Exception as exc:  # a failed operation is counted, and the pass goes on
                failures.append([name, type(exc).__name__, str(exc)[:200]])
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "ops": len(cases),
        "failures": failures,
        "counters": counters,
        "digest": rendered.hexdigest(),
    }


def run_probes(workload: str, seed: int) -> list[list]:
    """The known-hard inputs, untimed: [name, outcome], where the outcome is
    "ok" or the class of the error that ended the operation."""
    out = []
    for case in inputs.probes(seed)[workload]:
        try:
            OPS[workload](case, NullTracer(), dict.fromkeys(COUNTERS, 0))
            out.append([case.name, "ok"])
        except Exception as exc:  # reported with its class, never retried or hidden
            out.append([case.name, type(exc).__name__])
    return out


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer values: median self time per span over the traced
    passes, the exact counters, cost per unit of work and tracing
    overhead."""
    per_pass = [p["self_times"] for p in traced]
    values = {f"{name}_s": median(t.get(name, 0.0) for t in per_pass) for name in LAYER_SPANS}
    values["bench.self_s"] = median(
        sum(v for k, v in t.items() if k.startswith("op.") or k == "bench.pass") for t in per_pass
    )
    counters = traced[0]["counters"]
    values.update(counters)
    explored, states = counters["solver.explored"], counters["reduction.states"]
    values["solver.solve_us_per_node"] = values["solver.solve_s"] / explored * 1e6 if explored else 0.0
    values["reduction.solve_us_per_state"] = (
        values["reduction.solve_reduction_s"] / states * 1e6 if states else 0.0
    )
    traced_wall = median(p["ref_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / median(p["ref_s"] for p in untraced) - 1.0
    return values
