"""Command line front end.

Exit codes: 0 success, 1 validation or infeasibility error, 2 usage
error, 3 campaign suite failure, or a replayed counterexample that still
fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import lab
from .embedding import EmbeddingError, build_rho, pull_back_strategy, push_game
from .payoff import (
    DiffPayoff,
    PayoffError,
    compile_diff,
    parse_payoff,
    serialize_diff,
    serialize_payoff,
)
from .reduction import (
    ReductionError,
    build_reduction_game,
    check_cardinality_bound,
    decode,
    extract_branch,
    principal_play,
    solve_reduction,
)
from .solver import (
    Game,
    SolverError,
    brute_force_oracle,
    check_def3_def4,
    exit_game,
    solve,
    verify_winning,
)
from .strategy import StrategyError, parse_strategy, serialize_strategy
from .trees import (
    FiniteTree, TreeError, format_node, is_zero_free, parse_tree, serialize_tree, zero_free_transform
)

_ERRORS = (TreeError, PayoffError, StrategyError, SolverError, ReductionError, EmbeddingError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_game(args) -> Game:
    tree = parse_tree(_read(args.tree))
    if args.payoff is None:
        return exit_game(tree)
    payoff = parse_payoff(_read(args.payoff))
    depth = payoff.decision_depth
    if isinstance(payoff, DiffPayoff):
        payoff = compile_diff(payoff, tree)
    return Game(tree, payoff, depth)


def _cmd_solve(args) -> int:
    game = _load_game(args)
    result = solve(game)
    agree = None
    if args.semantics == "def3":
        report = check_def3_def4(game)
        agree = report.agree
        winner = report.regular_winner
        oracle_checked = report.restricted_winner is result.winner
    else:
        winner = result.winner
        try:
            oracle_checked = brute_force_oracle(game) is result.winner
        except SolverError:
            oracle_checked = False
    payload = {
        "winner": winner.value,
        "strategy_nodes": [list(n) for n in sorted(result.strategy.nodes)],
        "explored": result.explored,
        "oracle_checked": oracle_checked,
        "def3_def4_agree": agree,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"winner: {winner.value}")
        print(f"explored: {result.explored} nodes")
    return 0


def _reduction_input(args) -> tuple[FiniteTree, bool]:
    tree = parse_tree(_read(args.tree))
    if is_zero_free(tree):
        return tree, False
    return zero_free_transform(tree), True


def _cmd_reduce(args) -> int:
    tree, transformed = _reduction_input(args)
    result = solve_reduction(tree)
    game = build_reduction_game(tree)
    play = principal_play(game, result)
    transcript = decode(game, tuple(play))
    payload = {
        "winner": result.winner.value,
        "zero_free_applied": transformed,
        "explored": result.explored,
        "t": list(transcript.t),
        "u0": transcript.u0,
        "v": list(transcript.v),
        "u_prime": list(transcript.u_prime),
        "rule_fired": transcript.rule,
    }
    if getattr(args, "extract", False):
        payload["branch"] = _branch_payload(tree, result)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"winner: {payload['winner']}")
        print(f"principal play rule: {payload['rule_fired']}")
        if "branch" in payload:
            print(f"extracted branch: {payload['branch']['f']}")
    return 0


def _branch_payload(tree: FiniteTree, result) -> dict:
    report = extract_branch(tree, result.strategy)
    return {
        "f": list(report.f),
        "fail_index": report.fail_index,
        "bound_holds": check_cardinality_bound(tree, report),
    }


def _cmd_extract(args) -> int:
    tree, transformed = _reduction_input(args)
    result = solve_reduction(tree)
    payload = _branch_payload(tree, result)
    payload["zero_free_applied"] = transformed
    payload["winner"] = result.winner.value
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"branch: {payload['f']}")
        print(f"fail index: {payload['fail_index']}")
        print(f"bound holds: {payload['bound_holds']}")
    return 0


def _cmd_embed(args) -> int:
    game = _load_game(args)
    rho = build_rho(game.tree)
    pushed = push_game(rho, game)
    source = solve(game)
    image = solve(pushed)
    pulled = pull_back_strategy(rho, image.strategy)
    payload = {
        "pairs": {format_node(k): format_node(v) for k, v in sorted(rho.forward.items())},
        "source_winner": source.winner.value,
        "range_winner": image.winner.value,
        "winners_agree": source.winner is image.winner,
        "pulled_strategy_certified": verify_winning(game, pulled) is None,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"source winner: {payload['source_winner']}")
        print(f"range winner:  {payload['range_winner']}")
        print(f"pull-back certified: {payload['pulled_strategy_certified']}")
    return 0


def _cmd_fmt(args) -> int:
    given = [opt for opt in (args.tree, args.payoff, args.strategy) if opt is not None]
    if len(given) != 1:
        print("fmt needs exactly one of --tree, --payoff, --strategy", file=sys.stderr)
        return 2
    if args.tree is not None:
        text = serialize_tree(parse_tree(_read(args.tree)))
    elif args.payoff is not None:
        payoff = parse_payoff(_read(args.payoff))
        text = (
            serialize_diff(payoff)
            if isinstance(payoff, DiffPayoff)
            else serialize_payoff(payoff)
        )
    else:
        text = serialize_strategy(parse_strategy(_read(args.strategy)))
    _write_out(text, args.out)
    return 0


def _cmd_lab(args) -> int:
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    cfg = lab.CampaignConfig(
        max_size=args.max_size,
        payoffs_per_tree=args.payoffs_per_tree,
        seed=args.seed,
        suites=suites,
    )
    started = time.monotonic()
    report = lab.run_campaign(cfg)
    elapsed = time.monotonic() - started
    text = json.dumps(report.to_json(), sort_keys=True) + "\n" if args.json else report.render()
    _write_out(text, args.out)
    print(f"campaign wall-clock: {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.ok else 3


def _cmd_replay(args) -> int:
    try:
        report = json.loads(_read(args.report))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.report} is not a JSON lab report: {exc}") from None
    replayed = lab.replay(report)
    for _, record in replayed:
        print(json.dumps(record, sort_keys=True))
    return 0 if all(ok for ok, _ in replayed) else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bcgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve a game on a tree")
    solve_p.add_argument("--tree", required=True)
    solve_p.add_argument("--payoff", default=None, help="payoff file; omitted = pure exit game")
    solve_p.add_argument("--semantics", choices=("def3", "def4"), default="def4")
    solve_p.add_argument("--json", action="store_true")
    solve_p.set_defaults(func=_cmd_solve)

    reduce_p = sub.add_parser("reduce", help="build and solve the reduction game")
    reduce_p.add_argument("--tree", required=True)
    reduce_p.add_argument("--extract", action="store_true", help="also extract the branch")
    reduce_p.add_argument("--json", action="store_true")
    reduce_p.set_defaults(func=_cmd_reduce)

    extract_p = sub.add_parser("extract", help="extract a branch from the winning policy")
    extract_p.add_argument("--tree", required=True)
    extract_p.add_argument("--json", action="store_true")
    extract_p.set_defaults(func=_cmd_extract)

    embed_p = sub.add_parser("embed", help="embed into the {0,1} tree and compare winners")
    embed_p.add_argument("--tree", required=True)
    embed_p.add_argument("--payoff", default=None)
    embed_p.add_argument("--json", action="store_true")
    embed_p.set_defaults(func=_cmd_embed)

    fmt_p = sub.add_parser("fmt", help="reprint a file in canonical form")
    fmt_p.add_argument("--tree", default=None)
    fmt_p.add_argument("--payoff", default=None)
    fmt_p.add_argument("--strategy", default=None)
    fmt_p.add_argument("--out", default=None)
    fmt_p.set_defaults(func=_cmd_fmt)

    lab_p = sub.add_parser("lab", help="run verification campaigns")
    lab_p.add_argument("--max-size", type=int, default=6, dest="max_size")
    lab_p.add_argument("--payoffs-per-tree", type=int, default=20, dest="payoffs_per_tree")
    lab_p.add_argument("--seed", type=int, default=1)
    lab_p.add_argument("--suites", default=",".join(lab.SUITE_NAMES))
    lab_p.add_argument("--json", action="store_true")
    lab_p.add_argument("--out", default=None)
    lab_p.set_defaults(func=_cmd_lab)

    replay_p = sub.add_parser("replay", help="re-run the counterexamples of a lab --json report")
    replay_p.add_argument("--report", required=True)
    replay_p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # OSError: an input file that cannot be read or an --out file that
    # cannot be written.
    try:
        return args.func(args)
    except (*_ERRORS, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
