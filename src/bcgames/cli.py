"""Command line front end.

Exit codes: 0 success, 1 validation or infeasibility error, 2 usage
error, 3 campaign suite failure, or a replayed counterexample that still
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from . import lab
from .embedding import EmbeddingError, build_rho, pull_back_strategy, push_game
from .payoff import PayoffError, parse_payoff, serialize_payoff
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
    Infeasible,
    SolveResult,
    SolverError,
    brute_force_oracle,
    def3_winner,
    exit_game,
    game_for,
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


def _emit(args, payload: dict, lines: list[str]) -> int:
    """Print a solving command's answer: its payload as one sorted-key
    JSON line under ``--json``, its text lines otherwise."""
    print(json.dumps(payload, sort_keys=True) if args.json else "\n".join(lines))
    return 0


def _load_game(args) -> Game:
    tree = parse_tree(_read(args.tree))
    if args.payoff is None:
        return exit_game(tree)
    return game_for(tree, parse_payoff(_read(args.payoff)))


def _cmd_solve(args) -> int:
    game = _load_game(args)
    result = solve(game)
    winner, oracle_checked, agree = result.winner, False, None
    # Both readings have the induction's winner; the brute forces check it up to PAIR_CAP.
    with contextlib.suppress(Infeasible):
        restricted = brute_force_oracle(game)
        if restricted is not winner:
            raise SolverError(f"solve names {winner.value} but the brute force {restricted.value}")
        oracle_checked = True
        if args.semantics == "def3":
            agree = def3_winner(game) is restricted
    payload = {
        "winner": winner.value,
        "strategy_nodes": [list(n) for n in sorted(result.strategy.nodes)],
        "explored": result.explored,
        "oracle_checked": oracle_checked,
        "def3_def4_agree": agree,
    }
    return _emit(args, payload, [f"winner: {winner.value}", f"explored: {result.explored} nodes"])


def _solved_reduction(args) -> tuple[FiniteTree, bool, SolveResult]:
    """The reduction game's input tree, whether its labels were shifted to
    make it zero-free, and the game's solution."""
    tree = parse_tree(_read(args.tree))
    transformed = not is_zero_free(tree)
    if transformed:
        tree = zero_free_transform(tree)
    return tree, transformed, solve_reduction(tree)


def _cmd_reduce(args) -> int:
    tree, transformed, result = _solved_reduction(args)
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
    lines = [f"winner: {payload['winner']}", f"principal play rule: {payload['rule_fired']}"]
    if args.extract:
        payload["branch"] = _branch_payload(tree, result)
        lines.append(f"extracted branch: {payload['branch']['f']}")
    return _emit(args, payload, lines)


def _branch_payload(tree: FiniteTree, result) -> dict:
    report = extract_branch(tree, result.strategy)
    return {
        "f": list(report.f),
        "fail_index": report.fail_index,
        "bound_holds": check_cardinality_bound(tree, report),
    }


def _cmd_extract(args) -> int:
    tree, transformed, result = _solved_reduction(args)
    payload = _branch_payload(tree, result)
    payload["zero_free_applied"] = transformed
    payload["winner"] = result.winner.value
    lines = [
        f"branch: {payload['f']}",
        f"fail index: {payload['fail_index']}",
        f"bound holds: {payload['bound_holds']}",
    ]
    return _emit(args, payload, lines)


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
    lines = [
        f"source winner: {payload['source_winner']}",
        f"range winner:  {payload['range_winner']}",
        f"pull-back certified: {payload['pulled_strategy_certified']}",
    ]
    return _emit(args, payload, lines)


def _cmd_fmt(args) -> int:
    if args.tree is not None:
        text = serialize_tree(parse_tree(_read(args.tree)))
    elif args.payoff is not None:
        text = serialize_payoff(parse_payoff(_read(args.payoff)))
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

    def command(name: str, func, summary: str, parents=()) -> argparse.ArgumentParser:
        sub_p = sub.add_parser(name, parents=list(parents), help=summary)
        sub_p.set_defaults(func=func)
        return sub_p

    # The arguments the solving commands share, declared once.
    tree_args = argparse.ArgumentParser(add_help=False)
    tree_args.add_argument("--tree", required=True)
    tree_args.add_argument("--json", action="store_true")
    game_args = argparse.ArgumentParser(add_help=False, parents=[tree_args])
    game_args.add_argument("--payoff", default=None, help="payoff file; omitted = pure exit game")

    solve_p = command("solve", _cmd_solve, "solve a game on a tree", [game_args])
    solve_p.add_argument("--semantics", choices=("def3", "def4"), default="def4")
    reduce_p = command("reduce", _cmd_reduce, "build and solve the reduction game", [tree_args])
    reduce_p.add_argument("--extract", action="store_true", help="also extract the branch")
    command("extract", _cmd_extract, "extract a branch from the winning policy", [tree_args])
    command("embed", _cmd_embed, "embed into the {0,1} tree and compare winners", [game_args])

    fmt_p = command("fmt", _cmd_fmt, "reprint a file in canonical form")
    files = fmt_p.add_mutually_exclusive_group(required=True)
    files.add_argument("--tree", default=None)
    files.add_argument("--payoff", default=None)
    files.add_argument("--strategy", default=None)
    fmt_p.add_argument("--out", default=None)

    lab_p = command("lab", _cmd_lab, "run verification campaigns")
    lab_p.add_argument("--max-size", type=int, default=6, dest="max_size")
    lab_p.add_argument("--payoffs-per-tree", type=int, default=20, dest="payoffs_per_tree")
    lab_p.add_argument("--seed", type=int, default=1)
    lab_p.add_argument("--suites", default=",".join(lab.SUITE_NAMES))
    lab_p.add_argument("--json", action="store_true")
    lab_p.add_argument("--out", default=None)

    replay_p = command("replay", _cmd_replay, "re-run the counterexamples of a lab --json report")
    replay_p.add_argument("--report", required=True)

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
