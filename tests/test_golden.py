"""Golden digests of the command line's JSON payloads and of the
reduction game's states.

They pin every byte of ``solve --json`` over the size <= 7 corpus under
seeded campaign payoffs, and of ``reduce --extract --json`` over the
zero-free size <= 7 corpus: winners, strategies, explored node counts,
principal plays and extracted branches.  The reduction's ``explored``
is left out there, because it counts the solver's states rather than
anything about the game.  The state digest pins exactly that over the
same corpus, together with every state of the winning policy in its
insertion order and the position scan, so a change in how states are
represented cannot change the game they describe.
"""

import contextlib
import hashlib
import io
import json

from bcgames import cli
from bcgames.lab import random_payoffs
from bcgames.payoff import serialize_payoff
from bcgames.reduction import build_reduction_game, scan_positions, solve_reduction
from bcgames.trees import enumerate_trees, serialize_tree

SOLVE_DIGEST = "7fa760ae4bd8aa2775bdeb31ea6832744086676ed5194ae5c9c0dccc06bcf8fe"
REDUCE_DIGEST = "704293befd736b4d520ccd84bfe393c82f75552ad484ac4776e3d49b4051c5ea"
STATE_DIGEST = "b1c79e344405e96e5fc454600863f5527c1b64e940d04a48f6b8138c3e2919e5"

# Read by name, in declared order, so the digest does not depend on how
# a state is stored.
STATE_FIELDS = (
    "phase", "step", "cur", "t", "u0", "a2", "v_len", "v0_ok", "u_len", "winner", "rule"
)


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def solve_digest(workdir) -> str:
    tree_path, payoff_path = workdir / "tree.txt", workdir / "payoff.txt"
    digest = hashlib.sha256()
    for index, tree in enumerate(enumerate_trees(7)):
        tree_path.write_text(serialize_tree(tree), encoding="utf-8")
        for payoff in random_payoffs(tree, 5, seed=1 + index, depth=4):
            payoff_path.write_text(serialize_payoff(payoff), encoding="utf-8")
            argv = ["solve", "--tree", str(tree_path), "--payoff", str(payoff_path), "--json"]
            digest.update(_stdout(argv).encode())
    return digest.hexdigest()


def reduce_digest(workdir) -> str:
    tree_path = workdir / "tree.txt"
    digest = hashlib.sha256()
    for tree in enumerate_trees(7, zero_free=True):
        tree_path.write_text(serialize_tree(tree), encoding="utf-8")
        payload = json.loads(_stdout(["reduce", "--tree", str(tree_path), "--extract", "--json"]))
        del payload["explored"]
        digest.update((json.dumps(payload, sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def state_digest() -> str:
    digest = hashlib.sha256()
    for tree in enumerate_trees(7, zero_free=True):
        result = solve_reduction(tree)
        policy = [
            [[getattr(state, name) for name in STATE_FIELDS], move]
            for state, move in result.strategy.moves.items()
        ]
        stats = scan_positions(build_reduction_game(tree))
        record = [
            result.explored,
            policy,
            [stats.positions, stats.max_length, stats.max_moves],
        ]
        line = json.dumps(record, default=lambda player: player.value)
        digest.update((line + "\n").encode())
    return digest.hexdigest()


def test_solve_payloads_match_golden_digest(tmp_path):
    assert solve_digest(tmp_path) == SOLVE_DIGEST


def test_reduce_payloads_match_golden_digest(tmp_path):
    assert reduce_digest(tmp_path) == REDUCE_DIGEST


def test_reduction_states_match_golden_digest():
    assert state_digest() == STATE_DIGEST
