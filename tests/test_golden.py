"""Golden digests of the command line's JSON payloads.

They pin every byte of ``solve --json`` over the size <= 7 corpus under
seeded campaign payoffs, and of ``reduce --extract --json`` over the
zero-free size <= 7 corpus: winners, strategies, explored node counts,
principal plays and extracted branches.  The reduction's ``explored``
is left out, because it counts the solver's states rather than anything
about the game.
"""

import contextlib
import hashlib
import io
import json

from bcgames import cli
from bcgames.lab import random_payoffs
from bcgames.payoff import serialize_payoff
from bcgames.trees import enumerate_trees, serialize_tree

SOLVE_DIGEST = "7fa760ae4bd8aa2775bdeb31ea6832744086676ed5194ae5c9c0dccc06bcf8fe"
REDUCE_DIGEST = "704293befd736b4d520ccd84bfe393c82f75552ad484ac4776e3d49b4051c5ea"


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


def test_solve_payloads_match_golden_digest(tmp_path):
    assert solve_digest(tmp_path) == SOLVE_DIGEST


def test_reduce_payloads_match_golden_digest(tmp_path):
    assert reduce_digest(tmp_path) == REDUCE_DIGEST
