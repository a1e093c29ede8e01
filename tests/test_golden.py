"""Golden digests of the command line's JSON payloads and of the
reduction game's states.

They pin every byte of ``solve --json`` over the size <= 7 corpus under
seeded campaign payoffs, and of ``reduce --extract --json`` over the
zero-free size <= 7 corpus: winners, strategies, explored node counts,
principal plays and extracted branches.  The reduction's ``explored``
is left out there, because it counts the states the solver's search
evaluated rather than anything about the game.  The state digest pins
the reachable states instead, counted by the full walk
(``oracles.retrograde``) over the same corpus, on the reduction game
with both phase-4 lengths kept
(``oracles.FullReductionGame``, the reference the quotiented game is
tested against), together with every state of its winning policy in
insertion order and the position scan, so a change in how its states
are represented cannot change the game they describe.  The embed digest
pins every byte of ``embed --json`` over the size <= 7 corpus relabelled
with sparse drawn labels, under the exit payoff and two seeded campaign
payoffs per tree, so that two-child parents order their successors by
value and a lone child sits on either label.  The lab digest pins every
byte of the default ``lab`` report, of one ``lab --json`` report, and of
a failing campaign's report, rendered and as JSON: the failing campaign
runs with every suite's route in ``faults`` patched in, so its
counterexample records are pinned too.
"""

import contextlib
import hashlib
import io
import json

from bcgames import cli
from bcgames.lab import CampaignConfig, SplitMix64, random_payoffs, run_campaign
from bcgames.payoff import serialize_payoff
from bcgames.reduction import scan_positions
from bcgames.trees import enumerate_trees, serialize_tree
from faults import patch_faults
from oracles import FullReductionGame, relabel, retrograde

SOLVE_DIGEST = "7fa760ae4bd8aa2775bdeb31ea6832744086676ed5194ae5c9c0dccc06bcf8fe"
REDUCE_DIGEST = "704293befd736b4d520ccd84bfe393c82f75552ad484ac4776e3d49b4051c5ea"
STATE_DIGEST = "b1c79e344405e96e5fc454600863f5527c1b64e940d04a48f6b8138c3e2919e5"
EMBED_DIGEST = "ad1875758ff8146ffab6b86d5bfe8a113d3d3e912d0f7090e004574add48d830"
LAB_DIGEST = "7edc7263a51a95967550b9f63b66f0b0e86f0a25fb19045ca7a81e2322a091aa"

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


def embed_digest(workdir) -> str:
    tree_path, payoff_path = workdir / "tree.txt", workdir / "payoff.txt"
    rng = SplitMix64(0xE3BED)
    digest = hashlib.sha256()
    for index, shape in enumerate(enumerate_trees(7)):
        tree = relabel(shape, rng)
        tree_path.write_text(serialize_tree(tree), encoding="utf-8")
        digest.update(_stdout(["embed", "--tree", str(tree_path), "--json"]).encode())
        for payoff in random_payoffs(tree, 2, seed=1 + index, depth=4):
            payoff_path.write_text(serialize_payoff(payoff), encoding="utf-8")
            argv = ["embed", "--tree", str(tree_path), "--payoff", str(payoff_path), "--json"]
            digest.update(_stdout(argv).encode())
    return digest.hexdigest()


def state_digest() -> str:
    digest = hashlib.sha256()
    for tree in enumerate_trees(7, zero_free=True):
        game = FullReductionGame(tree)
        values, moves = retrograde(game)
        policy = [
            [[getattr(state, name) for name in STATE_FIELDS], move]
            for state, move in moves.items()
        ]
        stats = scan_positions(game)
        record = [
            len(values),
            policy,
            [stats.positions, stats.max_length, stats.max_moves],
        ]
        line = json.dumps(record, default=lambda player: player.value)
        digest.update((line + "\n").encode())
    return digest.hexdigest()


def lab_digest(monkeypatch) -> str:
    digest = hashlib.sha256()
    digest.update(_stdout(["lab"]).encode())
    digest.update(_stdout(["lab", "--json", "--max-size", "5", "--seed", "7"]).encode())
    patch_faults(monkeypatch)
    report = run_campaign(CampaignConfig(max_size=6, payoffs_per_tree=3, seed=5))
    assert not report.ok
    digest.update(report.render().encode())
    digest.update((json.dumps(report.to_json(), sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def test_solve_payloads_match_golden_digest(tmp_path):
    assert solve_digest(tmp_path) == SOLVE_DIGEST


def test_reduce_payloads_match_golden_digest(tmp_path):
    assert reduce_digest(tmp_path) == REDUCE_DIGEST


def test_reduction_states_match_golden_digest():
    assert state_digest() == STATE_DIGEST


def test_embed_payloads_match_golden_digest(tmp_path):
    assert embed_digest(tmp_path) == EMBED_DIGEST


def test_lab_reports_match_golden_digest(monkeypatch):
    assert lab_digest(monkeypatch) == LAB_DIGEST
