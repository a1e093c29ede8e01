import itertools
import json
import subprocess
import sys

import pytest

from bcgames import cli, lab
from bcgames.lab import CampaignConfig, SplitMix64, random_payoffs, run_campaign
from bcgames.payoff import compile_diff, parse_payoff
from bcgames.players import Player
from bcgames.solver import Game, SolverError, solve
from bcgames.trees import parse_tree, serialize_tree, validate_tree
from faults import FAULTS, patch_faults

T_FORK = validate_tree([(), (1,), (2,)])


def test_splitmix64_reference_values():
    # first outputs for seed 1234567, per the published reference sequence
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_random_payoffs_deterministic():
    a = random_payoffs(T_FORK, 5, seed=42, depth=3)
    b = random_payoffs(T_FORK, 5, seed=42, depth=3)
    assert a == b
    assert random_payoffs(T_FORK, 0, seed=42, depth=3) == []
    c = random_payoffs(T_FORK, 5, seed=43, depth=3)
    assert a != c


def test_random_payoffs_are_total():
    for payoff in random_payoffs(T_FORK, 20, seed=7, depth=4):
        for node in T_FORK:
            if len(node) == payoff.decision_depth:
                assert payoff.decide(node) is not None


def test_campaign_report_deterministic():
    cfg = CampaignConfig(max_size=3, payoffs_per_tree=3, seed=9, suites=("oracle", "def34"))
    first = run_campaign(cfg).render()
    second = run_campaign(cfg).render()
    assert first == second
    assert "result: PASS" in first


def test_campaign_rejects_unknown_suite():
    with pytest.raises(ValueError):
        CampaignConfig(suites=("oracle", "bogus"))


@pytest.mark.parametrize("payoffs", ["0", "-1"])
def test_lab_without_payoffs_is_an_error(payoffs, tmp_path, capsys):
    # with no payoffs the oracle and def34 suites would check nothing and pass
    with pytest.raises(ValueError):
        CampaignConfig(payoffs_per_tree=int(payoffs))
    out = tmp_path / "report.txt"
    argv = ["lab", "--max-size", "3", "--payoffs-per-tree", payoffs, "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not out.exists()


def test_lab_with_a_repeated_suite_is_an_error(tmp_path, capsys):
    # a suite named twice would run twice and count its instances twice
    with pytest.raises(ValueError, match="suites named more than once: oracle$"):
        CampaignConfig(suites=("oracle", "def34", "oracle"))
    out = tmp_path / "report.txt"
    argv = ["lab", "--max-size", "3", "--suites", "oracle,oracle", "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not out.exists()


def test_campaign_without_suites_is_an_error():
    # a campaign that runs no suite would report PASS on no instances
    with pytest.raises(ValueError, match="^suites must name at least one suite$"):
        CampaignConfig(suites=())


@pytest.mark.parametrize("max_size", ["0", "-2"])
def test_lab_without_trees_is_an_error(max_size, tmp_path, capsys):
    with pytest.raises(ValueError, match="^max_size must be at least 1$"):
        CampaignConfig(max_size=int(max_size))
    out = tmp_path / "report.txt"
    argv = ["lab", "--max-size", max_size, "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_size must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("suites", [",", ""])
def test_lab_with_no_suite_names_is_an_error(suites, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert cli.main(["lab", "--max-size", "3", "--suites", suites, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: suites must name at least one suite\n"
    assert not out.exists()


def _replay_lines(path, code: int, capsys) -> list[str]:
    assert cli.main(["replay", "--report", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.splitlines()


@pytest.mark.parametrize("suite", list(FAULTS))
def test_replay_reproduces_every_counterexample(suite, monkeypatch, tmp_path, capsys):
    patch_faults(monkeypatch, [suite])
    path = tmp_path / "report.json"
    argv = ["lab", "--max-size", "6", "--payoffs-per-tree", "3", "--seed", "5"]
    assert cli.main([*argv, "--suites", suite, "--json", "--out", str(path)]) == 3
    capsys.readouterr()
    report = json.loads(path.read_text(encoding="utf-8"))
    (result,) = report["suites"]
    records = [json.dumps(record, sort_keys=True) for record in result["counterexamples"]]
    assert len(records) == result["failed"] > 0
    replayed = lab.replay(report)
    assert [ok for ok, _ in replayed] == [False] * len(records)
    assert [json.dumps(record, sort_keys=True) for _, record in replayed] == records
    assert _replay_lines(path, 3, capsys) == records
    monkeypatch.undo()
    assert all(ok for ok, _ in lab.replay(report))
    assert len(_replay_lines(path, 0, capsys)) == len(records)


TREE = "tree v1\n1\n"
CLOPEN = "payoff clopen v1\ndefault: I\n"
DEF34 = {"tree": TREE, "payoff": CLOPEN, "regular": "I", "restricted": "I"}


def _binary(depth: int) -> str:
    """The complete {0,1} tree of the given depth, in the tree format."""
    nodes = [node for n in range(depth + 1) for node in itertools.product((0, 1), repeat=n)]
    return serialize_tree(validate_tree(nodes))


# The def3 brute force refuses both; the restricted one refuses only the
# second, whose normal form is past PAIR_CAP.
BINARY_5, BINARY_6 = _binary(5), _binary(6)


def _report(name: str, record: dict) -> dict:
    # A well-formed record comes first, so a check run before the whole
    # report is read would show.
    return {"suites": [{"name": "def34", "counterexamples": [DEF34]},
                       {"name": name, "counterexamples": [record]}]}


@pytest.mark.parametrize(
    "report",
    [
        "campaign v1\n",
        {"config": {}, "ok": True},
        _report("bogus", DEF34),
        _report("reduction", {"winner": "II"}),
        _report("oracle", {**DEF34, "payoff": "payoff diff v1 k=1\nlevel 1:\n1\n"}),
        _report("bounds", {"tree": TREE, "claimed_at": [1, -1]}),
        _report("bounds", {"tree": TREE, "claimed_at": "1"}),
        _report("def34", {"tree": TREE, "regular": "I", "restricted": "I"}),
        _report("reduction", {"tree": "tree v1\n0\n"}),
        _report("bounds", {"tree": "tree v1\n0\n"}),
        _report("bounds", {"tree": TREE, "claimed_at": [5]}),
        _report("oracle", {**DEF34, "tree": BINARY_6}),
        _report("def34", {**DEF34, "tree": BINARY_5}),
        _report("oracle", ["tree", TREE]),
        {"suites": [{"name": "def34", "counterexamples": [DEF34]},
                    {"name": "oracle", "counterexamples": DEF34}]},
    ],
    ids=[
        "not-json", "no-suites", "unknown-suite", "no-tree", "diff-payoff",
        "negative-claim", "claim-not-a-list", "def34-without-payoff",
        "zero-label-reduction", "zero-label-bounds", "claim-off-tree", "oracle-past-pair-cap",
        "def34-past-quotient-cap", "record-not-an-object", "counterexamples-not-a-list",
    ],
)
def test_replay_rejects_a_malformed_report(report, monkeypatch, tmp_path, capsys):
    def no_check(instance):
        raise AssertionError("a check ran before the report was read")

    for name, suite in lab.SUITES.items():
        monkeypatch.setitem(lab.SUITES, name, suite._replace(check=no_check))
    if not isinstance(report, str):
        with pytest.raises(ValueError):
            lab.replay(report)
    path = tmp_path / "report.json"
    path.write_text(report if isinstance(report, str) else json.dumps(report), encoding="utf-8")
    assert cli.main(["replay", "--report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.fixture()
def tree_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(serialize_tree(T_FORK), encoding="utf-8")
    return str(path)


def test_cli_solve_json(tree_file, capsys):
    assert cli.main(["solve", "--tree", tree_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == "I"
    assert payload["oracle_checked"] is True


def test_cli_solve_def3(tree_file, capsys):
    assert cli.main(["solve", "--tree", tree_file, "--semantics", "def3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["def3_def4_agree"] is True
    assert payload["oracle_checked"] is True


def _solve_payload(path, semantics: str, capsys) -> dict:
    assert cli.main(["solve", "--tree", str(path), "--semantics", semantics, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_solve_def3_takes_the_winner_past_the_cap(tmp_path, capsys):
    # Past PAIR_CAP neither brute force runs, and def3 answers as def4 does.
    path = tmp_path / "t6.txt"
    path.write_text(BINARY_6, encoding="utf-8")
    payload = _solve_payload(path, "def3", capsys)
    assert payload["winner"] == "II"
    assert payload["oracle_checked"] is False and payload["def3_def4_agree"] is None
    assert payload == _solve_payload(path, "def4", capsys)


def test_cli_solve_def3_checks_what_fits_under_the_cap(tmp_path, capsys):
    # The restricted brute force fits under PAIR_CAP; the def3 one does not.
    path = tmp_path / "t5.txt"
    path.write_text(BINARY_5, encoding="utf-8")
    payload = _solve_payload(path, "def3", capsys)
    assert payload["oracle_checked"] is True and payload["def3_def4_agree"] is None


@pytest.mark.parametrize("semantics", ["def3", "def4"])
def test_cli_solve_reports_a_failed_brute_force(semantics, tree_file, monkeypatch, capsys):
    def inconsistent(game):
        raise SolverError("neither player has a winning restricted strategy")

    monkeypatch.setattr(cli, "brute_force_oracle", inconsistent)
    assert cli.main(["solve", "--tree", tree_file, "--semantics", semantics, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: neither player has a winning restricted strategy\n"


@pytest.mark.parametrize("semantics", ["def3", "def4"])
def test_cli_solve_refuses_a_brute_force_disagreement(semantics, tree_file, monkeypatch, capsys):
    # I wins the exit game on T_FORK by moving to the leaf (1,).
    monkeypatch.setattr(cli, "brute_force_oracle", lambda game: Player.II)
    assert cli.main(["solve", "--tree", tree_file, "--semantics", semantics, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solve names I but the brute force II\n"


def test_cli_solve_with_payoff(tree_file, tmp_path, capsys):
    payoff_path = tmp_path / "p.txt"
    payoff_path.write_text("payoff clopen v1\nII: 1\nII: 2\ndefault: II\n", encoding="utf-8")
    assert cli.main(["solve", "--tree", tree_file, "--payoff", str(payoff_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == "II"


def test_cli_reduce_extract(tree_file, capsys):
    assert cli.main(["reduce", "--tree", tree_file, "--extract", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == "II"
    assert payload["branch"]["bound_holds"] is True
    assert payload["zero_free_applied"] is False


def test_cli_reduce_applies_zero_free(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("tree v1\n0\n", encoding="utf-8")
    assert cli.main(["reduce", "--tree", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zero_free_applied"] is True
    assert payload["winner"] == "II"


def test_cli_extract(tree_file, capsys):
    assert cli.main(["extract", "--tree", tree_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fail_index"] == 1


def test_cli_embed(tree_file, capsys):
    assert cli.main(["embed", "--tree", tree_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winners_agree"] is True
    assert payload["pulled_strategy_certified"] is True


def test_cli_fmt_round_trip(tmp_path, capsys):
    messy = tmp_path / "messy.txt"
    messy.write_text("tree v1\n2\n1\n", encoding="utf-8")
    assert cli.main(["fmt", "--tree", str(messy)]) == 0
    assert capsys.readouterr().out == "tree v1\n1\n2\n"


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("tree v1\n1 3\n", encoding="utf-8")
    assert cli.main(["solve", "--tree", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_file_errors_print_one_error_line(tree_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv in (
        ["solve", "--tree", missing],
        ["solve", "--tree", str(tmp_path)],
        ["solve", "--tree", tree_file, "--payoff", missing],
        ["embed", "--tree", tree_file, "--payoff", str(tmp_path)],
        ["fmt", "--strategy", missing],
        ["fmt", "--tree", tree_file, "--out", str(tmp_path / "no-dir" / "t.txt")],
        ["lab", "--max-size", "1", "--suites", "oracle", "--out", str(tmp_path)],
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: "), argv


@pytest.mark.parametrize("option", ["--tree", "--payoff", "--strategy"])
def test_cli_fmt_empty_path_prints_one_error_line(option, capsys):
    # An empty path is still the one option given, so it is read, not skipped.
    assert cli.main(["fmt", option, ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["solve"])  # --tree is required
    assert err.value.code == 2


def test_cli_lab_small(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = cli.main(
        [
            "lab",
            "--max-size",
            "3",
            "--payoffs-per-tree",
            "2",
            "--seed",
            "5",
            "--suites",
            "oracle,def34",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "suite oracle" in text and "result: PASS" in text
    assert "wall-clock" in capsys.readouterr().err


def test_cli_fmt_rejects_a_negative_node_in_every_codec(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    for flag, text in (
        ("--tree", "tree v1\n-1\n"),
        ("--strategy", "strategy v1 owner=I\n-1\n"),
        ("--payoff", "payoff clopen v1\nI: -1\ndefault: I\n"),
    ):
        path.write_text(text, encoding="utf-8")
        assert cli.main(["fmt", flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2: negative entry" in captured.err


def test_cli_commands_need_no_stack_frame_per_ply(tmp_path, src_env):
    # The recursion limit is far below the height of the path and the
    # play length of the reduction game, so a solver or walk that
    # recursed once per level would end in a RecursionError traceback.
    tall = tmp_path / "tall.txt"
    tall.write_text(serialize_tree(validate_tree([(1,) * i for i in range(301)])), encoding="utf-8")
    decoy = tmp_path / "decoy.txt"
    decoy_nodes = [(1,) * i for i in range(9)] + [(2,)]
    decoy.write_text(serialize_tree(validate_tree(decoy_nodes)), encoding="utf-8")
    script = (
        "import sys\n"
        "from bcgames.cli import main\n"
        "sys.setrecursionlimit(120)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for argv in (
        ["solve", "--tree", str(tall)],
        ["embed", "--tree", str(tall)],
        ["reduce", "--tree", str(decoy), "--extract"],
        ["extract", "--tree", str(decoy)],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--json"],
            capture_output=True,
            text=True,
            env=src_env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        if argv[0] == "solve":
            assert payload["winner"] == "II" and payload["oracle_checked"] is True
        elif argv[0] == "embed":
            assert payload["winners_agree"] and payload["pulled_strategy_certified"]
        else:
            branch = payload.get("branch", payload)
            assert branch["f"] == [1] * 8 and branch["bound_holds"] is True


# The README example tree, a clopen payoff and a difference payoff, with
# the exact text-mode stdout of each command on them.
TEXT_INPUTS = {
    "t.txt": "tree v1\n1\n1 3\n2\n",
    "c.txt": "payoff clopen v1\nII: 2\nI: 1 3\ndefault: II\n",
    "d.txt": "payoff diff v1 k=2\nlevel 1:\n1\n2\nlevel 2:\n1 3\n",
}
TEXT_OUTPUTS = [
    ("solve --tree t.txt", "winner: I\nexplored: 4 nodes\n"),
    ("solve --tree t.txt --payoff c.txt --semantics def3", "winner: I\nexplored: 4 nodes\n"),
    ("reduce --tree t.txt", "winner: II\nprincipal play rule: rule2\n"),
    ("reduce --tree t.txt --extract", "winner: II\nprincipal play rule: rule2\nextracted branch: [1, 3]\n"),
    ("extract --tree t.txt", "branch: [1, 3]\nfail index: 2\nbound holds: True\n"),
    ("embed --tree t.txt --payoff d.txt", "source winner: I\nrange winner:  I\npull-back certified: True\n"),
    ("fmt --payoff c.txt", "payoff clopen v1\nI: 1 3\nII: 2\ndefault: II\n"),
    ("fmt --payoff d.txt", TEXT_INPUTS["d.txt"]),
]


@pytest.mark.parametrize("command, expected", TEXT_OUTPUTS, ids=[c for c, _ in TEXT_OUTPUTS])
def test_cli_text_output_is_pinned(command, expected, tmp_path, monkeypatch, capsys):
    for name, text in TEXT_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command, options",
    [
        ("solve", ["--tree", "--payoff", "--semantics", "--json"]),
        ("embed", ["--tree", "--payoff", "--json"]),
        ("reduce", ["--tree", "--extract", "--json"]),
        ("fmt", ["--tree", "--payoff", "--strategy", "--out"]),
    ],
)
def test_cli_help_names_every_option(command, options, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert all(option in out for option in options), out


@pytest.mark.parametrize("files", [[], ["--tree", "t.txt", "--payoff", "c.txt"]], ids=["none", "two"])
def test_cli_fmt_needs_exactly_one_file(files, tmp_path, src_env):
    for name, text in TEXT_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "bcgames.cli", "fmt", *files],
        capture_output=True, text=True, env=src_env, cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")


def test_game_for_takes_both_payoff_forms(tmp_path, monkeypatch, capsys):
    # the lab and the CLI build a difference payoff's game the same way
    for name, text in TEXT_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    tree, diff = parse_tree(TEXT_INPUTS["t.txt"]), parse_payoff(TEXT_INPUTS["d.txt"])
    game = lab.game_for(tree, diff)
    assert game == Game(tree, compile_diff(diff, tree), diff.decision_depth)
    assert cli.main(["solve", "--tree", "t.txt", "--payoff", "d.txt", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = solve(game)
    assert result.winner.value == payload["winner"]
    assert [list(n) for n in sorted(result.strategy.nodes)] == payload["strategy_nodes"]
