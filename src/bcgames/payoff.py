"""Winning conditions and the exit penalty semantics.

Two payoff representations are supported: a clopen condition given as a
labelled antichain of play prefixes with a default winner, and a finite
nested difference of open sets, each open set generated by finitely
many prefixes.  With finite generator sets the difference form is
clopen as well, so it can be compiled down to an antichain over a given
tree and solved through a single code path.

The wrapped outcome of a game couples a payoff with a tree: the first
player to move outside the tree loses on the spot, and only plays that
never leave the tree are judged by the payoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .players import Player, mover_at, parse_player
from .trees import FiniteTree, Seq, format_node, parse_node, read_header


class PayoffError(Exception):
    """Base class for payoff construction and evaluation failures."""


class PrefixTooShort(PayoffError):
    def __init__(self, prefix: Seq, needed: int):
        super().__init__(f"prefix of length {len(prefix)} undecided before depth {needed}")


class UndecidedTranscript(PayoffError):
    """The transcript neither exits the tree nor reaches the decision depth."""


class OverlappingEntries(PayoffError):
    def __init__(self, a: Seq, b: Seq):
        super().__init__(f"entries {a!r} and {b!r} do not form an antichain")


class PayoffSyntaxError(PayoffError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _is_prefix(p: Seq, x: Seq) -> bool:
    return x[: len(p)] == p


@dataclass(frozen=True)
class DiffPayoff:
    """k nested differences of open sets, evaluated innermost-out:
    D_k = U_k and D_i = U_i minus D_{i+1}; membership means D_1.

    A level U_i is its set of generators: a play is in U_i when some
    generator is a prefix of it, which any prefix ``decision_depth``
    long, the longest generator's length, settles."""

    levels: tuple[frozenset[Seq], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise PayoffError("a difference payoff needs at least one level")
        depth = max((len(g) for level in self.levels for g in level), default=0)
        object.__setattr__(self, "decision_depth", depth)


def eval_diff(diff: DiffPayoff, prefix: Seq) -> bool:
    """Membership of every extension of ``prefix`` in the nested difference."""
    if len(prefix) < diff.decision_depth:
        raise PrefixTooShort(prefix, diff.decision_depth)
    member = False
    for level in reversed(diff.levels):
        member = not member and any(_is_prefix(g, prefix) for g in level)
    return member


@dataclass(frozen=True)
class ClopenAntichain:
    """A clopen payoff: prefix entries naming a winner, plus a default.

    Entry prefixes must form an antichain, so any play matches at most
    one entry; a play that matches none is won by the default player
    once it is ``decision_depth`` long, the longest entry's length.
    """

    entries: tuple[tuple[Seq, Player], ...]
    default: Player

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=itemgetter(0)))
        object.__setattr__(self, "entries", ordered)
        # In sorted order the extensions of an entry, and any repeat of its
        # prefix, directly follow it, so comparing neighbours finds the
        # first overlapping pair.
        for (p, _), (q, _) in zip(ordered, ordered[1:]):
            if _is_prefix(p, q):
                raise OverlappingEntries(p, q)
        # An entry can match a prefix only at one of the entry lengths.
        lengths = tuple(sorted({len(p) for p, _ in ordered}))
        object.__setattr__(self, "decision_depth", lengths[-1] if lengths else 0)
        object.__setattr__(self, "_by_prefix", dict(ordered))
        object.__setattr__(self, "_lengths", lengths)

    def decide(self, prefix: Seq) -> Player | None:
        """Winner fixed by ``prefix``, or None when still open."""
        by_prefix = self._by_prefix
        for n in self._lengths:
            if n > len(prefix):
                break
            winner = by_prefix.get(prefix[:n])
            if winner is not None:
                return winner
        if len(prefix) >= self.decision_depth:
            return self.default
        return None

    def winner_at(self, prefix: Seq) -> Player:
        winner = self.decide(prefix)
        if winner is None:
            raise UndecidedTranscript(f"prefix {prefix!r} undecided")
        return winner


@dataclass(frozen=True)
class ExitEvent:
    """The first departure from the tree: the offender is the player who
    made the move, player I at odd exit lengths."""

    exit_length: int
    offender: Player


def first_exit(tree: FiniteTree, x: Seq) -> ExitEvent | None:
    """Least n with x[:n] outside the tree, or None if every prefix is in."""
    for n in range(1, len(x) + 1):
        if x[:n] not in tree:
            return ExitEvent(n, mover_at(n - 1))
    return None


def outcome_psi(tree: FiniteTree, payoff: ClopenAntichain, transcript: Seq) -> Player:
    """Winner of a decided transcript under the wrapped condition.

    If the transcript leaves the tree the offender loses no matter what
    the payoff says; otherwise the payoff decides, which requires the
    transcript to reach the payoff's decision depth.
    """
    event = first_exit(tree, transcript)
    if event is not None:
        return event.offender.other
    if len(transcript) < payoff.decision_depth:
        raise UndecidedTranscript(
            f"transcript {transcript!r} stays in the tree but is shorter than "
            f"the decision depth {payoff.decision_depth}"
        )
    return payoff.winner_at(transcript)


def compile_diff(diff: DiffPayoff, tree: FiniteTree) -> ClopenAntichain:
    """Antichain equivalent to ``diff`` over plays of the given tree.

    Every in-tree node at the difference's decision depth becomes an
    entry; plays that leave the tree earlier are settled by the exit
    penalty, so no other entries are needed.
    """
    depth = diff.decision_depth
    entries = tuple(
        (node, Player.I if eval_diff(diff, node) else Player.II)
        for node in tree.sorted_nodes
        if len(node) == depth
    )
    return ClopenAntichain(entries, Player.II)


CLOPEN_HEADER = "payoff clopen v1"
DIFF_HEADER = "payoff diff v1"


def serialize_payoff(payoff: ClopenAntichain | DiffPayoff) -> str:
    """Write either payoff form, as ``parse_payoff`` reads either."""
    if isinstance(payoff, DiffPayoff):
        return serialize_diff(payoff)
    lines = [CLOPEN_HEADER]
    for prefix, winner in payoff.entries:
        lines.append(f"{winner.value}: {format_node(prefix)}".rstrip())
    lines.append(f"default: {payoff.default.value}")
    return "\n".join(lines) + "\n"


# The empty generator, which a node line would write as a blank line.
EMPTY_GENERATOR = "()"


def serialize_diff(diff: DiffPayoff) -> str:
    lines = [f"{DIFF_HEADER} k={len(diff.levels)}"]
    for i, level in enumerate(diff.levels, start=1):
        lines.append(f"level {i}:")
        lines += [format_node(g) or EMPTY_GENERATOR for g in sorted(level)]
    return "\n".join(lines) + "\n"


def parse_payoff(text: str) -> ClopenAntichain | DiffPayoff:
    """Parse either payoff file format, dispatching on the header line."""
    lines = text.splitlines()
    if lines and lines[0].strip().startswith(DIFF_HEADER):
        return _parse_diff(lines)
    return _parse_clopen(lines)


def _parse_clopen(lines: list[str]) -> ClopenAntichain:
    read_header(lines, CLOPEN_HEADER, None, PayoffSyntaxError)
    entries: list[tuple[Seq, Player]] = []
    seen: set[Seq] = set()
    default: Player | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise PayoffSyntaxError(lineno, f"expected 'I:', 'II:' or 'default:': {raw!r}")
        tag, body = line.split(":", 1)
        tag = tag.strip()
        if tag == "default" and default is not None:
            raise PayoffSyntaxError(lineno, "duplicate default line")
        try:
            player = parse_player(body if tag == "default" else tag)
        except ValueError as exc:
            raise PayoffSyntaxError(lineno, str(exc)) from None
        if tag == "default":
            default = player
            continue
        prefix = parse_node(body, lineno, PayoffSyntaxError)
        if prefix in seen:
            raise PayoffSyntaxError(lineno, f"duplicate entry {prefix!r}")
        seen.add(prefix)
        entries.append((prefix, player))
    if default is None:
        raise PayoffSyntaxError(len(lines), "missing default line")
    return ClopenAntichain(tuple(entries), default)


def _parse_diff(lines: list[str]) -> DiffPayoff:
    count = read_header(lines, DIFF_HEADER, "k", PayoffSyntaxError)
    try:
        k = int(count)
    except ValueError:
        raise PayoffSyntaxError(1, f"bad level count {count!r}") from None
    if k < 1:
        raise PayoffSyntaxError(1, "level count must be at least 1")
    levels: list[set[Seq]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("level"):
            if line != f"level {len(levels) + 1}:":
                raise PayoffSyntaxError(lineno, f"expected 'level {len(levels) + 1}:', got {raw!r}")
            levels.append(set())
            continue
        if not levels:
            raise PayoffSyntaxError(lineno, "generator line before any 'level' line")
        generator = () if line == EMPTY_GENERATOR else parse_node(line, lineno, PayoffSyntaxError)
        if generator in levels[-1]:
            raise PayoffSyntaxError(lineno, f"duplicate generator {generator!r}")
        levels[-1].add(generator)
    if len(levels) != k:
        raise PayoffSyntaxError(len(lines), f"header promised k={k} levels, found {len(levels)}")
    return DiffPayoff(tuple(map(frozenset, levels)))
