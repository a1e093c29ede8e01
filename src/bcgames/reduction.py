"""The four-phase reduction game over a zero-free source tree.

Player I grows a sequence t through the source tree; player II answers
with a single extension u0 of t, or claims with 0 that t has no
successor; player I then grows a rival sequence v below t, meant to
start differently from u0; finally player II grows u' below t followed
by u0, aiming for u = (u0,) + u' to be at least as long as v.

Sequence growth is encoded so that no turn ever offers more than two
moves.  Each appended element costs one block of three moves by the
builder: a control move (0 keeps building, legal only while the current
node has a successor; 1 ends the phase), a micro move naming the
leftmost successor label, and a confirm-or-swap micro move (0 keeps the
named label, the rightmost label replaces it).  In the answer phase the
first micro move may also be 0, the no-successor claim, which the
second micro move must confirm with another 0.  The idle player is
forced to answer 0 between the builder's moves, and the two builders
hand over seamlessly, so player I always moves at even plies.  After
the final end signal the position is terminal.

A terminal position reached legally is scored by four rules applied in
order: II wins if t+v left the tree (impossible for legal play), II
wins if v is empty or copies u0, I wins if t+u left the tree (exactly
the claim case), otherwise II wins iff v is no longer than u.  A player
who makes an illegal move loses on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

from .players import Player, mover_at
from .solver import SolveResult, counterplay, retrograde, step
from .trees import FiniteTree, Seq, is_zero_free, subtree

CTRL = "ctrl"
IDLE_CTRL = "idle-ctrl"
MICRO_A = "a"
IDLE_A = "idle-a"
MICRO_B = "b"
IDLE_B = "idle-b"
DONE = "done"

_NEXT_AFTER_IDLE = {IDLE_CTRL: MICRO_A, IDLE_A: MICRO_B, IDLE_B: CTRL}


class ReductionError(Exception):
    pass


class ZeroLabeledTree(ReductionError):
    """The source tree uses 0 as a label, which the encoding reserves."""


class IllegalPosition(ReductionError):
    def __init__(self, ply: int):
        self.ply = ply
        super().__init__(f"illegal move at ply {ply}")


class NotTerminal(ReductionError):
    pass


class StrategyNotWinning(ReductionError):
    """A simulated response loses, contradicting the certification."""


class RState(NamedTuple):
    """Abstract game state; positions sharing a state share their future.

    A named tuple, built field by field by the constructor on every move,
    so hashing and comparing states is the tuple's own work."""

    phase: int  # 1..4, 5 once finished
    step: str
    cur: Seq | None  # node being navigated; None = off the tree after a claim
    t: Seq | None  # fixed at the end of phase 1, dropped entering phase 4
    u0: int | None  # fixed at the end of phase 2, dropped entering phase 4
    a2: int | None  # pending first micro move of phase 2
    v_len: int
    v0_ok: bool | None  # v starts with u0; None while v is empty
    u_len: int
    winner: Player | None = None  # set on terminal states only
    rule: str | None = None


# The builder of a phase moves at its control and micro steps, the other
# player idles in between.
_MOVER = {
    (phase, step): builder if step in (CTRL, MICRO_A, MICRO_B) else builder.other
    for phase, builder in ((1, Player.I), (2, Player.II), (3, Player.I), (4, Player.II))
    for step in (CTRL, IDLE_CTRL, MICRO_A, IDLE_A, MICRO_B, IDLE_B)
}


def _initial() -> RState:
    return RState(1, CTRL, (), None, None, None, 0, None, 0)


def _phase2_entry(t: Seq) -> RState:
    return RState(2, MICRO_A, t, t, None, None, 0, None, 0)


def _phase3_entry(t: Seq, u0: int) -> RState:
    return RState(3, CTRL, t, t, u0, None, 0, None, 0)


def _phase4_entry(t: Seq, u0: int, v_len: int, v0_ok: bool | None) -> RState:
    u_node = t + (u0,) if u0 != 0 else None
    return RState(4, CTRL, u_node, None, None, None, v_len, v0_ok, 1)


def _terminal(cur: Seq | None, v_len: int, v0_ok: bool | None, u_len: int) -> RState:
    if v_len == 0 or v0_ok:
        winner, rule = Player.II, "rule2"
    elif cur is None:
        winner, rule = Player.I, "rule3"
    elif v_len <= u_len:
        winner, rule = Player.II, "rule4"
    else:
        winner, rule = Player.I, "rule4"
    return RState(5, DONE, None, None, None, None, v_len, v0_ok, u_len, winner, rule)


@dataclass(frozen=True)
class ReductionGame:
    source: FiniteTree

    @property
    def initial(self) -> RState:
        return _initial()

    def mover(self, st: RState) -> Player:
        who = _MOVER.get((st.phase, st.step))
        if who is None:
            raise NotTerminal("terminal positions have no mover")
        return who

    def is_terminal(self, st: RState) -> bool:
        return st.phase == 5

    def winner(self, st: RState) -> Player:
        if st.phase != 5:
            raise NotTerminal("position is not terminal")
        return st.winner

    def transitions(self, st: RState) -> tuple[tuple[int, RState], ...]:
        """Legal moves with their successor states, ascending by move."""
        phase, step, cur, t, u0, a2, v_len, v0_ok, u_len, _, _ = st
        if phase == 5:
            return ()
        after_idle = _NEXT_AFTER_IDLE.get(step)
        if after_idle is not None:
            return ((0, RState(phase, after_idle, cur, t, u0, a2, v_len, v0_ok, u_len)),)
        tree = self.source
        if step == CTRL:
            if phase == 1:
                end = _phase2_entry(cur)
            elif phase == 3:
                end = _phase4_entry(t, u0, v_len, v0_ok)
            else:
                end = _terminal(cur, v_len, v0_ok, u_len)
            if cur is not None and tree.children(cur):
                extend = RState(phase, IDLE_CTRL, cur, t, u0, a2, v_len, v0_ok, u_len)
                return ((0, extend), (1, end))
            return ((1, end),)
        if step == MICRO_A:
            if phase == 2:
                claim = (0, RState(2, IDLE_A, cur, t, u0, 0, v_len, v0_ok, u_len))
                kids = tree.children(t)
                if not kids:
                    return (claim,)
                left = kids[0][-1]
                return (claim, (left, RState(2, IDLE_A, cur, t, u0, left, v_len, v0_ok, u_len)))
            left = tree.children(cur)[0][-1]
            return ((left, RState(phase, IDLE_A, cur, t, u0, a2, v_len, v0_ok, u_len)),)
        # step == MICRO_B
        if phase == 2:
            if a2 == 0:
                return ((0, _phase3_entry(t, 0)),)
            kids = tree.children(t)
            if len(kids) == 2:
                right = kids[1][-1]
                return ((0, _phase3_entry(t, a2)), (right, _phase3_entry(t, right)))
            return ((0, _phase3_entry(t, a2)),)
        kids = tree.children(cur)
        if len(kids) == 2:
            return ((0, self._extend(st, kids[0])), (kids[1][-1], self._extend(st, kids[1])))
        return ((0, self._extend(st, kids[0])),)

    def _extend(self, st: RState, child: Seq) -> RState:
        """The state after the builder appends ``child``'s label."""
        phase, _, _, t, u0, a2, v_len, v0_ok, u_len, _, _ = st
        if phase == 1:
            return RState(1, IDLE_B, child, t, u0, a2, v_len, v0_ok, u_len)
        if phase == 3:
            if not v_len:
                v0_ok = child[-1] == u0
            return RState(3, IDLE_B, child, t, u0, a2, v_len + 1, v0_ok, u_len)
        return RState(4, IDLE_B, child, t, u0, a2, v_len, v0_ok, u_len + 1)


def build_reduction_game(tree: FiniteTree) -> ReductionGame:
    if not is_zero_free(tree):
        raise ZeroLabeledTree("the source tree must not contain 0 in any node")
    return ReductionGame(tree)


@dataclass
class Transcript:
    """The pieces of a play decoded back out of the move encoding."""

    t: Seq | None = None
    u0: int | None = None
    v: Seq | None = None
    u_prime: Seq | None = None
    phase: int = 1
    step: str = CTRL
    terminal: bool = False
    winner: Player | None = None
    rule: str | None = None

    @property
    def u(self) -> Seq | None:
        if self.u0 is None:
            return None
        return (self.u0,) + (self.u_prime or ())


def decode(game: ReductionGame, position: Seq) -> Transcript:
    """Replay a legal position and report the pieces built so far.

    While a phase is still running its sequence is shown as grown to
    date.  Raises IllegalPosition naming the first offending ply.
    """
    st = game.initial
    out = Transcript()
    for ply, move in enumerate(position):
        nxt = step(game, st, move)
        if nxt is None:
            raise IllegalPosition(ply)
        if nxt.phase >= 2 and out.t is None:
            out.t = nxt.t if nxt.t is not None else st.t
        if nxt.phase >= 3 and out.u0 is None:
            out.u0 = nxt.u0 if nxt.phase == 3 else st.u0
        if nxt.phase == 3:
            out.v = nxt.cur[len(out.t) :]
        if nxt.phase == 4:
            if out.v is None:
                out.v = ()
            if out.u_prime is None:
                out.u_prime = ()
            if st.phase == 4 and nxt.u_len > st.u_len:
                out.u_prime = out.u_prime + (nxt.cur[-1],)
        st = nxt
    if st.phase == 1:
        out.t = st.cur
    out.phase, out.step = st.phase, st.step
    if st.phase == 5:
        out.terminal, out.winner, out.rule = True, st.winner, st.rule
    return out


@dataclass
class ReductionPolicy:
    """A positional strategy over abstract states for one player."""

    owner: Player
    moves: dict[RState, int]


def solve_reduction(tree: FiniteTree) -> SolveResult:
    """Solve the reduction game built from a zero-free tree.

    Returns the winner (player II, on every finite source tree), a
    policy certified by exhaustive traversal, the value of every
    reachable abstract state, terminals included, and their count.
    """
    game = build_reduction_game(tree)
    values, moves = retrograde(game)
    winner = values[game.initial]
    return SolveResult(winner, ReductionPolicy(winner, moves), values, len(values))


def verify_winning_policy(game: ReductionGame, policy: ReductionPolicy) -> list[int] | None:
    """Walk every opponent line with the policy's owner following the
    policy; None when the owner wins every terminal, else a losing play."""
    return counterplay(game, policy.owner, policy.moves.get)


@dataclass
class BranchReport:
    """Branch read off the answering player's strategy: f grows one label
    per round until the strategy claims there is no successor."""

    f: Seq
    fail_index: int | None
    bound_holds: bool | None = None


def _query_u0(game: ReductionGame, policy: ReductionPolicy, target: Seq) -> int:
    """The answer the policy gives once player I has built ``target``."""
    st = _phase2_entry(target)
    for kind in ("answer", "confirmation"):
        move = policy.moves.get(st)
        if move is None:
            raise StrategyNotWinning(f"no {kind} recorded after t={target!r}")
        st = step(game, st, move)
        if st is None:
            raise StrategyNotWinning(f"illegal {kind} {move} after t={target!r}")
        if kind == "answer":
            st = step(game, st, 0)
    return st.u0


def extract_branch(
    tree: FiniteTree, policy: ReductionPolicy, max_steps: int | None = None
) -> BranchReport:
    """Read a branch out of a winning answer policy.

    Round n encodes t = f[:n] and records the policy's answer as f(n);
    the rounds stop at the first 0 claim, whose index is the least n at
    which f[:n] has no successor left to offer.
    """
    game = build_reduction_game(tree)
    limit = max_steps if max_steps is not None else tree.height + 1
    f: list[int] = []
    fail_index: int | None = None
    for n in range(limit + 1):
        answer = _query_u0(game, policy, tuple(f))
        if answer == 0:
            if tree.children(tuple(f)):
                raise StrategyNotWinning(f"claimed no successor at {tuple(f)!r}, which has one")
            fail_index = n
            break
        if tuple(f) + (answer,) not in tree:
            raise StrategyNotWinning(f"answered {answer} off the tree at {tuple(f)!r}")
        f.append(answer)
    return BranchReport(tuple(f), fail_index)


def check_cardinality_bound(tree: FiniteTree, report: BranchReport) -> bool:
    """Size bounds implied by a claim at index F: the whole tree has at
    most 2**(F+1) - 1 nodes, and the subtree below f[:F-j] has at most
    2**(j+1) - 1 nodes for every j up to F."""
    if report.fail_index is None:
        raise ReductionError("branch report carries no fail index")
    F = report.fail_index
    holds = tree.size <= 2 ** (F + 1) - 1 and all(
        subtree(tree, report.f[: F - j]).size <= 2 ** (j + 1) - 1 for j in range(F + 1)
    )
    report.bound_holds = holds
    return holds


@dataclass
class ScanStats:
    positions: int
    max_length: int
    max_moves: int


def scan_positions(game: ReductionGame) -> ScanStats:
    """Exhaustive walk of every legal position.

    Asserts along the way that the mover dictated by the state machine
    matches the mover dictated by ply parity.
    """
    positions = 0
    max_length = 0
    max_moves = 0
    stack: list[tuple[RState, int]] = [(game.initial, 0)]
    while stack:
        st, depth = stack.pop()
        positions += 1
        if depth > max_length:
            max_length = depth
        trans = game.transitions(st)
        if not trans:
            continue
        if game.mover(st) is not mover_at(depth):
            raise ReductionError(f"mover parity broken at depth {depth}: {st!r}")
        if len(trans) > max_moves:
            max_moves = len(trans)
        for _, nxt in trans:
            stack.append((nxt, depth + 1))
    return ScanStats(positions, max_length, max_moves)


def horizon_bound(tree: FiniteTree) -> int:
    """Ply budget no legal play can exceed."""
    return 4 * (tree.height + 1) * 3 + 8


def _phase2_pins(tree: FiniteTree, t: Seq, answer: int) -> dict[RState, int]:
    """Pin player II's two phase-2 micro moves at ``t`` to produce
    ``answer`` (0 for the claim)."""
    kids = tree.children(t)
    a_state = _phase2_entry(t)
    if answer == 0:
        a_move, b_move = 0, 0
    elif kids and answer == kids[0][-1]:
        a_move, b_move = answer, 0
    elif len(kids) == 2 and answer == kids[1][-1]:
        a_move, b_move = kids[0][-1], answer
    else:
        raise ReductionError(f"{answer} is not an available answer at {t!r}")
    b_state = RState(2, MICRO_B, t, t, None, a_move, 0, None, 0)
    return {a_state: a_move, b_state: b_move}


@dataclass(frozen=True)
class _PinnedGame(ReductionGame):
    """The reduction game with some of its states restricted to one move."""

    pins: Mapping[RState, int] = field(default_factory=dict)

    def transitions(self, st: RState) -> tuple[tuple[int, RState], ...]:
        trans = super().transitions(st)
        pinned = self.pins.get(st)
        return trans if pinned is None else tuple(t for t in trans if t[0] == pinned)


def realizable_claim_traces(tree: FiniteTree) -> Iterator[tuple[Seq, bool]]:
    """For every node taken as a claimed branch end, whether some winning
    answer policy follows that path and claims exactly there.

    An extraction trace depends only on the phase-2 answers along its own
    path, so pinning those and re-solving decides realizability for all
    winning policies at once.
    """
    build_reduction_game(tree)  # rejects a tree that uses the label 0
    for node in tree.sorted_nodes:
        pins: dict[RState, int] = {}
        for i in range(len(node)):
            pins.update(_phase2_pins(tree, node[:i], node[i]))
        pins.update(_phase2_pins(tree, node, 0))
        values, _ = retrograde(_PinnedGame(tree, pins))
        yield node, values[_initial()] is Player.II


def principal_play(game: ReductionGame, result: SolveResult) -> list[int]:
    """One full optimal-versus-leftmost play, for reporting."""
    moves: list[int] = []
    st = game.initial
    while not game.is_terminal(st):
        if game.mover(st) is result.winner:
            move = result.strategy.moves[st]
        else:
            move = game.transitions(st)[0][0]
        moves.append(move)
        st = step(game, st, move)
    return moves
