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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .players import Player
from .solver import SolveResult, counterplay, induction, solve_graph, step
from .strategy import RegularStrategy
from .trees import FiniteTree, Seq, is_zero_free, subtree

CTRL = "ctrl"
IDLE_CTRL = "idle-ctrl"
MICRO_A = "a"
IDLE_A = "idle-a"
MICRO_B = "b"
IDLE_B = "idle-b"
DONE = "done"

_NEXT_AFTER_IDLE = {IDLE_CTRL: MICRO_A, IDLE_A: MICRO_B, IDLE_B: CTRL}
_new = tuple.__new__


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

    ``cur`` and ``t`` are preorder ids of ``source.sorted_nodes``, and the
    game builds every state with all eleven fields by ``tuple.__new__``."""

    phase: int  # 1..4, 5 once finished
    step: str
    cur: int | None  # id of the node being navigated; None = off the tree after a claim
    t: int | None  # fixed at the end of phase 1, dropped entering phase 4
    u0: int | None  # fixed at the end of phase 2, dropped entering phase 4
    a2: int | None  # pending first micro move of phase 2
    v_len: int  # from phase 4 on, in the canonical form ``_phase4`` builds
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


def _phase2_entry(t: int) -> RState:
    return _new(RState, (2, MICRO_A, t, t, None, None, 0, None, 0, None, None))


def _phase3_entry(t: int, u0: int) -> RState:
    return _new(RState, (3, CTRL, t, t, u0, None, 0, None, 0, None, None))


def _phase4(step: str, cur: int | None, v_len: int, v0_ok: bool | None, u_len: int) -> RState:
    """A phase-4 state in canonical form.

    The terminal rules read only whether rule 2 is settled, whether
    ``cur`` is None and whether ``v_len <= u_len``, and ``u_len`` only
    grows.  So a settled state keeps no lengths, and an unsettled one
    keeps only how far u is behind v, clamped at zero once u has caught
    up; states that agree on these share their future."""
    if v_len == 0 or v0_ok:
        return _new(RState, (4, step, cur, None, None, None, 0, None, 0, None, None))
    return _new(RState, (4, step, cur, None, None, None, max(v_len - u_len, 0) + 1, False, 1, None, None))


def _terminal(cur: int | None, v_len: int, v0_ok: bool | None, u_len: int) -> RState:
    if v_len == 0 or v0_ok:
        winner, rule = Player.II, "rule2"
    elif cur is None:
        winner, rule = Player.I, "rule3"
    elif v_len <= u_len:
        winner, rule = Player.II, "rule4"
    else:
        winner, rule = Player.I, "rule4"
    return _new(RState, (5, DONE, None, None, None, None, v_len, v0_ok, u_len, winner, rule))


def _extend(st: RState, kid: tuple[int, int]) -> RState:
    """The state after the builder appends ``kid``, a (label, id) pair."""
    phase, _, _, t, u0, a2, v_len, v0_ok, u_len, _, _ = st
    if phase == 1:
        return _new(RState, (1, IDLE_B, kid[1], t, u0, a2, v_len, v0_ok, u_len, None, None))
    if phase == 3:
        if not v_len:
            v0_ok = kid[0] == u0
        return _new(RState, (3, IDLE_B, kid[1], t, u0, a2, v_len + 1, v0_ok, u_len, None, None))
    return _phase4(IDLE_B, kid[1], v_len, v0_ok, u_len + 1)


@dataclass(frozen=True)
class ReductionGame:
    source: FiniteTree
    initial = _new(RState, (1, CTRL, 0, None, None, None, 0, None, 0, None, None))

    @cached_property
    def kids(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each node's successors as (label, id) pairs, leftmost first, by id."""
        ids = {node: i for i, node in enumerate(self.source.sorted_nodes)}
        return tuple(tuple((kid[-1], ids[kid]) for kid in self.source.children(node)) for node in ids)

    def mover(self, st: RState) -> Player:
        who = _MOVER.get((st.phase, st.step))
        if who is None:
            raise NotTerminal("terminal positions have no mover")
        return who

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
            return ((0, _new(RState, (phase, after_idle, cur, t, u0, a2, v_len, v0_ok, u_len, None, None))),)
        kids = self.kids
        if step == CTRL:
            if phase == 1:
                end = _phase2_entry(cur)
            elif phase == 3:
                # u starts at the child of t labelled u0, or off the tree
                end = _phase4(CTRL, kids[t][kids[t][0][0] != u0][1] if u0 else None, v_len, v0_ok, 1)
            else:
                end = _terminal(cur, v_len, v0_ok, u_len)
            if cur is not None and kids[cur]:
                extend = _new(RState, (phase, IDLE_CTRL, cur, t, u0, a2, v_len, v0_ok, u_len, None, None))
                return ((0, extend), (1, end))
            return ((1, end),)
        if step == MICRO_A:
            if phase == 2:
                # every phase-2 state is at t, with no u0, v or u yet
                claim = (0, _new(RState, (2, IDLE_A, t, t, None, 0, 0, None, 0, None, None)))
                if not kids[t]:
                    return (claim,)
                left = kids[t][0][0]
                return (claim, (left, _new(RState, (2, IDLE_A, t, t, None, left, 0, None, 0, None, None))))
            left = kids[cur][0][0]
            return ((left, _new(RState, (phase, IDLE_A, cur, t, u0, a2, v_len, v0_ok, u_len, None, None))),)
        # step == MICRO_B
        if phase == 2:
            if a2 == 0:
                return ((0, _phase3_entry(t, 0)),)
            if len(kids[t]) == 2:
                right = kids[t][1][0]
                return ((0, _phase3_entry(t, a2)), (right, _phase3_entry(t, right)))
            return ((0, _phase3_entry(t, a2)),)
        pairs = kids[cur]
        if len(pairs) == 2:
            return ((0, _extend(st, pairs[0])), (pairs[1][0], _extend(st, pairs[1])))
        return ((0, _extend(st, pairs[0])),)


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


def decode(game: ReductionGame, position: Seq) -> Transcript:
    """Replay a legal position and report the pieces built so far.

    While a phase is still running its sequence is shown as grown to
    date.  Raises IllegalPosition naming the first offending ply.
    """
    order = game.source.sorted_nodes
    st = game.initial
    out = Transcript()
    for ply, move in enumerate(position):
        nxt = step(game, st, move)
        if nxt is None:
            raise IllegalPosition(ply)
        if nxt.phase >= 2 and out.t is None:
            out.t = order[nxt.t]
        if nxt.phase >= 3 and out.u0 is None:
            out.u0 = nxt.u0
        if nxt.phase == 3:
            out.v = order[nxt.cur][len(out.t) :]
        if nxt.phase == 4:  # the node is t + u, if u is still in the tree
            out.u_prime = () if nxt.cur is None else order[nxt.cur][len(out.t) + 1 :]
        st = nxt
    if st.phase == 1:
        out.t = order[st.cur]
    out.phase, out.step = st.phase, st.step
    if st.phase == 5:
        out.terminal, out.winner, out.rule = True, st.winner, st.rule
    return out


def solve_reduction(tree: FiniteTree) -> SolveResult:
    """Solve the reduction game built from a zero-free tree.

    Returns the winner (player II, on every finite source tree), its
    policy, uncertified here (``verify_winning_policy`` checks a policy),
    and the number of abstract states the search evaluated, terminals
    included; see ``solve_graph``.
    """
    return solve_graph(build_reduction_game(tree))


def verify_winning_policy(game: ReductionGame, policy: RegularStrategy) -> list[int] | None:
    """Walk every opponent line with the policy's owner following the
    policy; None when the owner wins every terminal, else a losing play."""
    return counterplay(game, policy.owner, policy.moves.get)


@dataclass(frozen=True)
class BranchReport:
    """Branch read off the answering player's strategy: f grows one label
    per round until the strategy claims there is no successor."""

    f: Seq
    fail_index: int | None


def _query_u0(game: ReductionGame, policy: RegularStrategy, target: int) -> int:
    """The answer the policy gives once player I has built node id ``target``:
    the claim 0, or a successor's label, since only legal moves are followed."""
    st = _phase2_entry(target)
    for kind in ("answer", "confirmation"):
        move = policy.moves.get(st)
        if move is None:
            raise StrategyNotWinning(f"no {kind} recorded after t={game.source.sorted_nodes[target]!r}")
        st = step(game, st, move)
        if st is None:
            raise StrategyNotWinning(f"illegal {kind} {move} after t={game.source.sorted_nodes[target]!r}")
        if kind == "answer":
            st = step(game, st, 0)
    return st.u0


def extract_branch(tree: FiniteTree, policy: RegularStrategy) -> BranchReport:
    """Read a branch out of a winning answer policy.

    Round n encodes t = f[:n] and records the policy's answer as f(n);
    the rounds stop at the first 0 claim, whose index is the least n at
    which f[:n] has no successor left to offer.
    """
    game = build_reduction_game(tree)
    node = 0  # the id of f[:n]
    fail_index: int | None = None
    for n in range(tree.height + 2):
        answer = _query_u0(game, policy, node)
        if answer == 0:
            if game.kids[node]:
                raise StrategyNotWinning(f"claimed no successor at {tree.sorted_nodes[node]!r}, which has one")
            fail_index = n
            break
        node = dict(game.kids[node])[answer]
    return BranchReport(tree.sorted_nodes[node], fail_index)


def check_cardinality_bound(tree: FiniteTree, report: BranchReport) -> bool:
    """Size bounds implied by a claim at index F: the whole tree has at
    most 2**(F+1) - 1 nodes, and the subtree below f[:F-j] has at most
    2**(j+1) - 1 nodes for every j up to F."""
    if report.fail_index is None:
        raise ReductionError("branch report carries no fail index")
    F = report.fail_index
    return tree.size <= 2 ** (F + 1) - 1 and all(
        subtree(tree, report.f[: F - j]).size <= 2 ** (j + 1) - 1 for j in range(F + 1)
    )


@dataclass
class ScanStats:
    positions: int
    max_length: int
    max_moves: int


def scan_positions(game: ReductionGame) -> ScanStats:
    """Count every legal position, and the longest play, over the states.

    The legal move sequences are exactly the paths of the state graph
    from ``game.initial``, so one post-order pass counts them: a state
    heads one more path than its successors together, and the longest
    play from it is one ply longer than theirs.  Along the way it checks
    that no state is met at both ply parities, and that the mover the
    state machine dictates matches the mover that parity dictates.
    """
    transitions, mover = game.transitions, game.mover
    movers = (Player.I, Player.II)  # the mover at each ply parity
    max_moves = 0
    # state -> (ply parity, paths from it, longest play from it), stored
    # once its successors are counted; the graph is acyclic, so a state
    # is never met again before that.
    seen: dict = {}
    stack: list = [(game.initial, 0, None)]
    while stack:
        st, parity, trans = stack.pop()
        if trans is None:
            known = seen.get(st)
            if known is not None:
                if known[0] != parity:
                    raise ReductionError(f"state met at both ply parities: {st!r}")
                continue
            trans = transitions(st)
            if not trans:
                seen[st] = (parity, 1, 0)
                continue
            if mover(st) is not movers[parity]:
                raise ReductionError(f"mover parity broken at ply parity {parity}: {st!r}")
            if len(trans) > max_moves:
                max_moves = len(trans)
            stack.append((st, parity, trans))
            for _, nxt in trans:
                stack.append((nxt, 1 - parity, None))
        elif len(trans) == 1:  # a forced move, as at every idle step
            _, paths, longest = seen[trans[0][1]]
            seen[st] = (parity, paths + 1, longest + 1)
        else:
            kids = [seen[nxt] for _, nxt in trans]
            paths = 1 + sum([kid[1] for kid in kids])
            seen[st] = (parity, paths, 1 + max([kid[2] for kid in kids]))
    _, positions, max_length = seen[game.initial]
    return ScanStats(positions, max_length, max_moves)


def horizon_bound(tree: FiniteTree) -> int:
    """Ply budget no legal play can exceed."""
    return 4 * (tree.height + 1) * 3 + 8


def realizable_claim_traces(tree: FiniteTree) -> Iterator[tuple[Seq, bool]]:
    """For every node taken as a claimed branch end, whether some winning
    answer policy follows that path and claims exactly there.

    An extraction trace depends only on player II's phase-2 answers along
    its own path: f(i) at f[:i] for each i, then the claim 0 at the node.
    Phase 1 belongs to player I alone and no later state returns to phase
    2, so some winning policy gives those answers iff player II wins the
    game and wins every phase-3 state they lead to.  One memoized search
    serves every node: each phase-3 entry is evaluated when a trace first
    asks for it, and no state is evaluated twice.
    """
    game = build_reduction_game(tree)
    values: dict = {}
    first_win: dict = {}

    def wins(st: RState) -> bool:
        return induction(game, st, values, first_win) is Player.II

    solvable = wins(game.initial)
    path: list[int] = []  # the ids of the node's prefixes, itself last
    for node_id, node in enumerate(tree.sorted_nodes):
        path[len(node) :] = [node_id]
        yield node, solvable and all(wins(_phase3_entry(t, a)) for t, a in zip(path, node + (0,)))


def principal_play(game: ReductionGame, result: SolveResult) -> list[int]:
    """One full optimal-versus-leftmost play, for reporting."""
    moves: list[int] = []
    st = game.initial
    while trans := game.transitions(st):
        if game.mover(st) is result.winner:
            move = result.strategy.moves[st]
        else:
            move = trans[0][0]
        moves.append(move)
        st = dict(trans)[move]
    return moves
