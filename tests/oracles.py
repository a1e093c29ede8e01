"""Reference routes that only the tests use.

Each one restates a rule of the library in the most literal way
available, so the tests can compare the library's fast paths against it:
the tree rules checked in sorted order, a node line parsed part by part,
a node-line file read with one full parse per line, the exit rule read two ways, a clopen payoff read by scanning every
entry, the settling prefix of a play, the four terminal rules of the
reduction game applied to decoded pieces, a play scored move by move,
the reduction game over full node tuples (``SeqReductionGame``) and the
map between its states and the library's preorder-id ones (``recode``),
the reduction game's positions as an explicit tree, claim traces decided
by re-solving a pinned game and again from the full walk's values, both
players' restricted strategies enumerated as node sets, the restricted product as the deepest shared
node and again by walking a child index, each player's restricted
strategies counted over the whole tree, the restricted oracle as a loop
over every strategy pair, the backward induction that evaluates every
reachable state (``retrograde``) and ``solve`` read off it,
restricted strategies checked in sorted order, the alternating play
of two regular strategies, a restricted strategy in positional form,
the def3 certificate as a recursive walk, the reduction
game with both phase-4 lengths kept (``FullReductionGame``) and the map
from its states to the quotiented ones, the position scan as a walk of
every position, and the paper's height argument as the leftmost deepest
branch. ``node_sets`` draws the inputs the tree rules are compared on;
``sparse_trees`` and ``messy_text`` draw the codecs' inputs; ``relabel``
gives a shape seeded sparse labels; ``tree_fields`` lists what a tree
answers, so trees built two ways compare field by field.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from hypothesis import strategies as st

from bcgames.lab import SplitMix64
from bcgames.payoff import outcome_psi
from bcgames.players import Player, mover_at
from bcgames.reduction import (
    _MOVER,
    _NEXT_AFTER_IDLE,
    CTRL,
    DONE,
    IDLE_A,
    IDLE_B,
    IDLE_CTRL,
    MICRO_A,
    MICRO_B,
    NotTerminal,
    ReductionError,
    ReductionGame,
    RState,
    ScanStats,
    build_reduction_game,
)
from bcgames.solver import Game, SolveResult, SolverError, UndecidedGame, step
from bcgames.strategy import (
    MissingOpponentOption,
    NotExactlyOne,
    RegularStrategy,
    RestrictedStrategy,
    StrategyError,
    realize_exit,
)
from bcgames.trees import (
    FiniteTree,
    MissingPrefix,
    NodeNotInTree,
    Seq,
    TooManySuccessors,
    TreeError,
    child_index,
    parse_node,
)


def exit_win_existential(tree: FiniteTree, x: Seq, player: Player) -> bool:
    """Some prefix is a first exit whose offender is the opponent."""
    opponent = player.other
    for n in range(1, len(x) + 1):
        if x[:n] not in tree and x[: n - 1] in tree and mover_at(n - 1) is opponent:
            return True
    return False


def exit_win_universal(tree: FiniteTree, x: Seq, player: Player) -> bool:
    """Every out-of-tree prefix is explained by an opponent first exit at
    or before it.  Agrees with the existential form on transcripts that
    have left the tree; vacuously true on ones that never do."""
    opponent = player.other
    for n in range(1, len(x) + 1):
        if x[:n] in tree:
            continue
        if not any(
            x[:m] not in tree and x[: m - 1] in tree and mover_at(m - 1) is opponent
            for m in range(1, n + 1)
        ):
            return False
    return True


def check_tree_by_sorting(nodes: frozenset[Seq]) -> None:
    """The tree rules checked over the nodes in sorted order: the first
    node whose immediate prefix is absent, then the root, then the first
    parent counted with three or more successors."""
    counts: dict[Seq, int] = {}
    for node in sorted(nodes):
        if node:
            if node[:-1] not in nodes:
                raise MissingPrefix(node)
            counts[node[:-1]] = counts.get(node[:-1], 0) + 1
    if () not in nodes:
        raise TreeError("a tree must contain the empty sequence")
    for parent in sorted(counts):
        if counts[parent] > 2:
            raise TooManySuccessors(parent)


def parse_node_by_parts(text: str, lineno: int, error: Callable[[int, str], Exception]) -> Seq:
    """One node written as space-separated naturals; malformed text raises
    ``error(lineno, message)``, the calling codec's syntax error."""
    try:
        node = tuple(int(part) for part in text.split())
    except ValueError:
        raise error(lineno, f"not a sequence of naturals: {text!r}") from None
    if any(x < 0 for x in node):
        raise error(lineno, f"negative entry in {text!r}")
    return node


def read_node_lines_by_line(lines: list[str], error: Callable[[int, str], Exception]) -> frozenset[Seq]:
    """The root plus one node per non-blank line after the header line,
    each line parsed in full; duplicate node lines are rejected."""
    nodes: set[Seq] = {()}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        node = parse_node(raw, lineno, error)
        if node in nodes:
            raise error(lineno, f"duplicate node {node!r}")
        nodes.add(node)
    return frozenset(nodes)


@st.composite
def node_sets(draw) -> list[Seq]:
    """Shuffled node lists with sparse labels in 1..999: a prefix-closed
    core grown from the root, in which a parent may get three or more
    successors, plus stray nodes that may lack their prefix, and now and
    then no root."""
    labels = st.integers(1, 999)
    nodes = [()]
    for _ in range(draw(st.integers(0, 24))):
        nodes.append(draw(st.sampled_from(nodes)) + (draw(labels),))
    if draw(st.booleans()):
        nodes += draw(st.lists(st.lists(labels, min_size=1, max_size=4).map(tuple), max_size=3))
    if draw(st.integers(0, 4)) == 0:
        nodes.remove(())
    return draw(st.permutations(sorted(set(nodes))))


@st.composite
def sparse_trees(draw) -> frozenset[Seq]:
    """Node sets of binary choice trees with labels in 1..999, grown from
    the root: a drawn parent with fewer than two successors gets one more,
    on a label it does not use yet."""
    nodes = [()]
    for _ in range(draw(st.integers(0, 20))):
        parent = draw(st.sampled_from(nodes))
        taken = [n[-1] for n in nodes if n and n[:-1] == parent]
        if len(taken) < 2:
            nodes.append(parent + (draw(st.integers(1, 999).filter(lambda x: x not in taken)),))
    return frozenset(nodes)


def relabel(tree: FiniteTree, rng: SplitMix64) -> FiniteTree:
    """The same shape with labels drawn from 1..999: each parent draws two
    distinct labels, two successors take them in order, and a lone
    successor takes either one."""
    image = {(): ()}
    for node in tree.sorted_nodes:
        kids = tree.children(node)
        if not kids:
            continue
        a, b = 1 + rng.below(999), 1 + rng.below(998)
        labels = (min(a, b), max(a, b) + (b >= a))
        if len(kids) == 1:
            labels = (labels[rng.below(2)],)
        for kid, label in zip(kids, labels):
            image[kid] = image[node] + (label,)
    return FiniteTree(frozenset(image.values()))


def tree_fields(tree: FiniteTree) -> tuple:
    """A tree's fields as its readers see them: the node set, the
    preorder, every node's successors, the height and the nodes per depth."""
    children = [tree.children(node) for node in tree.sorted_nodes]
    return tree.nodes, tree.sorted_nodes, children, tree.height, tree.depth_counts


@st.composite
def messy_text(draw, header: str, lines: list[str]) -> str:
    """``header``, then ``lines`` in a drawn order with blank and
    whitespace-only lines drawn in between."""
    body = list(draw(st.permutations(lines)))
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join([header, *body]) + "\n"


def first_overlap(entries) -> tuple[Seq, Seq] | None:
    """The first pair (p, q) of entry prefixes, in sorted order, with p a
    prefix of q, found by comparing every pair."""
    ordered = sorted(p for p, _ in entries)
    for i, p in enumerate(ordered):
        for q in ordered[i + 1 :]:
            if q[: len(p)] == p:
                return p, q
    return None


def decide_by_scan(entries, default: Player, prefix: Seq) -> Player | None:
    """Winner of an antichain payoff fixed by ``prefix``: the entry that is
    a prefix of it, else the default once ``prefix`` is as long as every
    entry, else None."""
    for p, winner in entries:
        if prefix[: len(p)] == p:
            return winner
    if len(prefix) >= max((len(p) for p, _ in entries), default=0):
        return default
    return None


class NotAPath(StrategyError):
    """The intersection of two restricted strategies is not a single path."""


def product_restricted(sigma: RestrictedStrategy, tau: RestrictedStrategy) -> Seq:
    """Maximal node of the single path the two subtrees share."""
    if sigma.owner is tau.owner:
        raise StrategyError("product expects strategies of opposite owners")
    # Both node sets are prefix closed, so the shared nodes hold every
    # prefix of the deepest one, and are a path exactly when that is all.
    shared = sigma.nodes & tau.nodes
    endpoint = max(shared, key=len)
    if len(shared) == len(endpoint) + 1:
        return endpoint
    parents = Counter(node[:-1] for node in shared if node)
    fork = min(parent for parent, kids in parents.items() if kids > 1)
    raise NotAPath(f"two continuations below {fork!r}")


def enumerate_restricted(tree: FiniteTree, owner: Player) -> Iterator[RestrictedStrategy]:
    """Every valid restricted strategy exactly once, leftmost choices first.

    Built bottom-up: the strategies below a node come from those below
    its successors, a choice of one at owner nodes and one of each at
    opponent nodes."""
    below: dict[Seq, list[frozenset[Seq]]] = {}
    for node in reversed(tree.sorted_nodes):
        options = [below.pop(child) for child in tree.children(node)]
        if not options:
            below[node] = [frozenset((node,))]
        elif mover_at(len(node)) is owner:
            below[node] = [sub | {node} for subs in options for sub in subs]
        else:
            below[node] = [
                frozenset((node,)).union(*combo) for combo in itertools.product(*options)
            ]
    for nodes in below[()]:
        yield RestrictedStrategy(owner, nodes)


def count_restricted(tree: FiniteTree, owner: Player) -> int:
    """Strategy count by the sum/product rule, bottom-up: owner nodes sum
    over their choices, opponent nodes multiply over the kept successors."""
    counts: dict[Seq, int] = {}
    for node in reversed(tree.sorted_nodes):
        kids = tree.children(node)
        if len(kids) == 2:
            left, right = counts[kids[0]], counts[kids[1]]
            counts[node] = left + right if mover_at(len(node)) is owner else left * right
        else:
            counts[node] = counts[kids[0]] if kids else 1
    return counts[()]


def oracle_by_pairs(game: Game) -> Player:
    """Winner by intersecting every pair of enumerated restricted
    strategies and scoring the shared path's end."""
    sigmas = list(enumerate_restricted(game.tree, Player.I))
    taus = list(enumerate_restricted(game.tree, Player.II))

    def outcome(sigma: RestrictedStrategy, tau: RestrictedStrategy) -> Player:
        return game.winner(product_restricted(sigma, tau))

    if any(all(outcome(s, t) is Player.I for t in taus) for s in sigmas):
        return Player.I
    if any(all(outcome(s, t) is Player.II for s in sigmas) for t in taus):
        return Player.II
    raise SolverError("neither player has a winning restricted strategy")


def retrograde(game) -> tuple[dict, dict]:
    """Backward induction over every state reachable from ``game.initial``,
    with an explicit stack.

    A state without transitions takes ``game.winner``; elsewhere the
    mover wins iff some successor is won by the mover.  Returns the value
    of every reachable state and the winner's policy: on each state the
    winner reaches while following it, the leftmost move to a state the
    winner wins.  The policy is read off the edges stored while solving.
    """
    transitions, mover, terminal_winner = game.transitions, game.mover, game.winner
    values: dict = {}
    edges: dict = {}
    # An entry without transitions asks for a state's successors; one with
    # them comes back once every successor has its value.
    stack: list = [(game.initial, None)]
    while stack:
        state, trans = stack.pop()
        if trans is None:
            if state in values:
                continue
            trans = transitions(state)
            if not trans:
                values[state] = terminal_winner(state)
                continue
            stack.append((state, trans))
            stack.extend([(nxt, None) for _, nxt in reversed(trans)])
        else:
            who = mover(state)
            values[state] = who if who in [values[nxt] for _, nxt in trans] else who.other
            edges[state] = trans

    winner = values[game.initial]
    policy: dict = {}
    seen = set()
    stack = [game.initial]
    while stack:
        state = stack.pop()
        trans = edges.get(state)
        if trans is None or state in seen:
            continue
        seen.add(state)
        if mover(state) is winner:
            move, nxt = next(edge for edge in trans if values[edge[1]] is winner)
            policy[state] = move
            stack.append(nxt)
        else:
            stack.extend(nxt for _, nxt in trans)
    return values, policy


def solve_by_retrograde(game: Game) -> SolveResult:
    """``solve`` by the full backward induction: every reachable node is
    solved, and the winner's strategy is read off ``retrograde``'s
    policy, the leftmost move to a won successor."""
    values, policy = retrograde(game)
    winner = values[()]
    tree = game.tree
    nodes: set[Seq] = set()
    stack: list[Seq] = [()]
    while stack:
        node = stack.pop()
        nodes.add(node)
        kids = tree.children(node)
        if kids and mover_at(len(node)) is winner:
            move = policy.get(node, kids[0][-1])
            kids = [child for child in kids if child[-1] == move]
        stack.extend(kids)
    return SolveResult(winner, RestrictedStrategy(winner, frozenset(nodes)), len(values))


def product_by_walk(sigma: RestrictedStrategy, tau: RestrictedStrategy) -> Seq:
    """The shared path of two restricted strategies, followed from the
    root through sigma's successors that tau keeps too."""
    index = child_index(sigma.nodes)
    node: Seq = ()
    while True:
        kids = [c for c in index[node] if c in tau.nodes]
        if not kids:
            return node
        if len(kids) > 1:
            raise NotAPath(f"two continuations below {node!r}")
        node = kids[0]


def validate_restricted_by_sorting(
    tree: FiniteTree, candidate, owner: Player
) -> RestrictedStrategy:
    """The two defining clauses checked over the nodes in sorted order:
    first every node in the tree, then the root and prefix closure, then
    the first node that keeps the wrong number of successors."""
    nodes = frozenset(tuple(n) for n in candidate)
    for node in sorted(nodes):
        if node not in tree:
            raise NodeNotInTree(node)
    strategy = RestrictedStrategy(owner, nodes)
    for node in sorted(nodes):
        in_tree = tree.children(node)
        kept = [c for c in in_tree if c in nodes]
        if mover_at(len(node)) is owner:
            if in_tree and len(kept) != 1:
                raise NotExactlyOne(node)
        else:
            if len(kept) != len(in_tree):
                raise MissingOpponentOption(node)
    return strategy


class _Exit:
    """A symbolic off-tree move that a hand-made regular strategy may play;
    ``product_regular`` and ``wins_by_recursion`` realize it by
    ``realize_exit``.  The library's quotient plays the label itself."""

    def __repr__(self) -> str:
        return "EXIT"


EXIT = _Exit()


def product_regular(
    sigma: RegularStrategy,
    tau: RegularStrategy,
    horizon: int,
    tree: FiniteTree | None = None,
) -> Seq:
    """The alternating play of the two strategies up to ``horizon`` plies.

    Even plies come from ``sigma`` (player I), odd plies from ``tau``.
    A ``tree`` is required whenever a strategy plays EXIT, to realize it
    as a concrete number.
    """
    if sigma.owner is not Player.I or tau.owner is not Player.II:
        raise StrategyError("product expects a player-I strategy and a player-II strategy")
    play: list[int] = []
    for ply in range(horizon):
        strat = sigma if mover_at(ply) is Player.I else tau
        move = strat.move_at(tuple(play))
        if move is EXIT:
            if tree is None:
                raise StrategyError("EXIT move needs a tree to be realized")
            move = realize_exit(tree, tuple(play))
        play.append(move)
    return tuple(play)


def restricted_to_regular(strategy: RestrictedStrategy) -> RegularStrategy:
    """Positional form: the unique choice on the strategy's own nodes,
    0 everywhere else."""
    kept: dict[Seq, list[int]] = {}
    for node in strategy.nodes:
        if node and mover_at(len(node) - 1) is strategy.owner:
            kept.setdefault(node[:-1], []).append(node[-1])
    moves = {node: labels[0] for node, labels in kept.items() if len(labels) == 1}
    return RegularStrategy(strategy.owner, moves, default=0)


def wins_by_recursion(game: Game, strat: RegularStrategy, owner: Player) -> bool:
    """Does ``strat`` beat every quotiented opponent under the wrapped
    outcome?  A recursive walk: the owner's move is played, the
    opponent's in-tree successors and its exit move are all tried, and
    a play is scored once it leaves the tree or reaches the decision
    depth."""
    tree, payoff, depth = game.tree, game.payoff, game.decision_depth

    def walk(position: Seq) -> bool:
        mover = mover_at(len(position))
        if mover is owner:
            move = strat.move_at(position)
            if move is EXIT:
                move = realize_exit(tree, position)
            return settled(position + (move,))
        for child in tree.children(position):
            if not settled(child):
                return False
        return settled(position + (realize_exit(tree, position),))

    def settled(position: Seq) -> bool:
        if position not in tree:
            return outcome_psi(tree, payoff, position) is owner
        if len(position) == depth:
            return outcome_psi(tree, payoff, position) is owner
        return walk(position)

    if depth == 0:
        return outcome_psi(tree, payoff, ()) is owner
    return walk(())


def horizon(game: Game) -> int:
    """Ply count by which every play of this game is settled."""
    return max(game.decision_depth, game.tree.height + 1)


def decided_prefix(game: Game, play: Seq) -> Seq:
    """Shortest prefix of a play at which this game is settled: the first
    step out of the tree, or the in-tree prefix at the decision depth."""
    for k in range(len(play) + 1):
        prefix = play[:k]
        if prefix not in game.tree:
            return prefix
        if k == game.decision_depth:
            return prefix
    raise UndecidedGame(f"play of length {len(play)} never settles")


def apply_rules(tree: FiniteTree, t: Seq, u0: int, v: Seq, u_prime: Seq) -> tuple[Player, str]:
    """The four terminal rules, applied in order to decoded pieces."""
    if t + v not in tree:
        return Player.II, "rule1"
    if len(v) == 0 or v[0] == u0:
        return Player.II, "rule2"
    u = (u0,) + u_prime
    if t + u not in tree:
        return Player.I, "rule3"
    return (Player.II, "rule4") if len(v) <= len(u) else (Player.I, "rule4")


def terminal_outcome(game: ReductionGame, play: Seq) -> tuple[Player, str]:
    """Winner of a finished play plus the rule that fired.

    A move with no legal counterpart, including any move made after the
    end of the game, loses for its mover on the spot.
    """
    st = game.initial
    for ply, move in enumerate(play):
        if not game.transitions(st):
            return mover_at(ply).other, "exit"
        nxt = step(game, st, move)
        if nxt is None:
            return game.mover(st).other, "exit"
        st = nxt
    if game.transitions(st):
        raise NotTerminal(f"play of length {len(play)} ends mid-game")
    return st.winner, st.rule


def terminal_winner(game: ReductionGame, play: Seq) -> Player:
    return terminal_outcome(game, play)[0]


def encode_build_moves(game: ReductionGame, target: Seq) -> list[int]:
    """Move list realizing phase 1 for ``target``, ending on the signal:
    per element, extend, a forced idle, name the leftmost label, a forced
    idle, confirm it or swap in the rightmost label, a forced idle."""
    tree = game.source
    st = game.initial
    moves: list[int] = []

    def push(move: int) -> None:
        nonlocal st
        nxt = step(game, st, move)
        if nxt is None:
            raise ReductionError(f"move {move} is illegal in state {recode(tree, st, to_ids=False)!r}")
        moves.append(move)
        st = nxt

    for element in target:
        push(0)
        push(0)
        cur = recode(tree, st, to_ids=False).cur
        kids = tree.children(cur)
        push(kids[0][-1])
        push(0)
        if element == kids[0][-1]:
            push(0)
        elif len(kids) == 2 and element == kids[1][-1]:
            push(element)
        else:
            raise ReductionError(f"{element!r} does not label a successor of {cur!r}")
        push(0)
    push(1)
    return moves


def materialize_game_tree(game: ReductionGame) -> FiniteTree:
    """All legal positions as an explicit tree; small sources only."""
    nodes: list[Seq] = []
    stack = [(game.initial, ())]
    while stack:
        st, pos = stack.pop()
        nodes.append(pos)
        for mv, nxt in game.transitions(st):
            stack.append((nxt, pos + (mv,)))
    return FiniteTree(frozenset(nodes))


def recode(tree: FiniteTree, st: RState, to_ids: bool = True) -> RState:
    """``st`` with ``cur`` and ``t`` mapped between the nodes of ``tree``
    and their preorder ids in ``tree.sorted_nodes``: nodes to ids, as the
    library's game holds them, or with ``to_ids=False`` ids to nodes, as
    ``SeqReductionGame`` holds them.  None, off the tree, stays None."""
    look = tree.sorted_nodes.index if to_ids else tree.sorted_nodes.__getitem__
    cur, t = (x if x is None else look(x) for x in (st.cur, st.t))
    return st._replace(cur=cur, t=t)


def _phase2_entry(t: Seq) -> RState:
    return RState(2, MICRO_A, t, t, None, None, 0, None, 0)


def _phase3_entry(t: Seq, u0: int) -> RState:
    return RState(3, CTRL, t, t, u0, None, 0, None, 0)


def _phase4(step: str, cur: Seq | None, v_len: int, v0_ok: bool | None, u_len: int) -> RState:
    """A phase-4 state in canonical form.

    The terminal rules read only whether rule 2 is settled, whether
    ``cur`` is None and whether ``v_len <= u_len``, and ``u_len`` only
    grows.  So a settled state keeps no lengths, and an unsettled one
    keeps only how far u is behind v, clamped at zero once u has caught
    up; states that agree on these share their future."""
    if v_len == 0 or v0_ok:
        return RState(4, step, cur, None, None, None, 0, None, 0)
    return RState(4, step, cur, None, None, None, max(v_len - u_len, 0) + 1, False, 1)


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
class SeqReductionGame:
    """The reduction game with ``cur`` and ``t`` held as full node tuples
    and every state built by the named tuple's constructor: the reference
    the library's preorder-id game is compared against."""

    source: FiniteTree
    initial = RState(1, CTRL, (), None, None, None, 0, None, 0)

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
            return ((0, RState(phase, after_idle, cur, t, u0, a2, v_len, v0_ok, u_len)),)
        tree = self.source
        if step == CTRL:
            if phase == 1:
                end = _phase2_entry(cur)
            elif phase == 3:
                end = _phase4(CTRL, t + (u0,) if u0 else None, v_len, v0_ok, 1)
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
        return _phase4(IDLE_B, child, v_len, v0_ok, u_len + 1)


def phase2_pins(tree: FiniteTree, t: Seq, answer: int) -> dict[RState, int]:
    """Pin player II's two phase-2 micro moves at ``t`` to produce
    ``answer`` (0 for the claim), on the library's game, whose states
    hold preorder ids."""
    kids = tree.children(t)
    if answer == 0:
        a_move, b_move = 0, 0
    elif kids and answer == kids[0][-1]:
        a_move, b_move = answer, 0
    elif len(kids) == 2 and answer == kids[1][-1]:
        a_move, b_move = kids[0][-1], answer
    else:
        raise ReductionError(f"{answer} is not an available answer at {t!r}")
    a_state = RState(2, MICRO_A, t, t, None, None, 0, None, 0)
    b_state = RState(2, MICRO_B, t, t, None, a_move, 0, None, 0)
    return {recode(tree, a_state): a_move, recode(tree, b_state): b_move}


@dataclass(frozen=True)
class PinnedGame(SeqReductionGame):
    """The reduction game with some of its states restricted to one move."""

    pins: Mapping[RState, int] = field(default_factory=dict)

    def transitions(self, st: RState) -> tuple[tuple[int, RState], ...]:
        trans = super().transitions(st)
        pinned = self.pins.get(st)
        return trans if pinned is None else tuple(t for t in trans if t[0] == pinned)


def realizable_by_pinning(tree: FiniteTree) -> Iterator[tuple[Seq, bool]]:
    """For every node, whether player II still wins once its phase-2
    answers are pinned to follow the node and claim there: one re-solve
    of the pinned game per node."""
    build_reduction_game(tree)  # rejects a tree that uses the label 0
    for node in tree.sorted_nodes:
        pins: dict[RState, int] = {}
        for i in range(len(node)):
            pins.update(phase2_pins(tree, node[:i], node[i]))
        pins.update(phase2_pins(tree, node, 0))
        game = PinnedGame(tree, {recode(tree, st, to_ids=False): move for st, move in pins.items()})
        values, _ = retrograde(game)
        yield node, values[game.initial] is Player.II


def claim_traces_by_full_walk(tree: FiniteTree) -> Iterator[tuple[Seq, bool]]:
    """``realizable_claim_traces``' rule read off the full walk's values:
    player II wins the game and every phase-3 entry the node's answers
    lead to."""
    values, _ = retrograde(build_reduction_game(tree))
    wins = values[ReductionGame.initial] is Player.II
    for node in tree.sorted_nodes:
        answers = [(node[:i], node[i]) for i in range(len(node))] + [(node, 0)]
        yield node, wins and all(values[recode(tree, _phase3_entry(t, a))] is Player.II for t, a in answers)


def _full_phase4_entry(t: Seq, u0: int, v_len: int, v0_ok: bool | None) -> RState:
    u_node = t + (u0,) if u0 != 0 else None
    return RState(4, CTRL, u_node, None, None, None, v_len, v0_ok, 1)


def _full_terminal(cur: Seq | None, v_len: int, v0_ok: bool | None, u_len: int) -> RState:
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
class FullReductionGame(SeqReductionGame):
    """The reduction game with phase 4 unquotiented: every state keeps
    both lengths, |v| and |u|, so each pair of lengths is its own state."""

    def transitions(self, st: RState) -> tuple[tuple[int, RState], ...]:
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
                end = _full_phase4_entry(t, u0, v_len, v0_ok)
            else:
                end = _full_terminal(cur, v_len, v0_ok, u_len)
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


def quotient_state(tree: FiniteTree, st: RState) -> RState:
    """The state of the quotiented game that a full state stands for:
    from phase 4 on, a play whose v is empty or copies u0 is settled and
    keeps no lengths, any other keeps only how far u is behind v."""
    st = recode(tree, st)
    if st.phase < 4:
        return st
    if st.v_len == 0 or st.v0_ok:
        return st._replace(v_len=0, v0_ok=None, u_len=0)
    return st._replace(v_len=max(st.v_len - st.u_len, 0) + 1, v0_ok=False, u_len=1)


def scan_by_walk(game: ReductionGame) -> ScanStats:
    """Exhaustive walk of every legal position, one at a time, checking
    at each that the state machine's mover is the ply parity's mover."""
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


def subtree_heights(tree: FiniteTree) -> dict[Seq, int]:
    """The height of every node's subtree, from one post-order pass over
    the child index."""
    below: dict[Seq, int] = {}
    stack: list[tuple[Seq, bool]] = [((), False)]
    while stack:
        node, done = stack.pop()
        kids = tree.children(node)
        if done:
            below[node] = 1 + max(below[kid] for kid in kids) if kids else 0
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in kids)
    return below


def deepest_branch(tree: FiniteTree) -> Seq:
    """The leftmost branch of maximal height: from the root, step to the
    leftmost successor whose subtree is tallest."""
    below = subtree_heights(tree)
    node: Seq = ()
    while tree.children(node):
        node = max(tree.children(node), key=below.__getitem__)
    return node


def height_policy_answers(tree: FiniteTree) -> dict[Seq, frozenset[int]]:
    """The answers u0 after which player II wins the reduction game once
    player I has built t, by the paper's height argument: the claim 0 at
    a leaf, elsewhere the label of any child of maximal height.  I's rival
    v must leave t by another child, so it outgrows u exactly when that
    child is taller."""
    below = subtree_heights(tree)
    answers: dict[Seq, frozenset[int]] = {}
    for node in tree:
        kids = tree.children(node)
        tallest = max((below[kid] for kid in kids), default=None)
        tall = frozenset(kid[-1] for kid in kids if below[kid] == tallest)
        answers[node] = tall or frozenset({0})
    return answers
