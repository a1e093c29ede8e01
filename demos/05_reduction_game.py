"""The four-phase reduction game end to end.

Player I grows t, player II answers u0 (or claims 0), player I grows a
rival v, player II grows u' below t + u0.  The second player wins every
finite instance; reading her answers back off a winning policy walks a
branch of the source tree, and where the branch ends the whole tree
obeys an exponential size bound.
"""

from bcgames import (
    build_reduction_game,
    check_cardinality_bound,
    decode,
    extract_branch,
    solve_reduction,
    validate_tree,
    verify_winning_policy,
)
from bcgames.reduction import principal_play, scan_positions

tree = validate_tree([(), (1,), (2,), (1, 1), (1, 1, 1)])
game = build_reduction_game(tree)
result = solve_reduction(tree)
print("winner:", result.winner, "| abstract states evaluated:", result.explored)
print("policy certified:", verify_winning_policy(game, result.strategy) is None)

stats = scan_positions(game)
print(f"legal positions: {stats.positions}, longest play: {stats.max_length} plies, "
      f"widest turn: {stats.max_moves} moves")

# One optimal-versus-leftmost play, decoded back into its four pieces.
play = principal_play(game, result)
transcript = decode(game, tuple(play))
print("principal play:", play)
print(f"  t={transcript.t} u0={transcript.u0} v={transcript.v} "
      f"u'={transcript.u_prime} -> {transcript.winner} by {transcript.rule}")

# Branch extraction: II's answers trace the deep branch, then claim 0.
report = extract_branch(tree, result.strategy)
print("extracted branch:", report.f, "| claim at index:", report.fail_index)
print("size bound holds:", check_cardinality_bound(tree, report))
print(f"  ({tree.size} nodes <= 2**{report.fail_index + 1} - 1 = "
      f"{2 ** (report.fail_index + 1) - 1})")

# A tall tree with a root decoy: the branch follows the long path exactly.
tall = validate_tree([()] + [tuple([1] * i) for i in range(1, 13)] + [(2,)])
tall_report = extract_branch(tall, solve_reduction(tall).strategy)
print("tall instance branch length:", len(tall_report.f), "=", tall_report.fail_index)
