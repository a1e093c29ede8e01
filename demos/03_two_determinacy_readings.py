"""The two strategy formalisms agree on every winner.

Regular strategies answer every position and are scored by the wrapped
outcome (exit first and you lose, otherwise the payoff decides), after
quotienting all off-tree moves at a position into one off-tree label.
Restricted strategies are subtrees whose joint play is scored
literally.  Both brute-force searches name the same winner on the whole
small corpus.
"""

from bcgames import check_def3_def4, enumerate_trees, exit_game, validate_tree
from bcgames.lab import game_for, random_payoffs

checked = 0
for index, tree in enumerate(enumerate_trees(4)):
    for payoff in random_payoffs(tree, 5, seed=10 + index, depth=3):
        report = check_def3_def4(game_for(tree, payoff))
        assert report.agree, (tree, payoff)
        checked += 1
print(f"{checked} payoff games: both readings agree on all of them")

for nodes in ([()], [(), (1,)], [(), (1,), (2,), (1, 3)]):
    game = exit_game(validate_tree(nodes))
    report = check_def3_def4(game)
    print(f"pure exit on {sorted(game.tree.nodes)}: "
          f"regular={report.regular_winner} restricted={report.restricted_winner}")
