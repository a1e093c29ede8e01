"""Binary choice trees: validation, shape enumeration, and the file format."""

from bcgames import (
    enumerate_trees,
    parse_tree,
    serialize_tree,
    subtree,
    validate_tree,
    zero_free_transform,
)
from bcgames.trees import MissingPrefix, TooManySuccessors

# Nodes are tuples of naturals; the empty tuple is the root.
tree = validate_tree([(), (1,), (2,), (1, 3)])
print("nodes:", sorted(tree.nodes))
print("successors of the root:", tree.children(()))
print("size, height =", (tree.size, tree.height))
print("subtree below (1,):", sorted(subtree(tree, (1,)).nodes))

# Both defining clauses are enforced, naming the first offender.
for bad in ([(), (1,), (2,), (3,)], [(), (1, 3)]):
    try:
        validate_tree(bad)
    except (TooManySuccessors, MissingPrefix) as exc:
        print("rejected:", exc)

# Shifting every label up by one frees 0 for the reduction encoding.
print("zero-free form:", sorted(zero_free_transform(tree).nodes))

# One canonical tree per shape; counts grow 1, 1, 2, 4, 9, 21, ...
for size in range(1, 7):
    print(f"trees with <= {size} nodes:", sum(1 for _ in enumerate_trees(size)))

# The text format round-trips byte for byte.
text = serialize_tree(tree)
print("--- tree file ---")
print(text, end="")
assert parse_tree(text) == tree
print("round-trip: ok")
