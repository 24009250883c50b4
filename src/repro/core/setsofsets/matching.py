"""Difference measures between two sets of sets.

The paper defines ``d`` as "the value of the minimum cost matching between
Alice and Bob's child sets, where the cost of matching two sets is equal to
their set difference", and notes the protocols actually solve the relaxed
version where every child set only needs to be close to *some* child set of
the other party.  Both quantities are implemented here; they are used by the
workload generators (to verify planted differences) and by tests and
benchmarks, never by the protocols themselves (which only receive bounds).
"""

from __future__ import annotations

from repro.core.setsofsets.types import SetOfSets


def _difference_matrix(
    alice: SetOfSets, bob: SetOfSets
) -> tuple[list[list[int]], list, list]:
    # Plain lists: the matrices are s x s for parents of s children, far
    # too small to need vectorizing.
    alice_children = alice.sorted_children()
    bob_children = bob.sorted_children()
    matrix = [
        [len(a_child ^ b_child) for b_child in bob_children]
        for a_child in alice_children
    ]
    return matrix, alice_children, bob_children


def minimum_matching_difference(alice: SetOfSets, bob: SetOfSets) -> int:
    """The paper's ``d``: minimum-cost perfect matching on child sets.

    Unmatched child sets (when the parents have different numbers of
    children) cost their full size, which corresponds to matching them with
    an empty set.
    """
    matrix, alice_children, bob_children = _difference_matrix(alice, bob)
    size = max(len(alice_children), len(bob_children))
    if size == 0:
        return 0
    padded = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i < len(alice_children) and j < len(bob_children):
                padded[i][j] = matrix[i][j]
            elif i < len(alice_children):
                padded[i][j] = len(alice_children[i])
            elif j < len(bob_children):
                padded[i][j] = len(bob_children[j])
    return _hungarian_cost(padded)


def _hungarian_cost(cost: list[list[int]]) -> int:
    """Exact minimum-cost perfect matching on a square matrix (O(n^3)).

    The classic potentials formulation of the Hungarian algorithm.  The
    matrices here are s x s for parents of s children, so a dependency-free
    exact solver is both affordable and deterministic (unlike a greedy
    bound, it is symmetric in the two parents).
    """
    size = len(cost)
    infinity = float("inf")
    row_potential = [0] * (size + 1)
    col_potential = [0] * (size + 1)
    col_match = [0] * (size + 1)  # col_match[j] = row assigned to column j
    col_parent = [0] * (size + 1)
    for row in range(1, size + 1):
        col_match[0] = row
        current_col = 0
        min_reduced = [infinity] * (size + 1)
        visited = [False] * (size + 1)
        while True:
            visited[current_col] = True
            current_row = col_match[current_col]
            delta = infinity
            next_col = -1
            for col in range(1, size + 1):
                if visited[col]:
                    continue
                reduced = (
                    cost[current_row - 1][col - 1]
                    - row_potential[current_row]
                    - col_potential[col]
                )
                if reduced < min_reduced[col]:
                    min_reduced[col] = reduced
                    col_parent[col] = current_col
                if min_reduced[col] < delta:
                    delta = min_reduced[col]
                    next_col = col
            for col in range(size + 1):
                if visited[col]:
                    row_potential[col_match[col]] += delta
                    col_potential[col] -= delta
                else:
                    min_reduced[col] -= delta
            current_col = next_col
            if col_match[current_col] == 0:
                break
        while current_col:  # augment along the found path
            parent = col_parent[current_col]
            col_match[current_col] = col_match[parent]
            current_col = parent
    return sum(
        cost[col_match[col] - 1][col - 1] for col in range(1, size + 1)
    )


def relaxed_difference(alice: SetOfSets, bob: SetOfSets) -> int:
    """The relaxed measure the protocols tolerate (Section 3.1).

    Sum over each of Alice's child sets of its minimum difference to *any* of
    Bob's child sets, plus the symmetric term.  Always at most twice the
    matching difference.
    """
    matrix, alice_children, bob_children = _difference_matrix(alice, bob)
    total = 0
    if len(bob_children):
        for i, _child in enumerate(alice_children):
            total += min(matrix[i])
    else:
        total += sum(len(child) for child in alice_children)
    if len(alice_children):
        for j, _child in enumerate(bob_children):
            total += min(matrix[i][j] for i in range(len(alice_children)))
    else:
        total += sum(len(child) for child in bob_children)
    return total


def differing_children_count(alice: SetOfSets, bob: SetOfSets) -> int:
    """The paper's ``d_hat``: number of child sets present on one side only."""
    return len(alice.children ^ bob.children)
