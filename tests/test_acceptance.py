"""One test per acceptance criterion; each prints its verdict line and must
both pass and finish inside its time budget."""

import itertools

import pytest

from ordsearch.acceptance import CRITERIA, _traversals_from_zero, iter_connected_adjacency, run_criterion


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[f"{c.number}-{c.name}" for c in CRITERIA]
)
def test_criterion(criterion):
    ok, line = run_criterion(criterion)
    print(line)
    assert ok, line


def test_traversals_from_zero_come_in_lex_order():
    # Criterion 3 takes the first breadth-first traversal as the least one.
    # The reference filters every permutation starting at 0, which
    # itertools yields in lex order, by a connected-prefix test.
    for n in range(1, 6):
        for adj in iter_connected_adjacency(n):
            expected = [
                order
                for order in itertools.permutations(range(n))
                if order[0] == 0 and all(adj[v] & sum(1 << u for u in order[:i]) for i, v in enumerate(order) if i)
            ]
            assert _traversals_from_zero(adj) == expected, adj
