"""One test per acceptance criterion; each prints its verdict line and must
both pass and finish inside its time budget."""

import itertools

import pytest

from ordsearch import acceptance
from ordsearch.acceptance import (
    CRITERIA,
    Criterion,
    _traversals_from_zero,
    iter_connected_adjacency,
    run_criterion,
)


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


def test_failing_criterion_prints_fail_with_its_detail_cut():
    def fails():
        raise AssertionError("x" * 200)

    ok, line = run_criterion(Criterion(0, "always-fails", 60.0, fails))
    assert not ok
    assert line.startswith("criterion 0 always-fails: FAIL (")
    assert line.endswith(") [" + "x" * 120 + "]")


ORACLES = (
    acceptance.iter_connected_adjacency,
    acceptance._flood,
    acceptance._traversals_from_zero,
    acceptance._prefix_connected,
    acceptance._breadth_first_triples,
    acceptance._colex_key,
)


def _global_names(code):
    """The global names a code object and the functions nested in it load."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _global_names(const)
    return names


@pytest.mark.parametrize("oracle", ORACLES, ids=[f.__name__ for f in ORACLES])
def test_oracles_load_no_library_object(oracle):
    # The oracles judge the library, so none may reach into it: every
    # module global they load is a builtin, a stdlib module or another
    # oracle helper of the acceptance module.  Attribute names show up in
    # co_names too, and resolve to no global.
    own = {f.__name__ for f in ORACLES}
    for name in _global_names(oracle.__code__):
        if name in own or name not in vars(acceptance):
            continue
        value = vars(acceptance)[name]
        module = getattr(value, "__module__", None) or getattr(value, "__name__", "")
        assert not module.startswith("ordsearch"), (oracle.__name__, name, module)
