"""One test per acceptance criterion; each prints its verdict line and must
both pass and finish inside its time budget."""

import pytest

from ordsearch.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[f"{c.number}-{c.name}" for c in CRITERIA]
)
def test_criterion(criterion):
    ok, line = run_criterion(criterion)
    print(line)
    assert ok, line
