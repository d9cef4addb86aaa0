"""Acceptance criteria: runs every criterion at its stated tolerance and
prints one pass/fail line each (same battery as `recourse-game check`)."""

import pytest

from recourse_game import checks


@pytest.mark.parametrize("criterion", checks.ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion(base_seed=0)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_randomized_joint_guarantee_report_is_pinned():
    # runs that share one start must leave the seed-0 report line as it was
    detail = checks.check_randomized_joint_guarantee(0).detail
    assert detail == "20 instances x 200 runs, violations=0, mean ratio=0.939859"
