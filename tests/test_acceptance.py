"""Acceptance criteria: runs every criterion at its stated tolerance and
prints one pass/fail line each (same battery as `recourse-game check`)."""

import numpy as np
import pytest

from conftest import traced_peak
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


def test_leakage_analytics_peaks_below_one_draw_array():
    # 20 Monte-Carlo runs of 100,000 samples on m <= 10 stream their draws:
    # none holds a whole (samples, m) int64 array
    peak = traced_peak(lambda: checks.check_leakage_analytics(0))
    assert peak < 100_000 * 10 * np.dtype(np.int64).itemsize
