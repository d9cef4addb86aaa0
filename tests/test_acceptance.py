"""Acceptance criteria: runs every criterion at its stated tolerance and
prints one pass/fail line each (same battery as `recourse-game check`)."""

from functools import partial

import numpy as np
import pytest

import recourse_game as rg
from conftest import (
    graded_policy,
    random_instance,
    subset,
    tie_heavy_instance,
    traced_peak,
)
from recourse_game import algorithms, behavior, checks


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


def test_batch_scores_are_one_set_calls():
    # A ⊆ B and x as the property criteria draw them, with B empty in a
    # third of the draws and A empty in another: each batched score carries
    # the bytes of one utility or joint_objective call on its set
    rng = rg.seeded_rng(rg.derive_seed(0, "batch-scores"))
    draws = 0
    for t in range(600):
        m = 4 + int(rng.integers(7))
        inst = tie_heavy_instance(rng, m) if t % 2 else random_instance(rng, m)
        policy = graded_policy(rng, inst)
        viable = rg.ground_set_viable(inst).indices
        if not viable:
            continue
        x, B = checks._draw_candidate(rng, viable)
        B = () if t % 3 == 0 else B
        A = () if t % 3 == 1 else subset(rng, B)
        sets = [A, B, A + (x,), B + (x,)]
        fixed = partial(algorithms._fixed_scores, inst, policy)
        joint = partial(algorithms._joint_scores, inst)
        for score, one_set in [
            (fixed, partial(rg.utility, inst, policy)),
            (joint, partial(rg.joint_objective, inst)),
        ]:
            got = checks._batch_scores(score, sets)
            want = [one_set(rg.ExplanationSet(S)) for S in sets]
            assert np.array(got).tobytes() == np.array(want).tobytes()
        draws += 1
    assert draws >= 500


def test_marginal_consistency_calls_no_gain_wrapper(monkeypatch):
    # the criterion takes its gains from behavior._gains: with both
    # one-candidate wrappers refusing, wherever they are imported, its
    # seed-0 report is unchanged
    def refuse(*args):
        raise AssertionError("a marginal_gain_* wrapper was called")

    for module in (behavior, algorithms, checks):
        for name in ("marginal_gain_fixed", "marginal_gain_joint"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    result = checks.check_marginal_consistency(0)
    assert result.passed
    assert result.detail == (
        "1000 draws, worst |fixed|=9.714e-17, worst |joint|=1.353e-16"
    )
