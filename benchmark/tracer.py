"""Spans around calls into the package's public functions, recorded from
outside the package.

`Tracer.start_pass` replaces each traced function by a wrapper in every
`recourse_game` module namespace that holds it (a name imported with
`from .behavior import best_respond` lives in both `behavior` and
`algorithms`), and `stop_pass` puts the originals back, so untraced passes
run the unmodified package. Spans are kept in memory as flat arrays and
written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "recourse_game"

# module.function for every traced public function.
TRACED = (
    "core.make_instance",
    "core.sort_canonical",
    "datagen.generate_synthetic",
    "behavior.adaptation_matrix",
    "behavior.assign_explanations",
    "behavior.best_respond",
    "behavior.fixed_marginal_state",
    "behavior.marginal_gain_fixed",
    "behavior.group_improvement",
    "behavior.leakage_utility",
    "algorithms.greedy_fixed_policy",
    "algorithms.greedy_matroid",
    "algorithms.optimal_policy_for",
    "algorithms.joint_marginal_state",
    "algorithms.marginal_gain_joint",
    "algorithms.randomized_joint",
    "algorithms.brute_force_fixed",
    "algorithms.brute_force_joint",
    "algorithms.exhaustive_best_policy",
    "baselines.min_cost_explanations",
    "baselines.diverse_explanations",
    "baselines.black_box_utility",
    "harness.run_compare",
    "harness.run_leakage",
    "harness.run_matroid",
)

# Bytes one adaptation_matrix call touches for an m-value instance: the m x m
# float64 cost matrix read (8 bytes per entry) and the bool result written
# (1 byte per entry). Computed from m, not measured.
ADAPTATION_BYTES_PER_ENTRY = 9


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self._originals: dict[str, object] = {}
        for target in TRACED:
            module, fn = target.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), fn, None)
            if callable(original):
                self._originals[target] = original
                self.names.append(target)
            else:
                self.absent.append(target)
        # One entry per span: name id, parent span (-1 at top level), pass.
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.adaptation_bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._pass = -1
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, weigh=None):
        name_id, parent, pass_id = self.name_id, self.parent, self.pass_id
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(self._pass)
            end.append(0.0)
            stack.append(idx)
            if weigh is not None:
                weigh(args)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _weigh_adaptation(self, args):
        m = args[0].m
        self.adaptation_bytes[self._pass] = (
            self.adaptation_bytes.get(self._pass, 0)
            + ADAPTATION_BYTES_PER_ENTRY * m * m
        )

    def start_pass(self) -> None:
        self._pass += 1
        wrappers = {}
        for nid, target in enumerate(self.names):
            weigh = (
                self._weigh_adaptation if target == "behavior.adaptation_matrix" else None
            )
            wrappers[id(self._originals[target])] = self._wrap(
                nid, self._originals[target], weigh
            )
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def stop_pass(self) -> None:
        for module, attr, value in self._installed:
            setattr(module, attr, value)
        self._installed.clear()

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.pass_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def write(self, path) -> None:
        name_id, parent, pass_id, start, end = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            pass_id=pass_id,
            start=start,
            end=end,
        )

    def summary(self) -> list[dict]:
        """Per traced pass: calls, total and self milliseconds per function.

        Self time is a span's duration minus the durations of its child
        spans; one thread means children never overlap.
        """
        name_id, parent, pass_id, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        n = len(self.names)
        out = []
        for p in range(self._pass + 1):
            sel = pass_id == p
            calls = np.bincount(name_id[sel], minlength=n)
            total = np.bincount(name_id[sel], weights=dur[sel], minlength=n)
            self_s = np.bincount(name_id[sel], weights=own[sel], minlength=n)
            layers = {
                name: {
                    "calls": int(calls[i]),
                    "total_ms": float(total[i]) * 1e3,
                    "self_ms": float(self_s[i]) * 1e3,
                }
                for i, name in enumerate(self.names)
            }
            if "behavior.adaptation_matrix" in layers:
                layers["behavior.adaptation_matrix"]["computed_mb"] = (
                    self.adaptation_bytes.get(p, 0) / 2**20
                )
            out.append(layers)
        return out
