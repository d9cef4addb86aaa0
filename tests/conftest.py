import numpy as np
import pytest

import recourse_game as rg
from recourse_game.checks import (
    nonmonotone_witness,
    set_cover_witness,
    two_group_witness,
)


@pytest.fixture
def nonmono() -> rg.Instance:
    """Three-value instance whose joint objective is non-monotone."""
    return nonmonotone_witness()


@pytest.fixture
def setcover():
    """(instance, policy) for the two-element set-cover reduction."""
    return set_cover_witness(gamma=0.3)


@pytest.fixture
def two_group():
    """(instance, matroid) with nearly all rejected mass in group 1."""
    return two_group_witness()


def random_instance(rng: rg.RngStream, m: int, gamma: float | None = None) -> rg.Instance:
    g = gamma if gamma is not None else float(rng.uniform(0.15, 0.85))
    return rg.generate_synthetic(rg.SynthConfig(m=m, gamma=g, seed=rng.integers(2**62)))


def subset(rng: rg.RngStream, items, p: float = 0.5) -> tuple[int, ...]:
    return tuple(i for i in items if rng.random() < p)


def tie_heavy_instance(rng: rg.RngStream, m: int) -> rg.Instance:
    """Instance built to produce exact ties: py on a grid that includes
    gamma, px on a small integer grid with zero-mass values, and costs drawn
    from {0, 0.5, 1, 1.5, inf}."""
    gen = rng.generator
    gamma = float(gen.choice([0.25, 0.5, 0.75]))
    py = np.sort(gen.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=m))[::-1]
    px = gen.integers(0, 4, size=m).astype(float)
    if px.sum() == 0.0:
        px[0] = 1.0
    cost = gen.choice([0.0, 0.5, 1.0, 1.5, np.inf], size=(m, m))
    np.fill_diagonal(cost, 0.0)
    return rg.make_instance(px / px.sum(), py, cost, gamma)


def equivalence_cases(tag: str, n: int = 200):
    """n seeded (instance, k) pairs with m in [4, 60]: every other one is
    tie-heavy, the rest come from the synthetic generator."""
    rng = rg.RngStream(rg.derive_seed(0, tag))
    for t in range(n):
        m = 4 + rng.integers(57)
        inst = tie_heavy_instance(rng, m) if t % 2 else random_instance(rng, m)
        yield inst, 1 + rng.integers(4)
