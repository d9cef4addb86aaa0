"""Instance construction: seeded random streams, synthetic generators,
percentile-shift cost matrices from tabular features, and flat-file
ingestion.

File formats
------------
Instance values: CSV with header ``px,py`` and one row per feature value.
Instance costs: headerless m x m CSV; the literal token ``inf`` marks an
infinite entry. gamma is supplied by configuration, not stored.
Feature table: a header row of column names, one metadata row declaring each
column as ``actionable``, ``actionable_up`` (its percentile may never
decrease) or ``discrete``, then one data row per feature value.
Blank lines are skipped anywhere; errors name the file and the physical line.
"""

from __future__ import annotations

import csv
import hashlib
import warnings
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from .core import (
    _GAMMA,
    _ROW_BLOCK,
    Instance,
    _canonical_order,
    _counts,
    _reals,
    make_instance,
)

KIND_ACTIONABLE = "actionable"
KIND_ACTIONABLE_UP = "actionable_up"
KIND_DISCRETE = "discrete"
_KINDS = (KIND_ACTIONABLE, KIND_ACTIONABLE_UP, KIND_DISCRETE)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary (stringified) components.

    Uses sha256, not Python's salted hash, so derived streams are identical
    across processes and platforms.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def seeded_rng(seed: int) -> np.random.Generator:
    """Portable random stream: same seed, same draws. The bit generator is
    pinned to PCG64 because numpy's default may change between releases."""
    return np.random.Generator(np.random.PCG64(*_counts([seed], "seed")))


@dataclass(frozen=True)
class SynthConfig:
    """The paper's synthetic generator: population weights are draws from
    N(0.5, 0.1) (redrawn while negative), outcomes are uniform on [0, 1],
    and each ordered pair of distinct values gets a uniform cost on [0, 1]
    with probability 0.5, otherwise the unreachable cost 2.0.
    """

    m: int
    gamma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m", 2), ("seed", 0)):
            object.__setattr__(self, name, *_counts([getattr(self, name)], name, low))
        object.__setattr__(self, "gamma", *_reals([self.gamma], *_GAMMA))


def generate_synthetic(config: SynthConfig) -> Instance:
    """Draw an instance from the synthetic model; fully determined by seed."""
    rng = seeded_rng(config.seed)
    m = config.m
    weights = rng.normal(0.5, 0.1, m)
    while (weights < 0.0).any():
        bad = weights < 0.0
        weights[bad] = rng.normal(0.5, 0.1, np.count_nonzero(bad))
    py = rng.uniform(size=m)

    # Coins, then costs, drawn in row blocks: the same doubles as one m x m
    # `uniform` draw each. Each cost block goes straight to its canonical
    # rows and columns, so the matrix is never copied; raw value r is
    # canonical value rank[r].
    perm = _canonical_order(py)
    rank = np.empty(m, dtype=int)
    rank[perm] = np.arange(m)
    blocks = [slice(s, s + _ROW_BLOCK) for s in range(0, m, _ROW_BLOCK)]
    unreachable = np.empty((m, m), dtype=bool)
    for rows in blocks:
        coins = rng.random(unreachable[rows].shape)
        np.greater_equal(coins, 0.5, out=unreachable[rows])
    del coins  # not alive beside the cost blocks
    cost = np.empty((m, m))
    for rows in blocks:
        block = rng.random(unreachable[rows].shape)
        # 2.0 where unreachable, branch-free: block lies in [0, 1), so
        # max(b, 1) + 1 = 2 and max(b, 0) + 0 = b
        np.maximum(block, unreachable[rows], out=block)
        np.add(block, unreachable[rows], out=block)
        cost[rank[rows]] = block[:, perm]
    np.fill_diagonal(cost, 0.0)
    # the pinned bytes: normalized, then normalized again in canonical order,
    # so px sums to 1 and needs none of make_instance's rescaling
    px = weights[perm] / weights.sum()
    return Instance(px / px.sum(), py[perm], cost, config.gamma)


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Tabular description of the m feature values.

    Actionable columns are numeric; discrete columns are compared for
    equality only.
    """

    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    columns: Tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.names) != len(self.kinds) or len(self.names) != len(self.columns):
            raise ValueError("names, kinds and columns must align")
        for kind in self.kinds:
            if kind not in _KINDS:
                raise ValueError(f"unknown column kind {kind!r}")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError("all columns must have the same number of rows")

    @property
    def m(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def _weighted_ecdf(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Right-continuous empirical CDF evaluated at each row's own value:
    out[i] = total weight of rows with value <= values[i]. Tied values share
    a percentile."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    csum = np.cumsum(weights[order])
    # last cumulative weight within each run of equal values
    last = np.searchsorted(sorted_vals, sorted_vals, side="right") - 1
    out = np.empty_like(csum)
    out[order] = csum[last]
    return out


def build_cost_matrix(table: FeatureTable, px: Sequence[float] | None = None) -> np.ndarray:
    """Unit-scale adaptation costs between rows: the largest percentile
    shift across actionable columns, infinite when any discrete column
    differs or a never-decreasing column would lose percentile.

    px weights the empirical CDFs (nonnegative, with a positive finite
    total); omit it for plain row counting.
    """
    m = table.m
    if m == 0:
        raise ValueError("the table has no rows")
    if px is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(px, dtype=float)
        if w.shape != (m,):
            raise ValueError("px must have one weight per row")
        if not (np.all(w >= 0.0) and 0.0 < w.sum() < np.inf):
            raise ValueError("px weights must be >= 0 with a positive finite total")
        w = w / w.sum()

    # one difference buffer serves every column: about 2.25 m x m floats
    shift = np.zeros((m, m))
    diff = np.empty((m, m))
    blocked = np.zeros((m, m), dtype=bool)
    n_actionable = 0
    for name, kind, col in zip(table.names, table.kinds, table.columns):
        if kind == KIND_DISCRETE:
            vals = np.asarray(col)
            blocked |= vals[:, None] != vals[None, :]
            continue
        n_actionable += 1
        q = _weighted_ecdf(np.asarray(col, dtype=float), w)
        np.subtract(q[None, :], q[:, None], out=diff)
        if kind == KIND_ACTIONABLE_UP:
            blocked |= diff < 0.0
        np.abs(diff, out=diff)
        np.maximum(shift, diff, out=shift)

    if n_actionable == 0:
        warnings.warn(
            "no actionable columns: all unblocked pairs get zero cost",
            stacklevel=2,
        )
    shift[blocked] = np.inf
    np.fill_diagonal(shift, 0.0)
    return shift


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_rows(path, rows, first_line: str = "") -> Path:
    """The one CSV writer: make path's directory, write first_line verbatim,
    then the rows, each ended by a line feed alone."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(first_line)
        csv.writer(f, lineterminator="\n").writerows(rows)
    return path


def save_instance(instance: Instance, values_path, cost_path) -> None:
    """Write px/py and the cost matrix; floats keep full round-trip precision."""
    values = zip(map(_fmt, instance.px), map(_fmt, instance.py))
    _write_rows(values_path, [["px", "py"], *values])
    _write_rows(cost_path, ([_fmt(c) for c in row] for row in instance.cost))


def _parse_float(token: str, path, line_no: int) -> float:
    if "_" not in token:  # float() reads digit groups: "1_0" would be 10.0
        with suppress(ValueError):
            return float(token)
    raise ValueError(f"{path}: line {line_no}: bad float {token!r}")


def _data_rows(path, width: int | None = None):
    """The one CSV reader: (physical line it starts on, fields) per nonblank
    record, each `width` fields wide, or as wide as the first if width is None."""
    with open(Path(path), newline="") as f:
        reader, end = csv.reader(f), 0  # end: the last physical line read
        for row in reader:
            line, end = end + 1, reader.line_num
            if not row:
                continue
            width = len(row) if width is None else width
            if len(row) != width:
                raise ValueError(
                    f"{path}: line {line}: expected {width} fields, got {len(row)}"
                )
            yield line, row


def load_instance(values_path, cost_path, gamma: float) -> Instance:
    """Read an instance back from the two CSV files; validates invariants."""
    gamma = _reals([gamma], *_GAMMA)[0]  # an argument, not a file's fault
    records, px, py = _data_rows(values_path), [], []
    line, header = next(records, (0, ["px", "py"]))  # an empty file: no data rows
    if [h.strip() for h in header] != ["px", "py"]:
        raise ValueError(f"{values_path}: line {line}: expected header 'px,py'")
    for line, (p, y) in records:
        px.append(_parse_float(p, values_path, line))
        py.append(_parse_float(y, values_path, line))
    if not px:
        raise ValueError(f"{values_path}: no data rows")
    m, rows = len(px), 0
    cost = np.empty((m, m))
    for line, row in _data_rows(cost_path, m):
        dest = cost[rows] if rows < m else np.empty(m)  # surplus rows parse too
        dest[:] = [_parse_float(t, cost_path, line) for t in row]
        rows += 1
    if rows != m:
        raise ValueError(f"{cost_path}: expected {m} rows, got {rows}")
    try:
        return make_instance(px, py, cost, gamma)
    except ValueError as exc:  # name the file a broken invariant was read from
        where = cost_path if str(exc).startswith("cost") else values_path
        raise ValueError(f"{where}: {exc}") from None


def save_feature_table(table: FeatureTable, path) -> None:
    columns = [
        [str(v) for v in col] if kind == KIND_DISCRETE else [_fmt(v) for v in col]
        for kind, col in zip(table.kinds, table.columns)
    ]
    _write_rows(path, [table.names, table.kinds, *zip(*columns)])


def load_feature_table(path) -> FeatureTable:
    records = _data_rows(path)  # the kind and data rows are as wide as the names
    head = list(islice(records, 2))
    if len(head) < 2:
        raise ValueError(f"{path}: need a name row and a kind row")
    (_, names), (line, kinds) = head
    kinds = [k.strip() for k in kinds]
    for k in kinds:
        if k not in _KINDS:
            raise ValueError(f"{path}: line {line}: unknown column kind {k!r}")
    raw_rows = list(records)
    if not raw_rows:
        raise ValueError(f"{path}: no data rows")
    columns = [
        np.array([row[c] for _, row in raw_rows], dtype=object)
        if kind == KIND_DISCRETE
        else np.array([_parse_float(row[c], path, n) for n, row in raw_rows])
        for c, kind in enumerate(kinds)
    ]
    names = tuple(n.strip() for n in names)
    return FeatureTable(names, tuple(kinds), tuple(columns))
