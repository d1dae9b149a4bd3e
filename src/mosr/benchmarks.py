"""Benchmark problem generators and a CSV loader for real-world data.

Eight synthetic regression problems are generated from closed-form target
functions with fixed sampling schemes and train/test partitions; rows are
laid out training block first, test block second.  Everything is
deterministic per seed.  The Friedman problems add N(0, noise^2) to the
*training* targets only, so test scores measure generalization against the
noise-free function.

``friedman1`` is implemented exactly as its source table prints it,
including the unusual ``4/(1 + exp(-20 x2) + 10)`` denominator and the
``2 x2`` term; the ``literature`` variant restores the conventional form
``4/(1 + exp(-20 (x2 - 0.5))) ... + 2 x4``.  No attempt is made to guess
which was intended.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import Dataset

@dataclass(frozen=True)
class ProblemSpec:
    name: str
    n_variables: int
    train_size: int
    test_size: int
    sampling: str
    noise: float = 0.0
    variant: str = ""


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def _grid2(axis: np.ndarray) -> np.ndarray:
    a, b = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


# --- target functions ----------------------------------------------------

def _keijzer5(X: np.ndarray) -> np.ndarray:
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    return 30.0 * x1 * x3 / ((x1 - 10.0) * x2**2)


def _vladislavleva1(X: np.ndarray) -> np.ndarray:
    x1, x2 = X[:, 0], X[:, 1]
    return np.exp(-((x1 - 1.0) ** 2)) / (1.2 + (x2 - 2.5) ** 2)


def _vladislavleva2(X: np.ndarray) -> np.ndarray:
    x = X[:, 0]
    s, c = np.sin(x), np.cos(x)
    return np.exp(-x) * x**3 * c * s * (c * s**2 - 1.0)


def _vladislavleva7(X: np.ndarray) -> np.ndarray:
    x1, x2 = X[:, 0], X[:, 1]
    return (x1 - 3.0) * (x2 - 3.0) + 2.0 * np.sin((x1 - 4.0) * (x2 - 4.0))


def _pagie1(X: np.ndarray) -> np.ndarray:
    x1, x2 = X[:, 0], X[:, 1]
    return 1.0 / (1.0 + x1 ** (-4.0)) + 1.0 / (1.0 + x2 ** (-4.0))


def _poly10(X: np.ndarray) -> np.ndarray:
    x = X.T
    return x[0] * x[1] + x[2] * x[3] + x[4] * x[5] + x[0] * x[6] * x[8] + x[2] * x[5] * x[9]


def _friedman1_printed(X: np.ndarray) -> np.ndarray:
    x = X.T
    return 0.1 * np.exp(4.0 * x[0]) + 4.0 / (1.0 + np.exp(-20.0 * x[1]) + 10.0) + 3.0 * x[2] + 2.0 * x[1] + x[4]


def _friedman1_literature(X: np.ndarray) -> np.ndarray:
    x = X.T
    return 0.1 * np.exp(4.0 * x[0]) + 4.0 / (1.0 + np.exp(-20.0 * (x[1] - 0.5))) + 3.0 * x[2] + 2.0 * x[3] + x[4]


def _friedman2(X: np.ndarray) -> np.ndarray:
    x = X.T
    return 10.0 * np.sin(np.pi * x[0] * x[1]) + 20.0 * (x[2] - 0.5) ** 2 + 10.0 * x[3] + 5.0 * x[4]


# --- input samplers ------------------------------------------------------

def _sample_keijzer5(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    low = [-1.0, 1.0, -1.0]
    high = [1.0, 2.0, 1.0]
    return rng.uniform(low, high, (1000, 3)), rng.uniform(low, high, (10000, 3))


def _sample_vladislavleva1(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    train = rng.uniform(0.3, 4.0, (100, 2))
    return train, _grid2(_grid(-0.2, 4.2, 0.1))


def _sample_vladislavleva2(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return _grid(0.05, 10.0, 0.1)[:, None], _grid(-0.5, 10.5, 0.05)[:, None]


def _sample_vladislavleva7(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    train = rng.uniform(0.05, 6.05, (300, 2))
    test = rng.uniform(-0.25, 6.35, (1000, 2))
    return train, test


def _sample_pagie1(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return _grid2(_grid(-5.0, 5.0, 0.4)), rng.uniform(-5.0, 5.0, (1000, 2))


def _sample_poly10(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(-1.0, 1.0, (250, 10)), rng.uniform(-1.0, 1.0, (250, 10))


def _sample_friedman(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(0.0, 1.0, (500, 10)), rng.uniform(0.0, 1.0, (5000, 10))


# quoted: naming np.random here would import it with this module
Sampler = Callable[["np.random.Generator"], tuple[np.ndarray, np.ndarray]]
Target = Callable[[np.ndarray], np.ndarray]

# name -> (spec, input sampler, target function of each variant); the
# variant "" is the problem as its source prints it
_PROBLEMS: dict[str, tuple[ProblemSpec, Sampler, dict[str, Target]]] = {
    "keijzer5": (
        ProblemSpec("keijzer5", 3, 1000, 10000, "x1,x3 ~ U[-1,1], x2 ~ U[1,2]"),
        _sample_keijzer5,
        {"": _keijzer5},
    ),
    "vladislavleva1": (
        ProblemSpec(
            "vladislavleva1", 2, 100, 2025, "train U[0.3,4]^2; test grid [-0.2,4.2] step 0.1"
        ),
        _sample_vladislavleva1,
        {"": _vladislavleva1},
    ),
    "vladislavleva2": (
        ProblemSpec(
            "vladislavleva2", 1, 100, 221,
            "train grid [0.05,10] step 0.1; test grid [-0.5,10.5] step 0.05",
        ),
        _sample_vladislavleva2,
        {"": _vladislavleva2},
    ),
    "vladislavleva7": (
        ProblemSpec(
            "vladislavleva7", 2, 300, 1000, "train U[0.05,6.05]^2; test U[-0.25,6.35]^2"
        ),
        _sample_vladislavleva7,
        {"": _vladislavleva7},
    ),
    "pagie1": (
        ProblemSpec(
            "pagie1", 2, 676, 1000, "train grid [-5,5] step 0.4 per axis; test U[-5,5]^2"
        ),
        _sample_pagie1,
        {"": _pagie1},
    ),
    "poly10": (
        ProblemSpec("poly10", 10, 250, 250, "x ~ U[-1,1]^10"), _sample_poly10, {"": _poly10}
    ),
    "friedman1": (
        ProblemSpec(
            "friedman1", 10, 500, 5000, "x ~ U[0,1]^10; train targets + N(0,1)", noise=1.0
        ),
        _sample_friedman,
        {"": _friedman1_printed, "literature": _friedman1_literature},
    ),
    "friedman2": (
        ProblemSpec(
            "friedman2", 10, 500, 5000, "x ~ U[0,1]^10; train targets + N(0,1)", noise=1.0
        ),
        _sample_friedman,
        {"": _friedman2},
    ),
}

PROBLEM_NAMES = tuple(_PROBLEMS)


def _entry(name: str) -> tuple[ProblemSpec, Sampler, dict[str, Target]]:
    entry = _PROBLEMS.get(name)
    if entry is None:
        raise ValueError(f"unknown problem '{name}' (available: {', '.join(PROBLEM_NAMES)})")
    return entry


def get_problem(name: str, variant: str = "") -> ProblemSpec:
    spec, _, targets = _entry(name)
    if variant not in targets:
        raise ValueError(f"variant '{variant}' is not valid for problem '{name}'")
    return replace(spec, variant=variant) if variant else spec


def list_problems() -> list[ProblemSpec]:
    return [spec for spec, _, _ in _PROBLEMS.values()]


def target_function(spec: ProblemSpec) -> Target:
    """The noise-free target of a generated problem, as a function of the
    input matrix (rows x variables)."""
    _, _, targets = _entry(spec.name)
    target = targets.get(spec.variant)
    if target is None:
        raise ValueError(f"unknown {spec.name} variant '{spec.variant}'")
    return target


def generate(spec: ProblemSpec | str, seed: int) -> Dataset:
    """Build the Dataset for a problem spec: sample inputs, apply the
    target function, add training noise if configured.

    Deterministic per seed; the rng is consumed in a fixed order (train
    inputs, test inputs, then noise).
    """
    if isinstance(spec, str):
        spec = get_problem(spec)
    fn = target_function(spec)
    _, sample, _ = _entry(spec.name)
    rng = np.random.default_rng(seed)
    X_train, X_test = sample(rng)
    X = np.vstack([X_train, X_test])
    with np.errstate(all="ignore"):
        y = fn(X)
    n_train = X_train.shape[0]
    if spec.noise > 0.0:
        y = y.copy()
        y[:n_train] += rng.normal(0.0, spec.noise, n_train)
    names = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return Dataset(
        variable_names=names,
        columns=X,
        target=y,
        train_rows=np.arange(n_train),
        test_rows=np.arange(n_train, X.shape[0]),
    )


# --- CSV I/O --------------------------------------------------------------

def load_csv(path: str, target_column: str, train_fraction: float) -> Dataset:
    """Load a header-bearing numeric CSV; the named column is the target.

    The leading ``train_fraction`` of rows, in file order, becomes the
    training partition.  Parse failures and non-finite values (NaN, inf)
    report file line and column name.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise ValueError("train_fraction must be in [0, 1]")
    # utf-8-sig drops the byte order mark that spreadsheet programs write
    # before the first column name
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if repeated is not None:
            raise ValueError(f"{path}: column '{repeated}' appears more than once in the header")
        if target_column not in header:
            raise ValueError(
                f"{path}: no column named '{target_column}' "
                f"(columns: {', '.join(map(repr, header))})"
            )
        rows: list[list[float]] = []
        row_lines: list[int] = []  # file line of each row (a quoted cell may span lines)
        for row in reader:
            line_no = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(  # repr keeps a quoted newline on one line
                        f"{path}: non-numeric value {cell.strip()!r} "
                        f"at line {line_no}, column '{name}'"
                    ) from None
            rows.append(parsed)
            row_lines.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        r, c = bad[0]
        kind = "NaN" if np.isnan(table[r, c]) else "infinite"
        raise ValueError(f"{path}: {kind} value at line {row_lines[r]}, column '{header[c]}'")
    target_idx = header.index(target_column)
    keep = [i for i in range(len(header)) if i != target_idx]
    n = table.shape[0]
    n_train = min(n, int(train_fraction * n + 0.5))
    return Dataset(
        variable_names=tuple(header[i] for i in keep),
        columns=table[:, keep],
        target=table[:, target_idx].copy(),  # a view would pin the whole table
        train_rows=np.arange(n_train),
        test_rows=np.arange(n_train, n),
        target_name=target_column,
    )


def save_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset in the load_csv format, training rows first."""
    order = np.concatenate([dataset.train_rows, dataset.test_rows])
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.variable_names) + [dataset.target_name])
        for i in order:
            writer.writerow(
                [repr(float(v)) for v in dataset.columns[i]]
                + [repr(float(dataset.target[i]))]
            )
    os.replace(tmp, path)
