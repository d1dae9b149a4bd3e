"""Dataset container shared by the tree evaluator, benchmarks and harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Dataset:
    """Named numeric columns, a target vector and a fixed train/test split.

    ``columns`` is laid out as one row per sample and one column per input
    variable; variable index ``i`` in an expression tree reads column ``i``.
    ``train_rows`` and ``test_rows`` are disjoint row-index arrays.
    """

    variable_names: tuple[str, ...]
    columns: np.ndarray
    target: np.ndarray
    train_rows: np.ndarray
    test_rows: np.ndarray
    target_name: str = "y"

    def __post_init__(self) -> None:
        self.columns = np.asarray(self.columns, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        self.train_rows = np.asarray(self.train_rows, dtype=int)
        self.test_rows = np.asarray(self.test_rows, dtype=int)
        if self.columns.ndim != 2:
            raise ValueError("columns must be a 2-d array (rows x variables)")
        n_rows, n_vars = self.columns.shape
        if len(self.variable_names) != n_vars:
            raise ValueError(
                f"{len(self.variable_names)} variable names for {n_vars} columns"
            )
        if self.target.shape != (n_rows,):
            raise ValueError("target length does not match column length")
        for rows in (self.train_rows, self.test_rows):
            if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
                raise ValueError("row index out of range")
        # a mask, where np.intersect1d would import numpy.ma (about 15 ms)
        in_train = np.zeros(n_rows, dtype=bool)
        in_train[self.train_rows] = True
        if in_train[self.test_rows].any():
            raise ValueError("train and test rows overlap")

    @property
    def n_rows(self) -> int:
        return self.columns.shape[0]

    @property
    def n_variables(self) -> int:
        return self.columns.shape[1]

    @property
    def X_train(self) -> np.ndarray:
        return self.columns[self.train_rows]

    @property
    def y_train(self) -> np.ndarray:
        return self.target[self.train_rows]

    @property
    def X_test(self) -> np.ndarray:
        return self.columns[self.test_rows]

    @property
    def y_test(self) -> np.ndarray:
        return self.target[self.test_rows]
