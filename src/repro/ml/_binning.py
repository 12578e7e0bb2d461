"""Quantile feature binning shared by the tree and boosting models.

Trees and gradient boosting both operate on binned features (LightGBM
style): each column is mapped to small integer bins by quantile edges
learned on the training data, so split finding reduces to histogram
accumulation. Missing values (NaN) get the dedicated bin 0, which ordered
splits send to the left child — a simple but standard missing-value
policy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError

__all__ = ["BinMapper", "MISSING_BIN"]

#: Bin index reserved for missing values.
MISSING_BIN = 0

#: Cells per row block in :meth:`BinMapper.transform` (bounds its
#: temporaries to a few MiB).
_BLOCK_CELLS = 1 << 15


class BinMapper:
    """Learn per-column quantile bin edges and map values to uint8 bins.

    Bin 0 is reserved for NaN; finite values occupy bins ``1..n_bins-1``.
    """

    def __init__(self, n_bins: int = 64) -> None:
        if not 4 <= n_bins <= 256:
            raise ValueError(f"n_bins must be in [4, 256], got {n_bins}")
        self.n_bins = n_bins

    def fit(self, X: np.ndarray) -> "BinMapper":
        X = np.asarray(X, dtype=np.float64)
        edges: list[np.ndarray] = []
        for col in range(X.shape[1]):
            values = X[:, col]
            finite = values[~np.isnan(values)]
            if len(finite) == 0:
                edges.append(np.array([]))
                continue
            quantiles = np.linspace(0, 1, self.n_bins - 1)
            col_edges = np.unique(np.quantile(finite, quantiles))
            # Interior edges only: values <= first edge land in bin 1.
            edges.append(col_edges[1:-1] if len(col_edges) > 2 else col_edges[:0])
        self.edges_ = edges
        self.__dict__.pop("_table", None)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Bin every column in one pass: ``searchsorted(side="right") + 1``
        per column, NaN -> :data:`MISSING_BIN`.

        Each column's edges sit in one row of a NaN-padded table of width
        ``2**depth - 1``; a branchless binary search then moves every
        cell's index ``depth`` times at once (a NaN pad never compares
        ``<=``, so it acts as +inf). Rows go in blocks of about
        :data:`_BLOCK_CELLS` cells, which bounds the temporaries.
        """
        if not hasattr(self, "edges_"):
            raise NotFittedError("BinMapper must be fitted before transform")
        X = np.asarray(X, dtype=np.float64)
        table, width, depth = self._edge_table()
        rows, cols = X.shape
        binned = np.empty(X.shape, dtype=np.uint8)
        # Each column's row of the table starts at ``start``; ``index -
        # start`` counts the column's edges <= value so far. Steps go by
        # arithmetic, not masked copies, which are slow on random masks.
        start = np.arange(cols, dtype=np.intp) * width
        block = max(1, _BLOCK_CELLS // max(cols, 1))
        for low in range(0, rows, block):
            values = X[low : low + block]
            index = np.broadcast_to(start, values.shape).copy()
            step = np.empty_like(index)
            edge = np.empty(values.shape)
            below = np.empty(values.shape, dtype=bool)
            for level in range(depth - 1, -1, -1):
                # table[index + 2**level - 1]; indices are in range by
                # construction, and "clip" skips the bounds check.
                np.take(table[(1 << level) - 1 :], index, out=edge, mode="clip")
                np.less_equal(edge, values, out=below)
                np.multiply(below, 1 << level, out=step)
                index += step
            index -= start - 1
            index[np.isnan(values)] = MISSING_BIN
            binned[low : low + block] = index
        return binned

    def _edge_table(self) -> tuple[np.ndarray, int, int]:
        """(flat NaN-padded edge table, row width, search depth), cached.

        Built lazily from ``edges_`` so models pickled before the table
        existed still load; :meth:`__getstate__` keeps it out of pickles.
        """
        cached = self.__dict__.get("_table")
        if cached is None:
            depth = max((len(edges) for edges in self.edges_), default=0).bit_length()
            width = max((1 << depth) - 1, 1)
            padded = np.full((len(self.edges_), width), np.nan)
            for col, edges in enumerate(self.edges_):
                padded[col, : len(edges)] = edges
            cached = self._table = (padded.ravel(), width, depth)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_table", None)
        return state

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    @property
    def actual_bins_(self) -> list[int]:
        """Number of occupied bins per column (including the missing bin)."""
        if not hasattr(self, "edges_"):
            raise NotFittedError("BinMapper must be fitted first")
        return [len(edges) + 2 for edges in self.edges_]
