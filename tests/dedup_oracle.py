"""Reference scan for ``hyptube.lifts._Deduper``.

Every lookup compares the query with every stored row, in numpy, and returns
the first index of the smallest distance: the answer the hash grid must give.
"""

import numpy as np

from hyptube.lifts import DEDUP_TOL


class ScanDeduper:
    """Same contract as ``_Deduper``: ``find(row, alt)`` and ``add(row)``."""

    def __init__(self, tol: float = DEDUP_TOL):
        self.tol = tol
        self._arr = None  # capacity doubles; the first _n rows are stored
        self._n = 0

    def find(self, row, alt):
        if self._n == 0:
            return None
        arr = self._arr[: self._n]
        d1 = np.abs(arr - np.array(row)).max(axis=1)
        d2 = np.abs(arr - np.array(alt)).max(axis=1)
        d = np.minimum(d1, d2)
        j = int(d.argmin())
        return j if d[j] <= self.tol else None

    def add(self, row) -> int:
        row = np.array(row)
        if self._arr is None:
            self._arr = np.empty((16, row.size), dtype=row.dtype)
        elif self._n == self._arr.shape[0]:
            self._arr = np.concatenate([self._arr, np.empty_like(self._arr)])
        self._arr[self._n] = row
        self._n += 1
        return self._n - 1
