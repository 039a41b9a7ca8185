"""Reference computations written apart from the program.

Cell-by-cell dynamic programs for DTW and LCSS, textbook formulas for
the matrix norms and a plain argmin 1-NN.  The correctness checks
compare the program's fast kernels against these; they share no code
with ``src/repro``.
"""

from __future__ import annotations

import math

import numpy as np


def _rows(A) -> list[list[float]]:
    arr = np.asarray(A, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr.tolist()


def dtw_dependent(A, B) -> float:
    """Multivariate DTW warping all dimensions together.

    Local cost is the squared Euclidean distance between samples; the
    distance is the square root of the cheapest accumulated cost.
    """
    a, b = _rows(A), _rows(B)
    m, n = len(a), len(b)
    inf = math.inf
    acc = [[inf] * (n + 1) for _ in range(m + 1)]
    acc[0][0] = 0.0
    for i in range(1, m + 1):
        ai = a[i - 1]
        for j in range(1, n + 1):
            cost = sum((x - y) ** 2 for x, y in zip(ai, b[j - 1]))
            acc[i][j] = cost + min(acc[i - 1][j], acc[i][j - 1], acc[i - 1][j - 1])
    return math.sqrt(acc[m][n])


def dtw_independent(A, B) -> float:
    """Sum of per-dimension univariate DTW distances."""
    a = np.asarray(A, dtype=float)
    b = np.asarray(B, dtype=float)
    return sum(dtw_dependent(a[:, k], b[:, k]) for k in range(a.shape[1]))


def lcss_dependent(A, B, epsilon: float) -> float:
    """``1 - LCSS / min(m, n)``; samples match when every dimension is
    within ``epsilon``."""
    a, b = _rows(A), _rows(B)
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if all(abs(x - y) <= epsilon for x, y in zip(a[i - 1], b[j - 1])):
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return 1.0 - table[m][n] / min(m, n)


def l21(A, B) -> float:
    """Sum over columns of the Euclidean norm of the difference."""
    diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
    return float(np.sqrt((diff**2).sum(axis=0)).sum())


def l11(A, B) -> float:
    """Sum of absolute entry differences."""
    return float(np.abs(np.asarray(A, dtype=float) - np.asarray(B, dtype=float)).sum())


NORM_ORACLES = {"L2,1": l21, "L1,1": l11}


def knn_accuracy(D, labels) -> float:
    """Share of rows whose nearest other row carries the same label."""
    D = np.asarray(D, dtype=float)
    hits = 0
    for i in range(D.shape[0]):
        best, best_j = math.inf, -1
        for j in range(D.shape[1]):
            if j != i and D[i, j] < best:
                best, best_j = D[i, j], j
        hits += labels[best_j] == labels[i]
    return hits / D.shape[0]


def distance_table(matrices, distance) -> np.ndarray:
    """Full symmetric matrix of ``distance`` over every pair."""
    n = len(matrices)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = distance(matrices[i], matrices[j])
    return D


def knn_bounds(D, labels, rel: float = 1e-9) -> tuple[int, int]:
    """Fewest and most 1-NN hits over every tie-break of near-equal
    nearest rows, so a last-digit rounding difference between two
    formulas of the same distance cannot flip the verdict."""
    D = np.asarray(D, dtype=float)
    lo = hi = 0
    for i in range(D.shape[0]):
        others = [j for j in range(D.shape[1]) if j != i]
        best = min(D[i, j] for j in others)
        near = [j for j in others if D[i, j] <= best + rel * max(1.0, best)]
        same = [labels[j] == labels[i] for j in near]
        lo += all(same)
        hi += any(same)
    return lo, hi


def matrix_faults(D) -> list[str]:
    """Properties every distance matrix must have, as failure messages."""
    D = np.asarray(D, dtype=float)
    faults = []
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        return [f"not square: {D.shape}"]
    if not np.all(np.isfinite(D)):
        faults.append("non-finite entries")
    elif np.any(D < 0):
        faults.append("negative entries")
    if not np.array_equal(D, D.T):
        faults.append("not symmetric")
    if np.any(np.diag(D) != 0):
        faults.append("non-zero diagonal")
    return faults


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
