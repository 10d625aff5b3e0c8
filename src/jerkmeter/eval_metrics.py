"""Agreement metrics between predicted and subjective scores.

Hand-rolled rather than delegated to scipy so the package's runtime
dependency stays numpy-only; the test suite cross-checks against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NumericalFailure, ShapeError


@dataclass(frozen=True)
class EvalReport:
    pcc: float
    srocc: float
    rrmse: float
    n: int


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"need equal-length 1-D arrays, got {x.shape} and {y.shape}")
    return x, y


def pearson(x, y) -> float:
    """Product-moment correlation coefficient."""
    x, y = _paired(x, y)
    if x.size < 2:
        raise DegenerateInput("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = dx @ dx  # numpy floats, so that sx * sy overflowing raises in evaluate
    sy = dy @ dy
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("constant input has no defined correlation")
    return float(dx @ dy) / np.sqrt(sx * sy)


def rank(values) -> np.ndarray:
    """Fractional ranks, 1-based; ties share the average of their positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share rank mean(i+1 .. j+1)
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Rank correlation: Pearson on fractional ranks."""
    x, y = _paired(x, y)
    return pearson(rank(x), rank(y))


def rrmse(pred, dmos, scale_range: float | None = None) -> float:
    """RMSE as a percentage of the subjective-score range.

    The range defaults to the observed spread of `dmos`; pass the scale's
    nominal range explicitly to compare across datasets.
    """
    pred, dmos = _paired(pred, dmos)
    if pred.size < 1:
        raise DegenerateInput("need at least 1 point")
    if scale_range is None:
        scale_range = float(dmos.max() - dmos.min())
    if scale_range <= 0.0:
        raise DegenerateInput("score range must be positive")
    rmse = float(np.sqrt(np.mean((pred - dmos) ** 2)))
    return 100.0 * rmse / scale_range


def evaluate(pred, dmos, scale_range: float | None = None) -> EvalReport:
    """All three metrics; NumericalFailure where a sum of squares overflows."""
    pred, dmos = _paired(pred, dmos)
    try:
        with np.errstate(over="raise", invalid="raise"):
            report = EvalReport(
                pcc=pearson(pred, dmos),
                srocc=spearman(pred, dmos),
                rrmse=rrmse(pred, dmos, scale_range),
                n=int(pred.size),
            )
        finite = np.isfinite([report.pcc, report.srocc, report.rrmse]).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise NumericalFailure("the predictions are too large for the metrics")
    return report
