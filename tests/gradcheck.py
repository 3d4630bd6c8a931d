"""Test-only references for the gradient checks: central finite differences,
the CSV report of criterion 4, and a constant predictor, whose drift is
nonzero and whose Jacobian is zero."""

import numpy as np

from parseq.errors import ShapeError
from parseq.predictors import NoisePredictor
from parseq.stackio import write_csv


def central_difference_grad(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a
    time; the reference the analytic routes are checked against."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return out


def write_gradcheck_report(path: str, rows: list[dict]) -> None:
    """CSV report of finite-difference agreement, one row per check.

    Each row needs mode, S, D, rtol_measured, and a boolean verdict.
    """
    write_csv(path, ["mode", "S", "D", "rtol_measured", "pass"],
              ([row["mode"], row["S"], row["D"], float(row["rtol_measured"]),
                "true" if row["pass"] else "false"] for row in rows))


class ConstantPredictor(NoisePredictor):
    """Predicts a fixed vector regardless of input; zero Jacobian."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        if self.value.ndim != 1 or self.value.size == 0:
            raise ShapeError("constant value must be a non-empty 1-d array")
        self.dim = int(self.value.size)

    def predict(self, x: np.ndarray, t: int | np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.value, self._check_state(x, t).shape).copy()

    def vjp_from(self, state, x: np.ndarray, t: int | np.ndarray, cotangent: np.ndarray):
        return np.zeros(self._check_vjp(x, t, cotangent)[0].shape)
