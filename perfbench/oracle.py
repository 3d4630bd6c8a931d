"""Independent reference for the outputs the benchmark judges.

Everything here is rebuilt from the documented formulas and file formats
(linear beta schedule, linear subsequence, DDIM transition coefficients,
the PSDQ1 stack layout, the per-purpose seed streams) without importing
parseq, so a defect in the measured program cannot hide in its own oracle.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_STACK_HEADER = struct.Struct("<5sIIId")
_STACK_MAGIC = b"PSDQ1"
# Stream purposes of the program's seed registry: x_T = 0, noise_stack = 1.
_X_T_STREAM = 0
_NOISE_STREAM = 1

#: A sequential x0 may differ from the reference by rounding only.
REFERENCE_RTOL = 1e-9


def read_stack(path: str) -> np.ndarray:
    """Rows of a PSDQ1 stack file as an (S, D) float64 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, S, D, _, _ = _STACK_HEADER.unpack_from(blob)
    if magic != _STACK_MAGIC or len(blob) != _STACK_HEADER.size + 8 * S * D:
        raise ValueError(f"{path} is not a well-formed stack file")
    return np.frombuffer(blob, dtype="<f8", offset=_STACK_HEADER.size).reshape(S, D)


def mlp_payload(
    rng: np.random.Generator, dim: int, hidden: tuple[int, ...], scale: float = 1.0
) -> dict:
    """Weight file for a tanh MLP with fan-in scaled normal weights, times
    ``scale``, in the program's ``mlp:`` JSON format (time appended to the
    input)."""
    widths = [dim + 1, *hidden, dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append((rng.standard_normal((fan_out, fan_in)) * scale / np.sqrt(fan_in)).ravel().tolist())
        biases.append((rng.standard_normal(fan_out) * 0.1 * scale).tolist())
    return {"widths": widths, "weights": weights, "biases": biases, "time_embed": "scalar_append"}


def gaussian_payload(rng: np.random.Generator, dim: int) -> dict:
    """Diagonal Gaussian data law: mu ~ N(0, 1), var ~ U(0.3, 2)."""
    return {"mu": rng.standard_normal(dim).tolist(), "var": rng.uniform(0.3, 2.0, dim).tolist()}


class ReferenceChain:
    """The sequential sampler of one chain, written out from its formulas."""

    def __init__(self, kind: str, payload: dict, T: int, S: int, eta: float):
        self.T, self.S, self.eta = T, S, eta
        betas = np.linspace(1e-4, 0.02, T)
        self.alpha_bars = np.cumprod(1.0 - betas)
        self.taus = [0] + [(T * i) // S for i in range(1, S + 1)]
        alpha = [1.0] + [float(self.alpha_bars[tau - 1]) for tau in self.taus[1:]]
        self.ratio, self.c1, self.sigma = [0.0], [0.0], [0.0]
        for i in range(1, S + 1):
            a_prev, a_t = alpha[i - 1], alpha[i]
            sig = 0.0
            if eta != 0.0:
                sig = eta * math.sqrt((1 - a_prev) / (1 - a_t)) * math.sqrt(1 - a_t / a_prev)
            rad = max(1.0 - a_prev - sig * sig, 0.0)
            self.c1.append(math.sqrt(rad) - math.sqrt(a_prev * (1 - a_t) / a_t))
            self.sigma.append(sig)
            self.ratio.append(math.sqrt(a_prev) / math.sqrt(a_t))
        if kind == "mlp":
            w = payload["widths"]
            self.layers = [
                (np.asarray(flat).reshape(w[k + 1], w[k]), np.asarray(b))
                for k, (flat, b) in enumerate(zip(payload["weights"], payload["biases"]))
            ]
            self.D = w[-1]
            self.eps = self._mlp_eps
        else:
            self.mu = np.asarray(payload["mu"])
            self.var = np.asarray(payload["var"])
            self.D = self.mu.size
            self.eps = self._gaussian_eps

    def _mlp_eps(self, x: np.ndarray, t: int) -> np.ndarray:
        a = np.concatenate([x, [t / self.T]])
        for k, (w, b) in enumerate(self.layers):
            a = w @ a + b
            if k < len(self.layers) - 1:
                a = np.tanh(a)
        return a

    def _gaussian_eps(self, x: np.ndarray, t: int) -> np.ndarray:
        a = float(self.alpha_bars[t - 1])
        return math.sqrt(1 - a) / (a * self.var + (1 - a)) * (x - math.sqrt(a) * self.mu)

    def x_T(self, seed: int) -> np.ndarray:
        ss = np.random.SeedSequence([seed, _X_T_STREAM, 0])
        return np.random.default_rng(ss).standard_normal(self.D)

    def x0(self, x_T: np.ndarray, seed: int | None = None) -> np.ndarray:
        """Denoised state from x_T; ``seed`` names the noise stream when eta > 0."""
        noise = np.zeros((self.S, self.D))
        if self.eta != 0.0:
            ss = np.random.SeedSequence([seed, _NOISE_STREAM, 0])
            noise = np.random.default_rng(ss).standard_normal((self.S, self.D))
        x = np.asarray(x_T, dtype=np.float64)
        for p in range(self.S, 0, -1):
            x = self.ratio[p] * x + self.c1[p] * self.eps(x, self.taus[p]) + self.sigma[p] * noise[p - 1]
        return x


def matches_reference(x0: np.ndarray, ref: np.ndarray) -> bool:
    return x0.shape == ref.shape and bool(
        np.max(np.abs(x0 - ref)) <= REFERENCE_RTOL * (1.0 + np.max(np.abs(ref)))
    )
