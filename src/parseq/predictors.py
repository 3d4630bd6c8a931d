"""Noise predictors: the epsilon models the sampling chain queries.

Every predictor is a pure function of (x, t) together with a hand-written
vector-Jacobian product, so the gradient machinery needs no autodiff
framework.  Both calls take either one state of shape (D,) with an int
timestep label t, or a batch of shape (N, D) with an (N,) array of labels,
one per row.  A batch is what lets the joint update evaluate all S
timesteps of a sweep in a single call; row i of a batched result is the
single-row result at (x[i], t[i]), bit for bit for the elementwise
predictors and up to matrix-product rounding for the MLP.

The forward state a vjp reads is held by the caller, in the style of
``jax.vjp``: ``vjp_state`` returns it and ``vjp_from`` runs only the
backward pass on it, so one batched forward pass can serve many one-row
backward passes.  A predictor keeps nothing after it is built: the labels
``prepare`` makes for a chain's timesteps carry whatever terms it builds
ahead of the calls.

Predictor files are parsed once per content: a load whose file holds the
bytes its path held last time reuses the parsed, read-only arrays.
"""

from __future__ import annotations

import io
import json
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable

import numpy as np

from .errors import ConfigError, ParseError, SchemaError, ShapeError, is_integer, require_integer
from .schedule import DiffusionSchedule


class NoisePredictor(ABC):
    """Interface shared by all epsilon models.

    ``x`` is one state (D,) with an int ``t``, or a batch (N, D) with an
    (N,) integer array ``t``; results have the shape of ``x``.
    """

    #: State dimension D.
    dim: int

    @abstractmethod
    def predict(self, x: np.ndarray, t: int | np.ndarray) -> np.ndarray:
        """Predicted noise at state(s) x and timestep(s) t; shape of x."""

    def vjp(self, x: np.ndarray, t: int | np.ndarray, cotangent: np.ndarray) -> np.ndarray:
        """cotangent^T @ (d predict / d x) evaluated row by row at (x, t);
        cotangent and result have the shape of x."""
        return self.vjp_from(self.vjp_state(x, t), x, t, cotangent)

    def vjp_state(self, x: np.ndarray, t: int | np.ndarray) -> list[np.ndarray] | None:
        """What ``vjp_from`` reads of the forward pass at (x, t): None, the
        default, for a predictor whose vjp reads none of it; else a list of
        arrays whose leading axis runs over a batch's rows, row i's state
        being ``[s[i] for s in state]``."""
        return None

    @abstractmethod
    def vjp_from(self, state, x: np.ndarray, t: int | np.ndarray, cotangent: np.ndarray):
        """``vjp(x, t, cotangent)`` given ``state``, the ``vjp_state`` at
        (x, t) or a row of a batch's; only the backward pass runs."""

    def prepare(self, timesteps: np.ndarray) -> tuple:
        """The labels ``Chain`` passes as ``t`` for its (S,) timesteps: a batch
        label, sliced by position for fewer rows, and a list of the S row
        labels.  The default is the timesteps, as the array and its ints; an
        override's labels may carry terms, with the bits plain labels give."""
        return timesteps, timesteps.tolist()

    def _check_state(self, x: np.ndarray, t: int | np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape == (self.dim,) and not isinstance(t, np.ndarray):
            return x
        if x.ndim == 2 and x.shape[1] == self.dim and np.shape(t) == x.shape[:1]:
            return x
        raise ShapeError(
            f"expected a state ({self.dim},) with one timestep or a batch (N, {self.dim}) "
            f"with (N,) timesteps, got state {x.shape} and timesteps {np.shape(t)}"
        )

    def _check_vjp(
        self, x: np.ndarray, t: int | np.ndarray, cotangent: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The checked state and a cotangent of exactly its shape."""
        x = self._check_state(x, t)
        cotangent = np.asarray(cotangent, dtype=np.float64)
        if cotangent.shape != x.shape:
            raise ShapeError(
                f"cotangent shape {cotangent.shape} does not match state {x.shape}"
            )
        return x, cotangent


class ZeroPredictor(NoisePredictor):
    """+0.0 noise everywhere and a zero Jacobian, for a row or a batch."""

    def __init__(self, dim: int):
        require_integer("dim", dim)
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)

    def predict(self, x: np.ndarray, t: int | np.ndarray) -> np.ndarray:
        return np.zeros(self._check_state(x, t).shape)

    def vjp_from(self, state, x: np.ndarray, t: int | np.ndarray, cotangent: np.ndarray):
        return np.zeros(self._check_vjp(x, t, cotangent)[0].shape)


class _TermLabels(np.ndarray):
    """(N,) timestep labels carrying their rows' Gaussian (gain, shift) as
    ``terms``, which indexing indexes alike; other derived arrays carry none."""

    def __getitem__(self, key):
        out, terms = super().__getitem__(key), getattr(self, "terms", None)
        if terms is not None and isinstance(out, _TermLabels):
            out.terms = tuple(a[key] for a in terms)
        return out


class _RowTerms(tuple):
    """A one-row label from the Gaussian ``prepare``: (gain, shift)."""


class GaussianOptimalPredictor(NoisePredictor):
    """Closed-form posterior-mean noise for a diagonal Gaussian data law.

    If x_0 ~ N(mu, diag(var)) and x_t = sqrt(a_t) x_0 + sqrt(1 - a_t) eps,
    the minimum-mean-square-error estimate of eps given x_t is

        E[eps | x_t] = sqrt(1 - a_t) * (x_t - sqrt(a_t) mu)
                       / (a_t var + (1 - a_t))

    elementwise, with a_t the schedule's signal product at t.  The Jacobian
    is diagonal and state-independent, which makes this the analytic anchor
    for solver and gradient checks.

    Both calls read eps = gain * (x - shift) off two per-timestep terms,
    gain = sqrt(1 - a_t) / (a_t var + 1 - a_t) and shift = sqrt(a_t) mu.
    One rule checks every label, one int or an (N,) integer array alike:
    each must lie in 0..T, or the call is a ``ShapeError``.  ``prepare``
    builds a 1-d integer array's terms as one array expression, carried by
    the labels it returns; any other label builds its own.  Every term is
    elementwise IEEE arithmetic on the same operands, so a carried row has
    the bits of one built for a single call.
    """

    def __init__(self, mu: np.ndarray, var: np.ndarray, schedule: DiffusionSchedule):
        self.mu = np.asarray(mu, dtype=np.float64)
        self.var = np.asarray(var, dtype=np.float64)
        if self.mu.ndim != 1 or self.mu.size == 0 or self.var.shape != self.mu.shape:
            raise ShapeError("mu and var must be non-empty 1-d arrays of equal length")
        if np.any(self.var < 0.0):
            raise ShapeError("var entries must be >= 0")
        self.schedule = schedule
        self.dim = int(self.mu.size)

    def _terms(self, t: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gain, shift) at one int timestep, (D,) each, or at an (N,) array
        of them, (N, D) each: the one place labels are checked."""
        batch = isinstance(t, np.ndarray)
        labels = np.asarray(t)
        if labels.ndim != (1 if batch else 0) or labels.dtype.kind not in "iu":
            raise ShapeError(
                f"timesteps must be an integer or a 1-d integer array, got "
                f"{labels.dtype} of shape {labels.shape}"
            )
        if labels.size and not 0 <= labels.min() <= labels.max() <= self.schedule.T:
            raise ShapeError(f"timesteps must lie in 0..{self.schedule.T}")
        a = self.schedule.alpha_by_t[labels]
        if batch:
            a = a[:, None]
        return np.sqrt(1.0 - a) / (a * self.var + (1.0 - a)), np.sqrt(a) * self.mu

    def prepare(self, timesteps: np.ndarray) -> tuple:
        batch = np.asarray(timesteps).view(_TermLabels)
        batch.terms = self._terms(batch)
        return batch, list(map(_RowTerms, zip(*batch.terms)))

    def _lookup(self, t) -> tuple[np.ndarray, np.ndarray]:
        return t if isinstance(t, _RowTerms) else getattr(t, "terms", None) or self._terms(t)

    def predict(self, x: np.ndarray, t: int | np.ndarray) -> np.ndarray:
        x = self._check_state(x, t)
        gain, shift = self._lookup(t)
        return gain * (x - shift)

    def vjp_from(self, state, x: np.ndarray, t: int | np.ndarray, cotangent: np.ndarray):
        _, cotangent = self._check_vjp(x, t, cotangent)
        return self._lookup(t)[0] * cotangent


class MlpPredictor(NoisePredictor):
    """Small dense network with tanh hidden layers and a linear head.

    Layer l maps ``widths[l]`` units to ``widths[l + 1]`` by the
    (widths[l + 1], widths[l]) matrix ``weights[l]``, so the weight shapes
    give ``widths``, every one >= 1.  The input is the state with the
    scalar t / t_max appended, so ``widths[0] == dim + 1`` and
    ``widths[-1] == dim``.  ``t_max`` is a runtime parameter, an integer
    >= 1 (normally the chain length T), not part of the serialized weights.

    The backward pass reads only the tanh' factors 1 - h**2 of the hidden
    layers, so they are the forward state: built elementwise from one
    forward pass, batched or one-row.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], t_max: int = 1000):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not self.weights:
            raise SchemaError("widths must list at least input and output layers")
        if len(self.biases) != len(self.weights):
            raise SchemaError("need one weight matrix and bias per layer transition")
        if any(w.ndim != 2 for w in self.weights):
            raise SchemaError("every layer's weights must be a matrix")
        widths = [self.weights[0].shape[1], *(w.shape[0] for w in self.weights)]
        if min(widths) < 1:
            raise SchemaError(f"mlp widths must be positive, got {widths}")
        if widths[0] != widths[-1] + 1:
            raise SchemaError(
                f"input width {widths[0]} must be output width {widths[-1]} + 1 "
                "(state plus one time slot)"
            )
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != widths[layer]:
                raise SchemaError(
                    f"layer {layer} weight shape {w.shape} does not match widths "
                    f"({widths[layer + 1]}, {widths[layer]})"
                )
            if b.shape != (widths[layer + 1],):
                raise SchemaError(f"layer {layer} bias shape {b.shape} is wrong")
        require_integer("t_max", t_max)
        if t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {t_max}")
        self.widths = widths
        self.t_max = int(t_max)
        self.dim = widths[-1]

    def _layers(self, x: np.ndarray, t: int | np.ndarray) -> list[np.ndarray]:
        """The input with its time slot, then every hidden layer's tanh
        activations.  States sit along the last axis, one per row of a
        batch, so every layer multiplies from the right."""
        x = self._check_state(x, t)
        inputs = np.empty((*x.shape[:-1], self.dim + 1))
        inputs[..., :-1] = x
        inputs[..., -1] = t / self.t_max
        layers = [inputs]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = layers[-1] @ w.T
            h += b
            layers.append(np.tanh(h, out=h))
        return layers

    def predict(self, x: np.ndarray, t: int | np.ndarray) -> np.ndarray:
        out = self._layers(x, t)[-1] @ self.weights[-1].T
        out += self.biases[-1]
        return out

    def vjp_state(self, x: np.ndarray, t: int | np.ndarray) -> list[np.ndarray]:
        return [1.0 - h**2 for h in self._layers(x, t)[1:]]  # tanh' = 1 - tanh^2

    def vjp_from(self, state, x: np.ndarray, t: int | np.ndarray, cotangent: np.ndarray):
        g = self._check_vjp(x, t, cotangent)[1] @ self.weights[-1]
        for w, factor in zip(self.weights[-2::-1], state[::-1]):
            g = (g * factor) @ w
        return g[..., :-1]


def random_mlp(
    dim: int,
    hidden: list[int],
    rng: np.random.Generator,
    t_max: int = 1000,
    scale: float = 1.0,
) -> MlpPredictor:
    """Draw an MlpPredictor with fan-in scaled normal weights."""
    widths = [dim + 1, *hidden, dim]
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * scale / np.sqrt(fan_in))
        biases.append(rng.standard_normal(fan_out) * 0.1 * scale)
    return MlpPredictor(weights, biases, t_max=t_max)


def save_mlp(path: str, predictor: MlpPredictor) -> None:
    """Write MLP weights as JSON; row-major flat lists, one per layer."""
    payload = {
        "widths": predictor.widths,
        "weights": [w.ravel(order="C").tolist() for w in predictor.weights],
        "biases": [b.tolist() for b in predictor.biases],
        "time_embed": "scalar_append",
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


#: Parsed predictor files, at most one entry per path and ``_MEMO_ENTRIES``
#: in all: the loader, the bytes it parsed, and the checked content with
#: its arrays read-only.  A hit needs the same loader and the same bytes,
#: so a file rewritten in place is parsed again whatever its size or
#: mtime.  A process that loads one predictor per command parses each
#: file once per content.
_MEMO: OrderedDict[str, tuple[str, bytes, tuple]] = OrderedDict()
_MEMO_ENTRIES = 4
_MEMO_LOCK = threading.Lock()


def _memoised(path: str, what: str, parse: Callable[[dict], tuple]) -> tuple:
    """``parse`` of the JSON object in ``path``, reused while the file's
    bytes are unchanged.  ``parse`` checks the payload and returns its
    arrays read-only; one that raises leaves the memo untouched."""
    with open(path, "rb") as fh:
        data = fh.read()
    with _MEMO_LOCK:
        entry = _MEMO.get(path)
        if entry is not None and entry[:2] == (what, data):
            _MEMO.move_to_end(path)
            return entry[2]
    try:
        # Decoded as a text-mode open() decodes, so undecodable bytes fail
        # with the message a text read gives.
        payload = json.loads(io.TextIOWrapper(io.BytesIO(data)).read())
    except ValueError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{what} {path} must hold a JSON object")
    try:
        content = parse(payload)
    except ParseError as exc:
        raise type(exc)(f"{what} {path}: {exc}") from None
    with _MEMO_LOCK:
        _MEMO[path] = (what, data, content)
        _MEMO.move_to_end(path)
        if len(_MEMO) > _MEMO_ENTRIES:
            _MEMO.popitem(last=False)
    return content


def _float_array(value, what: str) -> np.ndarray:
    """A numeric JSON list as finite float64; anything else is a schema error."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be a list of numbers") from None
    if not np.isfinite(array).all():
        raise SchemaError(f"{what} must hold finite numbers")
    return array


def _read_only(arrays: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return tuple(arrays)


def _parse_mlp(payload: dict) -> tuple:
    for field in ("widths", "weights", "biases", "time_embed"):
        if field not in payload:
            raise ParseError(f"missing field '{field}'")
    if payload["time_embed"] != "scalar_append":
        raise SchemaError(
            f"unsupported time_embed '{payload['time_embed']}'; expected 'scalar_append'"
        )
    for field in ("widths", "weights", "biases"):
        if not isinstance(payload[field], list):
            raise SchemaError(f"field '{field}' must be a list")
    widths = payload["widths"]
    if not all(map(is_integer, widths)):
        raise SchemaError("mlp widths must be a list of integers")
    if any(w < 1 for w in widths):
        raise SchemaError(f"mlp widths must be positive, got {widths}")
    if len(payload["weights"]) != len(widths) - 1:
        raise SchemaError("number of weight matrices does not match widths")
    weights = []
    for layer, flat in enumerate(payload["weights"]):
        rows, cols = widths[layer + 1], widths[layer]
        flat = _float_array(flat, f"layer {layer} weights")
        if flat.size != rows * cols:
            raise SchemaError(
                f"layer {layer} has {flat.size} weights, expected {rows * cols}"
            )
        weights.append(flat.reshape(rows, cols))
    biases = [_float_array(b, f"layer {layer} bias") for layer, b in enumerate(payload["biases"])]
    checked = MlpPredictor(weights, biases)
    return _read_only(checked.weights), _read_only(checked.biases)


def load_mlp(path: str, t_max: int = 1000) -> MlpPredictor:
    """Load an MLP weight file; reload is bit-identical to what was saved.

    Every call returns a new predictor; its weight arrays are read-only and
    shared with every other load of the same file content."""
    weights, biases = _memoised(path, "mlp weight file", _parse_mlp)
    return MlpPredictor(weights, biases, t_max=t_max)


def save_gaussian(path: str, mu: np.ndarray, var: np.ndarray) -> None:
    """Write diagonal Gaussian parameters as JSON {"mu": [...], "var": [...]}."""
    mu = np.asarray(mu, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    with open(path, "w") as fh:
        json.dump({"mu": mu.tolist(), "var": var.tolist()}, fh)


def _parse_gaussian(payload: dict) -> tuple[np.ndarray, np.ndarray]:
    for field in ("mu", "var"):
        if field not in payload:
            raise ParseError(f"missing field '{field}'")
    mu = _float_array(payload["mu"], "gaussian mu")
    var = _float_array(payload["var"], "gaussian var")
    if mu.ndim != 1 or var.shape != mu.shape or mu.size == 0:
        raise SchemaError("mu and var must be non-empty equal-length lists")
    if (var < 0.0).any():
        raise SchemaError("var entries must be >= 0")
    return _read_only([mu, var])


def load_gaussian_params(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read diagonal Gaussian parameters written by save_gaussian, as
    read-only arrays shared with every other load of the same content."""
    return _memoised(path, "gaussian file", _parse_gaussian)
