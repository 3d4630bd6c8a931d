"""On-disk formats for stacks and solver traces.

Binary stack layout (little-endian throughout):

    bytes 0-4   magic b"PSDQ1"
    uint32      S   number of rows
    uint32      D   state dimension
    uint32      T   full chain length the stack was sampled under
    float64     eta noise scale
    S*D float64 row-major payload, finite

Residual traces are ``iter,residual_l2`` with 0-indexed iterations.  Every
CSV file parseq writes goes through ``write_csv``.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import NumericDomainError, ParseError, ShapeError

MAGIC = b"PSDQ1"
_HEADER = struct.Struct("<5sIIId")


def write_stack(path: str, states: np.ndarray, chain_T: int, eta: float) -> None:
    """Write (S, D) states, or one state as a single row.  The payload must
    be finite, as ``read_stack`` requires; nothing is written otherwise."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[None, :]
    if states.ndim != 2:
        raise ShapeError(f"stack payload must be 2-d, got shape {states.shape}")
    if not np.isfinite(states).all():
        raise NumericDomainError(f"refusing to write NaN or infinite values to {path}")
    S, D = states.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, S, D, int(chain_T), float(eta)))
        fh.write(states.astype("<f8").tobytes(order="C"))


def read_stack(path: str) -> tuple[np.ndarray, int, float]:
    """Returns (states of shape (S, D), chain T, eta)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ParseError(f"stack file {path} is too short for its header")
    magic, S, D, T, eta = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ParseError(f"stack file {path} has bad magic {magic!r}")
    expected = _HEADER.size + 8 * S * D
    if len(blob) != expected:
        raise ParseError(
            f"stack file {path} holds {len(blob)} bytes, expected {expected}"
        )
    payload = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(payload).all():
        raise ParseError(f"stack file {path} holds NaN or infinite values")
    return payload.reshape(S, D).astype(np.float64), int(T), float(eta)


def write_csv(path: str, header: list[str], rows) -> None:
    """The one CSV format: a header row, then ``rows`` in the ``csv``
    module's default dialect.  Float cells (numpy's too) are written with
    ``repr``, so they parse back to the same bits; other cells as given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(c)) if isinstance(c, (float, np.floating)) else c for c in row]
            for row in rows
        )


def write_residual_csv(path: str, residuals: list[float]) -> None:
    write_csv(path, ["iter", "residual_l2"], enumerate(residuals))


def write_trace_csv(path: str, traces: list[list[float]]) -> None:
    """Residual traces of several runs side by side plus a min/max envelope.

    Rows cover the longest trace; runs that converged earlier leave their
    cell empty, and the envelope is taken over the cells present.
    """
    if not traces:
        raise ShapeError("need at least one trace")
    depth = max(len(t) for t in traces)
    header = ["iter"] + [f"run{j}" for j in range(len(traces))] + ["res_min", "res_max"]
    rows = []
    for it in range(depth):
        present = [t[it] for t in traces if it < len(t)]
        cells = [t[it] if it < len(t) else "" for t in traces]
        rows.append([it, *cells, min(present), max(present)])
    write_csv(path, header, rows)
