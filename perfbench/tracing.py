"""Traced re-composition of each operation from parseq's public functions.

The traced run repeats every CLI operation through the library calls the
CLI makes, with spans around each call into a layer and a counting proxy
in place of the predictor.  Spans (name, start, end, parent, op id) stay
in memory and are written when the run ends; a span's self time is its
duration minus its child spans and the predictor time inside it.  Spans
are recorded here, in the benchmark's own files, never inside the program.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import parseq

from oracle import read_stack
from workloads import SOLVER_TOL, STOP_LOSS

# Layer names of the spans, shared by compose_* and the metric reduction.
OP, LOAD, COEFFS, ROLLOUT, SOLVE, H_TILDE = (
    "op", "predictors.load", "chain.coefficients", "chain.sequential_rollout",
    "solvers.solve", "chain.h_tilde",
)
WRITE, READ, GRAD, ADJOINT, VJP = (
    "stackio.write", "stackio.read", "gradients", "gradients.adjoint_solve", "chain.h_tilde_vjp",
)


class Counts:
    """Predictor calls, rows and busy seconds; updated from pool threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = {"forward": 0, "vjp": 0}
        self.rows = {"forward": 0, "vjp": 0}
        self.busy = {"forward": 0.0, "vjp": 0.0}

    def add(self, kind: str, rows: int, seconds: float) -> None:
        with self._lock:
            self.calls[kind] += 1
            self.rows[kind] += rows
            self.busy[kind] += seconds

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "forward_calls": self.calls["forward"], "forward_rows": self.rows["forward"],
                "forward_s": self.busy["forward"], "vjp_calls": self.calls["vjp"],
                "vjp_rows": self.rows["vjp"], "vjp_s": self.busy["vjp"],
            }


class CountingPredictor:
    """Delegates every attribute to the wrapped predictor and counts the
    calls and rows (product of leading dimensions) of predict and vjp, so a
    batched (N, D) contract stays comparable with per-row calls."""

    def __init__(self, inner, counts: Counts):
        self._inner = inner
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def predict(self, x, t):
        t0 = time.perf_counter()
        out = self._inner.predict(x, t)
        self._counts.add("forward", int(np.prod(np.shape(x)[:-1])), time.perf_counter() - t0)
        return out

    def vjp(self, x, t, cotangent):
        t0 = time.perf_counter()
        out = self._inner.vjp(x, t, cotangent)
        self._counts.add("vjp", int(np.prod(np.shape(x)[:-1])), time.perf_counter() - t0)
        return out


class Tracer:
    """In-memory spans of the calling thread plus the shared predictor counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id, predictor_s]
        self.counts = Counts()
        self._open: list[int] = []
        self._first: dict[int, int] = {}  # op id -> index of its first span

    def _busy(self) -> float:
        snap = self.counts.snapshot()
        return snap["forward_s"] + snap["vjp_s"]

    @contextlib.contextmanager
    def span(self, name: str, op_id: int):
        parent = self._open[-1] if self._open else None
        self._first.setdefault(op_id, len(self.spans))
        rec = [name, time.perf_counter(), None, parent, op_id, self._busy()]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            rec[2] = time.perf_counter()
            rec[5] = self._busy() - rec[5]

    def wrap(self, predictor):
        return CountingPredictor(predictor, self.counts)

    def _spans_of(self, op_id: int):
        """(index, span) of one op; an op's spans are contiguous."""
        first = self._first[op_id]
        return [(i, s) for i, s in enumerate(self.spans[first:], first) if s[4] == op_id]

    def self_times(self, op_id: int) -> dict[str, list[float]]:
        """Per span name, the self seconds of each span of one op."""
        spans = self._spans_of(op_id)
        child_dur = defaultdict(float)
        child_pred = defaultdict(float)
        for _, (name, start, end, parent, _, pred) in spans:
            if parent is not None:
                child_dur[parent] += end - start
                child_pred[parent] += pred
        out = defaultdict(list)
        for i, (name, start, end, _, _, pred) in spans:
            out[name].append((end - start) - child_dur[i] - (pred - child_pred[i]))
        return out

    def walls(self, op_id: int) -> dict[str, list[float]]:
        out = defaultdict(list)
        for _, (name, start, end, _, _, _) in self._spans_of(op_id):
            out[name].append(end - start)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id", "predictor_s"],
                       "spans": self.spans}, fh)


class _Untraced:
    """Tracer stand-in for the untraced composition: same calls, no spans."""

    def span(self, name, op_id):
        return contextlib.nullcontext()

    def wrap(self, predictor):
        return predictor


UNTRACED = _Untraced()


def _load(tr, op_id, chain, predictor_file):
    schedule = parseq.make_linear_beta_schedule(chain.T, eta=chain.eta)
    subsequence = parseq.select_subsequence(chain.T, chain.S, "linear")
    with tr.span(LOAD, op_id):
        if chain.predictor == "mlp":
            predictor = parseq.load_mlp(predictor_file, t_max=chain.T)
        else:
            mu, var = parseq.load_gaussian_params(predictor_file)
            predictor = parseq.GaussianOptimalPredictor(mu, var, schedule)
    with tr.span(COEFFS, op_id):
        parseq.chain_coefficients(schedule, subsequence)
    return schedule, subsequence, tr.wrap(predictor)


@contextlib.contextmanager
def _pool(threads):
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        yield pool
    finally:
        if pool is not None:
            pool.shutdown()


def _solver_config(chain, method):
    max_iters = chain.solver_max_iters or parseq.default_solver_config(chain.eta).max_iters
    return parseq.SolverConfig(method=method, max_iters=max_iters, tol=SOLVER_TOL)


def compose_sample(tr, op_id, chain, predictor_file, seed, mode, cli_x0_path, scratch):
    """The CLI's sample path, rebuilt from public calls.  Returns (solver
    result or None, bytes written, x0 bit-identical to the CLI's)."""
    with tr.span(OP, op_id):
        schedule, subsequence, predictor = _load(tr, op_id, chain, predictor_file)
        S, D = subsequence.S, predictor.dim
        x_T = parseq.draw_x_T(seed, D)
        noise = parseq.draw_noise_stack(seed, S, D) if chain.eta > 0.0 else None
        result = None
        if mode == "seq":
            with tr.span(ROLLOUT, op_id):
                states = parseq.sequential_rollout(x_T, schedule, subsequence, predictor, noise)
        else:
            with _pool(chain.threads) as pool:

                def step_map(stack):
                    with tr.span(H_TILDE, op_id):
                        return parseq.h_tilde(stack, x_T, schedule, subsequence, predictor, noise, pool)

                cfg = _solver_config(chain, "picard" if mode == "picard" else "anderson")
                with tr.span(SOLVE, op_id):
                    result = parseq.solve(step_map, parseq.init_stack(x_T, S, "x_T"), cfg)
            states = result.states
        path = os.path.join(scratch, "x0.stack")
        with tr.span(WRITE, op_id):
            parseq.write_stack(path, states[-1], chain.T, chain.eta)
        with tr.span(READ, op_id):
            cli_x0, _, _ = parseq.read_stack(cli_x0_path)
    same = read_stack(path).tobytes() == cli_x0.astype("<f8").tobytes()
    return result, os.path.getsize(path), same


def compose_invert(tr, op_id, chain, predictor_file, target_path, method, cli_x_T_hat_path):
    """The CLI's invert path (naive, or deq with phantom or exact gradients),
    rebuilt from public calls.  Returns (epochs, solver iters per epoch,
    adjoint sweeps, x_T_hat bit-identical to the CLI's)."""
    # The CLI flags of INVERT_FLAGS, and the CLI's default --tau.
    seed, lr, epochs, tau = 0, 0.1, 800, 0.1
    solver_iters, sweeps = [], 0
    with tr.span(OP, op_id):
        schedule, subsequence, predictor = _load(tr, op_id, chain, predictor_file)
        target = parseq.read_stack(target_path)[0][-1]
        S = subsequence.S
        x_T = parseq.draw_x_T(seed, target.size)
        x_T_hat = x_T
        adam = parseq.Adam(lr=lr)
        cfg = _solver_config(chain, "anderson")
        warm = None
        with _pool(chain.threads) as pool:

            def step_map(stack):
                with tr.span(H_TILDE, op_id):
                    return parseq.h_tilde(stack, x_T, schedule, subsequence, predictor, None, pool)

            for epoch in range(epochs):
                if method == "naive":
                    with tr.span(GRAD, op_id):
                        loss, grad = parseq.rollout_backprop_grad(
                            x_T, target, schedule, subsequence, predictor)
                else:
                    init = warm if warm is not None else parseq.init_stack(x_T, S, "x_T")
                    with tr.span(SOLVE, op_id):
                        try:
                            result = parseq.solve(step_map, init, cfg)
                        except parseq.DivergenceError:
                            if warm is None:
                                raise
                            result = parseq.solve(step_map, parseq.init_stack(x_T, S, "x_T"), cfg)
                    stack = warm = result.states
                    solver_iters.append(result.iters)
                    with tr.span(GRAD, op_id):
                        if method == "phantom":
                            with tr.span(H_TILDE, op_id):
                                y = tau * parseq.h_tilde(
                                    stack, x_T, schedule, subsequence, predictor, None, pool
                                ) + (1.0 - tau) * stack
                            loss, seed_row = parseq.loss_and_seed(y[S - 1], target)
                            v = np.zeros_like(stack)
                            v[S - 1] = seed_row
                            scale = tau
                        else:
                            loss, seed_row = parseq.loss_and_seed(stack[S - 1], target)
                            seed_stack = np.zeros_like(stack)
                            seed_stack[S - 1] = seed_row
                            with tr.span(ADJOINT, op_id):
                                v, deltas = parseq.adjoint_solve(
                                    stack, x_T, seed_stack, schedule, subsequence, predictor,
                                    tol=1e-6, pool=pool)
                            sweeps += len(deltas)
                            scale = 1.0
                        with tr.span(VJP, op_id):
                            _, cot_x_T = parseq.h_tilde_vjp(
                                stack, x_T, schedule, subsequence, predictor, v, pool)
                        grad = scale * cot_x_T
                if loss <= STOP_LOSS:
                    break
                x_T = adam.step(x_T, grad)
                x_T_hat = x_T
    cli = read_stack(cli_x_T_hat_path)[-1]
    same = cli.tobytes() == np.asarray(x_T_hat, dtype="<f8").tobytes()
    return epoch + 1, solver_iters, sweeps, same


class LayerRun:
    """Per-layer values of a traced run, one list per metric, one entry per op.

    Each op runs twice through the composition: untraced, to time the
    library path alone (the CLI's own time is its wall minus that), then
    traced; the difference of the two is the tracing overhead.  An op whose
    composition fails (a public function no longer accepts the call made
    here) or whose output differs from the CLI's is not recorded, so its
    layers read as unmeasured; the end-to-end run never imports this module.
    """

    def __init__(self, session):
        self.session, self.inputs = session, session.inputs
        self.wl = session.inputs.wl
        self.tracer = Tracer()
        self.values = defaultdict(list)
        self.op_id = 0
        self.scratch = os.path.join(self.inputs.work, "traced")
        os.makedirs(self.scratch, exist_ok=True)

    def _run(self, op, fn):
        try:
            t0 = time.perf_counter()
            fn(UNTRACED, -1)
            untraced = time.perf_counter() - t0
            self.op_id += 1
            before = self.tracer.counts.snapshot()
            t0 = time.perf_counter()
            result = fn(self.tracer, self.op_id)
            traced = time.perf_counter() - t0
        except Exception as exc:  # report the layer, keep measuring the rest
            self.session.notes.append(f"{op}: composition unmeasured ({type(exc).__name__}: {exc})")
            return None
        after = self.tracer.counts.snapshot()
        delta = {k: after[k] - before[k] for k in after}
        return untraced, traced, result, delta

    def _common(self, op, cli_wall, untraced, traced):
        walls = self.tracer.walls(self.op_id)
        self.values[f"predictors.load_ms.{op}"].append(walls[LOAD][0] * 1e3)
        self.values[f"cli.self_ms_per_call.{op}"].append((cli_wall - untraced) * 1e3)
        self.values[f"trace.overhead_ms_per_call.{op}"].append((traced - untraced) * 1e3)
        return walls, self.tracer.self_times(self.op_id)

    def sample(self, op, seed, cli_wall, cli_x0):
        def fn(tr, op_id):
            return compose_sample(tr, op_id, self.wl.sample, self.inputs.files["sample"],
                                  seed, op, cli_x0, self.scratch)

        got = self._run(op, fn)
        if got is None:
            return
        untraced, traced, (result, nbytes, same), d = got
        if not same:
            self.session.correct = False
            self.session.notes.append(f"{op} seed {seed}: composed x0 differs from the CLI's x0.stack")
            return
        walls, selfs = self._common(op, cli_wall, untraced, traced)
        v = self.values
        v[f"predictors.forward_calls_per_sample.{op}"].append(d["forward_calls"])
        v[f"predictors.forward_rows_per_sample.{op}"].append(d["forward_rows"])
        v[f"predictors.forward_ms_per_sample.{op}"].append(d["forward_s"] * 1e3)
        v[f"chain.coefficients_ms.{op}"].append(walls[COEFFS][0] * 1e3)
        v[f"stackio.write_ms_per_call.{op}"].append(walls[WRITE][0] * 1e3)
        v[f"stackio.bytes_written_per_call.{op}"].append(nbytes)
        v[f"stackio.read_ms_per_call.{op}"].append(walls[READ][0] * 1e3)
        if result is None:
            v["chain.rollout_self_ms.seq"].append(selfs[ROLLOUT][0] * 1e3)
            return
        v[f"chain.h_tilde_calls_per_sample.{op}"].append(len(walls[H_TILDE]))
        v[f"chain.h_tilde_self_ms_per_sample.{op}"].append(sum(selfs[H_TILDE]) * 1e3)
        v[f"solvers.iters_per_sample.{op}"].append(result.iters)
        v[f"solvers.self_ms_per_sample.{op}"].append(selfs[SOLVE][0] * 1e3)
        v[f"solvers.converged_share.{op}"].append(1.0 if result.converged else 0.0)
        if op == "anderson":
            v["solvers.picard_fallbacks_per_sample.anderson"].append(result.picard_fallbacks)

    def invert(self, op, target, cli_wall, cli_x_T_hat):
        def fn(tr, op_id):
            return compose_invert(tr, op_id, self.wl.invert, self.inputs.files["invert"],
                                  target, op, cli_x_T_hat)

        got = self._run(op, fn)
        if got is None:
            return
        untraced, traced, (epochs, iters, sweeps, same), d = got
        if not same:
            # Inversion internals may legitimately change, but the layer
            # values would then describe a path the CLI no longer takes.
            self.session.notes.append(f"{op}: composed x_T_hat differs from the CLI's; unmeasured")
            return
        walls, selfs = self._common(op, cli_wall, untraced, traced)
        v = self.values
        v[f"predictors.forward_calls_per_epoch.{op}"].append(d["forward_calls"] / epochs)
        v[f"predictors.vjp_calls_per_epoch.{op}"].append(d["vjp_calls"] / epochs)
        v[f"predictors.vjp_rows_per_epoch.{op}"].append(d["vjp_rows"] / epochs)
        v[f"predictors.vjp_ms_per_epoch.{op}"].append(d["vjp_s"] * 1e3 / epochs)
        v[f"gradients.ms_per_epoch.{op}"].append(sum(walls[GRAD]) * 1e3 / epochs)
        v[f"invert.epochs_to_loss.{op}"].append(epochs)
        v[f"invert.ms_per_epoch.{op}"].append(untraced * 1e3 / epochs)
        if op != "naive":
            # adjoint_solve is a loop of h_tilde_vjp sweeps, so its self
            # time counts as h_tilde_vjp's.
            vjp_self = sum(selfs[VJP]) + sum(selfs[ADJOINT])
            v[f"chain.h_tilde_vjp_self_ms_per_epoch.{op}"].append(vjp_self * 1e3 / epochs)
            v[f"invert.solver_iters_per_epoch.{op}"].append(sum(iters) / len(iters))
        if op == "exact":
            v["gradients.adjoint_sweeps_per_epoch.exact"].append(sweeps / epochs)

    def metrics(self, units: dict[str, str]) -> dict:
        """Median over ops of each metric; -1 marks a layer left unmeasured."""
        out = {}
        for name, unit in units.items():
            vals = self.values.get(name)
            if not vals:
                self.session.notes.append(f"{name}: unmeasured")
            value = float(np.median(vals)) if vals else -1.0
            out[name] = {"value": value, "unit": unit}
        return out
