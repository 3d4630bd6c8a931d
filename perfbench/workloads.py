"""Workload table and the metric names the benchmark reports.

Each workload runs every operation type on one predictor family: three
``sample`` modes on a long chain (S = 100) and three ``invert`` methods on
a short one (S = 10), issued in alternating rounds so both halves see
the same machine state.  The two workloads differ in where the time goes, so that a change
to one layer has a workload that exercises it and one that does not.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Chain:
    """One chain configuration, passed to the program as argv only."""

    predictor: str  # "mlp" or "gaussian"
    D: int
    hidden: tuple[int, ...] = ()
    T: int = 1000
    S: int = 100
    eta: float = 0.0
    threads: int = 1
    #: Weight scale of an MLP predictor, as in ``parseq.random_mlp``.
    scale: float = 1.0
    #: --solver-max-iters; None keeps the program's default.
    solver_max_iters: int | None = None

    def argv(self, predictor_file: str) -> list[str]:
        argv = [
            "--predictor", f"{self.predictor}:{predictor_file}",
            "--T", str(self.T), "--S", str(self.S), "--subseq", "linear",
            "--eta", repr(self.eta), "--threads", str(self.threads),
        ]
        if self.solver_max_iters is not None:
            argv += ["--solver-max-iters", str(self.solver_max_iters)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sample: Chain
    invert: Chain
    #: Percentile for anderson_ms_tail, fixed so that two runs compare the
    #: same one: at most the highest that left at least ten anderson samples
    #: beyond it in every baseline run at the parent commit.
    tail_pct: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp",
            why="MLP predictor: forward and VJP calls dominate; one thread, so it "
                "is the control for thread-pool changes",
            sample=Chain("mlp", 64, (128, 128), S=100),
            # At weight scale 1 the phantom gradient stalls far above
            # --stop-loss on ~3 % of targets; at 0.5 no op fails.
            invert=Chain("mlp", 16, (64, 64), S=10, scale=0.5),
            tail_pct=92,
        ),
        Workload(
            name="gauss",
            why="near-free Gaussian predictor at eta 1 with a 2-thread pool: "
                "Horner carry, coefficient rebuild, Anderson mixing and pool dominate",
            # Anderson needs 32-60 iterations here, beyond the default cap
            # of 50 at eta > 0; Picard needs ~33.
            sample=Chain("gaussian", 64, S=100, eta=1.0, threads=2, solver_max_iters=100),
            invert=Chain("gaussian", 16, S=10),
            tail_pct=70,
        ),
    )
}

SAMPLE_MODES = {"seq": "sequential", "picard": "deq-picard", "anderson": "deq-anderson"}
INVERT_METHODS = {
    "naive": ["--method", "naive"],
    "phantom": ["--method", "deq", "--grad", "phantom"],
    "exact": ["--method", "deq", "--grad", "exact"],
}
SOLVER_TOL = 1e-3
STOP_LOSS = 1e-3
INVERT_FLAGS = ["--lr", "0.1", "--stop-loss", repr(STOP_LOSS), "--epochs", "800", "--seed", "0"]

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "seq_ms": "ms",
    "picard_ms": "ms",
    "anderson_ms": "ms",
    "anderson_ms_tail": "ms",
    "invert_naive_s": "s",
    "invert_phantom_s": "s",
    "invert_exact_s": "s",
}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric of a traced run, by name, with its unit."""
    out: dict[str, str] = {}
    for op in SAMPLE_MODES:
        out[f"predictors.forward_calls_per_sample.{op}"] = "count"
        out[f"predictors.forward_rows_per_sample.{op}"] = "count"
        out[f"predictors.forward_ms_per_sample.{op}"] = "ms"
        out[f"predictors.load_ms.{op}"] = "ms"
        out[f"chain.coefficients_ms.{op}"] = "ms"
        if op == "seq":
            out["chain.rollout_self_ms.seq"] = "ms"
        else:
            out[f"chain.h_tilde_calls_per_sample.{op}"] = "count"
            out[f"chain.h_tilde_self_ms_per_sample.{op}"] = "ms"
            out[f"solvers.iters_per_sample.{op}"] = "count"
            out[f"solvers.self_ms_per_sample.{op}"] = "ms"
            out[f"solvers.converged_share.{op}"] = "share"
        out[f"stackio.write_ms_per_call.{op}"] = "ms"
        out[f"stackio.bytes_written_per_call.{op}"] = "bytes"
        out[f"stackio.read_ms_per_call.{op}"] = "ms"
    out["solvers.picard_fallbacks_per_sample.anderson"] = "count"
    for op in INVERT_METHODS:
        out[f"predictors.load_ms.{op}"] = "ms"
        out[f"predictors.forward_calls_per_epoch.{op}"] = "count"
        out[f"predictors.vjp_calls_per_epoch.{op}"] = "count"
        out[f"predictors.vjp_rows_per_epoch.{op}"] = "count"
        out[f"predictors.vjp_ms_per_epoch.{op}"] = "ms"
        out[f"gradients.ms_per_epoch.{op}"] = "ms"
        if op != "naive":
            out[f"chain.h_tilde_vjp_self_ms_per_epoch.{op}"] = "ms"
            out[f"invert.solver_iters_per_epoch.{op}"] = "count"
        out[f"invert.epochs_to_loss.{op}"] = "count"
        out[f"invert.ms_per_epoch.{op}"] = "ms"
    out["gradients.adjoint_sweeps_per_epoch.exact"] = "count"
    for op in (*SAMPLE_MODES, *INVERT_METHODS):
        out[f"cli.self_ms_per_call.{op}"] = "ms"
        out[f"trace.overhead_ms_per_call.{op}"] = "ms"
    return out
