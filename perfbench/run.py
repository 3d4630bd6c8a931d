"""parseq benchmark: one closed-loop client driving ``parseq.cli.main``.

    python3 perfbench/run.py --workload mlp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  Each run makes its inputs from ``--seed``, sets up, then issues
one operation at a time for ``--seconds``, checks every output against an
independent reference (``oracle.py``), and prints as its last stdout line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats each
operation through the public library calls with spans and counters
(``tracing.py``) and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-run")
#: Set-ups per run: this process plus fresh interpreters; setup_s is their median.
SETUP_REPEATS = 5
#: Inversion targets made at set-up; a run that uses more cycles through them.
N_TARGETS = 32
#: Time of one SpeedProbe.probe() on an uncontended core of the reference
#: machine (2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
PROBE_REF_S = 0.5e-3
#: Time of one SpeedProbe.probe(threads=2) on the reference machine while the
#: single-thread kernel takes PROBE_REF_S (median ratio of the two, measured
#: interleaved, times PROBE_REF_S).
POOL_PROBE_REF_S = 2.5e-3

sys.path.insert(0, HERE)
from workloads import (  # noqa: E402
    END_TO_END, INVERT_FLAGS, INVERT_METHODS, SAMPLE_MODES, SOLVER_TOL, STOP_LOSS,
    WORKLOADS, per_layer_metrics,
)

# numpy, parseq and oracle (which imports numpy) are imported inside the
# functions that run once set-up has begun, so that setup_s includes them.

_PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _pin_environment() -> None:
    os.environ.update(_PINNED_ENV)
    os.environ.pop("PARSEQ_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "parseq", "__init__.py")):
        sys.exit(f"perfbench: no parseq sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def _seed_base(seed: int) -> int:
    """Sampling seeds are base + 2i and the truth seeds of the inversion
    targets base + 2j + 1, so no target seed is ever sampled; base - 2
    seeds the warm-up op."""
    return 4 + 2 * random.Random(seed).randrange(1 << 28)


class Inputs:
    """Generated files of one run, plus the references that judge them."""

    def __init__(self, wl, seed, work):
        import numpy as np

        import oracle

        self.wl, self.work = wl, work
        self.base = _seed_base(seed)
        self.files, self.refs = {}, {}
        for part in ("sample", "invert"):
            chain = getattr(wl, part)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0 if part == "sample" else 1]))
            if chain.predictor == "mlp":
                payload = oracle.mlp_payload(rng, chain.D, chain.hidden, chain.scale)
            else:
                payload = oracle.gaussian_payload(rng, chain.D)
            path = os.path.join(work, f"{part}-{chain.predictor}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh)
            self.files[part] = path
            self.refs[part] = oracle.ReferenceChain(chain.predictor, payload, chain.T, chain.S, chain.eta)

    def sample_argv(self):
        return self.wl.sample.argv(self.files["sample"])

    def invert_argv(self):
        return self.wl.invert.argv(self.files["invert"])

    def target_path(self, j):
        return os.path.join(self.work, "targets", f"t{j}", "x0.stack")


class SpeedProbe:
    """A fixed reference kernel timed right before and after every op.

    On a shared host the same op runs up to ~1.6x slower while a neighbour
    loads the core, and that state flips every few seconds, so raw medians
    of two runs can differ by more than any program change worth catching.
    Each op's wall time is therefore rescaled to the reference speed,
    ``wall * PROBE_REF_S / probe``; the kernel (a short DDIM rollout of a
    fixed small MLP in plain numpy) has the same mix of interpreter and
    small-array work as the program.  An op that runs a thread pool is
    slowed as well by a neighbour on the other core, which that kernel does
    not see, so it is rescaled by a kernel that dispatches rows to a pool
    of the same size the way ``h_tilde`` does.  Raw medians are printed
    beside them.
    """

    def __init__(self):
        import numpy as np

        import oracle

        payload = oracle.mlp_payload(np.random.default_rng(0), 16, (64, 64))
        self._chain = oracle.ReferenceChain("mlp", payload, 1000, 20, 0.0)
        self._x_T = self._chain.x_T(0)
        self._tanh = np.tanh
        self.seen = defaultdict(list)

    def _row(self, i):
        return self._tanh(self._x_T * (1.0 + 1e-3 * i))

    def probe(self, threads: int = 1) -> float:
        t0 = time.perf_counter()
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in range(2):
                    list(pool.map(self._row, range(100)))
        else:
            self._chain.x0(self._x_T)
            self._chain.x0(self._x_T)
        seconds = time.perf_counter() - t0
        self.seen[threads].append(seconds)
        return seconds

    def scale(self, before: float, threads: int = 1) -> float:
        """Factor from the wall time of an op begun after ``before`` to the
        reference speed, using the mean of the probes around the op."""
        ref = POOL_PROBE_REF_S if threads > 1 else PROBE_REF_S
        return ref / ((before + self.probe(threads)) / 2)


def call_cli(cli, argv):
    """One closed-loop operation: (exit code, wall seconds).  A traceback
    escaping the CLI is an operation failure, not a benchmark crash."""
    t0 = time.perf_counter()
    try:
        rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = "traceback"
    return rc, time.perf_counter() - t0


def setup(wl, seed, work):
    """Everything before the first timed op.  Returns the session and the
    set-up time rescaled to the reference speed."""
    t0 = time.perf_counter()
    from parseq import cli

    import oracle

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported parseq from {cli.__file__}, not from {SRC}")
    os.makedirs(work, exist_ok=True)
    inputs = Inputs(wl, seed, work)
    for j in range(N_TARGETS):
        out = os.path.dirname(inputs.target_path(j))
        rc, _ = call_cli(cli, ["sample", *inputs.invert_argv(), "--mode", "sequential",
                               "--seed", inputs.base + 2 * j + 1, "--out", out])
        if rc != 0:
            sys.exit(f"perfbench: making inversion target {j} exited {rc}")
    call_cli(cli, ["sample", *inputs.sample_argv(), "--mode", "sequential",
                   "--seed", inputs.base - 2, "--out", os.path.join(work, "warmup")])
    seconds = time.perf_counter() - t0
    session = Session(cli, inputs)
    seconds *= PROBE_REF_S / statistics.median(session.speed.probe() for _ in range(5))
    # Targets come from the program; the reference must agree before any
    # inversion is judged against them.
    ref = inputs.refs["invert"]
    for j in range(N_TARGETS):
        target = oracle.read_stack(inputs.target_path(j))[-1]
        if not oracle.matches_reference(target, ref.x0(ref.x_T(inputs.base + 2 * j + 1))):
            session.correct = False
            session.notes.append(f"inversion target {j} differs from the reference rollout")
    return session, seconds


def _extra_setups(args) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up run failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _last_residual(path):
    with open(path) as fh:
        rows = fh.read().split()
    return float(rows[-1].split(",")[1])


class Session:
    """One client issuing ops against the CLI and recording, per op type,
    wall times (raw and at reference speed) and failures."""

    def __init__(self, cli, inputs):
        self.cli, self.inputs = cli, inputs
        self.speed = SpeedProbe()
        self.layers = None  # a tracing.LayerRun in a traced run
        self.walls = defaultdict(list)  # at reference speed, every op
        self.solved = defaultdict(list)  # at reference speed, passed inversions
        self.raw = defaultdict(list)
        self.attempted = Counter()
        self.failed = Counter()
        self.reasons = defaultdict(Counter)
        self.correct = True
        self.notes = []

    def _op(self, op, argv, threads=1):
        """Issue one op that runs a pool of ``threads`` (1: none): (exit
        code, raw wall, wall at reference speed).  Garbage the op leaves
        behind is collected before the probe after it, so that work is not
        divided out of the op's own time."""
        before = self.speed.probe(threads)
        rc, wall = call_cli(self.cli, argv)
        gc.collect()
        self.raw[op].append(wall)
        self.attempted[op] += 1
        return rc, wall, wall * self.speed.scale(before, threads)

    def _judge(self, op, rc, check):
        """The reason an op failed, or None: a non-zero exit, a failed
        ``check()`` (which returns a reason or None), or outputs that cannot
        be read.  A failure is counted here."""
        if rc != 0:
            reason = f"exit {rc}"
        else:
            try:
                reason = check()
            except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
                reason = f"exit 0 with unreadable output ({type(exc).__name__})"
        if reason:
            self.failed[op] += 1
            self.reasons[op][reason] += 1
        return reason

    def sample_round(self, seed):
        """sequential, deq-picard, deq-anderson for one seed.  sequential
        must match the reference rollout; a deq solve must end within
        --solver-tol and its x0 within --solver-tol of sequential's."""
        import numpy as np

        import oracle

        inputs = self.inputs
        ref = inputs.refs["sample"]
        x0_ref = ref.x0(ref.x_T(seed), seed)
        for op, mode in SAMPLE_MODES.items():
            out = os.path.join(inputs.work, "ops", op)
            threads = 1 if op == "seq" else inputs.wl.sample.threads  # only deq runs a pool
            rc, wall, scaled = self._op(op, ["sample", *inputs.sample_argv(), "--mode", mode,
                                             "--seed", seed, "--out", out], threads)
            self.walls[op].append(scaled)
            x0_path = os.path.join(out, "x0.stack")

            def check():
                x0 = oracle.read_stack(x0_path)[-1]
                if op == "seq":
                    if not oracle.matches_reference(x0, x0_ref):
                        self.correct = False
                        return "x0 differs from the reference rollout"
                elif _last_residual(os.path.join(out, "residuals.csv")) > SOLVER_TOL:
                    return "exit 0 with final residual above --solver-tol"
                elif np.max(np.abs(x0 - x0_ref)) > SOLVER_TOL:
                    return "x0 differs from sequential by more than --solver-tol"
                return None

            self._judge(op, rc, check)
            if rc == 0 and self.layers is not None:
                self.layers.sample(op, seed, wall, x0_path)

    def invert_round(self, j):
        """naive, deq+phantom, deq+exact on one target.  Each must report
        best_loss <= --stop-loss, and the reference rollout of its x_T_hat
        must reproduce that loss up to the solver tolerance."""
        import numpy as np

        import oracle

        inputs = self.inputs
        target = inputs.target_path(j % N_TARGETS)
        goal = oracle.read_stack(target)[-1]
        for op, flags in INVERT_METHODS.items():
            out = os.path.join(inputs.work, "ops", op)
            rc, wall, scaled = self._op(op, ["invert", *inputs.invert_argv(), *INVERT_FLAGS,
                                             *flags, "--target", target, "--out", out])
            x_T_hat_path = os.path.join(out, "x_T_hat.stack")

            def check():
                with open(os.path.join(out, "run.json")) as fh:
                    best = json.load(fh)["best_loss"]
                miss = inputs.refs["invert"].x0(oracle.read_stack(x_T_hat_path)[-1]) - goal
                if best > STOP_LOSS:
                    return "best_loss above --stop-loss"
                if float(miss @ miss) > (np.sqrt(STOP_LOSS) + SOLVER_TOL) ** 2:
                    return "reported best_loss not reproduced by the reference rollout"
                return None

            self.walls[op].append(scaled)
            if self._judge(op, rc, check) is None:
                self.solved[op].append(scaled)
            if rc == 0 and self.layers is not None:
                self.layers.invert(op, target, wall, x_T_hat_path)

    def measure(self, seconds):
        """Closed loop, one client: sampling rounds and inversion rounds,
        interleaved so that each kind gets half of the measured time and
        both see the same machine state.  The first round of each kind
        always runs, so every metric has at least one sample."""
        used = {"sample": 0.0, "invert": 0.0}
        rounds = {"sample": 0, "invert": 0}
        start = time.perf_counter()
        while not (all(rounds.values()) and time.perf_counter() - start >= seconds):
            kind = "sample" if used["sample"] <= used["invert"] else "invert"
            t0 = time.perf_counter()
            if kind == "sample":
                self.sample_round(self.inputs.base + 2 * rounds["sample"])
            else:
                self.invert_round(rounds["invert"])
            used[kind] += time.perf_counter() - t0
            rounds[kind] += 1
        return rounds

    def end_to_end(self, setups):
        wl = self.inputs.wl
        med = {op: statistics.median(w) for op, w in self.walls.items()}
        anderson = self.walls["anderson"]
        if len(anderson) > 1:
            tail = statistics.quantiles(anderson, n=100, method="inclusive")[wl.tail_pct - 1]
        else:
            tail = anderson[0]
        self.notes.append({"anderson_ms_tail": {
            "percentile": wl.tail_pct, "samples": len(anderson),
            "beyond": sum(v > tail for v in anderson), "all_ms": [v * 1e3 for v in anderson]}})
        for op in INVERT_METHODS:
            # Time to a solution, so over the inversions that passed; if
            # none did, over all of them, and ok_share shows the failures.
            if self.solved[op]:
                med[op] = statistics.median(self.solved[op])
            else:
                self.notes.append(f"invert_{op}_s: no inversion passed, median over all")
        # Mean of the per-op-type shares, so one op type failing throughout
        # costs ok_share a sixth, whatever the traffic mix.
        ok = [1 - self.failed[op] / n for op, n in self.attempted.items()]
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": statistics.fmean(ok),
            "seq_ms": med["seq"] * 1e3,
            "picard_ms": med["picard"] * 1e3,
            "anderson_ms": med["anderson"] * 1e3,
            "anderson_ms_tail": tail * 1e3,
            "invert_naive_s": med["naive"],
            "invert_phantom_s": med["phantom"],
            "invert_exact_s": med["exact"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def summary(self):
        return {
            "ops": {op: {"attempted": self.attempted[op], "failed": self.failed[op],
                         "fail_share": self.failed[op] / self.attempted[op],
                         "reasons": dict(self.reasons[op]),
                         "raw_median_ms": statistics.median(self.raw[op]) * 1e3}
                    for op in self.attempted},
            "probe_median_ms": {f"threads={n}": statistics.median(v) * 1e3
                                for n, v in self.speed.seen.items()},
            "notes": self.notes,
        }


def facts(wl, seed, inputs):
    import hashlib

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    files = [inputs.files["sample"], inputs.files["invert"]] + [
        inputs.target_path(j) for j in range(N_TARGETS)
    ]
    sha = {}
    for path in files:
        with open(path, "rb") as fh:
            sha[os.path.relpath(path, inputs.work)] = hashlib.sha256(fh.read()).hexdigest()
    return {
        "workload": wl.name, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": _PINNED_ENV, "inputs_sha256": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_environment()
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-{args.seed}-{os.getpid()}"
    work = os.path.join(OUT_DIR, f"work-{tag}")
    try:
        session, own_setup = setup(wl, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup, *_extra_setups(args)]
        if args.trace:
            from tracing import LayerRun

            session.layers = LayerRun(session)
        rounds = session.measure(args.seconds)
        if args.trace:
            metrics = session.layers.metrics(per_layer_metrics())
            session.layers.tracer.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.json"))
        else:
            metrics = session.end_to_end(setups)
        print(json.dumps({"facts": facts(wl, args.seed, session.inputs), "rounds": rounds}))
        print(json.dumps(session.summary()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": session.correct,
        "attempted": sum(session.attempted.values()),
        "failed": sum(session.failed.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
