"""Command-line front end.

Subcommands: sample, invert, trace, bench, eval-w2, rerun.  Every file-
writing run drops a manifest.json holding the command, the fully resolved
arguments, versions, output names, and per-phase timings; `rerun` replays
a manifest and must reproduce the primary outputs byte for byte (timings
are the one excluded field).

One runner, ``_run_mode``, makes the run each --mode names.  It and
``invert --method deq`` record a solve's budget through ``_recorded_solver``
alone.

Exit codes: 0 success, 2 usage/config error (sizes that do not fit in
memory included), 3 numeric divergence, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    NumericDomainError,
    ParseError,
    ShapeError,
)
from .chain import INIT_KINDS, Chain, _rollout, solve_stack
from .gradients import InversionConfig, invert, run_report
from .metrics import gaussian_w2, sample_moments
from .predictors import GaussianOptimalPredictor, ZeroPredictor, load_gaussian_params, load_mlp
from .rng import draw_noise_stack, draw_x_T
from .schedule import (
    MAX_FLOAT64_LENGTH, identity_subsequence, make_linear_beta_schedule, select_subsequence,
)
from .stackio import read_stack, write_csv, write_residual_csv, write_stack, write_trace_csv
from .solvers import FixedPointResult, SolverConfig, default_solver_config, picard_budget


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predictor", default="zero",
                   help="zero | gaussian[:params.json] | mlp:weights.json")
    p.add_argument("--T", type=int, default=100, help="full chain length")
    p.add_argument("--S", type=int, default=None,
                   help="subsequence length (default: the full chain)")
    p.add_argument("--subseq", choices=["linear", "quadratic"], default=None,
                   help="subsequence spacing; requires --S")
    p.add_argument("--eta", type=float, default=0.0, help="noise scale")
    p.add_argument("--D", type=int, default=2,
                   help="state dimension for predictors without a file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="thread count (>= 1), recorded in the manifest; every run "
                        "is single-threaded and its outputs do not depend on it")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver-max-iters", type=int, default=None,
                   help="iteration budget (default: S + 1 for Picard, at which the "
                        f"triangular solve is exact; {SolverConfig.max_iters} for Anderson, "
                        f"or {default_solver_config(1.0).max_iters} when eta > 0)")
    p.add_argument("--solver-tol", type=float, default=SolverConfig.tol)
    p.add_argument("--init", choices=INIT_KINDS, default="x_T",
                   help="stack initialization for the fixed-point solve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parseq",
        description="Parallel fixed-point sampling and inversion for diffusion chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw x_T and run the chain to x_0")
    _add_chain_flags(p)
    _add_solver_flags(p)
    p.add_argument("--mode", choices=["sequential", "deq-anderson", "deq-picard"],
                   default="deq-anderson")
    p.add_argument("--noise-file", default=None,
                   help="binary stack of per-transition noise rows")
    p.add_argument("--save-stack", action="store_true",
                   help="also write the full S x D stack")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("invert", help="recover x_T for a target x_0")
    _add_chain_flags(p)
    _add_solver_flags(p)
    p.add_argument("--target", required=True, help="binary stack holding the target x_0")
    p.add_argument("--method", choices=["naive", "deq"], default="deq",
                   help="naive backpropagates through the sequential sampler; deq "
                        "solves the joint system.  At eta > 0 both pin the seed's "
                        "noise stack")
    p.add_argument("--grad", choices=["phantom", "exact"], default="phantom")
    p.add_argument("--tau", type=float, default=InversionConfig.tau)
    p.add_argument("--epochs", type=int, default=InversionConfig.epochs)
    p.add_argument("--lr", type=float, default=InversionConfig.lr)
    p.add_argument("--stop-loss", type=float, default=InversionConfig.stop_loss)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("trace", help="residual traces over independent seeds")
    _add_chain_flags(p)
    _add_solver_flags(p)
    p.add_argument("--mode", choices=["deq-anderson", "deq-picard"], default="deq-anderson")
    p.add_argument("--noise-file", default=None)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("bench", help="sequential vs parallel wall-clock report")
    _add_chain_flags(p)
    _add_solver_flags(p)
    p.add_argument("--S-list", default="5,25,100",
                   help="comma-separated subsequence lengths")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval-w2", help="moments and Wasserstein-2 against a Gaussian target")
    p.add_argument("--samples", required=True, help="binary stack of samples, one per row")
    p.add_argument("--target", required=True, help="gaussian:params.json")
    p.add_argument("--out", default=None,
                   help="directory for eval.json (default: stdout only)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rerun", help="replay a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="redirect outputs to this directory")
    p.set_defaults(func=cmd_rerun)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` and ``rerun`` share, built on first use: a
    process that calls ``main`` repeatedly builds it once."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _resolved_args(ns: argparse.Namespace) -> dict:
    args = {k: v for k, v in vars(ns).items() if k != "func"}
    if args.get("threads", 1) < 1:
        raise ConfigError(f"thread count must be >= 1, got {args['threads']}")
    if "solver_tol" in args:
        # Check the solver flags even where no solve runs (sequential
        # sampling), so that every command rejects them alike.
        m = args["solver_max_iters"]
        SolverConfig("anderson", SolverConfig.max_iters if m is None else m, args["solver_tol"])
    return args


def _build_chain(args: dict) -> Chain:
    """The chain the flags name.  The dimension that runs, which a predictor
    file sets, is recorded as ``args["D"]``."""
    if args["subseq"] is not None and args["S"] is None:
        raise ConfigError("--subseq requires --S")
    if args["D"] < 1:
        raise ConfigError(f"--D must be >= 1, got {args['D']}")
    if args["D"] > MAX_FLOAT64_LENGTH:
        raise ConfigError(f"--D {args['D']} is too large for a float64 vector")
    schedule = make_linear_beta_schedule(args["T"], eta=args["eta"])
    if args["S"] is not None:
        subsequence = select_subsequence(args["T"], args["S"], args["subseq"] or "linear")
    else:
        subsequence = identity_subsequence(args["T"])
    kind, colon, path = args["predictor"].partition(":")
    if kind == "zero":
        if colon:
            raise ConfigError("the zero predictor takes no file; its dimension is --D")
        predictor = ZeroPredictor(args["D"])
    elif kind == "gaussian":
        if colon and not path:
            raise ConfigError("gaussian predictor names no file: write gaussian or "
                              "gaussian:params.json")
        D = args["D"]
        mu, var = load_gaussian_params(path) if path else (np.zeros(D), np.ones(D))
        predictor = GaussianOptimalPredictor(mu, var, schedule)
    elif kind == "mlp":
        if not path:
            raise ConfigError("mlp predictor needs a weights file: mlp:weights.json")
        predictor = load_mlp(path, t_max=args["T"])
    else:
        raise ConfigError(f"unknown predictor '{args['predictor']}'")
    args["D"] = predictor.dim
    return Chain(schedule, subsequence, predictor,
                 _load_noise(args, subsequence.S, predictor.dim))


def _load_noise(args: dict, S: int, D: int) -> np.ndarray | None:
    if args.get("noise_file"):
        return read_stack(args["noise_file"])[0]
    return draw_noise_stack(args["seed"], S, D) if args["eta"] > 0.0 else None


def _recorded_solver(args: dict, method: str, S: int) -> SolverConfig:
    """The solve the flags ask for on an S-position chain, its budget
    recorded in ``args``: the one place a run's ``solver_max_iters`` is
    written.  Without --solver-max-iters each method gets its default
    budget from ``solvers``."""
    max_iters = args["solver_max_iters"]
    if max_iters is None:
        max_iters = (picard_budget(S) if method == "picard"
                     else default_solver_config(args["eta"]).max_iters)
    cfg = SolverConfig(method, max_iters, args["solver_tol"])
    args["solver_max_iters"] = cfg.max_iters
    return cfg


def _run_mode(args: dict, chain: Chain, x_T: np.ndarray,
              mode: str) -> tuple[np.ndarray, FixedPointResult | None]:
    """The stack a --mode makes below x_T, and its solve (None for the
    sequential rollout, which records no budget)."""
    if mode == "sequential":
        return _rollout(chain, x_T), None
    cfg = _recorded_solver(args, "picard" if mode == "deq-picard" else "anderson", chain.S)
    result = solve_stack(chain, x_T, cfg, args["init"])
    return result.states, result


def _json_text(obj: object) -> str:
    """The one JSON form of every file the CLI writes, and of eval-w2's stdout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_manifest(args: dict, t0: float, outputs: list[str],
                    solver: dict | None = None, **phases_ms: float) -> None:
    """Write ``args["out"]``/manifest.json for ``args["command"]``; the
    ``total`` timing runs from the command's start ``t0``."""
    timings_ms = dict(phases_ms, total=(time.perf_counter() - t0) * 1000.0)
    manifest = {
        "command": args["command"],
        "args": args,
        "seed": args.get("seed"),
        "versions": {
            "parseq": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": outputs,
        "timings_ms": {k: round(v, 3) for k, v in timings_ms.items()},
    }
    if solver is not None:
        manifest["solver"] = solver
    with open(os.path.join(args["out"], "manifest.json"), "w") as fh:
        fh.write(_json_text(manifest))


def cmd_sample(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    chain = _build_chain(args)
    x_T = draw_x_T(args["seed"], chain.predictor.dim)

    t1 = time.perf_counter()
    states, result = _run_mode(args, chain, x_T, args["mode"])
    solve_ms = (time.perf_counter() - t1) * 1000.0
    # An unconverged solve still exits 0; this record is how a caller
    # tells it apart from a converged one.
    solver = None if result is None else {
        "converged": result.converged,
        "iters": result.iters,
        "final_residual": result.residuals[-1],
        "picard_fallbacks": result.picard_fallbacks,
    }

    os.makedirs(args["out"], exist_ok=True)
    outputs = ["x0.stack"]
    write_stack(os.path.join(args["out"], "x0.stack"), states[-1], args["T"], args["eta"])
    if args["save_stack"]:
        write_stack(os.path.join(args["out"], "stack.stack"), states, args["T"], args["eta"])
        outputs.append("stack.stack")
    if result is not None:
        write_residual_csv(os.path.join(args["out"], "residuals.csv"), result.residuals)
        outputs.append("residuals.csv")
    _write_manifest(args, t0, outputs, solver, solve=solve_ms)
    return 0


def cmd_invert(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    chain = _build_chain(args)
    target_states, _, _ = read_stack(args["target"])
    if len(target_states) == 0:
        raise ParseError(f"target stack {args['target']} holds no rows")
    # Unlike the library's default, a deq inversion here still solves with
    # Anderson: perfbench's traced run rebuilds this path bit for bit.  Naive
    # never solves: it takes no solver and records the budget as given.
    naive = args["method"] == "naive"
    cfg = InversionConfig(
        epochs=args["epochs"],
        lr=args["lr"],
        gradient_mode="naive" if naive else args["grad"],
        tau=args["tau"],
        solver=None if naive else _recorded_solver(args, "anderson", chain.S),
        stop_loss=args["stop_loss"],
        seed=args["seed"],
        init=args["init"],
    )
    run = invert(target_states[-1], cfg, chain)

    out = args["out"]
    os.makedirs(out, exist_ok=True)
    write_stack(os.path.join(out, "x_T_hat.stack"), run.x_T_hat, args["T"], args["eta"])
    write_csv(os.path.join(out, "loss_trace.csv"), ["epoch", "loss"],
              enumerate(run.loss_trace))
    with open(os.path.join(out, "run.json"), "w") as fh:
        fh.write(_json_text(run_report(run, args, "x_T_hat.stack")))
    _write_manifest(args, t0, ["x_T_hat.stack", "loss_trace.csv", "run.json"])
    return 0


def cmd_trace(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    if args["runs"] < 1:
        raise ConfigError(f"--runs must be >= 1, got {args['runs']}")
    chain = _build_chain(args)
    D = chain.predictor.dim
    traces = []
    for j in range(args["runs"]):
        seed = args["seed"] + j
        x_T = draw_x_T(seed, D)
        if j and args["eta"] > 0.0 and not args["noise_file"]:
            # Without a noise file each run draws its own noise; the built
            # chain already holds run 0's draw.
            chain = dataclasses.replace(chain, noise=draw_noise_stack(seed, chain.S, D))
        traces.append(_run_mode(args, chain, x_T, args["mode"])[1].residuals)
    os.makedirs(args["out"], exist_ok=True)
    write_trace_csv(os.path.join(args["out"], "trace.csv"), traces)
    _write_manifest(args, t0, ["trace.csv"])
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    if args["S"] is not None:
        # The flag stays in the parser so that manifests holding "S": null
        # replay; a value would be recorded but never run.
        raise ConfigError("bench takes its subsequence lengths from --S-list, not --S")
    try:
        s_values = [int(v) for v in str(args["S_list"]).split(",") if v]
    except ValueError:
        raise ConfigError(
            f"--S-list must be comma-separated integers, got {args['S_list']!r}"
        ) from None
    if not s_values:
        raise ConfigError("--S-list must name at least one subsequence length")
    rows = []
    for S in s_values:
        chain = _build_chain(dict(args, S=S))
        x_T = draw_x_T(args["seed"], chain.predictor.dim)
        # Anderson's default budget depends only on eta: every S records it alike.
        for mode in ("sequential", "deq-anderson"):
            t1 = time.perf_counter()
            _, result = _run_mode(args, chain, x_T, mode)
            wall_ms = (time.perf_counter() - t1) * 1000.0
            rows.append([mode, S, wall_ms, chain.S if result is None else result.iters])
    args["D"] = chain.predictor.dim

    os.makedirs(args["out"], exist_ok=True)
    write_csv(os.path.join(args["out"], "bench.csv"), ["mode", "S", "wall_ms", "iters"],
              ([mode, S, f"{wall:.3f}", iters] for mode, S, wall, iters in rows))
    _write_manifest(args, t0, ["bench.csv"])
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    kind, _, path = args["target"].partition(":")
    if kind != "gaussian" or not path:
        raise ConfigError("--target must be gaussian:params.json")
    samples, _, _ = read_stack(args["samples"])
    mu, var = load_gaussian_params(path)
    moments = sample_moments(samples)
    payload = _json_text({
        "moments": moments.to_dict(),
        "target": {"mu": mu.tolist(), "var": var.tolist()},
        "w2": gaussian_w2(moments.mean, moments.var_diag, mu, var),
    })
    sys.stdout.write(payload)
    if args["out"]:
        os.makedirs(args["out"], exist_ok=True)
        with open(os.path.join(args["out"], "eval.json"), "w") as fh:
            fh.write(payload)
        _write_manifest(args, t0, ["eval.json"])
    return 0


def _fits(action: argparse.Action, value: object) -> bool:
    """Whether a recorded ``value`` is one the flag's parser could produce."""
    if value is None:
        return action.default is None and not action.required
    if isinstance(action, argparse._StoreTrueAction):
        return isinstance(value, bool)
    if action.choices is not None:
        return value in action.choices
    kinds = {int: int, float: (int, float)}.get(action.type, str)
    return isinstance(value, kinds) and not isinstance(value, bool)


def cmd_rerun(ns: argparse.Namespace) -> int:
    with open(ns.manifest) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParseError("manifest must be a JSON object")
    for field in ("command", "args"):
        if field not in manifest:
            raise ParseError(f"manifest missing field '{field}'")
    command = manifest["command"]
    # Any subcommand but rerun itself, whose replay could recurse.
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = {name: p for name, p in sub.choices.items() if name != "rerun"}
    if not isinstance(command, str) or command not in commands:
        raise ParseError(f"manifest names unknown command {command!r}")
    args = manifest["args"]
    if not isinstance(args, dict):
        raise ParseError("manifest field 'args' must be a JSON object")
    actions = {a.dest: a for a in commands[command]._actions if a.dest != "help"}
    expected = actions.keys() | {"command"}
    missing, unknown = sorted(expected - args.keys()), sorted(args.keys() - expected)
    if missing or unknown:
        raise ParseError(
            f"manifest args for '{command}' do not match its flags "
            f"(missing: {missing}, unknown: {unknown})"
        )
    mistyped = sorted(k for k, action in actions.items() if not _fits(action, args[k]))
    if args["command"] != command:
        mistyped.append("command")
    if mistyped:
        raise ParseError(f"manifest args for '{command}' have mistyped values: {mistyped}")
    args = dict(args)
    if ns.out is not None:
        args["out"] = ns.out
    return commands[command].get_default("func")(argparse.Namespace(**args))


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        # Divergence surfaces as exit code 3; the overflow warnings numpy
        # would print on the way there are noise at the CLI level.
        with np.errstate(over="ignore", invalid="ignore"):
            return ns.func(ns)
    except (DivergenceError, NumericDomainError) as exc:
        print(f"parseq: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, InsufficientDataError, OSError) as exc:
        print(f"parseq: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ShapeError) as exc:
        print(f"parseq: usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"parseq: usage error: the sizes asked for do not fit in memory: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
