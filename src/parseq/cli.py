"""Command-line front end.

Subcommands: sample, invert, trace, bench, eval-w2, rerun.  Every file-
writing run drops a manifest.json holding the command, the fully resolved
arguments, versions, output names, and per-phase timings; `rerun` replays
a manifest and must reproduce the primary outputs byte for byte (timings
are the one excluded field).

Exit codes: 0 success, 2 usage/config error, 3 numeric divergence,
4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import csv
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
from .chain import Chain, _rollout
from .invert import InversionConfig, invert, run_report
from .metrics import gaussian_w2, sample_moments
from .predictors import GaussianOptimalPredictor, ZeroPredictor, load_gaussian_params, load_mlp
from .sampling import draw_noise_stack, draw_x_T, solve_stack
from .schedule import identity_subsequence, make_linear_beta_schedule, select_subsequence
from .stackio import read_stack, write_residual_csv, write_stack, write_trace_csv
from .solvers import SolverConfig, default_solver_config, picard_budget


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
                        "triangular solve is exact; 15 for Anderson, or 50 when eta > 0)")
    p.add_argument("--solver-tol", type=float, default=1e-3)
    p.add_argument("--init", choices=["x_T", "zero"], default="x_T",
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
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--stop-loss", type=float, default=0.0)
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
        _solver_config(args, "anderson", 1)
    return args


def _build_chain(args: dict) -> Chain:
    if args["subseq"] is not None and args["S"] is None:
        raise ConfigError("--subseq requires --S")
    if args["D"] < 1:
        raise ConfigError(f"--D must be >= 1, got {args['D']}")
    schedule = make_linear_beta_schedule(args["T"], eta=args["eta"])
    if args["S"] is not None:
        subsequence = select_subsequence(args["T"], args["S"], args["subseq"] or "linear")
    else:
        subsequence = identity_subsequence(args["T"])
    kind, _, path = args["predictor"].partition(":")
    if kind == "zero":
        predictor = ZeroPredictor(args["D"])
    elif kind == "gaussian" and not path:
        predictor = GaussianOptimalPredictor(
            np.zeros(args["D"]), np.ones(args["D"]), schedule
        )
    elif kind == "gaussian":
        mu, var = load_gaussian_params(path)
        predictor = GaussianOptimalPredictor(mu, var, schedule)
    elif kind == "mlp":
        if not path:
            raise ConfigError("mlp predictor needs a weights file: mlp:weights.json")
        predictor = load_mlp(path, t_max=args["T"])
    else:
        raise ConfigError(f"unknown predictor '{args['predictor']}'")
    return Chain(schedule, subsequence, predictor,
                 _load_noise(args, subsequence.S, predictor.dim))


def _solver_config(args: dict, method: str, S: int) -> SolverConfig:
    """The solve the flags ask for on an S-position chain.  Without
    --solver-max-iters each method gets its default budget from ``solvers``."""
    max_iters = args["solver_max_iters"]
    if max_iters is None:
        max_iters = (picard_budget(S) if method == "picard"
                     else default_solver_config(args["eta"]).max_iters)
    return SolverConfig(method, max_iters, args["solver_tol"])


def _load_noise(args: dict, S: int, D: int) -> np.ndarray | None:
    if args.get("noise_file"):
        noise, _, _ = read_stack(args["noise_file"])
        if noise.shape != (S, D):
            raise ShapeError(
                f"noise file holds shape {noise.shape}, chain needs ({S}, {D})"
            )
        return noise
    return draw_noise_stack(args["seed"], S, D) if args["eta"] > 0.0 else None


def _write_manifest(out_dir: str, command: str, args: dict,
                    outputs: list[str], timings_ms: dict,
                    solver: dict | None = None) -> None:
    manifest = {
        "command": command,
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
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_sample(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    chain = _build_chain(args)
    x_T = draw_x_T(args["seed"], chain.predictor.dim)
    os.makedirs(args["out"], exist_ok=True)
    outputs = ["x0.stack"]
    timings = {}

    t1 = time.perf_counter()
    solver = None
    if args["mode"] == "sequential":
        states = _rollout(chain, x_T)
        residuals = None
    else:
        method = "picard" if args["mode"] == "deq-picard" else "anderson"
        cfg = _solver_config(args, method, chain.S)
        args["solver_max_iters"] = cfg.max_iters
        result = solve_stack(chain, x_T, cfg, args["init"])
        states = result.states
        residuals = result.residuals
        # An unconverged solve still exits 0; this record is how a caller
        # tells it apart from a converged one.
        solver = {
            "converged": result.converged,
            "iters": result.iters,
            "final_residual": residuals[-1],
            "picard_fallbacks": result.picard_fallbacks,
        }
    timings["solve"] = (time.perf_counter() - t1) * 1000.0

    write_stack(os.path.join(args["out"], "x0.stack"), states[-1], args["T"], args["eta"])
    if args["save_stack"]:
        write_stack(os.path.join(args["out"], "stack.stack"), states, args["T"], args["eta"])
        outputs.append("stack.stack")
    if residuals is not None:
        write_residual_csv(os.path.join(args["out"], "residuals.csv"), residuals)
        outputs.append("residuals.csv")
    timings["total"] = (time.perf_counter() - t0) * 1000.0
    _write_manifest(args["out"], "sample", args, outputs, timings, solver)
    return 0


def cmd_invert(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    chain = _build_chain(args)
    target_states, _, _ = read_stack(args["target"])
    if len(target_states) == 0:
        raise ParseError(f"target stack {args['target']} holds no rows")
    target = target_states[-1]
    if target.size != chain.predictor.dim:
        raise ShapeError(
            f"target dimension {target.size} != predictor dimension {chain.predictor.dim}"
        )
    # Unlike the library's default, a deq inversion here still solves with
    # Anderson: perfbench's traced run rebuilds this path bit for bit.  Naive
    # never solves: it ignores the config and records the budget as given.
    solver = _solver_config(args, "anderson", chain.S)
    if args["method"] == "naive":
        gradient_mode = "rollout"
    else:
        gradient_mode = "exact_ift" if args["grad"] == "exact" else "phantom"
        args["solver_max_iters"] = solver.max_iters
    cfg = InversionConfig(
        epochs=args["epochs"],
        lr=args["lr"],
        gradient_mode=gradient_mode,
        tau=args["tau"],
        solver=solver,
        stop_loss=args["stop_loss"],
        seed=args["seed"],
        init=args["init"],
    )
    run = invert(target, cfg, chain)

    os.makedirs(args["out"], exist_ok=True)
    write_stack(os.path.join(args["out"], "x_T_hat.stack"), run.x_T_hat,
                args["T"], args["eta"])
    with open(os.path.join(args["out"], "loss_trace.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(run.loss_trace):
            writer.writerow([epoch, repr(float(loss))])
    report = run_report(run, args, "x_T_hat.stack")
    with open(os.path.join(args["out"], "run.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    timings = {"total": (time.perf_counter() - t0) * 1000.0}
    _write_manifest(args["out"], "invert", args,
                    ["x_T_hat.stack", "loss_trace.csv", "run.json"], timings)
    return 0


def cmd_trace(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
    if args["runs"] < 1:
        raise ConfigError(f"--runs must be >= 1, got {args['runs']}")
    chain = _build_chain(args)
    D = chain.predictor.dim
    method = "picard" if args["mode"] == "deq-picard" else "anderson"
    solver_cfg = _solver_config(args, method, chain.S)
    args["solver_max_iters"] = solver_cfg.max_iters
    traces = []
    for j in range(args["runs"]):
        seed = args["seed"] + j
        x_T = draw_x_T(seed, D)
        if j and args["eta"] > 0.0 and not args["noise_file"]:
            # Without a noise file each run draws its own noise; the built
            # chain already holds run 0's draw.
            chain = dataclasses.replace(chain, noise=draw_noise_stack(seed, chain.S, D))
        traces.append(solve_stack(chain, x_T, solver_cfg, args["init"]).residuals)
    os.makedirs(args["out"], exist_ok=True)
    write_trace_csv(os.path.join(args["out"], "trace.csv"), traces)
    timings = {"total": (time.perf_counter() - t0) * 1000.0}
    _write_manifest(args["out"], "trace", args, ["trace.csv"], timings)
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    args = _resolved_args(ns)
    t0 = time.perf_counter()
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
        run_args = dict(args, S=S, subseq=args["subseq"] or "linear")
        chain = _build_chain(run_args)
        x_T = draw_x_T(args["seed"], chain.predictor.dim)

        t1 = time.perf_counter()
        _rollout(chain, x_T)
        rows.append(["sequential", S, (time.perf_counter() - t1) * 1000.0, chain.S])

        t1 = time.perf_counter()
        cfg = _solver_config(run_args, "anderson", chain.S)
        result = solve_stack(chain, x_T, cfg, args["init"])
        rows.append(["deq-anderson", S, (time.perf_counter() - t1) * 1000.0, result.iters])
    args["solver_max_iters"] = cfg.max_iters  # Anderson's default depends only on eta

    os.makedirs(args["out"], exist_ok=True)
    with open(os.path.join(args["out"], "bench.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "S", "wall_ms", "iters"])
        for mode, S, wall, iters in rows:
            writer.writerow([mode, S, f"{wall:.3f}", iters])
    timings = {"total": (time.perf_counter() - t0) * 1000.0}
    _write_manifest(args["out"], "bench", args, ["bench.csv"], timings)
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
    if moments.mean.shape != mu.shape:
        raise ShapeError(
            f"samples have dimension {moments.mean.size}, target has {mu.size}"
        )
    result = {
        "moments": moments.to_dict(),
        "target": {"mu": mu.tolist(), "var": var.tolist()},
        "w2": gaussian_w2(moments.mean, moments.var_diag, mu, var),
    }
    payload = json.dumps(result, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(payload)
    if args["out"]:
        os.makedirs(args["out"], exist_ok=True)
        with open(os.path.join(args["out"], "eval.json"), "w") as fh:
            fh.write(payload)
        timings = {"total": (time.perf_counter() - t0) * 1000.0}
        _write_manifest(args["out"], "eval-w2", args, ["eval.json"], timings)
    return 0


_COMMANDS = {
    "sample": cmd_sample,
    "invert": cmd_invert,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "eval-w2": cmd_eval,
}


def _command_actions(command: str) -> dict[str, argparse.Action]:
    """The flags of ``command`` by the argument name a manifest records."""
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}


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
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ParseError(f"manifest names unknown command {command!r}")
    args = manifest["args"]
    if not isinstance(args, dict):
        raise ParseError("manifest field 'args' must be a JSON object")
    actions = _command_actions(command)
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
    return _COMMANDS[command](argparse.Namespace(**args))


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


if __name__ == "__main__":
    raise SystemExit(main())
