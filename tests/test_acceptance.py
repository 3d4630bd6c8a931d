"""Top-level acceptance gate.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Criteria with a
stated runtime budget assert the measured wall clock as well.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from parseq.chain import Chain, h_tilde, sequential_rollout, solve_stack
from parseq.gradients import (
    InversionConfig,
    central_difference_grad,
    exact_ift_grad,
    invert,
    phantom_grad,
    rollout_backprop_grad,
    write_gradcheck_report,
)
from parseq.predictors import GaussianOptimalPredictor, random_mlp, save_mlp
from parseq.schedule import make_linear_beta_schedule, select_subsequence
from parseq.solvers import HISTORY_M, RIDGE_LAMBDA, SolverConfig
from parseq.rng import draw_noise_stack, draw_x_T, stream

from cli_runner import run_cli


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {verdict}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def chain_for(S, D, eta, kind, seed):
    T = 100
    schedule = make_linear_beta_schedule(T, eta=eta)
    subsequence = select_subsequence(T, S, "linear")
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        predictor = GaussianOptimalPredictor(
            rng.normal(size=D), rng.uniform(0.3, 2.0, size=D), schedule
        )
    else:
        predictor = random_mlp(D, [16], rng, t_max=T)
    return schedule, subsequence, predictor


GRID = [
    (S, D, eta, kind)
    for S in (1, 5, 25, 100)
    for D in (1, 8, 64)
    for eta in (0.0, 0.5, 1.0)
    for kind in ("gaussian", "mlp")
]


def test_criterion_1_fixed_point_matches_rollout():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, (S, D, eta, kind) in enumerate(GRID):
        schedule, subsequence, predictor = chain_for(S, D, eta, kind, seed)
        x_T = draw_x_T(seed, D)
        noise = draw_noise_stack(seed, S, D) if eta > 0 else None
        rollout = sequential_rollout(x_T, schedule, subsequence, predictor, noise)
        cfg = SolverConfig(method="picard", max_iters=S + 2, tol=1e-12)
        result = solve_stack(Chain(schedule, subsequence, predictor, noise), x_T, cfg)
        worst = max(worst, float(np.max(np.abs(result.states - rollout))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "fixed point matches sequential rollout over the full grid",
        worst <= 1e-6 and elapsed < 60.0,
        f"{len(GRID)} configs, max abs diff {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_picard_finite_convergence():
    t0 = time.perf_counter()
    worst_res, worst_iters_margin = 0.0, 0
    for seed, (S, D, eta, kind) in enumerate(GRID):
        schedule, subsequence, predictor = chain_for(S, D, eta, kind, seed)
        x_T = draw_x_T(seed, D)
        noise = draw_noise_stack(seed, S, D) if eta > 0 else None
        init = 1e3 * np.random.default_rng(1000 + seed).standard_normal((S, D))
        cfg = SolverConfig(method="picard", max_iters=S, tol=0.0)
        result = solve_stack(Chain(schedule, subsequence, predictor, noise), x_T, cfg, init)
        res_norm = float(np.linalg.norm(
            h_tilde(result.states, x_T, schedule, subsequence, predictor, noise) - result.states
        ))
        worst_res = max(worst_res, res_norm)
        worst_iters_margin = max(worst_iters_margin, result.iters - S)
    elapsed = time.perf_counter() - t0
    report(
        2,
        "Picard reaches residual <= 1e-8 within S iterations from junk inits",
        worst_res <= 1e-8 and worst_iters_margin <= 0,
        f"worst post-hoc residual {worst_res:.3e}, {elapsed:.1f}s",
    )


def test_criterion_3_anderson_budget():
    # Anderson runs with its fixed window of 5 and relative ridge of 1e-4.
    assert (HISTORY_M, RIDGE_LAMBDA) == (5, 1e-4)
    t0 = time.perf_counter()
    iters_det, iters_sto = [], []
    for seed in range(5):
        for eta, budget, sink in ((0.0, 15, iters_det), (1.0, 50, iters_sto)):
            schedule = make_linear_beta_schedule(200, eta=eta)
            subsequence = select_subsequence(200, 100, "linear")
            rng = np.random.default_rng(seed)
            predictor = GaussianOptimalPredictor(
                rng.normal(size=8), rng.uniform(0.3, 2.0, size=8), schedule
            )
            x_T = draw_x_T(seed, 8)
            noise = draw_noise_stack(seed, 100, 8) if eta > 0 else None
            cfg = SolverConfig(method="anderson", max_iters=budget, tol=1e-3)
            result = solve_stack(Chain(schedule, subsequence, predictor, noise), x_T, cfg)
            assert result.converged and result.residuals[-1] <= 1e-3
            sink.append(result.iters)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "Anderson hits 1e-3 within 15 iterations (50 at eta=1) on S=100 chains",
        max(iters_det) <= 15 and max(iters_sto) <= 50 and elapsed < 30.0,
        f"deterministic {iters_det}, eta=1 {iters_sto}, {elapsed:.1f}s",
    )


def test_criterion_4_gradient_checks(tmp_path):
    t0 = time.perf_counter()
    rows = []

    def measured(name, S, D, got, want, rtol):
        scale = max(np.max(np.abs(want)), 1e-12)
        err = float(np.max(np.abs(got - want)) / scale)
        rows.append({"mode": name, "S": S, "D": D,
                     "rtol_measured": err, "pass": err <= rtol})
        return err <= rtol

    ok = True
    for S, D, seed in ((1, 1, 0), (5, 4, 1), (10, 8, 2)):
        T = 60
        schedule = make_linear_beta_schedule(T)
        subsequence = select_subsequence(T, S, "linear")
        predictor = random_mlp(D, [12], np.random.default_rng(seed), t_max=T)
        x_T = draw_x_T(seed, D)
        target = stream(seed, "target").standard_normal(D)
        cfg = SolverConfig(method="picard", max_iters=S + 2, tol=1e-13)
        chain = Chain(schedule, subsequence, predictor)
        stack = solve_stack(chain, x_T, cfg).states

        tau = 0.1
        _, g_phantom = phantom_grad(chain, stack, x_T, target, tau=tau)

        def damped_loss(z):
            # solver output held constant; only the explicit x_T leaf moves
            g = h_tilde(stack, z, schedule, subsequence, predictor)
            moved = tau * g + (1.0 - tau) * stack
            return float(np.sum((moved[-1] - target) ** 2))

        fd_phantom = central_difference_grad(damped_loss, x_T)
        ok &= measured("phantom_vs_fd", S, D, g_phantom, fd_phantom, 1e-4)

        def rollout_loss(z):
            s = sequential_rollout(z, schedule, subsequence, predictor)
            return float(np.sum((s[-1] - target) ** 2))

        fd_full = central_difference_grad(rollout_loss, x_T)
        _, g_exact = exact_ift_grad(chain, stack, x_T, target)
        _, g_rollout = rollout_backprop_grad(
            x_T, target, schedule, subsequence, predictor
        )
        ok &= measured("exact_ift_vs_fd", S, D, g_exact, fd_full, 1e-3)
        ok &= measured("rollout_vs_fd", S, D, g_rollout, fd_full, 1e-3)
        ok &= measured("exact_ift_vs_rollout", S, D, g_exact, g_rollout, 1e-6)

    path = tmp_path / "gradcheck.csv"
    write_gradcheck_report(path, rows)
    ok &= path.read_text().startswith("mode,S,D,rtol_measured,pass")
    elapsed = time.perf_counter() - t0
    report(
        4,
        "phantom/exact/rollout gradients agree with finite differences",
        bool(ok) and elapsed < 60.0,
        f"{len(rows)} checks, report at {path.name}, {elapsed:.1f}s",
    )


def test_criterion_5_eta_zero_collapse():
    S, D, seed = 10, 8, 0
    schedule, subsequence, predictor = chain_for(S, D, 0.0, "mlp", seed)
    x_T = draw_x_T(seed, D)
    zero_noise = np.zeros((S, D))
    states = 0.3 * np.random.default_rng(7).standard_normal((S, D))

    map_ok = np.array_equal(
        h_tilde(states, x_T, schedule, subsequence, predictor, None),
        h_tilde(states, x_T, schedule, subsequence, predictor, zero_noise),
    )

    cfg = SolverConfig(method="anderson", max_iters=30, tol=1e-10)
    res_none = solve_stack(Chain(schedule, subsequence, predictor), x_T, cfg)
    res_zero = solve_stack(Chain(schedule, subsequence, predictor, zero_noise), x_T, cfg)
    solver_ok = np.array_equal(res_none.states, res_zero.states) and (
        res_none.residuals == res_zero.residuals
    )

    target = sequential_rollout(x_T, schedule, subsequence, predictor)[-1]
    icfg = InversionConfig(epochs=40, lr=0.05, seed=3,
                           solver=SolverConfig(method="picard", max_iters=S + 2, tol=1e-12))
    pinned = draw_noise_stack(icfg.seed, S, D)
    run_det = invert(target, icfg, Chain(schedule, subsequence, predictor))
    run_sto = invert(target, icfg, Chain(schedule, subsequence, predictor, pinned))
    invert_ok = np.array_equal(run_det.x_T_hat, run_sto.x_T_hat) and (
        run_det.loss_trace == run_sto.loss_trace
    )

    report(
        5,
        "eta=0 stochastic paths are bit-identical to deterministic ones",
        map_ok and solver_ok and invert_ok,
        f"map {map_ok}, solver {solver_ok}, inversion {invert_ok}",
    )


def test_criterion_6_self_inversion():
    t0 = time.perf_counter()
    T, S, D = 100, 10, 8
    schedule = make_linear_beta_schedule(T)
    subsequence = select_subsequence(T, S, "linear")
    predictor = GaussianOptimalPredictor(np.zeros(D), np.ones(D), schedule)
    details = []
    ok = True
    # Adam at lr 0.01 moves each coordinate at most lr per epoch, so 400
    # epochs only close initial gaps below ~1.9; these pairs sit safely
    # inside that reach (269 and 237 epochs measured).
    for seed, truth_seed in ((0, 2000), (7, 2007)):
        x_T_true = draw_x_T(truth_seed, D)
        target = sequential_rollout(x_T_true, schedule, subsequence, predictor)[-1]
        cfg = InversionConfig(
            epochs=400, lr=0.01, tau=0.1, stop_loss=1e-3, seed=seed,
            solver=SolverConfig(method="picard", max_iters=S + 2, tol=1e-12),
        )
        chain = Chain(schedule, subsequence, predictor)
        run_deq = invert(target, cfg, chain)
        run_naive = invert(target, dataclasses.replace(cfg, gradient_mode="naive"), chain)
        ok &= run_deq.best_loss <= 1e-3 and run_deq.epochs_run <= 400
        ok &= run_naive.epochs_run >= run_deq.epochs_run
        details.append(
            f"seed {seed}: deq {run_deq.epochs_run} epochs "
            f"(loss {run_deq.best_loss:.2e}), naive {run_naive.epochs_run}"
        )
    elapsed = time.perf_counter() - t0
    report(
        6,
        "self-inversion recovers known x_T within 400 epochs, naive never faster",
        bool(ok) and elapsed < 300.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_7_x_T_init_beats_zero_init():
    T, S, D = 100, 50, 4
    iters = {"x_T": [], "zero": []}
    for seed in range(5):
        schedule = make_linear_beta_schedule(T)
        subsequence = select_subsequence(T, S, "linear")
        rng = np.random.default_rng(seed)
        predictor = GaussianOptimalPredictor(
            rng.normal(size=D), rng.uniform(0.3, 2.0, size=D), schedule
        )
        x_T = draw_x_T(seed, D)
        for kind in ("x_T", "zero"):
            cfg = SolverConfig(method="picard", max_iters=S + 2, tol=1e-8)
            res = solve_stack(Chain(schedule, subsequence, predictor), x_T, cfg, kind)
            assert res.converged
            iters[kind].append(res.iters)
    mean_x_T = float(np.mean(iters["x_T"]))
    mean_zero = float(np.mean(iters["zero"]))
    report(
        7,
        "x_T initialization converges in <= iterations of zero init (5-seed mean)",
        mean_x_T <= mean_zero,
        f"x_T mean {mean_x_T:.1f} vs zero mean {mean_zero:.1f}",
    )


def manifest_without_timings(path):
    payload = json.loads(path.read_text())
    payload.pop("timings_ms")
    return payload


def test_criterion_8_thread_and_repeat_determinism(tmp_path):
    weights = tmp_path / "mlp.json"
    save_mlp(weights, random_mlp(6, [24], np.random.default_rng(2), t_max=40))
    runs = {}
    for threads in (1, 2, 8):
        for attempt in (0, 1):
            out = tmp_path / f"t{threads}-a{attempt}"
            res = run_cli(
                "sample", "--mode", "deq-anderson",
                "--predictor", f"mlp:{weights}", "--T", 40, "--S", 20,
                "--eta", 1, "--seed", 9, "--threads", threads, "--out", out,
            )
            assert res.returncode == 0
            runs[(threads, attempt)] = (
                (out / "x0.stack").read_bytes(),
                (out / "residuals.csv").read_bytes(),
                manifest_without_timings(out / "manifest.json"),
            )
    baseline_files = runs[(1, 0)][:2]
    files_ok = all(v[:2] == baseline_files for v in runs.values())
    baseline_manifest = dict(runs[(1, 0)][2], args=None)
    manifests_ok = all(
        dict(v[2], args=None) == baseline_manifest for v in runs.values()
    )
    report(
        8,
        "outputs bit-identical across repeats and --threads {1,2,8}",
        files_ok and manifests_ok,
        f"{len(runs)} runs compared",
    )


def test_criterion_9_bench_report(tmp_path):
    weights = tmp_path / "mlp.json"
    save_mlp(weights, random_mlp(4, [16], np.random.default_rng(0), t_max=60))
    out = tmp_path / "bench"
    res = run_cli(
        "bench", "--predictor", f"mlp:{weights}", "--T", 60,
        "--S-list", "5,25,50", "--out", out,
    )
    ok = res.returncode == 0
    table = (out / "bench.csv").read_text().strip().splitlines()
    header, body = table[0], table[1:]
    ok &= header == "mode,S,wall_ms,iters"
    ok &= [tuple(line.split(",")[:2]) for line in body] == [
        (mode, S) for S in ("5", "25", "50") for mode in ("sequential", "deq-anderson")
    ]
    for line in body:
        mode, S, wall_ms, iters = line.split(",")
        ok &= float(wall_ms) > 0.0
        ok &= int(iters) <= (15 if mode == "deq-anderson" else int(S))
    report(
        9,
        "bench report covers every sequential/parallel combination",
        bool(ok),
        f"{len(body)} rows",
    )
    print("  " + "\n  ".join(table))
