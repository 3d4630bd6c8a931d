import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parseq import (
    Chain,
    ConfigError,
    DivergenceError,
    FixedPointResult,
    GaussianOptimalPredictor,
    SolverConfig,
    ZeroPredictor,
    default_solver_config,
    h_tilde,
    init_stack,
    make_linear_beta_schedule,
    random_mlp,
    select_subsequence,
    sequential_rollout,
    solve,
    solve_stack,
)
from parseq.chain import _rollout
from parseq.sampling import draw_noise_stack, draw_x_T
from parseq import solvers
from parseq.solvers import HISTORY_M, RIDGE_LAMBDA, _anderson_gamma, _residual_norm, picard_budget


def affine_map(rho: float, dim: int, seed: int):
    """x -> Ax + b with spectral radius exactly rho."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    A *= rho / max(abs(np.linalg.eigvals(A)))
    b = rng.standard_normal(dim)
    fixed = np.linalg.solve(np.eye(dim) - A, b)
    return (lambda x: A @ x + b), fixed


def _overflowing(cfg):
    # Residuals near 1e200 overflow the Gram matrix: every weight solve past
    # the first is non-finite and falls back to a plain step.
    return (lambda x: 0.5 * x + 1e200), np.zeros((3, 1)), cfg


def _translation(cfg):
    # x + c: the residual never changes, so every residual difference is
    # zero and only the ridge keeps the weight solve regular.
    return (lambda x: x + np.array([[1.0], [-0.5], [0.25]])), np.zeros((3, 1)), cfg


_overflow_warnings = pytest.mark.filterwarnings("ignore:overflow encountered",
                                                "ignore:invalid value")


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.method == "anderson"
        assert cfg.max_iters == 15
        assert cfg.tol == 1e-3
        assert [f.name for f in dataclasses.fields(cfg)] == ["method", "max_iters", "tol"]
        assert (HISTORY_M, RIDGE_LAMBDA) == (5, 1e-4)

    def test_eta_dependent_budget(self):
        assert default_solver_config(0.0).max_iters == 15
        assert default_solver_config(0.5).max_iters == 50
        assert picard_budget(7) == 8  # the S-th sweep is exact, the next confirms it

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="broyden"),
            dict(max_iters=0),
            dict(tol=-1.0),
            dict(tol=float("nan")),
            dict(tol=float("inf")),
            dict(max_iters=-3),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("field", ["history_m", "ridge_lambda"])
    def test_window_and_ridge_are_not_settings(self, field):
        # Anderson runs at HISTORY_M and RIDGE_LAMBDA; the config cannot
        # carry another value for either.
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: 1})


class TestPicard:
    def test_constant_map_converges_first_iteration(self):
        target = np.array([1.0, 2.0])
        res = solve(lambda x: target, np.zeros(2), SolverConfig(method="picard"))
        assert res.converged
        assert res.iters == 2  # residual |target| first, then 0
        np.testing.assert_array_equal(res.states, target)

    def test_zero_predictor_chain_single_row(self):
        sched = make_linear_beta_schedule(1, 0.02, 0.02)
        res = solve_stack(
            Chain(sched, None, ZeroPredictor(1)),
            np.array([1.0]),
            cfg=SolverConfig(method="picard", max_iters=5, tol=1e-12),
        )
        assert res.converged
        np.testing.assert_allclose(res.states[0], 1.0 / np.sqrt(0.98), rtol=1e-14)

    def test_s_budget_reaches_rollout(self):
        # tol=0 so nothing exits early: after exactly S sweeps the iterate
        # must already equal the sequential rollout.
        sched = make_linear_beta_schedule(50, 1e-3, 0.05)
        sub = select_subsequence(50, 5, "linear")
        rng = np.random.default_rng(0)
        pred = random_mlp(3, [8], rng, t_max=50)
        x_T = rng.standard_normal(3)
        truth = sequential_rollout(x_T, sched, sub, pred)
        res = solve_stack(
            Chain(sched, sub, pred),
            x_T,
            cfg=SolverConfig(method="picard", max_iters=5, tol=0.0),
        )
        assert not res.converged  # tol 0 is unreachable in the trace
        np.testing.assert_allclose(res.states, truth, rtol=0, atol=1e-8)

    def test_insufficient_budget_reports_not_converged(self):
        fn, _ = affine_map(0.9, 4, 1)
        res = solve(fn, np.zeros(4), SolverConfig(method="picard", max_iters=3, tol=1e-12))
        assert not res.converged
        assert res.iters == 3
        assert len(res.residuals) == 3

    @given(seed=st.integers(min_value=0, max_value=50), S=st.sampled_from([1, 5, 25]))
    @settings(max_examples=20, deadline=None)
    def test_finite_termination_from_random_inits(self, seed, S):
        sched = make_linear_beta_schedule(100, 1e-4, 0.03)
        sub = select_subsequence(100, S, "linear")
        rng = np.random.default_rng(seed)
        pred = GaussianOptimalPredictor(
            rng.normal(size=2), np.abs(rng.normal(size=2)) + 0.2, sched
        )
        x_T = rng.standard_normal(2)
        init = rng.standard_normal((S, 2)) * 10
        res = solve_stack(
            Chain(sched, sub, pred),
            x_T,
            init=init,
            cfg=SolverConfig(method="picard", max_iters=S, tol=1e-8),
        )
        # After at most S sweeps the returned iterate is the fixed point:
        # measuring its residual explicitly costs one more evaluation.
        out = h_tilde(res.states, x_T, sched, sub, pred)
        assert float(np.linalg.norm(out - res.states)) <= 1e-8

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises(self):
        with pytest.raises(DivergenceError):
            solve(
                lambda x: x**2,
                np.ones(2) * 1e200,
                SolverConfig(method="picard", max_iters=5, tol=0.0),
            )

    def test_init_not_mutated(self):
        fn, _ = affine_map(0.5, 3, 2)
        init = np.ones(3)
        solve(fn, init, SolverConfig(method="picard", max_iters=10, tol=1e-6))
        np.testing.assert_array_equal(init, np.ones(3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residuals_non_increasing_past_half_depth(self, seed):
        # Empirical structural property of the triangular chain map: the
        # Picard residual trace stops growing by iteration S/2.
        S = 24
        sched = make_linear_beta_schedule(120, 1e-4, 0.02)
        sub = select_subsequence(120, S, "linear")
        rng = np.random.default_rng(seed)
        pred = random_mlp(3, [10], rng, t_max=120)
        res = solve_stack(
            Chain(sched, sub, pred),
            rng.standard_normal(3),
            init=np.asarray(rng.standard_normal((S, 3)) * 5),
            cfg=SolverConfig(method="picard", max_iters=S + 1, tol=0.0),
        )
        tail = res.residuals[S // 2 :]
        assert all(a >= b for a, b in zip(tail, tail[1:]))


class TestAnderson:
    def test_constant_map(self):
        target = np.array([[1.0, 2.0]])
        res = solve(lambda x: target, np.zeros((1, 2)), SolverConfig())
        assert res.converged
        np.testing.assert_array_equal(res.states, target)

    @pytest.mark.parametrize("seed", [1, 3, 6])
    def test_beats_picard_on_slow_affine_map(self, seed):
        # m=5 history spans the D=4 affine space and the solve is
        # essentially exact.
        fn, fixed = affine_map(0.9, 4, seed)
        cfg = SolverConfig(max_iters=400, tol=1e-10)
        cfg_p = SolverConfig(method="picard", max_iters=400, tol=1e-10)
        res_a = solve(fn, np.zeros(4), cfg)
        res_p = solve(fn, np.zeros(4), cfg_p)
        assert res_a.converged and res_p.converged
        assert res_a.iters < res_p.iters / 10
        np.testing.assert_allclose(res_a.states, fixed, rtol=0, atol=1e-8)

    def test_matches_picard_fixed_point_on_chain(self):
        sched = make_linear_beta_schedule(100, 1e-4, 0.03)
        sub = select_subsequence(100, 25, "linear")
        rng = np.random.default_rng(4)
        pred = GaussianOptimalPredictor(
            rng.normal(size=4), np.abs(rng.normal(size=4)) + 0.3, sched
        )
        x_T = rng.standard_normal(4)
        chain = Chain(sched, sub, pred)
        res_a = solve_stack(chain, x_T, cfg=SolverConfig(max_iters=60, tol=1e-9))
        res_p = solve_stack(chain, x_T, cfg=SolverConfig(method="picard", max_iters=26, tol=1e-12))
        assert res_a.converged
        np.testing.assert_allclose(res_a.states, res_p.states, rtol=0, atol=1e-6)

    def test_stochastic_chain_default_budget(self):
        sched = make_linear_beta_schedule(100, 1e-4, 0.03, eta=1.0)
        sub = select_subsequence(100, 50, "linear")
        rng = np.random.default_rng(5)
        pred = GaussianOptimalPredictor(np.zeros(3), np.ones(3), sched)
        noise = rng.standard_normal((50, 3))
        res = solve_stack(
            Chain(sched, sub, pred, noise), rng.standard_normal(3), default_solver_config(1.0)
        )
        assert res.converged
        assert res.iters <= 50

    @_overflow_warnings
    def test_non_finite_weight_solve_falls_back(self):
        # Residuals near 1e200 overflow the window's Gram matrix, so every
        # weight solve past the first is non-finite and falls back to a
        # plain step: the iterates are Picard's.  Exhausting the budget must
        # return the last map output, not the unmeasured extrapolation, and
        # the last iteration makes no weight solve: 4 fallbacks, not 5.
        fn, init, cfg = _overflowing(SolverConfig(max_iters=6, tol=1e-12))
        res = solve(fn, init, cfg)
        assert (res.converged, res.iters, res.picard_fallbacks) == (False, 6, 4)
        ref = solve(fn, init, dataclasses.replace(cfg, method="picard"))
        assert res.states.tobytes() == ref.states.tobytes()
        # Each residual's squares overflow (its entries reach 1e200), yet the
        # residual vectors are finite, and so is every recorded norm.
        for result in (res, ref):
            assert np.isfinite(result.residuals).all()
            assert result.residuals[0] == pytest.approx(np.sqrt(3.0) * 1e200)

    def test_last_iteration_makes_no_weight_solve(self, monkeypatch):
        # A weight solve on the budget's last iteration could only make an
        # iterate that is never returned: a mix that overflows there must
        # not turn finite returned states into a DivergenceError.
        fn, _ = affine_map(0.9, 3, 4)
        cfg = SolverConfig(max_iters=4, tol=1e-12)
        ref = solve(fn, np.ones(3), cfg)
        calls = []

        def blow_up_on_the_last(gram, lam):
            calls.append(len(gram))
            gamma = _anderson_gamma(gram, lam)
            return gamma if len(calls) < cfg.max_iters else np.full(len(gram), 1e308)

        monkeypatch.setattr(solvers, "_anderson_gamma", blow_up_on_the_last)
        res = solve(fn, np.ones(3), cfg)
        assert calls == [1, 2, 3]
        assert not res.converged and np.isfinite(res.states).all()
        assert res.states.tobytes() == ref.states.tobytes()
        assert res.residuals == ref.residuals

    def test_non_finite_extrapolation_is_divergence(self, monkeypatch):
        # Finite weights that mix finite map outputs past the float range:
        # the overflowing iterate is refused before the map ever sees it.
        monkeypatch.setattr(solvers, "_anderson_gamma", lambda gram, lam: np.full(len(gram), 1e308))
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError, match=r"^non-finite extrapolation at solver iteration 0$"):
            solve(lambda x: 0.5 * x + 10.0, np.ones(3), SolverConfig(max_iters=4, tol=1e-12))

    def test_first_step_is_picard(self):
        # The first step's window holds one row, whose only weight is 1, and
        # an exhausted budget returns the last map output: on a budget of two
        # the iterates are Picard's, bit for bit.
        fn, _ = affine_map(0.9, 3, 4)
        cfg = SolverConfig(max_iters=2, tol=1e-12)
        res = solve(fn, np.ones(3), cfg)
        ref = solve(fn, np.ones(3), dataclasses.replace(cfg, method="picard"))
        assert res.states.tobytes() == ref.states.tobytes()
        assert res.residuals == ref.residuals

    def test_init_not_mutated(self):
        fn, _ = affine_map(0.5, 3, 8)
        init = np.ones(3)
        solve(fn, init, SolverConfig(max_iters=10, tol=1e-6))
        np.testing.assert_array_equal(init, np.ones(3))

    def test_result_invariants(self):
        fn, _ = affine_map(0.6, 3, 6)
        cfg = SolverConfig(max_iters=40, tol=1e-9)
        res = solve(fn, np.zeros(3), cfg)
        assert isinstance(res, FixedPointResult)
        assert res.iters == len(res.residuals) <= cfg.max_iters
        assert res.converged
        assert res.residuals[-1] <= cfg.tol
        assert all(r >= 0 for r in res.residuals)


def _kkt_gamma(F, lam):
    """The weights from the KKT system of min ||gamma F||^2 + s ||gamma||^2
    subject to sum(gamma) = 1, with s = lam ||F[-1]||^2."""
    k = len(F)
    s = lam * (F[-1] @ F[-1])
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * (F @ F.T + s * np.eye(k))
    kkt[:k, k] = kkt[k, :k] = 1.0
    return np.linalg.solve(kkt, np.eye(k + 1)[k])[:k]


@pytest.mark.parametrize("lam", [0.0, 1e-8, 1e-4, 1.0, 2.5])
def test_anderson_gamma_matches_the_direct_ridge_solve(lam):
    # The Gram-entry ridge system must give the weights of the constrained
    # problem solved directly, on windows of every size up to 17 residuals
    # and of residual scales far from 1.
    rng = np.random.default_rng(8)
    for k in range(1, 18):
        for scale in (1e-6, 1.0, 1e6):
            F = scale * rng.standard_normal((k, 40))
            got = _anderson_gamma(F @ F.T, lam)
            if k == 1:
                assert got.tolist() == [1.0]
                continue
            assert got.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(got, _kkt_gamma(F, lam), rtol=1e-7, atol=1e-9)


def _reference_anderson_gamma(gram, lam):
    """The weight solve as written before it was built in place with
    Python-float scalars, kept as the bitwise reference for it."""
    k = gram.shape[0]
    if k == 1:
        return np.ones(1)
    c = gram[:-1, -1]
    d = gram[-1, -1]
    s = lam * d
    A = gram[:-1, :-1] - c - c[:, None] + (d + s)
    A.flat[::k] += s
    try:
        delta = np.linalg.solve(A, (d + s) - c)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(delta).all():
        return None
    gamma = np.empty(k)
    gamma[:-1] = delta
    gamma[-1] = 1.0 - delta.sum()
    return gamma


@_overflow_warnings
def test_anderson_gamma_keeps_the_reference_bits():
    # Random windows of every size the solver uses, over sixteen decades of
    # residual scale, plus windows whose solve fails (a singular system, a
    # NaN or overflowing Gram): the same bytes and the same Nones.
    rng = np.random.default_rng(10)
    windows = []
    for k in range(1, 6):
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for _ in range(4):
                F = scale * rng.standard_normal((k, 30))
                windows += [(F @ F.T, lam) for lam in (0.0, RIDGE_LAMBDA, 1.0)]
        repeated = np.ones((k, 30))
        windows.append((repeated @ repeated.T, 0.0))  # singular when k > 1
        nan = np.eye(k)
        nan[0, 0] = np.nan
        windows.append((nan, RIDGE_LAMBDA))
        windows.append((np.full((k, k), 1e308) + 1e307 * np.eye(k), RIDGE_LAMBDA))
    nones = 0
    for gram, lam in windows:
        ref = _reference_anderson_gamma(gram.copy(), lam)
        got = _anderson_gamma(gram.copy(), lam)
        assert (got is None) == (ref is None)
        if ref is None:
            nones += 1
        else:
            assert got.tobytes() == ref.tobytes()
    assert nones >= 8


@_overflow_warnings
def test_residual_norm_rescales_only_an_overflowing_norm():
    rng = np.random.default_rng(9)
    for scale in (1e-300, 1e-6, 1.0, 1e6, 1e150):
        f = scale * rng.standard_normal(50)
        assert _residual_norm(f) == float(np.linalg.norm(f))  # same bits
    for f in (np.array([1.0, np.nan]), np.array([np.nan, np.inf]), np.zeros(7),
              np.full(7, -0.0), np.array([-0.0]), np.zeros(0)):
        got = np.float64(_residual_norm(f))
        assert got.tobytes() == np.float64(np.linalg.norm(f)).tobytes()
    f = 1e200 * rng.standard_normal(50)
    assert float(np.linalg.norm(f)) == np.inf
    assert _residual_norm(f) == pytest.approx(1e200 * np.linalg.norm(f / 1e200), rel=1e-15)
    assert _residual_norm(np.array([1.0, np.inf])) == np.inf
    assert _residual_norm(np.array([1.5e308, 1.5e308])) == np.inf  # the norm itself overflows


def _list_history_anderson(step_map, init, cfg):
    """The list-and-stack Anderson loop the ring buffers replaced, kept as
    the bitwise reference for them.  Its window Gram gains one row and
    column per iteration from the same matvec the solver makes."""
    x = np.array(init, dtype=np.float64, copy=True)
    shape = x.shape
    G, F = [], []
    gram = np.empty((0, 0))
    residuals = []
    fallbacks = 0
    converged = False
    for it in range(cfg.max_iters):
        g = step_map(x)
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite iterate at solver iteration {it}")
        f = (g - x).ravel()
        r = _residual_norm(f)
        residuals.append(r)
        if r <= cfg.tol:
            x = g
            converged = True
            break
        if it == cfg.max_iters - 1:
            x = g  # the budget's last output is returned unmixed
            break
        G.append(g.ravel().copy())
        F.append(f.copy())
        if len(G) > HISTORY_M:
            G.pop(0)
            F.pop(0)
            gram = gram[1:, 1:]
        k = len(F)
        grown = np.empty((k, k))
        grown[:-1, :-1] = gram
        grown[-1] = grown[:, -1] = np.stack(F) @ f
        gram = grown
        gamma = _anderson_gamma(gram, RIDGE_LAMBDA)
        if gamma is None:
            fallbacks += 1
            nxt = G[-1].copy()
        else:
            nxt = gamma @ np.stack(G)
        x = nxt.reshape(shape)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"non-finite extrapolation at solver iteration {it}")
    return FixedPointResult(
        states=x, residuals=residuals, iters=len(residuals),
        converged=converged, picard_fallbacks=fallbacks,
    )


def _gauss_sampling_chain(cfg):
    # The eta = 1 sampling chain at S = 100: Anderson needs dozens of
    # iterations, so the history window wraps many times.
    sched = make_linear_beta_schedule(1000, eta=1.0)
    sub = select_subsequence(1000, 100, "linear")
    rng = np.random.default_rng(21)
    pred = GaussianOptimalPredictor(rng.normal(size=16), rng.uniform(0.3, 2.0, 16), sched)
    x_T, noise = rng.standard_normal(16), rng.standard_normal((100, 16))
    return (lambda s: h_tilde(s, x_T, sched, sub, pred, noise)), init_stack(x_T, 100), cfg


def _mlp_chain(cfg):
    sched = make_linear_beta_schedule(200)
    sub = select_subsequence(200, 25, "linear")
    pred = random_mlp(8, [32], np.random.default_rng(22), t_max=200)
    x_T = np.random.default_rng(23).standard_normal(8)
    return (lambda s: h_tilde(s, x_T, sched, sub, pred)), init_stack(x_T, 25), cfg


class TestAndersonHistory:
    @pytest.mark.parametrize(
        "case",
        [
            lambda: _gauss_sampling_chain(SolverConfig(max_iters=100, tol=1e-3)),
            lambda: _gauss_sampling_chain(SolverConfig(max_iters=12, tol=1e-3)),
            lambda: _mlp_chain(SolverConfig(max_iters=30, tol=1e-10)),
            lambda: _mlp_chain(SolverConfig(max_iters=4, tol=1e-10)),
            lambda: _mlp_chain(SolverConfig(max_iters=1, tol=1e-10)),
            lambda: _overflowing(SolverConfig(max_iters=9)),
            lambda: _translation(SolverConfig(max_iters=9, tol=1e-12)),
        ],
        ids=["gauss-converges", "gauss-capped", "mlp-converges", "mlp-short-budget",
             "mlp-one-iteration", "overflow-fallback", "translation-ridge"],
    )
    @_overflow_warnings
    def test_matches_list_history_bitwise(self, case):
        step_map, init, cfg = case()
        ref = _list_history_anderson(step_map, init, cfg)
        res = solve(step_map, init, cfg)
        assert res.states.shape == ref.states.shape
        assert res.states.tobytes() == ref.states.tobytes()
        assert np.array(res.residuals).tobytes() == np.array(ref.residuals).tobytes()
        assert (res.iters, res.converged, res.picard_fallbacks) == (
            ref.iters, ref.converged, ref.picard_fallbacks
        )

    @_overflow_warnings
    def test_cases_cover_wrap_cap_and_fallback(self):
        gauss = solve(*_gauss_sampling_chain(SolverConfig(max_iters=100, tol=1e-3)))
        assert gauss.converged and gauss.iters > 2 * HISTORY_M
        capped = solve(*_gauss_sampling_chain(SolverConfig(max_iters=12, tol=1e-3)))
        assert not capped.converged
        moved = solve(*_overflowing(SolverConfig(max_iters=9)))
        assert moved.picard_fallbacks == 7
        ridged = solve(*_translation(SolverConfig(max_iters=9, tol=1e-12)))
        assert ridged.picard_fallbacks == 0


@given(
    e=st.integers(min_value=-20, max_value=20),
    case=st.sampled_from([
        lambda: _gauss_sampling_chain(SolverConfig(max_iters=100, tol=1e-3)),
        lambda: _gauss_sampling_chain(SolverConfig(max_iters=12, tol=1e-3)),
        lambda: _mlp_chain(SolverConfig(max_iters=30, tol=1e-10)),
        lambda: _overflowing(SolverConfig(max_iters=9)),
    ]),
)
@settings(max_examples=30, deadline=None)
@_overflow_warnings
def test_anderson_is_scale_equivariant(e, case):
    # The ridge is relative to the newest residual, so measuring the same
    # map in units c = 2^e (exact in binary floating point) scales every
    # iterate by c and leaves the iteration count and fallbacks alone.
    step_map, init, cfg = case()
    c = 2.0**e
    ref = solve(step_map, init, cfg)
    res = solve(
        lambda x: c * step_map(x / c), c * init, dataclasses.replace(cfg, tol=c * cfg.tol)
    )
    assert res.states.tobytes() == (c * ref.states).tobytes()
    assert res.residuals == [c * r for r in ref.residuals]
    assert (res.iters, res.converged, res.picard_fallbacks) == (
        ref.iters, ref.converged, ref.picard_fallbacks
    )


@pytest.mark.parametrize("seed", range(5))
def test_anderson_beats_picard_sweeps_on_the_eta_one_gaussian_chain(seed):
    # The benchmark's sampling chain (T 1000, S 100, D 64, eta 1): Picard
    # needs 33 sweeps to reach 1e-3. Anderson must converge within 40
    # iterations with no plain-step fallback, and its x0 must match the
    # sequential sampler's.
    sched = make_linear_beta_schedule(1000, eta=1.0)
    sub = select_subsequence(1000, 100, "linear")
    rng = np.random.default_rng(seed)
    pred = GaussianOptimalPredictor(rng.normal(size=64), rng.uniform(0.3, 2.0, 64), sched)
    chain = Chain(sched, sub, pred, draw_noise_stack(seed, 100, 64))
    x_T = draw_x_T(seed, 64)
    res = solve_stack(chain, x_T, default_solver_config(1.0))
    assert res.converged and res.iters <= 40
    assert res.picard_fallbacks == 0
    assert float(np.linalg.norm(res.states[-1] - _rollout(chain, x_T)[-1])) <= 1e-3


class TestDispatch:
    def test_solve_routes_by_method(self):
        fn, fixed = affine_map(0.5, 2, 7)
        for method in ("picard", "anderson"):
            res = solve(fn, np.zeros(2), SolverConfig(method=method, max_iters=100, tol=1e-10))
            assert res.converged
            np.testing.assert_allclose(res.states, fixed, rtol=0, atol=1e-8)

    def test_solve_stack_needs_a_config(self):
        # The caller picks the solve; the default budgets live in solvers.
        chain = Chain(make_linear_beta_schedule(20, 1e-3, 0.05), None, ZeroPredictor(2))
        with pytest.raises(TypeError, match="cfg"):
            solve_stack(chain, np.ones(2))

    def test_solve_stack_named_inits(self):
        sched = make_linear_beta_schedule(20, 1e-3, 0.05)
        sub = select_subsequence(20, 4, "linear")
        pred = ZeroPredictor(2)
        x_T = np.array([1.0, -1.0])
        for kind in ("x_T", "zero"):
            res = solve_stack(
                Chain(sched, sub, pred), x_T, init=kind,
                cfg=SolverConfig(method="picard", max_iters=6, tol=1e-12),
            )
            assert res.converged
        init = init_stack(x_T, 4)
        res = solve_stack(
            Chain(sched, sub, pred), x_T, init=init,
            cfg=SolverConfig(method="picard", max_iters=6, tol=1e-12),
        )
        assert res.converged


class TestDivergenceContract:
    """Which iterates raise, with which message and iteration number, and
    which finite ones that overflow a squared norm do not."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", ["picard", "anderson"])
    def test_non_finite_map_output_names_its_iteration(self, method, bad):
        calls = []

        def breaks_on_the_third_call(x):
            g = 0.5 * x + 1.0
            if len(calls) == 2:
                g[1, 0] = bad
            calls.append(None)
            return g

        with pytest.raises(DivergenceError, match=r"^non-finite iterate at solver iteration 2$"):
            solve(breaks_on_the_third_call, np.zeros((3, 2)),
                  SolverConfig(method=method, max_iters=10, tol=1e-12))
        assert len(calls) == 3

    @_overflow_warnings
    @pytest.mark.parametrize("method", ["picard", "anderson"])
    def test_overflowing_finite_residual_is_recorded_not_raised(self, method):
        # g = -x flips a state near the float limit: every map output is
        # finite, but g - x overflows, so each recorded residual is infinite.
        res = solve(lambda x: -x, np.array([1e308, -1e308, 1.0]),
                    SolverConfig(method=method, max_iters=3, tol=1e-3))
        assert res.residuals == [np.inf] * 3
        assert not res.converged and np.isfinite(res.states).all()

    @_overflow_warnings
    def test_finite_mix_beyond_the_squared_norm_range_does_not_raise(self):
        # A contraction onto a point near 1e160: residuals stay small enough
        # for the weight solve, so Anderson mixes, and every mixed iterate's
        # squared norm overflows although its entries are finite.
        target = 1e160 * np.array([1.0, 2.0, 3.0])
        mixed = []

        def contraction(x):
            mixed.append(x.copy())
            return 0.5 * x + 0.5 * target

        res = solve(contraction, target + 1e150 * np.array([1.0, -1.0, 2.0]),
                    SolverConfig(method="anderson", max_iters=6, tol=1e-3))
        assert res.picard_fallbacks == 0 and res.iters >= 3
        assert all(np.abs(x).max() > 1e154 for x in mixed)
        assert np.isfinite(res.states).all() and np.isfinite(res.residuals).all()
