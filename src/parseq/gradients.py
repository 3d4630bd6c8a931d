"""Gradients of the reconstruction loss with respect to the terminal state.

Three routes, cheapest first, all ending in the same one-row pullback
onto x_T (``chain._x_T_step``):

* ``phantom_grad`` backpropagates through a single damped application of
  the joint update on top of the (detached) solver output:
  y = tau * h_tilde(stack*) + (1 - tau) * stack*.  The loss row reads x_T
  only directly and through transition S, so the gradient is one one-row
  vjp.
* ``exact_ift_grad`` solves the adjoint system v = v J + dL/dstack* at the
  fixed point.  The Jacobian J of ``h_tilde`` is strictly triangular, so
  the system is solved exactly by one back-substitution from the x_0 row
  up: one batched forward pass builds the predictor's vjp state at the
  S - 1 stack rows it reads, and each position then runs only a one-row
  backward pass; the x_T step adds one one-row vjp.
* ``rollout_backprop_grad`` backpropagates through the sequential sampler
  with its O(S D) forward stack kept: it is the same back-substitution on
  the rollout's stack, reading the vjp states of the rollout's own one-row
  forward passes, so it runs S forward passes in all.

``_back_substitute`` is the one back-substitution: ``exact_ift_grad`` hands
it the denoised-row seed alone, ``adjoint_solve`` any stack seed, and the
rollout gradient its own states.  The stack solves these routes
differentiate at run in ``solvers.solve``, under the budgets of
``solvers``.

All three return (loss, gradient) where loss is the value of the scalar
function actually differentiated.  The first two take a ``Chain``;
``rollout_backprop_grad`` and ``adjoint_solve`` keep the older per-call
form and build a fresh chain from their arguments.
"""

from __future__ import annotations

import numpy as np

from .chain import Chain, _check_cotangent, _check_stack, _rollout, _sweep, _x_T_step
from .errors import DivergenceError, ShapeError
from .predictors import NoisePredictor
from .schedule import DiffusionSchedule, TimestepSubsequence
from .stackio import write_csv


#: Adam's moment decay rates and the guard added to the update's denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam optimizer over a single parameter array.

    Moments start at zero and are bias-corrected; the update is
    lr * m_hat / (sqrt(v_hat) + ADAM_EPS), so the very first step has
    magnitude close to lr for any nonzero gradient.  The decay rates are
    ``ADAM_BETA1`` and ``ADAM_BETA2``.
    """

    def __init__(self, lr: float = 0.01):
        self.lr = lr
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        param = np.asarray(param, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != param.shape:
            raise ShapeError(f"gradient shape {grad.shape} != param {param.shape}")
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        self.t += 1
        # The moments update in place, in the operation order of
        # m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g.
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - ADAM_BETA1**self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2**self.t)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def loss_and_seed(x0_hat: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared Frobenius reconstruction loss on the denoised row and its
    derivative there."""
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x0_hat.shape != target.shape:
        raise ShapeError(f"shapes {x0_hat.shape} and {target.shape} differ")
    r = x0_hat - target
    return float(r @ r), 2.0 * r


def phantom_grad(
    chain: Chain,
    stack_star: np.ndarray,
    x_T: np.ndarray,
    target_x0: np.ndarray,
    tau: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Damped one-step gradient with the solver output treated as constant.

    The loss reads the bottom row of y = tau * h_tilde(stack*; x_T)
    + (1 - tau) * stack*, so x_T is the only differentiable input, and
    only that row of y is formed.  It reads x_T directly and through
    transition S alone, so the gradient is tau times ``_x_T_step`` of the
    loss seed: one one-row vjp.
    """
    S = chain.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    y = tau * _sweep(chain, stack_star, x_T)[S - 1] + (1.0 - tau) * stack_star[S - 1]
    if not np.isfinite(y).all():
        raise DivergenceError("non-finite stack after simultaneous update")
    loss, seed = loss_and_seed(y, target_x0)
    # + 0.0 turns a -0.0 seed into +0.0, as the running sum of h_tilde_vjp does.
    return loss, tau * _x_T_step(chain, x_T, seed + 0.0)


def _back_substitute(
    chain: Chain, stack_star: np.ndarray, seed: np.ndarray, states: list | None = None
) -> tuple[np.ndarray | None, np.ndarray]:
    """Solve v = v @ dh/dstack + seed_stack at the fixed point, exactly.

    ``seed`` is the (S, D) seed stack, or only its x_0 row (D,) when every
    other seed row is zero; then no row of v is kept and v is returned as
    None.  The Jacobian is strictly triangular, so the solve is one
    back-substitution from the x_0 row up.  Nothing reads x_0, so v_0 is
    its seed; v_p = seed_p + c1_p / sqrt(A_{p-1}) vjp(x_p, tau_p, P_p)
    needs only the prefix P_p = sum_{j < p} sqrt(A_j) v_j, one one-row
    backward pass per position.  ``states[p - 1]`` is the predictor's vjp
    state at position p; without them, one batched ``vjp_state`` over the
    S - 1 stack rows read builds them, so ``exact_ift_grad`` and
    ``adjoint_solve`` see the same bits.  Sums and products run in the order of
    ``h_tilde_vjp``, so v is the fixed point of its stack cotangent up to
    the rounding of the predictor's batched forward pass.  A zero seed row
    would only turn a -0.0 in v_p into +0.0, which leaves every prefix,
    started from +0.0, unchanged; so both seed forms give the same P_S.
    Returns v and the full prefix P_S, which ``_x_T_step`` pulls onto x_T.
    """
    coeffs, S, predictor = chain.coeffs, chain.S, chain.predictor
    if states is None and S > 1:
        batch = predictor.vjp_state(stack_star[S - 2::-1], chain.timesteps[: S - 1])
        states = [None if batch is None else [s[i] for s in batch] for i in range(S - 1)]
    # Python floats multiply an array faster than numpy scalars do.
    sqrt_alpha, scaled_c1, taus = (a.tolist() for a in (coeffs.sqrt_alpha, coeffs.scaled_c1,
                                                        coeffs.taus))
    v = np.empty_like(seed) if seed.ndim == 2 else None
    v_p = (seed[S - 1] if v is not None else seed) + 0.0  # the sweep's +0.0 pullback
    if v is not None:
        v[S - 1] = v_p
    prefix = 0.0
    for p in range(1, S):
        row = S - 1 - p
        prefix = prefix + sqrt_alpha[p - 1] * v_p
        v_p = scaled_c1[p] * predictor.vjp_from(states[p - 1], stack_star[row], taus[p], prefix)
        if v is not None:
            v_p = np.add(seed[row], v_p, out=v[row])
    return v, prefix + sqrt_alpha[S - 1] * v_p


def adjoint_solve(
    stack_star: np.ndarray,
    x_T: np.ndarray,
    seed_stack: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    tol: float = 1e-6,
    pool: object | None = None,
) -> tuple[np.ndarray, list[float]]:
    """The adjoint v of ``_back_substitute`` on a fresh chain.

    Returns (v, []); the empty list stands where per-sweep deltas used to
    be, and there is nothing to iterate.  ``tol`` and ``pool`` are
    accepted for compatibility with older callers and ignored.
    """
    chain = Chain(schedule, subsequence, predictor)
    stack_star, x_T = _check_stack(stack_star, x_T, chain.S)
    v, _ = _back_substitute(chain, stack_star, _check_cotangent(seed_stack, stack_star))
    if not np.isfinite(v).all():
        raise DivergenceError("non-finite adjoint; the predictor vjp broke down")
    return v, []


def exact_ift_grad(
    chain: Chain,
    stack_star: np.ndarray,
    x_T: np.ndarray,
    target_x0: np.ndarray,
    states: list | None = None,
) -> tuple[float, np.ndarray]:
    """Implicit-function gradient through the fixed point.

    Differentiating stack* = h_tilde(stack*; x_T) gives
    dL/dx_T = v @ dh/dx_T with v the adjoint solution seeded by
    dL/dstack*, which lives entirely in the denoised row.  So this is
    ``_back_substitute`` on that one-row seed, then ``_x_T_step`` of its
    prefix P_S: one batched forward pass of S - 1 rows, S - 1 one-row
    backward passes and one one-row vjp, and no ``predict`` call.
    ``states``, the predictor's vjp states at positions 1..S as
    ``_rollout`` keeps them, replace both forward passes.
    """
    S = chain.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    loss, seed = loss_and_seed(stack_star[S - 1], target_x0)
    _, prefix = _back_substitute(chain, stack_star, seed, states)
    grad = _x_T_step(chain, x_T, prefix, None if states is None else states[S - 1])
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite adjoint; the predictor vjp broke down")
    return loss, grad


def _rollout_grad(
    chain: Chain, x_T: np.ndarray, target_x0: np.ndarray
) -> tuple[float, np.ndarray]:
    """Backprop through the sequential sampler: the rollout is the fixed
    point, so this is the implicit gradient on the rollout's stack, with
    the vjp states of the rollout's own forward passes."""
    stack, states = _rollout(chain, x_T, keep=True)
    return exact_ift_grad(chain, stack, x_T, target_x0, states)


def rollout_backprop_grad(
    x_T: np.ndarray,
    target_x0: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Differentiate the sequential sampler by reverse sweep over its steps.

    Keeps the rollout's O(S D) stack and the predictor's vjp state at each
    of its S one-row forward calls, then runs the back-substitution of
    ``exact_ift_grad`` on them: the rollout is the fixed point, so backprop
    through the chain and the implicit gradient are one computation.  S
    one-row forward passes and S one-row backward passes.
    """
    return _rollout_grad(Chain(schedule, subsequence, predictor, noise), x_T, target_x0)


def central_difference_grad(
    fn, x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a
    time; the reference the analytic routes are checked against."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return out


def write_gradcheck_report(path: str, rows: list[dict]) -> None:
    """CSV report of finite-difference agreement, one row per check.

    Each row needs mode, S, D, rtol_measured, and a boolean verdict.
    """
    write_csv(path, ["mode", "S", "D", "rtol_measured", "pass"],
              ([row["mode"], row["S"], row["D"], float(row["rtol_measured"]),
                "true" if row["pass"] else "false"] for row in rows))
