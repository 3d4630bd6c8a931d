"""Parallel fixed-point sampling and inversion for denoising diffusion chains.

The sequential sampler is recast as a joint system over all intermediate
states; its strictly triangular structure lets Picard iteration terminate
in at most S steps, and Anderson acceleration sometimes earlier.  Each
sweep evaluates the noise model at every timestep in one batched call.
Inversion recovers the terminal state by cheap gradients taken at the
fixed point.
"""

from .chain import (
    Chain,
    chain_coefficients,
    ddim_step,
    h_tilde,
    h_tilde_vjp,
    init_stack,
    sequential_rollout,
    solve_stack,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    NumericDomainError,
    ParseError,
    SchemaError,
    ShapeError,
)
from .gradients import (
    Adam,
    InversionConfig,
    InversionRun,
    adjoint_solve,
    exact_ift_grad,
    invert,
    loss_and_seed,
    phantom_grad,
    rollout_backprop_grad,
    run_report,
)
from .metrics import gaussian_w2, sample_moments
from .predictors import (
    GaussianOptimalPredictor,
    MlpPredictor,
    NoisePredictor,
    ZeroPredictor,
    load_gaussian_params,
    load_mlp,
    random_mlp,
    save_gaussian,
    save_mlp,
)
from .rng import draw_noise_stack, draw_x_T, stream
from .schedule import (
    DiffusionSchedule,
    TimestepSubsequence,
    identity_subsequence,
    make_linear_beta_schedule,
    select_subsequence,
)
from .solvers import (
    FixedPointResult,
    SolverConfig,
    default_solver_config,
    solve,
)
from .stackio import read_stack, write_residual_csv, write_stack, write_trace_csv

__version__ = "0.1.0"
