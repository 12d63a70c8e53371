"""Distributed regularized primal-dual subgradient optimization.

Library and CLI for consensus-based minimization of separable convex
objectives under shared inequality constraints over fixed communication
graphs, with deterministic and constraint-sampling variants plus the
metric and theory-bound tooling to validate them.
"""

from .engine import (
    AgentStates,
    RunConfig,
    Trace,
    project_ball,
    project_orthant,
    run,
    run_centralized_unregularized,
    step,
    stepsize,
)
from .graphs import (
    ConsensusMatrix,
    GraphTopology,
    generate_barbell,
    generate_erdos_renyi,
    generate_lattice8,
    generate_watts_strogatz,
    laplacian_weights,
    lazy_metropolis,
    spectral_gap,
)
from .lagrangian import (
    grad_lambda,
    grad_x,
    lagrangian_value,
    sampling_distribution,
    stochastic_grad_x,
)
from .metrics import (
    IterationRecord,
    check_product_sum_inequality,
    check_tau_inequality,
    delta_G,
    epsilon_G,
    rate_fit,
    thm2_constant,
    violation_functional,
)
from .problems import (
    ProblemSpec,
    ReferenceSolution,
    SyntheticDataset,
    build_hinge_problem,
    build_logistic_problem,
    generate_dataset,
    reference_optimum,
)

__version__ = "0.1.0"
