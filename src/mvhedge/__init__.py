"""Mean-variance hedging engine for finite multinomial scenario trees."""

from .errors import (
    BadParameter,
    DegenerateStep,
    IncompatibleClaim,
    Infeasible,
    NotSymmetric,
    TooLarge,
)
from .tree import (
    Claim,
    Node,
    ScenarioTree,
    attach_claim,
    build_binomial,
    build_iid_multinomial,
    build_regime_switching,
    parse_tree,
    serialize_tree,
    validate_tree,
)
from .linalg import OneStepMoments, pinv_psd, weighted_moments
from .opportunity import (
    MeasureSurface,
    MvtDiagnostics,
    OpportunitySurface,
    compute_opportunity,
    martingale_surface,
    measures,
    mvt_process,
    sharpe_ratio,
)
from .hedging import (
    HedgePlan,
    HedgeReport,
    compute_mean_value,
    compute_plan,
    compute_pure_hedge,
    fs_residual_check,
    hedging_error,
    rollout_strategy,
)
from .oracle import (
    LsqSolution,
    QpSolution,
    lsq_projection,
    martingale_qp,
    max_sharpe,
    node_conditional_check,
    subtree_at,
)
from .backtest import (
    BacktestReport,
    compare_report,
    exact_sq_error,
    run_strategy,
    sample_paths,
    strategy_holdings,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
