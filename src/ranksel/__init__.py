"""Two-stage selection of the best Gaussian population under unknown variances.

Implements the Dudewicz-Dalal and Rinott two-stage procedures, numerical
solution of their defining critical-constant equations, Monte Carlo
verification of the correct-selection guarantee, sample-size efficiency
experiments under random population variances, and extreme-value
diagnostics for maxima of t variables with growing degrees of freedom.
"""

from ranksel.distributions import (
    RandomStream,
    ScheduleSpec,
    t_cdf,
    t_logcdf,
    t_pdf,
    t_quantile,
)
from ranksel.hconst import (
    DD,
    RINOTT,
    BracketExpansionError,
    HConstant,
    HEquationSpec,
    HTableRow,
    MCEstimate,
    SolverError,
    dd_prob,
    h_table,
    mc_oracle,
    pairwise_prob,
    solve_h,
)
from ranksel.procedures import (
    PCSEstimate,
    ProblemInstance,
    ProcedureOutcome,
    ProcedureParams,
    Stage1Summary,
    VariancePrior,
    dd_weights,
    estimate_pcs,
    make_slippage_instance,
    run_procedure,
    run_stage1,
    second_stage_size,
)
from ranksel.efficiency import (
    AlphaEstimate,
    EfficiencyRow,
    efficiency_curve,
    estimate_alpha,
    limit_maxmix,
    theoretical_eta,
)
from ranksel.extremes import (
    MAX_OF_T,
    MAX_OF_T_SUM,
    ExtremeFitRow,
    TriangularArraySpec,
    fit_extremes,
    hill_tail_index,
)

__version__ = "0.1.0"
