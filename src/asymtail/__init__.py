"""Tail bounds for sums of asymmetric bounded random variables.

The package is organized in layers: finite discrete laws and their
exact arithmetic (`dist`), moment-index thresholds and optimized
constants (`thresholds`), log-concave tail majorants (`majorant`), the
tail bound family (`bounds`), empirical verification by enumeration
and Monte Carlo (`verifier`), and self-normalized statistics
(`selfnorm`).  `cli` exposes all of it as the `asymtail` command.

Importing the package loads numpy only; scipy is imported inside the
one function that uses it (the Clopper-Pearson quantile of the Monte
Carlo checks), the first time it runs.  Roots come from
`optimize.brent_root`, a port of scipy's brentq.
"""
from time import perf_counter as _perf_counter

# when the package import began; the CLI counts its wall time from here
_IMPORT_START = _perf_counter()

__version__ = "0.1.0"

from .dist import (
    DistError,
    FiniteDist,
    RngSpec,
    bc,
    bs,
    convolve,
    delta,
    expect,
    from_pairs,
    iid_sum,
    sample,
    scale,
    shift,
    st,
    tail,
    weighted_bs_sum,
)
from .thresholds import (
    ConjecturalValue,
    ThresholdError,
    c_const,
    k_tilde,
    m_conj,
    m_exp,
    m_exp_up,
    m_star,
    m_st_high,
    m_st_low,
    m_tilde,
    p_star,
    p_star_upper,
    p_tilde,
    threshold_row,
    threshold_table,
)
from .majorant import (
    LatticeError,
    MajorantError,
    TailMajorant,
    lattice_params,
    lc_majorant,
    lin_lc_majorant,
)
from .bounds import (
    BoundError,
    BoundReport,
    b_opt,
    carrier_sum,
    combined_bound,
    combined_bound_grid,
    hoeffding_bound,
    normal_tail,
    partial_moment,
)
from .verifier import (
    CheckResult,
    McConfig,
    SupermartingaleConfig,
    VerifyError,
    delta_grid_check,
    enumeration_check,
    exactness_witness,
    run_suite,
    schur_sweep,
    supermartingale_mc,
)
from .selfnorm import (
    ReciprocatingMap,
    SelfNormConfig,
    SelfNormError,
    hat_dist,
    recombine,
    selfnorm_bound_check,
    selfnorm_stat,
    two_point_decomposition,
    var_identity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
