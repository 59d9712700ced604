"""gmapprox: optimal Gauss-Markov approximation of linear SDEs with stochastic drift.

The library simulates dX = (-theta X + z(t)) dt + sigma dW for a zoo of
stochastic drifts z, computes the Ornstein-Uhlenbeck-type process that best
approximates X under integrated power costs, evaluates the associated
L2 error curve d2, and reproduces the reference cost tables, including the
embedded-neuron shot-noise application.
"""

from .approx import (
    Approximant,
    F2_analytic,
    F4_from_moments,
    Fp_root,
    MomentCurves,
    cubic_el_root,
    eta2,
    exact_moments,
    transversality_residual,
)
from .bounds import BoundCurve, d2_closed, d2_generic, pointwise_mse
from .costs import (
    CostReport,
    estimate_cost,
    full_path_cross_check,
    run_table1,
)
from .drift import (
    BrownianDrift,
    CompoundPoisson,
    Deterministic,
    Distribution,
    DriftModel,
    Exponential,
    FixedCount,
    Gamma,
    OUDrift,
    PairingError,
    PointMass,
    Poisson,
    PoissonCount,
    ShotNoise,
    SingleShot,
    Uniform,
    cumulant_curves,
    mean_z,
    moments_Z_mc,
    sample_Z_path,
    sample_z_path,
    var_z,
    Z_path_ensemble,
    z_path_ensemble,
)
from .neuro import (
    AnalyticFiring,
    EmbeddedNeuronModel,
    LIFNeuron,
    SimulatedFiring,
    build_drift_from_network,
    first_passage_time,
    first_passage_times,
    lower_incomplete_gamma,
    phi_psi,
    run_table2,
    v2_exponential,
)
from .sde import (
    LinearSDE,
    apply_I,
    apply_I_inv,
    ou_mean_cov,
    simulate_Y,
    solve_X,
)
from .timebase import (
    Curve,
    PathEnsemble,
    TimeGrid,
    child_seed,
    derive_stream,
    exp_weighted_running_integral,
    split_stream,
    trapezoid,
)

__version__ = "0.1.0"
