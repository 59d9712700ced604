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
    MomentCurves,
    cubic_el_root,
    eta2,
    exact_moments,
    fit,
)
from .bounds import BoundCurve, d2_closed, d2_generic, pointwise_mse_streaming
from .costs import CostReport, run_table1
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
    PiecewiseUniform,
    PointMass,
    Poisson,
    PoissonCount,
    ShotNoise,
    SimulatedFiring,
    SingleShot,
    Uniform,
    cumulant_curves,
    mean_z,
    moments_Z_mc,
    sample_Z_path,
    var_z,
    Z_path_ensemble,
)
from .neuro import (
    LIFNeuron,
    build_drift_from_network,
    first_passage_law,
    first_passage_time,
    run_table2,
)
from .sde import (
    LinearSDE,
    apply_I,
    apply_I_inv,
    simulate_Y,
)
from .timebase import (
    Curve,
    PathEnsemble,
    TimeGrid,
    child_seed,
    derive_stream,
    split_stream,
    trapezoid,
)

__version__ = "0.1.0"
