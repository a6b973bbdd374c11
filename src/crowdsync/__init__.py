"""crowdsync: feedback-coupled crowd dynamics with two-state agents.

A small numpy library for simulating a crowd whose members act on a
shared observation, switch between normal and reactive coupling, and
can synchronize, tip into self-amplification, or inflate and pop a
bubble. Ships metrics (order parameter, crowd correlation, trendiness,
volatility), a deterministic scenario engine, and a CLI.
"""

from .dynamics import (
    CrowdConfig,
    CrowdError,
    EmptyPopulationError,
    NoNoise,
    SingularFeedbackError,
    UniformNoise,
    WienerNoise,
    instantaneous_response,
    ordered_sum,
)
from .metrics import (
    DecisionPanel,
    SyncReport,
    crowd_correlation,
    crowd_volatility,
    observed_volatility,
    order_parameter,
    order_parameter_closed_form,
    pairwise_correlation,
    sync_report,
    trendiness,
    window_sync,
)
from .scenarios import (
    ForceProfile,
    RunSummary,
    ScenarioResult,
    ScenarioSpec,
    SweepPoint,
    aggregate_trajectory,
    build_profile,
    bubble_profile,
    explicit_profile,
    forced_ratio_samples,
    ramp_profile,
    run,
    run_spec,
    step_profile,
    summarize,
    sweep,
    window_reports,
    zero_profile,
)
from .switching import (
    DegenerateCouplingError,
    Stability,
    SwitchRule,
    TippingPoint,
    classify_stability,
    critical_reactive_count,
    switch_priority,
    update_reactive_count,
)

__version__ = "0.1.0"
