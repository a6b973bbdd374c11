"""crowdsync: feedback-coupled crowd dynamics with two-state agents.

A small numpy library for simulating a crowd whose members act on a
shared observation, switch between normal and reactive coupling, and
can synchronize, tip into self-amplification, or inflate and pop a
bubble. Ships metrics (order parameter, crowd correlation, trendiness,
volatility), a deterministic scenario engine, and a CLI.
"""

from .dynamics import (
    AgentParams,
    AgentState,
    CrowdConfig,
    CrowdError,
    EmptyPopulationError,
    Mode,
    NoNoise,
    SingularFeedbackError,
    StepRecord,
    UniformNoise,
    WienerNoise,
    agent_step,
    aggregate,
    homogeneous_agents,
    instantaneous_response,
    noise_increment,
    observe,
    ordered_sum,
    recurse_observation,
    step_with_noise,
)
from .metrics import (
    DecisionPanel,
    SyncReport,
    crowd_correlation,
    crowd_correlation_direct,
    crowd_volatility,
    observed_volatility,
    observed_volatility_from_panel,
    order_parameter,
    order_parameter_closed_form,
    order_parameter_with_noise,
    pairwise_correlation,
    sync_report,
    trendiness,
    window_sync,
)
from .scenarios import (
    GOLDEN_NAMES,
    ForceProfile,
    RunSummary,
    ScenarioResult,
    ScenarioSpec,
    SweepPoint,
    aggregate_trajectory,
    build_profile,
    bubble_profile,
    explicit_profile,
    forced_ratio_run,
    forced_ratio_samples,
    golden_scenario,
    ramp_profile,
    run,
    run_spec,
    step_profile,
    summarize,
    sweep,
    zero_profile,
)
from .switching import (
    CouplingSummary,
    DegenerateCouplingError,
    Stability,
    SwitchRule,
    TippingPoint,
    aggregate_coupling,
    assign_states,
    classify_stability,
    critical_reactive_count,
    switch_priority,
    update_reactive_count,
)

__version__ = "0.1.0"
