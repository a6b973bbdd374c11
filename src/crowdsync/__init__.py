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
    UniformNoise,
    WienerNoise,
    ordered_sum,
)
from .metrics import (
    CrowdMoments,
    DecisionPanel,
    SyncReport,
    crowd_correlation,
    crowd_volatility,
    order_parameter,
    order_parameter_closed_form,
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
    build_profile,
    bubble_profile,
    explicit_profile,
    forced_ratio_samples,
    ramp_profile,
    run,
    step_profile,
    summarize,
    sweep,
    window_reports,
    zero_profile,
)
from .switching import (
    Stability,
    SwitchRule,
    classify_stability,
    critical_reactive_count,
    switch_priority,
    update_reactive_count,
)

__version__ = "0.1.0"
