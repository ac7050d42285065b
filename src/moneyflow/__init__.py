"""Deterministic monetary flow network simulator with record retracing and
robustness-based trajectory anticipation."""

from .anticipation import (
    DEFAULT_DIMS,
    AnticipateConfig,
    Candidate,
    CandidateScore,
    ReplayConfig,
    RobustnessReport,
    SamplerConfig,
    anticipate,
    divergence,
    extract_trajectory,
    generate_candidates,
    robustness_score,
    score_candidates,
    select_most_robust,
    simulate_candidate,
)
from .engine import (
    equilibrate,
    event_trace,
    inject_shock,
    next_event,
    observed_deficit,
    run,
    settle,
    settle_all,
    update_agent,
)
from .network import (
    Agent,
    Channel,
    Event,
    NetworkState,
    build_network,
    conservation_holds,
    issue,
    notes_outstanding,
)
from .recorder import (
    AgentLine,
    BalanceSheet,
    IdentityReport,
    Record,
    Recorder,
    RecordError,
    read_record,
    run_record,
    verify_identities,
    verify_record,
    write_record,
)
from .retrieval import (
    Assignment,
    FitConfig,
    FitResult,
    apply_assignment,
    fit,
    reproduction_error,
    retrace,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    AgentSpec,
    ChannelSpec,
    FigureSpec,
    PolicyAction,
    ScenarioError,
    ScenarioSpec,
    ScheduledAmount,
    ShockSpec,
    load_scenario,
    national_5,
    scenario_from_dict,
    three_agent_cycle,
    three_agent_skew,
    two_agent_kernel,
)

__version__ = "0.1.0"
