from fractions import Fraction

import pytest
from hypothesis import strategies as st

from moneyflow import (
    NetworkState,
    build_network,
    equilibrate,
    national_5,
    next_event,
    observed_deficit,
    rng,
    settle_all,
    three_agent_cycle,
    two_agent_kernel,
    update_agent,
)
from moneyflow.engine import _peek_scheduled, _run_scheduled
from moneyflow.retrieval import apply_assignment
from moneyflow.scenario import AgentSpec, ChannelSpec, FigureSpec, ScenarioSpec


@pytest.fixture
def national5_spec():
    return national_5()


@pytest.fixture
def kernel_spec():
    return two_agent_kernel()


@pytest.fixture
def cycle_spec():
    return three_agent_cycle()


def tiny_spec(rate: int = 10, gain=Fraction(1), seed: int = 1) -> ScenarioSpec:
    """Two agents plus the central bank, one channel A->B."""
    return ScenarioSpec(
        name="tiny",
        seed=seed,
        agents=(
            AgentSpec("CB", "CentralBank"),
            AgentSpec("A", "Custom:test", gain=gain, mean_wait=0.5),
            AgentSpec("B", "Custom:test", gain=gain, mean_wait=0.5),
        ),
        channels=(ChannelSpec("ab", "A", "B", rate, adjustable=True),),
        figures=(FigureSpec("ab_flow", channel="ab"),),
    )


@pytest.fixture
def tiny_state():
    return build_network(tiny_spec())


def true_imbalance(state: NetworkState, agent_id: str) -> Fraction | int:
    """Current true effective inflow minus outflow rate of an agent."""
    def effective(cid: str) -> Fraction | int:
        channel = state.channels[cid]
        return channel.rate * channel.multiplier

    return (sum(effective(cid) for cid in state.incoming[agent_id])
            - sum(effective(cid) for cid in state.outgoing[agent_id]))


def wake_acts(state: NetworkState, agent_id: str) -> bool:
    """Whether a non-exempt wake changes more than the log: it observes a
    deficit, or equilibrating its carried residual moves a rate."""
    agent = state.agents[agent_id]
    deficit = observed_deficit(state, agent_id)
    channels = [state.channels[cid] for cid in state.adjustable_outgoing[agent_id]]
    deltas, _ = equilibrate(channels, deficit, agent.gain, agent.pending_correction)
    return deficit != 0 or any(deltas.values())


def wake_acted_before(state: NetworkState, agent_id: str) -> bool:
    """The older, wider rule: any wake with a deficit or a carried residual
    logged an update, even one that moved no rate."""
    return (state.agents[agent_id].pending_correction != 0
            or observed_deficit(state, agent_id) != 0)


def reference_run(state: NetworkState, horizon: float, acts=wake_acts) -> NetworkState:
    """The event loop without dormancy: every agent is scanned at every step.

    A wake that cannot act (`acts` false for a non-exempt agent, or a
    central-bank wake with no issuance due) advances the agent's counter and
    wake time and logs nothing; every other wake goes through
    `update_agent`. `run` must reproduce this exactly with the default `acts`.
    """
    end = state.now + horizon
    while True:
        agent_id, agent_t = next_event(state)
        sched_t, sched_kind = _peek_scheduled(state)
        if min(agent_t, sched_t) >= end:
            break
        if sched_t <= agent_t:
            _run_scheduled(state, sched_kind, sched_t)
            continue
        agent = state.agents[agent_id]
        if agent.continuity_exempt:
            schedule, cursor = state.spec.issuance, state.cursors["issuance"]
            due = cursor < len(schedule) and schedule[cursor].time <= agent_t
        else:
            due = acts(state, agent_id)
        if due:
            update_agent(state, agent_id, agent_t)
        else:
            agent.event_count += 1
            agent.next_time = agent_t + rng.exponential(agent.mean_wait, agent.event_key,
                                                         agent.event_count)
    state.now = end
    return state


def wider_rule_run(spec, n_terms: int, assignment=None) -> NetworkState:
    """`run_record`'s run and cuts under the older rule, `wake_acted_before`."""
    state = build_network(spec)
    if assignment is not None:
        apply_assignment(state, assignment)
    for term in range(n_terms):
        boundary = (term + 1) * spec.term_length
        reference_run(state, boundary - state.now, acts=wake_acted_before)
        settle_all(state, boundary, term=term)
    return state


def residual_only_updates(log) -> list:
    """Logged non-exempt updates with a zero deficit that moved no rate."""
    return [ev for ev in log if ev.kind == "AgentUpdate" and not ev.payload.get("exempt")
            and ev.payload["deficit"] == 0 and not any(ev.payload["deltas"].values())]


def json_values(max_leaves: int = 10):
    """Arbitrary JSON-shaped values, NaN and infinities included."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=max_leaves,
    )
