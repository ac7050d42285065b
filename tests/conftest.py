from fractions import Fraction

import pytest
from hypothesis import strategies as st

from moneyflow import NetworkState, build_network, national_5, three_agent_cycle, two_agent_kernel
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


def json_values(max_leaves: int = 10):
    """Arbitrary JSON-shaped values, NaN and infinities included."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=max_leaves,
    )
