"""A failed route attempt builds no object of its own.

Every router's failure path returns the one frozen
:meth:`RoutingOutcome.failure` instance, and a probe's
:class:`ProbeResult`, which ``_probe`` builds without the dataclass
``__init__``, is indistinguishable from one its constructor builds.
"""

import dataclasses
import random

import pytest

from repro.baselines.landmark import LandmarkRouter
from repro.baselines.shortest_path import ShortestPathRouter
from repro.baselines.speedymurmurs import SpeedyMurmursRouter
from repro.baselines.spider import SpiderRouter
from repro.core.base import RoutingOutcome
from repro.core.classifier import StaticThresholdClassifier
from repro.core.flash import FlashRouter
from repro.network.fees import ChannelPolicy
from repro.network.view import NetworkView, ProbeResult
from repro.traces.workload import Transaction


def flash(threshold):
    def build(view):
        return FlashRouter(
            view,
            classifier=StaticThresholdClassifier(threshold=threshold),
            rng=random.Random(0),
        )

    return build


ROUTERS = {
    "flash-elephant": flash(threshold=1.0),
    "flash-mouse": flash(threshold=1e12),
    "spider": SpiderRouter,
    "speedymurmurs": SpeedyMurmursRouter,
    "shortest-path": ShortestPathRouter,
    "landmark": LandmarkRouter,
}


@pytest.mark.parametrize("scheme", sorted(ROUTERS))
def test_failure_path_returns_the_shared_outcome(scheme, grid_graph):
    router = ROUTERS[scheme](NetworkView(grid_graph))
    # Far beyond any channel of the 100-funded grid: every scheme fails.
    too_large = Transaction(txid=0, sender=0, receiver=8, amount=1e6)
    first = router.route(too_large)
    second = router.route(too_large)
    assert first is RoutingOutcome.failure()
    assert second is first
    assert not first.success and first.delivered == 0.0
    assert first.transfers == () and first.fee == 0.0
    assert router.stats.routed == 2 and router.stats.succeeded == 0


def test_routers_reach_their_failure_paths(grid_graph):
    # The elephant and the mouse take Flash's two different paths.
    elephant = ROUTERS["flash-elephant"](NetworkView(grid_graph))
    mouse = ROUTERS["flash-mouse"](NetworkView(grid_graph))
    too_large = Transaction(txid=0, sender=0, receiver=8, amount=1e6)
    elephant.route(too_large)
    mouse.route(too_large)
    assert (elephant.elephant_count, elephant.mice_count) == (1, 0)
    assert (mouse.elephant_count, mouse.mice_count) == (0, 1)


def test_the_shared_outcome_is_frozen():
    outcome = RoutingOutcome.failure()
    for name, value in (("success", True), ("delivered", 1.0), ("fee", 2.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(outcome, name, value)
    assert RoutingOutcome.failure() == RoutingOutcome(
        success=False, delivered=0.0
    )


def _fee_graph(graph):
    """``graph`` with a distinct fee record on every direction."""
    for i, channel in enumerate(list(graph.channels())):
        graph.set_channel_policy(
            channel.a, channel.b, ChannelPolicy(base_fee=i, fee_rate=0.001)
        )
        graph.set_channel_policy(
            channel.b, channel.a, ChannelPolicy(base_fee=i, fee_rate=0.002)
        )
    return graph


@pytest.mark.parametrize("priced", [False, True])
def test_probe_result_is_its_constructor_built_twin(priced, grid_graph):
    graph = _fee_graph(grid_graph) if priced else grid_graph
    view = NetworkView(graph)
    graph.remove_channel(4, 5)
    for path in ([0, 1, 2, 5, 8], [0, 3], [3, 4, 5, 8]):
        twin = ProbeResult(tuple(path), *graph.probe_readings(path))
        probed = view.probe_path(path)
        assert type(probed) is ProbeResult
        assert probed == twin and twin == probed
        assert hash(probed) == hash(twin)
        assert repr(probed) == repr(twin)
        assert probed.bottleneck == twin.bottleneck
        with pytest.raises(dataclasses.FrozenInstanceError):
            probed.balances = ()


def test_probe_sets_every_field(line_graph):
    # A field added to ProbeResult but not set by ``_probe`` would read
    # its class-level default (or raise) instead of the probe's value.
    probed = NetworkView(line_graph).probe_path([0, 1, 2])
    fields = [field.name for field in dataclasses.fields(ProbeResult)]
    assert list(vars(probed)) == fields
