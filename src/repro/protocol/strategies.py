"""Testbed routing strategies: Flash, Spider, and SP over the protocol.

These are the §5 incarnations of the routing schemes: instead of reading a
simulator view, they learn balances through PROBE rounds and move funds
through the two-phase commit, so every overhead appears as simulated time
(the processing-delay metric of Figs 12 and 13).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass

from repro.core.fee_optimizer import split_payment
from repro.core.maxflow import find_elephant_paths
from repro.core.routing_table import RoutingTable
from repro.network.channel import NodeId
from repro.network.compact import CompactTopology
from repro.network.paths import bfs_shortest_path, edge_disjoint_shortest_paths
from repro.network.view import ProbeResult
from repro.baselines.spider import SPIDER_NUM_PATHS, waterfill
from repro.protocol.driver import PaymentDriver, SubPayment
from repro.protocol.network import ProtocolNetwork
from repro.traces.workload import Transaction

_EPS = 1e-9

Path = list[NodeId]


@dataclass(frozen=True)
class TestbedOutcome:
    """Per-payment result in the testbed."""

    success: bool
    delivered: float
    elapsed: float
    probe_messages: int
    is_mouse: bool


class _DriverProbeAdapter:
    """Adapts a :class:`PaymentDriver` to the probe interface Algorithm 1
    expects, so the exact same ``find_elephant_paths`` code runs on the
    testbed as in the trace simulator."""

    def __init__(self, driver: PaymentDriver, network: ProtocolNetwork) -> None:
        self._driver = driver
        self._network = network

    def probe_path(self, path: Path) -> ProbeResult:
        forward, reverse = self._driver.probe(path)
        fees = tuple(
            self._network.graph.fee_policy(u, v) for u, v in zip(path, path[1:])
        )
        return ProbeResult(tuple(path), tuple(forward), tuple(reverse), fees)


class TestbedStrategy(abc.ABC):
    """A sender-side routing strategy speaking the testbed protocol."""

    name: str = "strategy"

    def __init__(self, network: ProtocolNetwork, rng: random.Random) -> None:
        self.network = network
        self.rng = rng
        self.topology: CompactTopology = network.graph.compact()

    def execute(self, transaction: Transaction, is_mouse: bool) -> TestbedOutcome:
        """Run the full protocol for one payment; time it in simulated time."""
        start = self.network.queue.now
        driver = PaymentDriver(self.network, transaction.sender, transaction.txid)
        success = self._run(driver, transaction)
        elapsed = self.network.queue.now - start
        return TestbedOutcome(
            success=success,
            delivered=transaction.amount if success else 0.0,
            elapsed=elapsed,
            probe_messages=driver.probe_messages,
            is_mouse=is_mouse,
        )

    @abc.abstractmethod
    def _run(self, driver: PaymentDriver, transaction: Transaction) -> bool:
        """Route one payment; return success."""


class ShortestPathStrategy(TestbedStrategy):
    """SP: one COMMIT on the fewest-hop path; CONFIRM or REVERSE."""

    name = "SP"

    def __init__(self, network: ProtocolNetwork, rng: random.Random) -> None:
        super().__init__(network, rng)
        self._cache: dict[tuple[NodeId, NodeId], Path | None] = {}

    def _path(self, source: NodeId, target: NodeId) -> Path | None:
        pair = (source, target)
        if pair not in self._cache:
            self._cache[pair] = bfs_shortest_path(self.topology, source, target)
        return self._cache[pair]

    def _run(self, driver: PaymentDriver, transaction: Transaction) -> bool:
        path = self._path(transaction.sender, transaction.receiver)
        if path is None:
            return False
        sub, ok = driver.commit_one(path, transaction.amount)
        if ok:
            driver.confirm([sub])
            return True
        driver.reverse([sub])
        return False


class SpiderStrategy(TestbedStrategy):
    """Spider: probe 4 edge-disjoint paths, waterfill, 2PC."""

    name = "Spider"

    def __init__(
        self,
        network: ProtocolNetwork,
        rng: random.Random,
        num_paths: int = SPIDER_NUM_PATHS,
    ) -> None:
        super().__init__(network, rng)
        self.num_paths = num_paths
        self._cache: dict[tuple[NodeId, NodeId], list[Path]] = {}

    def _paths(self, source: NodeId, target: NodeId) -> list[Path]:
        pair = (source, target)
        if pair not in self._cache:
            self._cache[pair] = edge_disjoint_shortest_paths(
                self.topology, source, target, self.num_paths
            )
        return self._cache[pair]

    def _run(self, driver: PaymentDriver, transaction: Transaction) -> bool:
        paths = self._paths(transaction.sender, transaction.receiver)
        if not paths:
            return False
        capacities = [min(driver.probe(path)[0]) for path in paths]
        allocations = waterfill(capacities, transaction.amount)
        if allocations is None:
            return False
        requests = [
            (path, amount)
            for path, amount in zip(paths, allocations)
            if amount > _EPS
        ]
        if not requests:
            return False
        results = driver.commit(requests)
        committed = [sub for sub, _ in results]
        if all(ok for _, ok in results):
            driver.confirm(committed)
            return True
        driver.reverse(committed)
        return False


class FlashStrategy(TestbedStrategy):
    """Flash over the protocol: Algorithm 1 + split for elephants, routing
    table + trial-and-error for mice (§5.2 parameters: k=20, m=4)."""

    name = "Flash"

    def __init__(
        self,
        network: ProtocolNetwork,
        rng: random.Random,
        threshold: float,
        k: int = 20,
        m: int = 4,
        optimize_fees: bool = False,
    ) -> None:
        super().__init__(network, rng)
        self.threshold = threshold
        self.k = k
        self.m = m
        self.optimize_fees = optimize_fees
        self.table = RoutingTable(m=m)

    def _run(self, driver: PaymentDriver, transaction: Transaction) -> bool:
        if transaction.amount >= self.threshold:
            return self._run_elephant(driver, transaction)
        return self._run_mouse(driver, transaction)

    def _run_elephant(self, driver: PaymentDriver, transaction: Transaction) -> bool:
        adapter = _DriverProbeAdapter(driver, self.network)
        search = find_elephant_paths(
            self.topology,
            adapter,
            transaction.sender,
            transaction.receiver,
            transaction.amount,
            self.k,
        )
        if not search.satisfied:
            return False
        split = split_payment(
            search, transaction.amount, optimize_fees=self.optimize_fees
        )
        if split.total + _EPS < transaction.amount:
            return False
        results = driver.commit(
            [(list(path), amount) for path, amount in split.transfers]
        )
        committed = [sub for sub, _ in results]
        if all(ok for _, ok in results):
            driver.confirm(committed)
            return True
        driver.reverse(committed)
        return False

    def _run_mouse(self, driver: PaymentDriver, transaction: Transaction) -> bool:
        entry = self.table.lookup(
            transaction.sender, transaction.receiver, self.topology
        )
        if not entry.paths:
            return False
        order = list(entry.paths)
        self.rng.shuffle(order)
        committed: list[SubPayment] = []
        remaining = transaction.amount
        dead: list[Path] = []
        for path in order:
            if remaining <= _EPS:
                break
            sub, ok = driver.commit_one(path, remaining)
            if ok:
                committed.append(sub)
                remaining = 0.0
                break
            # Full amount bounced: roll back its partial escrows, probe for
            # the effective capacity, and ship what fits.
            driver.reverse([sub])
            forward, _ = driver.probe(path)
            effective = min(forward)
            if effective <= _EPS:
                dead.append(path)
                continue
            partial = min(effective, remaining)
            sub, ok = driver.commit_one(path, partial)
            if ok:
                committed.append(sub)
                remaining -= partial
            else:
                driver.reverse([sub])
        for dead_path in dead:
            self.table.replace_path(
                transaction.sender, transaction.receiver, dead_path, self.topology
            )
        if remaining <= _EPS:
            driver.confirm(committed)
            return True
        driver.reverse(committed)
        return False
