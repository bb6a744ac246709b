"""Flash core: the paper's primary contribution."""

from repro.core.base import Router, RouterStats, RoutingOutcome
from repro.core.classifier import (
    StaticThresholdClassifier,
    StreamingQuantileClassifier,
)
from repro.core.fee_optimizer import (
    PaymentSplit,
    split_payment,
    split_payment_greedy,
    split_payment_lp,
)
from repro.core.flash import DEFAULT_K, DEFAULT_M, FlashRouter
from repro.core.maxflow import PathSearchResult, find_elephant_paths
from repro.core.mice import MiceRoutingResult, route_mice_payment
from repro.core.routing_table import RoutingTable, TableEntry

__all__ = [
    "DEFAULT_K",
    "DEFAULT_M",
    "FlashRouter",
    "MiceRoutingResult",
    "PathSearchResult",
    "PaymentSplit",
    "Router",
    "RouterStats",
    "RoutingOutcome",
    "RoutingTable",
    "StaticThresholdClassifier",
    "StreamingQuantileClassifier",
    "TableEntry",
    "find_elephant_paths",
    "route_mice_payment",
    "split_payment",
    "split_payment_greedy",
    "split_payment_lp",
]
