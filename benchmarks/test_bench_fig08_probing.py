"""Fig 8: probing message overhead, Flash vs Spider.

Paper (2,000 txns, scale 10): Flash saves 43% of probing messages on
Ripple and 37% on Lightning, despite using 20 paths for elephants —
because 90% of payments are mice that usually need zero probes.
"""

from _common import once, save_result

from repro.eval import fig8_probing_overhead
from repro.scenarios import get_scenario

RIPPLE = get_scenario("ripple-default")
LIGHTNING = get_scenario("lightning-default")


def test_fig8_ripple(benchmark):
    result = once(
        benchmark,
        lambda: fig8_probing_overhead(RIPPLE, runs=3, seed=3),
    )
    save_result("fig08_ripple", "Fig 8a - probing messages (Ripple)", result.format())
    assert result.flash_probes < result.spider_probes
    assert result.savings_percent > 15.0


def test_fig8_lightning(benchmark):
    # Capacity scale 40 (not the paper's 10): our 150-node benchmark graph
    # lacks the crawl's degree-300+ hubs, so Lightning-sized elephants need
    # more capacity headroom before Algorithm 1's early exit kicks in; at
    # scale 10 every elephant is infeasible and burns all k probes.  See
    # EXPERIMENTS.md.
    result = once(
        benchmark,
        lambda: fig8_probing_overhead(
            LIGHTNING, capacity_scale=40.0, runs=3, seed=3
        ),
    )
    save_result(
        "fig08_lightning", "Fig 8b - probing messages (Lightning)", result.format()
    )
    assert result.flash_probes < result.spider_probes
    assert result.savings_percent > 10.0
