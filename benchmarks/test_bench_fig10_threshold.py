"""Fig 10: impact of the elephant-mice threshold.

Paper: success volume stays roughly stable until 80-90% of payments are
classified as mice, while probing overhead falls as the mice percentage
grows — justifying the default 90% split.
"""

from _common import once, save_result

from repro.eval import fig10_threshold_sweep
from repro.scenarios import get_scenario

RIPPLE = get_scenario("ripple-default")

PERCENTAGES = (0, 50, 90, 100)


def test_fig10_threshold(benchmark):
    result = once(
        benchmark,
        lambda: fig10_threshold_sweep(
            RIPPLE, mice_percentages=PERCENTAGES, runs=2, seed=5
        ),
    )
    save_result("fig10", "Fig 10 - threshold sweep (Ripple)", result.format())
    by_pct = dict(zip(result.mice_percentages, result.probe_messages))
    # Probing falls monotonically-ish as more payments are mice.
    assert by_pct[90] < by_pct[0]
    assert by_pct[100] <= by_pct[50]
    volumes = dict(zip(result.mice_percentages, result.success_volumes))
    # The 90%-mice operating point keeps most of the all-elephant volume.
    assert volumes[90] > 0.5 * volumes[0]
