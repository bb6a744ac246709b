"""Fig 11: number of paths per receiver (m) for mice routing.

Paper: m=0 (route mice exactly like elephants) is the success-volume
upper bound; a few paths (m ~ 4-6) come within ~15% of it at >= 12x less
probing; performance stabilizes beyond m=6.
"""

from _common import once, save_result

from repro.eval import fig11_mice_paths_sweep
from repro.scenarios import get_scenario

RIPPLE = get_scenario("ripple-default")

M_VALUES = (0, 2, 4, 8)


def test_fig11_mice_paths(benchmark):
    result = once(
        benchmark,
        lambda: fig11_mice_paths_sweep(
            RIPPLE, m_values=M_VALUES, runs=2, seed=6
        ),
    )
    save_result("fig11", "Fig 11 - mice paths per receiver", result.format())
    volumes = dict(zip(result.m_values, result.mice_success_volumes))
    probes = dict(zip(result.m_values, result.mice_probe_messages))
    # m=0 (elephant-style) is the upper bound on mice success volume.
    assert volumes[0] >= max(volumes[m] for m in M_VALUES if m > 0) * 0.9
    # Routing-table mice probe far less than elephant-style mice.
    assert probes[4] < probes[0] / 3
    # More paths help volume (2 -> 8 should not hurt).
    assert volumes[8] >= volumes[2] * 0.8
