"""Both perf gates' harnesses at toy scale, with only their exact checks.

The wall-clock floors stay in the ``wallclock`` gates; this runs in the
default suite so that a broken harness shows before CI's perf-gates job.
"""

from test_service_burst_gate import (
    assert_burst_completes,
    burst_bodies,
    held_burst,
)
from test_sim_warmstart_gate import (
    assert_warm_start_repairs,
    warmstart_replays,
)


def test_gate_harnesses_at_toy_scale(tmp_path):
    burst = held_burst(burst_bodies(16), 1, tmp_path / "store")
    assert_burst_completes(burst, 16)
    assert burst["peak_active"] == 16
    # below ~1,000 tasks warm start's repair realizes a longer makespan
    # than a re-solve on blast (3-91 % at 200-800 tasks, seeds 0-5), so
    # the makespan check is exercised at the smallest size it holds at
    assert_warm_start_repairs(warmstart_replays(1000))
