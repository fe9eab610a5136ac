import pytest

from perfbench.hostspeed import LOOPS, NOMINAL_S, HostSpeed
from perfbench.layers import StepClock


def test_scale_uses_the_mean_of_the_loops_beside_a_timing():
    nominal = NOMINAL_S["python"]
    assert HostSpeed.scale(1.0, "python", nominal) == pytest.approx(1.0)
    assert HostSpeed.scale(1.0, "python", 2 * nominal) == pytest.approx(0.5)
    assert HostSpeed.scale(3.0, "python", nominal, 2 * nominal) == pytest.approx(2.0)


def test_disabled_host_speed_runs_no_loop_and_leaves_times_raw():
    host = HostSpeed(enabled=False)
    out, seconds = host.time("blas", lambda x: x + 1, 1)
    assert out == 2 and seconds < 1.0
    assert host.loop("mixed") == NOMINAL_S["mixed"]
    assert all(not v for v in host.loop_s.values())


def test_enabled_host_speed_times_every_loop_kind():
    host = HostSpeed(enabled=True)
    for kind in LOOPS:
        assert host.loop(kind) > 0
    assert set(host.speed()) == set(LOOPS) and all(v > 0 for v in host.speed().values())


def test_step_clock_leaves_the_loop_out_of_each_step():
    host = HostSpeed(enabled=False)
    clock = StepClock(host, "blas")
    loop = NOMINAL_S["blas"]
    # adam_step end, loop seconds, next step start (ns)
    clock.marks.extend([(0, loop, 2_000_000), (12_000_000, loop, 15_000_000),
                        (20_000_000, 2 * loop, 21_000_000)])
    assert clock.step_ms() == pytest.approx([10.0, 5.0 / 1.5])
    total, loops = clock.loop_seconds()
    assert total == pytest.approx(0.006) and loops == [loop, loop, 2 * loop]
