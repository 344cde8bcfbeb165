"""Tests of the benchmark's own logic: span arithmetic, speed scaling,
the checker, seeded inputs, and agreement with ``BENCHMARK.json``.

Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import icu  # noqa: E402
import run as bench  # noqa: E402
from tracer import NullTracer, Tracer, self_times  # noqa: E402

#: A small mix that still exercises every client in a second or two.
TINY = icu.Workload(
    "tiny", "self-test mix", vitals_period_s=1.0, cycle_sim_s=2.0,
    alarms_per_cycle=6, query_window_s=3.0, breakglass_every=4,
    standdown_after=2, research_share=0.1,
)


def tiny_run(seed: int, tmp_path: Path) -> icu.ICU:
    """A set-up ICU after two measured cycles, not yet checked."""
    run = icu.fresh(TINY, icu.Inputs(seed), tmp_path, f"seed{seed}")
    run.setup()
    run.run(cycles=2)
    return run


def checked(run: icu.ICU):
    try:
        run.finish()
    finally:
        run.close()
    return run.failures


def test_self_time_of_nested_spans():
    # outer [0, 100] holds middle [10, 60], which holds inner [20, 35];
    # outer also holds inner [70, 80]; solo [200, 230] is a second root.
    ticks = iter([0, 10, 20, 35, 60, 70, 80, 100, 200, 230])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    middle = tracer.wrap("middle", inner)

    def body():
        middle()
        inner()

    tracer.wrap("outer", body)()
    tracer.call("solo", lambda: None)
    assert tracer.self_ns == {
        "outer": 100 - 50 - 10, "middle": 50 - 15, "inner": 15 + 10,
        "solo": 30,
    }
    assert tracer.calls == {"outer": 1, "middle": 1, "inner": 2, "solo": 1}
    assert self_times(tracer.spans) == tracer.self_ns
    ledger = tracer.ledger(wall_ns=300)
    assert ledger["ledger.unattributed_ms"] == (300 - 130) / 1e6
    total_self = sum(v for k, v in ledger.items() if k.endswith(".self_ms"))
    assert abs(total_self + ledger["ledger.unattributed_ms"] - 300 / 1e6) \
        < 1e-12


def test_kept_spans_are_a_bounded_prefix():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks), keep=3)
    leaf = tracer.wrap("leaf", lambda: None)
    tracer.wrap("root", lambda: [leaf() for _ in range(4)])()
    assert len(tracer.spans) == 3
    assert tracer.spans[0][0] == "root" and tracer.spans[1][3] == 0
    assert tracer.calls["leaf"] == 4


def test_speed_scale_uses_the_probes_around_each_step(monkeypatch):
    ref = icu.PROBE_REF_NS
    probes = iter([ref, 3 * ref, 2 * ref])
    monkeypatch.setattr(icu, "speed_probe", lambda: next(probes))
    speed = icu.SpeedScale(NullTracer())
    assert speed.mark() == 1.0  # the first mark has no step before it
    assert speed.mark() == 0.5  # mean of ref and 3 ref: twice as slow
    assert speed.mark() == 0.4
    samples = icu.Samples()
    samples.add(10.0, 0.5)
    samples.extend([2.0, 4.0], 2.0)
    assert samples.raw == [10.0, 2.0, 4.0]
    assert samples.scaled() == [5.0, 4.0, 8.0]


def test_checker_reports_drop_duplicate_and_forbidden():
    sent = [(0, 1, 0), (0, 1, 1), (2, 5, 0)]
    assert check.exactly_once(sent, list(sent), "reading") == []
    assert len(check.exactly_once(sent, sent[:2], "reading")) == 1
    assert len(check.exactly_once(sent, sent + sent[:1], "reading")) == 1
    assert len(check.exactly_once(sent, sent + [(9, 9, 9)], "reading")) == 1
    assert check.forbidden_deliveries(0, "research") == []
    assert len(check.forbidden_deliveries(2, "research")) == 2
    assert len(check.counts_match({"a": 3}, {"a": 1, "b": 1}, "deny")) == 3


def test_checker_catches_faults_in_a_real_run(tmp_path):
    assert checked(tiny_run(3, tmp_path)) == []

    dropped = tiny_run(3, tmp_path)
    dropped.monitor_log.pop(5)
    assert checked(dropped)

    duplicated = tiny_run(3, tmp_path)
    duplicated.monitor_log.append(duplicated.monitor_log[7])
    assert checked(duplicated)

    leaked = tiny_run(3, tmp_path)
    leaked.research_delivered += 1
    assert checked(leaked) == ["research: forbidden message delivered"]


def test_same_seed_same_inputs_and_delay(tmp_path):
    assert icu.Inputs(7).sample(500) == icu.Inputs(7).sample(500)
    assert icu.Inputs(7).sample(500) != icu.Inputs(8).sample(500)
    first, second = tiny_run(7, tmp_path), tiny_run(7, tmp_path)
    assert checked(first) == [] and checked(second) == []
    assert first.published == second.published
    assert first.alarms_sent == second.alarms_sent
    p99 = "stream_sim_delay_p99_ms"
    assert first.end_to_end()[p99] == second.end_to_end()[p99]


def test_second_seed_passes_every_check(tmp_path):
    run = tiny_run(2, tmp_path)
    assert checked(run) == []
    assert run.research_sent and run.alarm_us and run.query_ms


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in icu.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.per_layer_units()


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
