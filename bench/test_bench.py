"""Tests of the benchmark itself: inputs, traced run, span arithmetic."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from random import Random

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_parley()

import parley.agents  # noqa: E402
import parley.individual  # noqa: E402
import parley.patterns  # noqa: E402


def small_docs() -> list[dict]:
    rng = Random(5)
    return [
        workloads.faulty_individual(rng, "individual_sequential", n_tasks=12),
        workloads.faulty_individual(rng, "individual_mixed", n_tasks=12),
        workloads.joint_fanout(rng, 0, n_tasks=6, pool=60, fanout=25),
    ]


def small_harness(tmp_path: Path) -> run.Harness:
    inputs = []
    for doc in small_docs():
        path = tmp_path / f"{doc['scenario_id']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        inputs.append(run._input(doc["scenario_id"], path, doc))
    return run.Harness("small", inputs, None)


@pytest.mark.parametrize("workload", ["faulty_individual", "joint_fanout"])
def test_same_seed_gives_identical_scenario_json(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert first != workloads.generate(workload, 4)


def test_bundled_order_depends_only_on_seed():
    assert workloads.bundled_pass(3) == workloads.bundled_pass(3)
    assert sorted(workloads.bundled_pass(3)) == sorted(workloads.BUNDLED)


def test_traced_run_renders_the_same_trace_bytes(tmp_path):
    h = small_harness(tmp_path)
    untraced = [h.run_one(inp)[4] for inp in h.inputs]
    recorder = tracing.SpanRecorder()
    with tracing.Tracer(recorder):
        traced = [h.run_one(inp)[4] for inp in h.inputs]
    assert traced == untraced
    counts = recorder.aggregate()
    assert counts["scenario.parse_scenario"][0] == len(h.inputs)
    assert counts["runtime.fnmatch"][0] > 0
    assert counts["agents.SelectionParticipant.on_message"][0] > 0


def test_generated_scenarios_pass_their_output_checks(tmp_path):
    h = small_harness(tmp_path)
    p = h.run_pass()
    assert h.failed == 0, h.problems
    assert h.attempted == sum(inp.tasks for inp in h.inputs)
    h.run_pass()
    assert h.failed == 0, h.problems  # repetitions agree
    assert all(stats["events"] > 0 for stats in p["stats"].values())


def test_output_checks_catch_a_task_that_silently_drops_out(tmp_path):
    doc = workloads.faulty_individual(Random(1), "individual_sequential", n_tasks=3)
    doc["tasks"][1]["initiator"] = "q0"  # two tasks on one initiator
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    h = run.Harness("shared", [run._input("shared", path, doc)], None)
    h.run_pass()
    assert h.failed > 0
    assert any("no messages on t0/c0" in problem for problem in h.problems)


def test_a_crash_fails_its_scenario_without_stopping_the_pass(tmp_path):
    docs = [small_docs()[2], small_docs()[0]]
    docs[0]["max_ticks"] = 1  # reply deadlines fall after this budget
    inputs = []
    for doc in docs:
        path = tmp_path / f"{doc['scenario_id']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        inputs.append(run._input(doc["scenario_id"], path, doc))
    h = run.Harness("crash", inputs, None)
    p = h.run_pass()
    assert h.failed == len(docs[0]["tasks"])
    assert "BudgetExceededError" in h.problems[0]
    assert list(p["stats"]) == [docs[1]["scenario_id"]]


def test_recorded_statistics_flag_a_differing_run(tmp_path):
    h = small_harness(tmp_path)
    stats = h.run_pass()["stats"]
    name = h.inputs[0].name
    changed = dict(stats[name], sha256="0" * 64)
    h2 = small_harness(tmp_path)
    h2.recorded = {name: changed}
    h2.run_pass()
    assert h2.failed == 1
    assert "differs from recorded statistics" in h2.problems[0]


def test_self_time_on_a_nested_recursive_span_tree():
    r = tracing.SpanRecorder()
    root = r.record("runtime.run_until_quiescent", -1, 0.0, 10.0)
    outer = r.record("patterns.content_matches", root, 1.0, 6.0)
    inner = r.record("patterns.content_matches", outer, 2.0, 4.0)
    r.record("patterns.content_matches", inner, 2.5, 3.0)
    r.record("runtime.note", root, 7.0, 9.0)
    r.record("runtime.note", -1, 11.0, 11.5)
    agg = r.aggregate()
    assert agg["runtime.run_until_quiescent"] == (1, pytest.approx(10 - 5 - 2))
    # outer 5-2, inner 2-0.5, innermost 0.5: the recursion is counted once
    assert agg["patterns.content_matches"] == (3, pytest.approx(5.0))
    assert agg["runtime.note"] == (2, pytest.approx(2.5))
    assert agg["scenario.summarize"] == (0, 0.0)


def test_wrapped_recursion_links_each_call_to_its_caller():
    r = tracing.SpanRecorder()
    with tracing.Tracer(r):
        assert parley.patterns.content_matches({"a": {"b": "?string"}}, {"a": {"b": "x"}})
    assert list(r.parent) == [-1, 0, 1]
    assert [tracing.SPAN_NAMES[i] for i in r.name] == ["patterns.content_matches"] * 3
    assert all(r.start[i] <= r.start[i + 1] and r.end[i + 1] <= r.end[i] for i in range(2))


def test_wrappers_are_installed_where_looked_up_and_removed_after():
    original = parley.individual.purge_collection
    tracer = tracing.Tracer(tracing.SpanRecorder())
    with tracer:
        assert parley.agents.purge_collection is parley.individual.purge_collection
        assert parley.agents.purge_collection is not original
        assert tracing.installed_wrappers()
    assert tracing.installed_wrappers() == []
    assert parley.agents.purge_collection is original
    assert parley.individual.purge_collection is original


def test_spans_are_written_one_per_line(tmp_path):
    r = tracing.SpanRecorder()
    root = r.record("scenario.summarize", -1, 1.0, 1.5)
    r.record("runtime.note", root, 1.25, 1.5)
    r.write(tmp_path / "spans.tsv")
    lines = (tmp_path / "spans.tsv").read_text().splitlines()
    assert lines[1:] == [
        "0\t-1\tscenario.summarize\t0\t500000000",
        "1\t0\truntime.note\t250000000\t500000000",
    ]


def test_speed_sampler_times_the_reference_while_entered():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    sampler = reference.SpeedSampler()
    with sampler:
        mark = sampler.mark()
        with sampler.timing():
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        stolen, scale = sampler.since(mark)
    assert len(sampler.samples) - mark[0] >= 5
    assert 0 < stolen < 0.2
    assert scale > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_work_starts_no_garbage_collection():
    import gc

    collections = []

    def note(phase, info):
        collections.append(phase)

    threshold = gc.get_threshold()
    gc.collect()
    gc.callbacks.append(note)
    gc.set_threshold(1)  # any tracked allocation would start a collection
    try:
        for _ in range(20):
            reference.work()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(note)
    assert collections == []


def test_speed_sampler_keeps_a_stale_sample_out_of_the_scenario_time():
    sampler = reference.SpeedSampler()
    sampler.sampled_at = 0.0  # the last sample is long stale
    mark = sampler.mark()
    assert len(sampler.samples) == 2  # a fresh sample, before the mark
    with sampler.timing():  # not entered: no alarms
        pass
    stolen, scale = sampler.since(mark)
    assert stolen == 0.0
    # fewer than WINDOW samples: the scale comes from both
    assert scale == reference.NOMINAL_S / statistics.median(sampler.samples)


def test_benchmark_json_lists_the_metrics_a_traced_pass_reports(tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    h = small_harness(tmp_path)
    recorder = tracing.SpanRecorder()
    with tracing.Tracer(recorder):
        p = h.run_pass()
    reported = run.layer_metrics(h, p, recorder.aggregate())
    names = {name: unit for name, (_, unit) in reported.items()}
    names["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == names
