"""Benchmark of the parley simulator, measured from outside.

One caller runs scenarios back to back (a closed loop): each
``parse_scenario -> build_runtime -> run_until_quiescent -> summarize ->
render_trace`` pass starts when the previous one has finished.  Every
number is host time; the simulated statistics (events, ticks, faults,
recoveries, outcomes, trace sha256) are checked, not measured.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all      # every workload, untraced then traced
    python3 bench/run.py --record            # rewrite bench/expected.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "bench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("bundled_scenarios", "faulty_individual", "joint_fanout")
SETUP_PROBES = 21
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
SHOWN_PROBLEMS = 20


def import_parley():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import parley.runtime
        import parley.scenario
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import parley from {src}: {exc}")
    if not Path(parley.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bench: parley was imported from {parley.__file__}, not {src}")
    return parley.scenario, parley.runtime


@dataclass
class Input:
    """One scenario file of a pass, with what the checks need to know."""

    name: str
    path: Path
    tasks: int
    protocols: int
    joint: bool
    golden_trace: str | None = None
    golden_summary: dict | None = None


def _input(name: str, path: Path, doc: dict, **golden) -> Input:
    return Input(
        name=name,
        path=path,
        tasks=len(doc["tasks"]),
        protocols=len(doc["protocols"]),
        joint=doc["selection_mode"] == "joint",
        **golden,
    )


def prepare(workload: str, seed: int) -> list[Input]:
    """The scenario files of one pass; generated ones are written under WORK."""
    if workload == "bundled_scenarios":
        inputs = []
        for name in workloads.bundled_pass(seed):
            paths = (
                workloads.BUNDLED_DIR / f"{name}.json",
                workloads.GOLDEN_DIR / f"{name}.trace.jsonl",
                workloads.GOLDEN_DIR / f"{name}.summary.json",
            )
            for path in paths:
                if not path.is_file():
                    raise SystemExit(f"bench: missing {path}")
            inputs.append(
                _input(
                    name,
                    paths[0],
                    json.loads(paths[0].read_text(encoding="utf-8")),
                    golden_trace=paths[1].read_text(encoding="utf-8"),
                    golden_summary=json.loads(paths[2].read_text(encoding="utf-8")),
                )
            )
        return inputs
    WORK.mkdir(parents=True, exist_ok=True)
    inputs = []
    for name, text in workloads.generate(workload, seed):
        path = WORK / f"{workload}-{seed}-{os.getpid()}-{name}.json"
        path.write_text(text, encoding="utf-8")
        inputs.append(_input(name, path, json.loads(text)))
    return inputs


def simulated_stats(trace, summary, text: str) -> dict:
    kinds = Counter(event.kind for event in trace)
    per_tick = Counter(event.tick for event in trace if event.kind == "deliver")
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "events": len(trace),
        "deliveries": kinds["deliver"],
        "ticks": summary.ticks,
        "faults": kinds["fault"],
        "recoveries": kinds["recovery"],
        "outcomes": dict(sorted(Counter(t.outcome for t in summary.tasks).items())),
        "max_deliveries_per_tick": max(per_tick.values(), default=0),
    }


def golden_summary(trace, summary) -> dict:
    """The summary in the shape frozen under tests/data/*.summary.json."""
    return {
        "tasks": [
            {
                "task_id": t.task_id,
                "outcome": t.outcome,
                "messages": t.messages,
                "recoveries": t.recoveries,
                "terminated": t.terminated,
            }
            for t in summary.tasks
        ],
        "events": len(trace),
        "ticks": summary.ticks,
    }


def check_generated(scenario, trace, summary) -> list[str]:
    """Every task terminal, every send delivered, and each task's own
    conversation in the trace with the message and recovery counts the
    summary reports."""
    problems = []
    sends, delivers = Counter(), Counter()
    messages, recoveries = Counter(), Counter()
    for event in trace:
        payload = event.payload
        if event.kind == "send":
            sends[payload["seq"]] += 1
            if payload["from"] != payload["to"]:
                messages[payload["conversation"]] += 1
        elif event.kind == "deliver":
            delivers[payload["seq"]] += 1
        elif event.kind == "recovery":
            recoveries[payload.get("conversation")] += 1
    if sends != delivers:
        problems.append(f"{len(sends - delivers)} send(s) without their deliver")
    if [t.task_id for t in summary.tasks] != [t.task_id for t in scenario.tasks]:
        problems.append("summary tasks differ from scenario tasks")
    for spec, task in zip(scenario.tasks, summary.tasks):
        if scenario.selection_mode == "joint":
            conversation = f"{spec.task_id}!select"
        else:
            (participant,) = {a for agents in spec.participants.values() for a in agents}
            conversation = f"{spec.task_id}/{participant}"
        if task.outcome == "unresolved":
            problems.append(f"task {task.task_id} unresolved")
        if messages[conversation] == 0:
            problems.append(f"task {task.task_id}: no messages on {conversation}")
        if (task.messages, task.recoveries) != (
            messages[conversation],
            recoveries[conversation],
        ):
            problems.append(
                f"task {task.task_id}: summary says {task.messages} messages and "
                f"{task.recoveries} recoveries, trace has {messages[conversation]} "
                f"and {recoveries[conversation]}"
            )
    return problems


class Harness:
    """Runs passes over one workload's inputs and keeps the accounts."""

    def __init__(self, workload: str, inputs: list[Input], recorded: dict | None):
        self.workload = workload
        self.inputs = inputs
        self.recorded = recorded or {}
        self.S, self.R = import_parley()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_stats: dict[str, dict] = {}
        self.speed = reference.SpeedSampler()

    def fail(self, name: str, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(f"{name}: {problem}")

    def run_one(self, inp: Input):
        # look the functions up on their modules at call time, so the
        # traced run goes through the wrappers
        start = time.perf_counter()
        scenario = self.S.parse_scenario(inp.path)
        runtime = self.S.build_runtime(scenario)
        trace = runtime.run_until_quiescent()
        summary = self.S.summarize(scenario, runtime, trace)
        text = self.R.render_trace(trace)
        return time.perf_counter() - start, scenario, trace, summary, text

    def run_pass(self) -> dict:
        """Run every input once; returns timings and simulated totals.

        ``seconds`` and ``scenario_s`` are scaled to the nominal machine by
        the reference timed around each scenario (see reference.py);
        ``host_seconds`` is the raw sum.
        """
        out = {"seconds": 0.0, "host_seconds": 0.0, "scenario_s": {}, "events": 0,
               "terminal": 0, "stats": {}}
        for inp in self.inputs:
            self.attempted += inp.tasks
            mark = self.speed.mark()
            try:
                with self.speed.timing():
                    seconds, scenario, trace, summary, text = self.run_one(inp)
            except Exception as exc:  # a crash fails this scenario, not the harness
                self.fail(inp.name, f"raised {type(exc).__name__}: {exc}", inp.tasks)
                continue
            stolen, scale = self.speed.since(mark)
            seconds -= stolen
            out["host_seconds"] += seconds
            out["seconds"] += seconds * scale
            out["scenario_s"][inp.name] = seconds * scale
            out["events"] += len(trace)
            out["terminal"] += sum(t.outcome != "unresolved" for t in summary.tasks)
            stats = simulated_stats(trace, summary, text)
            out["stats"][inp.name] = stats
            self.check(inp, scenario, trace, summary, text, stats)
        return out

    def check(self, inp: Input, scenario, trace, summary, text: str, stats: dict) -> None:
        if inp.golden_trace is not None:
            if text != inp.golden_trace:
                self.fail(inp.name, "trace differs from its golden")
            if golden_summary(trace, summary) != inp.golden_summary:
                self.fail(inp.name, "summary differs from its golden")
        else:
            for problem in check_generated(scenario, trace, summary):
                self.fail(inp.name, problem)
        first = self.first_stats.setdefault(inp.name, stats)
        if stats != first:
            self.fail(inp.name, f"repetitions differ: {first} then {stats}")
        recorded = self.recorded.get(inp.name)
        if recorded is not None and stats != recorded:
            self.fail(inp.name, f"differs from recorded statistics: {recorded} now {stats}")

    def setup_seconds(self) -> list[float]:
        """Set-up time of fresh processes on every scenario of the pass."""
        values = []
        for _ in range(SETUP_PROBES):
            try:
                done = subprocess.run(
                    [sys.executable, "-I", str(HERE / "setup_probe.py"),
                     *(str(inp.path) for inp in self.inputs)],
                    cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                self.fail("setup", f"probe took over {PROBE_TIMEOUT_S} s")
                continue
            if done.returncode != 0:
                self.fail("setup", f"probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            host_s, scaled_s = map(float, done.stdout.split())
            values.append((scaled_s, host_s))
        return values


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def tail_percentile(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def metric(value: float, unit: str, samples: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "samples": samples, "note": note}


def host_note(value: float, unit: str) -> str:
    return f"host {value:.6g} {unit}"


def measure(h: Harness, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    setups = h.setup_seconds()
    if not setups:
        raise SystemExit(f"bench: no set-up probe finished: {h.problems}")
    setup_s = statistics.median(scaled for scaled, _ in setups)
    with h.speed:
        h.run_pass()  # warm-up: lazy set-up and caches, and the memory of one run
        rss = peak_rss_mb()
        passes = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
            passes.append(h.run_pass())
    # each scenario's latencies apart: a pass mixes scenarios of different
    # sizes, and a percentile of the mixture would fall between them
    scenario_ms: dict[str, list[float]] = {}
    for p in passes:
        for name, s in p["scenario_s"].items():
            scenario_ms.setdefault(name, []).append(s * 1000)
    if not scenario_ms:
        raise SystemExit(f"bench: every scenario run failed: {h.problems[:3]}")
    busy = sum(p["seconds"] for p in passes)
    host_busy = sum(p["host_seconds"] for p in passes)
    events = sum(p["events"] for p in passes)
    terminal = sum(p["terminal"] for p in passes)
    n = sum(len(v) for v in scenario_ms.values())
    tail = tail_percentile(min(len(v) for v in scenario_ms.values()))
    metrics = {
        "wall_s": metric(
            statistics.median(p["seconds"] for p in passes), "s", len(passes),
            host_note(statistics.median(p["host_seconds"] for p in passes), "s")),
        "events_per_s": metric(events / busy, "1/s", len(passes),
                               host_note(events / host_busy, "1/s")),
        "tasks_per_s": metric(terminal / busy, "1/s", len(passes),
                              host_note(terminal / host_busy, "1/s")),
        "scenario_ms.p50": metric(
            statistics.fmean(statistics.median(v) for v in scenario_ms.values()), "ms", n,
            f"mean over {len(scenario_ms)} scenarios"),
        "scenario_ms.p99": metric(
            statistics.fmean(percentile(v, 99.0) for v in scenario_ms.values()), "ms", n,
            "" if tail is not None and tail >= 99 else
            f"too few samples for p99; highest supported: {f'p{tail:g}' if tail else 'none'}",
        ),
        "setup_s": metric(setup_s, "s", len(setups),
                          host_note(statistics.median(host for _, host in setups), "s")),
        "peak_rss_mb": metric(rss, "MB", 1),
    }
    return metrics


def layer_metrics(h: Harness, p: dict, agg: dict) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass; self times scaled like the pass."""
    scale = p["seconds"] / p["host_seconds"] if p["host_seconds"] else 1.0
    out: dict[str, tuple[float, str]] = {}
    for name, (calls, self_s) in agg.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_ms"] = (self_s * scale * 1000, "ms")
    stats = p["stats"].values()
    faults = sum(s["faults"] for s in stats)
    recoveries = sum(s["recoveries"] for s in stats)
    fnmatch_calls = agg["runtime.fnmatch"][0]
    protocols = sum(inp.protocols for inp in h.inputs)
    joint_tasks = sum(inp.tasks for inp in h.inputs if inp.joint)
    out.update({
        "runtime.events": (sum(s["events"] for s in stats), "count"),
        "runtime.deliveries": (sum(s["deliveries"] for s in stats), "count"),
        "runtime.max_deliveries_per_tick": (
            max((s["max_deliveries_per_tick"] for s in stats), default=0), "count"),
        "runtime.faults_fired": (faults, "count"),
        # capped at 1, so a matcher that needs no fnmatch call per fired
        # fault scores best rather than 0
        "runtime.fault_hit_ratio": (
            faults / max(fnmatch_calls, faults) if faults else 0.0, "ratio"),
        "model.load_protocol.calls_per_protocol": (
            agg["model.load_protocol"][0] / protocols, "ratio"),
        "joint.vectors_per_selection": (
            agg["joint.next_vector"][0] / joint_tasks if joint_tasks else 0.0, "ratio"),
        "machine.replay_states.calls_per_recovery": (
            agg["machine.replay_states"][0] / recoveries if recoveries else 0.0, "ratio"),
        "trace.spans": (sum(calls for calls, _ in agg.values()), "count"),
    })
    return out


def measure_traced(h: Harness, seconds: float) -> dict:
    """Per-layer metrics from a traced run, plus the tracing overhead."""
    recorder = tracing.SpanRecorder()
    untraced, traced, per_pass = [], [], []
    with h.speed:
        h.run_pass()  # warm-up, untraced
        start = time.perf_counter()
        while time.perf_counter() < start + seconds / 2 or not untraced:
            untraced.append(h.run_pass()["seconds"])
    # no alarms inside traced scenarios, so no span holds sampler time;
    # each scenario is scaled by the latest samples, taken between scenarios
    with tracing.Tracer(recorder):
        while time.perf_counter() < start + seconds or not traced:
            recorder.clear()
            p = h.run_pass()
            traced.append(p["seconds"])
            per_pass.append(layer_metrics(h, p, recorder.aggregate()))
    left = tracing.installed_wrappers()
    if left:
        h.fail("tracing", f"wrappers left installed: {left}")
    WORK.mkdir(parents=True, exist_ok=True)
    recorder.write(WORK / f"spans-{h.workload}.tsv")  # spans of the last traced pass
    metrics = {
        name: metric(statistics.median(pp[name][0] for pp in per_pass), unit, len(per_pass))
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = metric(overhead, "s", len(traced),
                                         f"untraced n={len(untraced)}")
    return metrics


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}  (times scaled to the nominal machine of bench/reference.py)")
    for name, m in metrics.items():
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}{note}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Harness, dict]:
    expected = load_expected()
    recorded = expected["stats"].get(workload, {}).get(str(seed))
    inputs = prepare(workload, seed)
    try:
        h = Harness(workload, inputs, recorded)
        metrics = measure_traced(h, seconds) if trace else measure(h, seconds)
    finally:
        for inp in inputs:
            if inp.golden_trace is None:
                inp.path.unlink(missing_ok=True)
    print_table(f"{workload} seed={seed} trace={int(trace)}", metrics)
    print(f"  failed_ratio {h.failed / max(h.attempted, 1):.6g} "
          f"({h.failed} failed of {h.attempted} tasks attempted)")
    for problem in h.problems[:SHOWN_PROBLEMS]:
        print(f"  FAILED {problem}", file=sys.stderr)
    return h, metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def record(seeds: list[int]) -> None:
    """Rewrite the recorded simulated statistics from one pass per seed."""
    expected = load_expected()
    for workload in WORKLOADS:
        for seed in seeds:
            inputs = prepare(workload, seed)
            try:
                h = Harness(workload, inputs, None)
                p = h.run_pass()
            finally:
                for inp in inputs:
                    if inp.golden_trace is None:
                        inp.path.unlink(missing_ok=True)
            if h.failed:
                raise SystemExit(f"bench: {workload} seed {seed} failed: {h.problems[:3]}")
            expected["stats"].setdefault(workload, {})[str(seed)] = p["stats"]
            print(f"recorded {workload} seed {seed}: {len(p['stats'])} scenario(s)")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    attempted = failed = 0
    everything = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE, text=True,
            )
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(f"bench: {workload} --trace {trace} exited {done.returncode}")
            print("\n".join(lines[1:-1]))  # the table; the machine line is printed once
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            everything.update({f"{workload}/{k}": m for k, m in result["metrics"].items()})
    print(result_line(failed == 0, attempted, failed, everything))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded statistics of the default and held-out seeds")
    args = parser.parse_args(argv)
    import_parley()
    expected = load_expected()
    if args.record:
        record([expected["default_seed"], expected["held_out_seed"]])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seed = expected["default_seed"] if args.seed is None else args.seed
    print(json.dumps({"machine": machine_info()}))
    if args.workload == "all":
        return run_all(seed, args.seconds)
    h, metrics = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(result_line(h.failed == 0, h.attempted, h.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
