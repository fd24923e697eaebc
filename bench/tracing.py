"""Spans around the public functions of each ``parley`` layer.

The traced run installs wrappers from outside the program: every
function below is replaced, in every ``parley`` module that looks it up
by name, with a wrapper that records a span (name, start, end, parent).
Spans are kept in flat arrays so a pass with a million calls stays
small, and are turned into per-function call counts and self times
afterwards.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

#: (span name, module, attribute) of module-level functions; a span name
#: is ``<layer>.<function>``, the layer being the module of ``src/parley``
FUNCTIONS = (
    ("scenario.parse_scenario", "parley.scenario", "parse_scenario"),
    ("scenario._resolve", "parley.scenario", "_resolve"),
    ("scenario.load_registry", "parley.scenario", "load_registry"),
    ("scenario.build_runtime", "parley.scenario", "build_runtime"),
    ("scenario.summarize", "parley.scenario", "summarize"),
    ("model.load_protocol", "parley.model", "load_protocol"),
    ("model.match_task_to_protocols", "parley.model", "match_task_to_protocols"),
    ("runtime.fnmatch", "parley.runtime", "fnmatch"),
    ("runtime.render_trace", "parley.runtime", "render_trace"),
    ("joint.build_candidate_matrix", "parley.joint", "build_candidate_matrix"),
    ("joint.next_vector", "parley.joint", "next_vector"),
    ("joint.select_largest_set", "parley.joint", "select_largest_set"),
    ("joint.assign_roles_1_n", "parley.joint", "assign_roles_1_n"),
    ("individual.purge_collection", "parley.individual", "purge_collection"),
    ("individual.select_replacement_role", "parley.individual", "select_replacement_role"),
    ("individual.method_graph", "parley.individual", "method_graph"),
    ("individual.compute_recovery_points", "parley.individual", "compute_recovery_points"),
    ("individual.clamped_recovery_points", "parley.individual", "clamped_recovery_points"),
    ("mixed.instantiate_all", "parley.mixed", "instantiate_all"),
    ("mixed.handle_incoming", "parley.mixed", "handle_incoming"),
    ("mixed.handle_error_mixed", "parley.mixed", "handle_error_mixed"),
    ("mixed.reactivate", "parley.mixed", "reactivate"),
    ("machine.replay_states", "parley.machine", "replay_states"),
    ("machine.enabled_for_message", "parley.machine", "enabled_for_message"),
    ("patterns.content_matches", "parley.patterns", "content_matches"),
)

#: (span name, module, class, method) of methods, patched on the class
METHODS = (
    ("model.transitions_from", "parley.model", "RoleStateMachine", "transitions_from"),
    ("runtime.run_until_quiescent", "parley.runtime", "SimRuntime", "run_until_quiescent"),
    ("runtime.note", "parley.runtime", "SimRuntime", "note"),
    ("agents.JointInitiator.on_start", "parley.agents", "JointInitiator", "on_start"),
    ("agents.IndividualInitiator.on_start", "parley.agents", "IndividualInitiator", "on_start"),
) + tuple(
    (f"agents.{cls}.on_message", "parley.agents", cls, "on_message")
    for cls in (
        "JointInitiator",
        "SelectionParticipant",
        "IndividualInitiator",
        "SequentialResponder",
        "MixedResponder",
    )
)

SPAN_NAMES = tuple(item[0] for item in FUNCTIONS + METHODS)
_SPAN_IDS = {name: i for i, name in enumerate(SPAN_NAMES)}


class SpanRecorder:
    """Spans in memory: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def clear(self) -> None:
        """Drop every span; installed wrappers keep recording into self."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self._stack.clear()

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, span_name: str, fn):
        nid = _SPAN_IDS[span_name]
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.bench_span = span_name
        return traced

    def record(self, span_name: str, parent: int, start: float, end: float) -> int:
        """Append a finished span; used to build span trees directly."""
        self.name.append(_SPAN_IDS[span_name])
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        A span's self time is its duration minus the durations of its
        direct children, so a recursive call is charged once, to the
        innermost span that ran it.
        """
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        self_time = array("d", dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                self_time[parent] -= dur[idx]
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        for idx, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += self_time[idx]
        return {n: (calls[i], total[i]) for i, n in enumerate(SPAN_NAMES)}

    def write(self, path) -> None:
        """One span per line: index, parent index, name, and start and end
        in nanoseconds after the first span started."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for idx in range(len(self)):
                fh.write(
                    f"{idx}\t{self.parent[idx]}\t{SPAN_NAMES[self.name[idx]]}\t"
                    f"{round((self.start[idx] - origin) * 1e9)}\t"
                    f"{round((self.end[idx] - origin) * 1e9)}\n"
                )


class Tracer:
    """Installs the wrappers of one recorder and takes them out again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers already installed")
        parley_modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "parley" or name.startswith("parley.")
        ]
        for span_name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.recorder.wrap(span_name, original)
            # patch the name wherever it is looked up, not just where it is defined
            for mod in parley_modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)
        for span_name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patch(cls, attr, original, self.recorder.wrap(span_name, original))

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def installed_wrappers() -> list[str]:
    """Every patched location still holding a wrapper (empty when clean)."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "parley" or mod_name.startswith("parley."):
            for attr, value in list(vars(mod).items()):
                if hasattr(value, "bench_span"):
                    found.append(f"{mod_name}.{attr}")
    for _, module_name, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        if hasattr(cls.__dict__[attr], "bench_span"):
            found.append(f"{module_name}.{cls_name}.{attr}")
    return found
