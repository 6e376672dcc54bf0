"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` replaces every public function that a zenosense layer
module holds in its namespace with a wrapper that records a span. A span is
named after the namespace its caller looks it up in, so the detector's
``sample_positions`` called from the pipeline is recorded as
``zenosense.pipeline.sample_positions``; its *target* is the defining layer
and function, ``detector.sample_positions``. Each span records name, start,
end, parent span and trial id. Spans stay in memory until ``dump``.

Only calls made through module globals are seen: that is how every layer of
the package calls the layers below it. A function a later version deletes
simply records zero calls.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter

def _components(state) -> int:
    return int(getattr(state, "n_components", 0))


def _pair_count(args, result) -> float:
    """Component pairs a pair-sum evaluates: M_a * M_b, or M^2 for one state."""
    if len(args) >= 2 and hasattr(args[1], "n_components"):
        return _components(args[0]) * _components(args[1])
    return _components(args[0]) ** 2


# target -> (counter name, value extracted from (args, result))
COUNTERS = {
    "wavepacket.inner_product": ("wavepacket.pair_terms", _pair_count),
    "wavepacket.moment": ("wavepacket.pair_terms", _pair_count),
    "wavepacket.momentum_second_moment": ("wavepacket.pair_terms", _pair_count),
    "wavepacket.cumulative_mass": ("wavepacket.pair_terms", _pair_count),
    "channel.run_protected": (
        "channel.final_components",
        lambda args, result: _components(getattr(result, "final_state", None)),
    ),
    "noise_model.enumerate_configurations": ("noise_model.candidates", lambda args, result: len(result)),
}


class Tracer:
    """Span recorder; one per process, created by the benchmark worker."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name per name id
        self.targets: list[str] = []  # "layer.function" per name id
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.span_trial: list[int] = []
        self.counts: dict[str, float] = {}
        self.trial = -1
        self.layers: list[str] = []
        self._stack: list[int] = []
        self._paused = False

    def _name_id(self, name: str, target: str) -> int:
        self.names.append(name)
        self.targets.append(target)
        return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_trial.append(self.trial)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, target: str):
        name_id = self._name_id(name, target)
        counter = COUNTERS.get(target)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                try:
                    value = counter[1](args, result)
                except (AttributeError, IndexError, TypeError):
                    value = None  # signature changed: the counter is skipped
                if value is not None:
                    tracer.counts[counter[0]] = tracer.counts.get(counter[0], 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Wrap the public functions held by each zenosense layer module."""
        layer_of = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}
        self.layers = list(layer_of.values())
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None:
                    continue
                target = f"{layer}.{obj.__name__}"
                setattr(module, attr, self.wrap(obj, f"{module.__name__}.{attr}", target))

    @contextmanager
    def span(self, name: str):
        """Root span for a benchmark operation ("perfbench.<kind>")."""
        idx = self._open(self._name_id(name, name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made while paused (output checks) record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def summary(self) -> dict:
        """Per-target inclusive time and calls, and per-layer self time.

        Self time is a span's duration minus its direct children's. Inclusive
        time counts only the outermost span of a target, so a function that
        reaches itself again is not counted twice. ``layer_self_s`` covers the
        spans under ``perfbench.op.*`` roots, which together make up the
        traced wall time; ``unattributed_s`` is the part of those roots not
        inside any wrapped function.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self: dict[str, float] = {layer: 0.0 for layer in self.layers}
        unattributed = 0.0
        op_wall = 0.0
        for i in range(n):
            target = self.targets[self.span_name[i]]
            calls[target] = calls.get(target, 0) + 1
            outermost = True
            p = self.parent[i]
            while p >= 0:
                if self.targets[self.span_name[p]] == target:
                    outermost = False
                    break
                p = self.parent[p]
            if outermost:
                incl[target] = incl.get(target, 0.0) + dur[i]
            if not self.names[self.span_name[root[i]]].startswith("perfbench.op."):
                continue
            self_t = dur[i] - child[i]
            layer = target.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_t
            else:
                unattributed += self_t
            if self.parent[i] < 0:
                op_wall += dur[i]
        return {
            "inclusive_s": incl,
            "calls": calls,
            "layer_self_s": layer_self,
            "unattributed_s": unattributed,
            "op_wall_s": op_wall,
            "counts": dict(self.counts),
        }

    def spans_under(self, caller_prefix: str, target_layers: tuple[str, ...]) -> list[int]:
        """Span ids whose name starts with ``caller_prefix`` and whose target
        lies in one of ``target_layers``."""
        out = []
        for i in range(len(self.start)):
            nid = self.span_name[i]
            if self.names[nid].startswith(caller_prefix) and self.targets[nid].split(".", 1)[0] in target_layers:
                out.append(i)
        return out

    def ancestor(self, idx: int, target: str) -> int:
        """Nearest ancestor span with the given target, or -1."""
        p = self.parent[idx]
        while p >= 0 and self.targets[self.span_name[p]] != target:
            p = self.parent[p]
        return p

    def dump(self, path) -> None:
        """Write every span as [name id, start, end, parent, trial]."""
        payload = {
            "names": self.names,
            "targets": self.targets,
            "spans": [
                [self.span_name[i], self.start[i], self.end[i], self.parent[i], self.span_trial[i]]
                for i in range(len(self.start))
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
