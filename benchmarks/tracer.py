"""Per-layer spans for the gmesim benchmark, recorded from outside the library.

``Tracer.install`` replaces every public function of the five layer modules
(``qcore``, ``entanglement``, ``distill``, ``protocols``, ``cli``) at every
gmesim module that binds it, because the modules import each other by name:
``protocols.measure`` and ``qcore.measure`` are two bindings of one function
and both are wrapped.  The constructors of the validating value types are
wrapped on their classes.  ``uninstall`` puts the originals back, so untraced
passes run the library exactly as shipped.

A span is recorded only while an op is current (``Tracer.op`` is set), so
input generation and output checks leave none.  Spans stay in memory as
``[name, via, start, end, parent, op, raised]`` and are written to a sidecar
file when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

LAYERS = ("qcore", "entanglement", "distill", "protocols", "cli")

#: Value types whose construction validates numerics; their ``__init__`` is
#: wrapped on the class, which every binding shares.
CLASSES = ("qcore.PureState", "qcore.DensityOperator", "qcore.ProjectiveMeasurement")

#: Spans reported per name as ``<name>.calls`` and ``<name>.s``.
REPORTED = (
    "qcore.DensityOperator", "qcore.PureState", "qcore.ProjectiveMeasurement",
    "qcore.measure", "qcore.partial_trace", "qcore.to_pure",
    "qcore.apply_local_unitary", "qcore.contract_party", "qcore.tensor",
    "qcore.mix", "qcore.relabel_subspace",
    "entanglement.negativity", "entanglement.schmidt",
    "entanglement.certify_entangled_all_cuts", "entanglement.certify_gme_pure",
    "distill.recurrence_round", "distill.twirl_to_isotropic",
    "distill.local_filter", "distill.distill_pipeline",
    "protocols.run_prop2", "protocols.run_prop3", "protocols.run_sigma_adaptive",
    "protocols.run_prop1_step", "protocols.monte_carlo",
    "protocols.merge_chain_to_ghz", "protocols.sigma_scan",
    "cli.main", "cli.load_state_file", "cli.state_from_payload", "cli.render_json",
)

def _state_bytes(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    d = state.dims.total
    return 16 * d if hasattr(state, "amplitudes") else 16 * d * d


def _artifact_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _state_file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


#: Counters kept beside the spans: span name -> (counter, amount per call),
#: the amount computed from the call's arguments or result.  State bytes are
#: computed from array sizes, not measured.
_COUNT_HOOKS = {
    "qcore.measure": ("qcore.measure.state_bytes", _state_bytes),
    "cli.render_json": ("cli.artifact_bytes", _artifact_bytes),
    "cli.load_state_file": ("cli.state_file_bytes", _state_file_bytes),
}


class Tracer:
    """Wraps the library's callables and keeps spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {counter: 0 for counter, _ in _COUNT_HOOKS.values()}
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"gmesim.{name}") for name in LAYERS}
        bindings = [("gmesim", importlib.import_module("gmesim"))] + list(modules.items())
        for via, module in bindings:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("gmesim.") and layer in LAYERS:
                    self._replace(module, attr, self._wrap(f"{layer}.{obj.__name__}", via, obj))
        for name in CLASSES:
            layer, cls_name = name.split(".")
            cls = getattr(modules[layer], cls_name)
            self._replace(cls, "__init__", self._wrap(name, layer, cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, via: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = _COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            record = [name, via, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[6] = True
                raise
            finally:
                record[3] = perf_counter()
                stack.pop()
            if hook is not None:
                counters[hook[0]] += hook[1](args, kwargs, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def summary(self, n_ops: int) -> tuple[dict, dict]:
        """Per-layer metrics and the exact counts that must repeat.

        ``<x>.s`` is the time covered by spans of ``x`` (a span nested in
        another of the same name is not counted twice); ``<layer>.self_s``
        subtracts from each span of the layer the time of its child spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                child_time[rec[4]] += rec[3] - rec[2]
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        layer_busy = dict.fromkeys(LAYERS, 0.0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_errors = dict.fromkeys(LAYERS, 0)
        measure_via_protocols = 0
        for i, (name, via, start, end, parent, _, raised) in enumerate(spans):
            layer = name.split(".")[0]
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            layer_self[layer] += duration - child_time[i]
            layer_errors[layer] += raised
            outer_name = outer_layer = True
            while parent >= 0 and (outer_name or outer_layer):
                ancestor = spans[parent][0]
                outer_name = outer_name and ancestor != name
                outer_layer = outer_layer and not ancestor.startswith(layer + ".")
                parent = spans[parent][4]
            if outer_name:
                busy[name] = busy.get(name, 0.0) + duration
            if outer_layer:
                layer_busy[layer] += duration
            if name == "qcore.measure" and via == "protocols":
                measure_via_protocols += 1

        metrics: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            metrics[f"{name}.s"] = (busy.get(name, 0.0), "s")
        for layer in LAYERS:
            metrics[f"{layer}.s"] = (layer_busy[layer], "s")
            metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
            metrics[f"{layer}.errors"] = (layer_errors[layer], "count")
        for name, value in self.counters.items():
            metrics[name] = (value, "B")
        metrics["protocols.measure_calls_per_op"] = (measure_via_protocols / n_ops, "calls/op")
        metrics["trace.spans"] = (len(spans), "count")

        counts = {f"{name}.calls": n for name, n in sorted(calls.items())}
        counts.update({f"{layer}.errors": n for layer, n in layer_errors.items()})
        counts.update(self.counters)
        counts["protocols.measure_calls_per_op"] = metrics["protocols.measure_calls_per_op"][0]
        counts["trace.spans"] = len(spans)
        return metrics, counts

    def write_sidecar(self, path, meta: dict) -> None:
        """Spans as ``[name, via, start_s, end_s, parent, op, raised]`` rows."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[n, v, s - t0, e - t0, p, op, r] for n, v, s, e, p, op, r in self.spans]
        doc = dict(meta, columns=["name", "via", "start_s", "end_s", "parent", "op", "raised"],
                   spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
