"""Outside-in tracing of terraseg for the benchmark's traced run.

``Tracer.install`` wraps the public functions and methods of each layer from
here, without touching the program's files. Each wrapper records a span
(name, start, end, parent span) and, where a layer has them, counts at the
same boundary: syscall bytes from ``/proc/self/io`` around store calls,
FLOPs from conv shapes, checkpoint file sizes. Everything stays in memory
until ``chrome_trace`` writes the Chrome Trace Event JSON that Perfetto and
``chrome://tracing`` open. A span's self time is its duration minus the time
its child spans cover.

Functions imported by name elsewhere in the package (``pipeline`` takes
``rasterize`` and ``fit`` that way, ``training`` takes ``apply_step``) are
replaced in every terraseg module that binds them, not only where they are
defined. Timing runs install nothing: ``installed`` lists any wrapper left
in place so the harness can refuse to time through one.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_MARK = "__perfbench_span__"

FUNCTIONS = {
    "cli": ("main",),
    "config": ("parse_config",),
    "georaster": ("read_raster", "rasterize", "tile", "mosaic", "write_pgm"),
    "wkt": ("parse_wkt",),
    "datasplit": ("presence_labels", "stratified_kfold_partition"),
    "ops": ("conv2d", "conv2d_backward", "categorical_cross_entropy"),
    "optim": ("apply_step",),
    "training": ("fit", "evaluate_samples"),
    "checkpoint": ("checkpoint_save", "checkpoint_load"),
    "metrics": ("confusion_update",),
}
STAGES = ("ingest", "split", "train", "evaluate", "predict")
LAYER_KINDS = ("conv2d", "transpose_conv2d", "max_pool2d", "unpool", "batch_norm2d",
               "activation", "concat_crop", "softmax")
LAYER_METHODS = {"forward": "forward", "forward_with_indices": "forward",
                 "backward": "backward"}


def _proc_io() -> tuple[int, int]:
    """(rchar, wchar): bytes this process moved through read- and write-type syscalls."""
    with open("/proc/self/io", "rb") as fh:
        fields = dict(line.split(b":", 1) for line in fh.read().splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"])


class _IoProbe:
    def __init__(self):
        first = _proc_io()
        second = _proc_io()
        self.cost = (second[0] - first[0], second[1] - first[1])  # what one probe reads itself

    def begin(self, args, kwargs):
        return _proc_io()

    def end(self, before, args, kwargs, result):
        r, w = _proc_io()
        return {"io_read_bytes": r - before[0] - self.cost[0],
                "io_write_bytes": w - before[1] - self.cost[1]}


class _ConvFlops:
    def __init__(self, fn):
        self.signature = inspect.signature(fn)

    def begin(self, args, kwargs):
        return None

    def end(self, _, args, kwargs, result):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        o, c, kh, kw = bound.arguments["kernels"].shape
        _, oh, ow = result.shape
        return {"flop": 2 * o * c * kh * kw * oh * ow}


class _FileSize:
    def __init__(self, fn):
        self.signature = inspect.signature(fn)

    def begin(self, args, kwargs):
        return None

    def end(self, _, args, kwargs, result):
        path = self.signature.bind(*args, **kwargs).arguments["path"]
        return {"bytes": os.path.getsize(path)} if os.path.exists(path) else None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, counts or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers

    def _span(self, fn, name, probe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            token = probe.begin(args, kwargs) if probe else None
            index = len(spans)
            record = [label, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if probe:
                record[4] = probe.end(token, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from terraseg import chunkstore, graph, pipeline, tensor

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "terraseg" or n.startswith("terraseg."))]
        targets = [(getattr(sys.modules[f"terraseg.{short}"], fn), f"{short}.{fn}")
                   for short, names in FUNCTIONS.items() for fn in names]
        targets += [(getattr(pipeline, f"cmd_{stage}"), f"pipeline.{stage}") for stage in STAGES]
        for fn, name in targets:
            probe = (_ConvFlops(fn) if name == "ops.conv2d"
                     else _FileSize(fn) if name.startswith("checkpoint.") else None)
            wrapper = self._span(fn, name, probe)
            for mod in modules:  # every `from .x import fn` binding, not only the definition
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)
        io_probe = _IoProbe()
        for method in ("write_region", "read_region"):
            fn = chunkstore.StoredArray.__dict__[method]
            self._replace(chunkstore.StoredArray, method,
                          self._span(fn, f"chunkstore.{method}", io_probe))
        for method in ("forward", "backward"):
            fn = graph.NetworkGraph.__dict__[method]
            self._replace(graph.NetworkGraph, method, self._span(fn, f"graph.{method}"))
        kinds: dict[type, str] = {}

        def kind_of(layer) -> str:
            cls = type(layer)
            if cls not in kinds:
                kinds[cls] = layer.spec()["kind"]
            return kinds[cls]

        def label(phase):
            return lambda args: f"graph.{kind_of(args[0])}.{phase}"

        for cls in vars(graph).values():
            if isinstance(cls, type) and issubclass(cls, graph.Layer) and cls is not graph.Layer:
                for method, phase in LAYER_METHODS.items():
                    if method in cls.__dict__:
                        self._replace(cls, method, self._span(cls.__dict__[method], label(phase)))
        self._replace(tensor.Tensor, "__post_init__",
                      self._counter(tensor.Tensor.__dict__["__post_init__"],
                                    "tensor.Tensor.constructed"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results

    def summary(self) -> dict:
        """Per-name calls, busy and self nanoseconds, and summed counts."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own = Counter(), defaultdict(int), defaultdict(int)
        counts: dict[str, Counter] = defaultdict(Counter)
        for i, (name, start, end, _, extra) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[i]
            if extra:
                counts[name].update(extra)
        return {"calls": calls, "busy": busy, "self": own, "counts": counts}

    def layer_metrics(self) -> dict[str, float]:
        s = self.summary()
        calls, counts = s["calls"], s["counts"]

        def busy(name):
            return s["busy"][name] / 1e9

        def own(name):
            return s["self"][name] / 1e9

        m: dict[str, float] = {}
        for method in ("write_region", "read_region"):
            key = f"chunkstore.{method}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.busy_s"] = busy(key)
            if method == "write_region":
                m[f"{key}.io_write_bytes"] = counts[key]["io_write_bytes"]
            m[f"{key}.io_read_bytes"] = counts[key]["io_read_bytes"]
        for fn in FUNCTIONS["georaster"]:
            m[f"georaster.{fn}.busy_s"] = busy(f"georaster.{fn}")
        m["wkt.parse_wkt.calls"] = calls["wkt.parse_wkt"]
        m["wkt.parse_wkt.busy_s"] = busy("wkt.parse_wkt")
        for fn in FUNCTIONS["datasplit"]:
            m[f"datasplit.{fn}.busy_s"] = busy(f"datasplit.{fn}")
        for phase in ("forward", "backward"):
            m[f"graph.{phase}.calls"] = calls[f"graph.{phase}"]
            m[f"graph.{phase}.busy_s"] = busy(f"graph.{phase}")
        for kind in LAYER_KINDS:
            for phase in ("forward", "backward"):
                m[f"graph.{kind}.{phase}_s"] = busy(f"graph.{kind}.{phase}")
        m["graph.self_s"] = own("graph.forward") + own("graph.backward")
        conv, back = "ops.conv2d", "ops.conv2d_backward"
        m["ops.conv2d.calls"] = calls[conv]
        m["ops.conv2d.busy_s"] = busy(conv)
        m["ops.conv2d_backward.busy_s"] = busy(back)
        m["ops.conv2d.backward_forward_ratio"] = (
            (busy(back) / calls[back]) / (busy(conv) / calls[conv])
            if calls[back] and calls[conv] else 0.0)
        m["ops.conv2d.gflop"] = counts[conv]["flop"] / 1e9
        m["ops.conv2d.gflop_per_s"] = m["ops.conv2d.gflop"] / busy(conv) if calls[conv] else 0.0
        m["ops.categorical_cross_entropy.busy_s"] = busy("ops.categorical_cross_entropy")
        m["tensor.Tensor.constructed"] = self.counts["tensor.Tensor.constructed"]
        m["optim.apply_step.calls"] = calls["optim.apply_step"]
        m["optim.apply_step.busy_s"] = busy("optim.apply_step")
        m["training.fit.busy_s"] = busy("training.fit")
        m["training.evaluate_samples.busy_s"] = busy("training.evaluate_samples")
        m["checkpoint.checkpoint_save.calls"] = calls["checkpoint.checkpoint_save"]
        m["checkpoint.checkpoint_save.busy_s"] = busy("checkpoint.checkpoint_save")
        m["checkpoint.checkpoint_load.busy_s"] = busy("checkpoint.checkpoint_load")
        m["checkpoint.bytes"] = max(  # a file size, so the largest seen rather than a sum
            [r[4]["bytes"] for r in self.spans if r[0].startswith("checkpoint.") and r[4]],
            default=0)
        m["metrics.confusion_update.calls"] = calls["metrics.confusion_update"]
        m["metrics.confusion_update.busy_s"] = busy("metrics.confusion_update")
        for stage in STAGES:
            m[f"pipeline.{stage}.self_s"] = own(f"pipeline.{stage}")
        m["cli.main.busy_s"] = busy("cli.main")
        m["config.parse_config.busy_s"] = busy("config.parse_config")
        return m

    def chrome_trace(self, path: Path, metadata: dict) -> None:
        pid = os.getpid()
        t0 = min((r[1] for r in self.spans), default=0)
        events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                   "args": {"name": "terraseg (perfbench traced run)"}}]
        for i, (name, start, end, parent, extra) in enumerate(self.spans):
            events.append({"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                           "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                           "pid": pid, "tid": 1,
                           "args": {"id": i, "parent": parent, **(extra or {})}})
        end_ts = max((r[2] for r in self.spans), default=t0)
        for name, value in sorted(self.counts.items()):
            events.append({"name": name, "ph": "C", "ts": (end_ts - t0) / 1e3,
                           "pid": pid, "tid": 1, "args": {"value": value}})
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                   "otherData": metadata}), encoding="utf-8")
        os.replace(tmp, path)


def installed() -> list[str]:
    """Names of perfbench wrappers present in any loaded terraseg module or class."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "terraseg" or name.startswith("terraseg.")):
            continue
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == name:
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{name}.{a}" for a, v in owners if getattr(v, _MARK, False)]
    return found
