"""Per-layer spans recorded from outside the library.

``install`` wraps the public functions of every ``sumsetlab`` module (the
layers) and rebinds each wrapper under every name a module imported it by,
so calls between layers, and within one, open nested spans. A span records
its id, its parent's id, the request it belongs to, its name and its start
and end. Self time is a span's duration minus the time its child spans
cover. Counters are taken at the same boundaries from the arguments and
results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "experiments", "serialize", "blocks", "arith", "sumset", "depolignac")
# Functions whose own self time is reported besides their layer's.
FUNCTION_SELF_TIMES = (
    "blocks.count_b",
    "arith.sieve_primes",
    "arith.mertens_product",
    "arith.legendre_count",
)


def _schedule_key(schedule) -> dict:
    if schedule.kind == "custom":
        return {"kind": "custom", "exponents": list(schedule.exponents)}
    return {"kind": schedule.kind}


class Tracer:
    """Keeps spans and counters in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self.counters: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        # (schedule, x, distinct sums) for every bitmap enumeration
        self.enumerations: list[tuple[dict, int, int]] = []
        self._stack: list[list] = []  # [span id, name, child time]
        self._next_id = 0

    def begin_request(self, index: int) -> None:
        self.request = index

    def active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def wrap(self, name: str, fn, on_return=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                own = duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.self_time[layer] += own
                self.self_time[name] += own
                self.calls[layer] += 1
                self.spans.append((span_id, parent, self.request, name, start, end))
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "enumerations": self.enumerations,
        }


def _on_text(tracer: Tracer, args, text) -> None:
    tracer.counters["serialize.bytes_out"] += len(text)  # ASCII JSON or CSV


def _on_materialize(tracer: Tracer, args, blocks) -> None:
    tracer.counters["blocks.blocks_materialized"] += blocks.max_t


def _on_sieve(tracer: Tracer, args, table) -> None:
    tracer.counters["arith.sieve_values"] += table.limit + 1
    if tracer.active("depolignac.ap_scan"):
        tracer.counters["depolignac.ap_scan_sieve_values"] += table.limit + 1


def _on_split(tracer: Tracer, args, report) -> None:
    tracer.counters["sumset.bitmap_bytes"] += 2 * (report.x + 1)
    tracer.enumerations.append((_schedule_key(args[1].schedule), report.x, report.c_count))


def _on_enumerate(tracer: Tracer, args, result) -> None:
    x = int(args[0])
    tracer.counters["sumset.bitmap_bytes"] += x + 1
    tracer.enumerations.append((_schedule_key(args[1].schedule), x, result[0]))


def _on_ap_scan(tracer: Tracer, args, report) -> None:
    tracer.counters["depolignac.members_scanned"] += report.members_scanned


HOOKS = {
    "serialize.payload_json": _on_text,
    "serialize.payload_csv": _on_text,
    "blocks.BlockSet.materialize": _on_materialize,
    "arith.sieve_primes": _on_sieve,
    "sumset.split_s1_s2": _on_split,
    "sumset.enumerate_c": _on_enumerate,
    "depolignac.ap_scan": _on_ap_scan,
}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and rebind every imported name."""
    package = importlib.import_module("sumsetlab")
    modules = {layer: importlib.import_module(f"sumsetlab.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if (name.startswith("_") or name == "main" or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            qualified = f"{layer}.{name}"
            wrapped[obj] = tracer.wrap(qualified, obj, HOOKS.get(qualified))
    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])
    block_set = modules["blocks"].BlockSet
    for name in ("materialize", "covering"):
        qualified = f"blocks.BlockSet.{name}"
        fn = block_set.__dict__[name].__func__
        setattr(block_set, name, classmethod(tracer.wrap(qualified, fn, HOOKS.get(qualified))))
