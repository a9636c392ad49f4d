"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `Tracer.install` swaps
the public names a module looks up at call time for timing wrappers and
`Tracer.uninstall` puts the originals back, so nothing under `src/` changes
and timed (untraced) ops never pass through a wrapper.

A span is (id, name, start, end, parent id, op id, phase, work). Spans of one
op share its op id; `phase` separates the set-up warm-up, the measured ops
and the threads = 1 replica of the attack ops. `work` is a count the wrapper
derives from the call (bits, qubits, cache misses), so rates are measured
where the work happens. Spans stay in memory until `dump`.

This module imports neither numpy nor keyedqkd, so a traced child process
can load it before timing `import keyedqkd`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    phase: str
    work: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


def _running_key_bits(args, kwargs, result):
    return len(result.selectors) * max(1, int(result.m).bit_length() - 1)


def _result_size(args, kwargs, result):
    return int(result.size)


def _input_bits(args, kwargs, result):
    return len(args[0]) if args else 0


def _attack_name(args, kwargs):
    kind = getattr(args[0], "kind", "") if args else ""
    return "adversary." + {"fixed_basis": "breidbart",
                           "intercept_resend_random": "intercept",
                           "key_guess": "keyguess",
                           "block_guess": "blockguess"}.get(kind, "other")


def _cache_misses(fn):
    info = getattr(fn, "cache_info", None)
    return (lambda: info().misses) if info else None


@dataclass(frozen=True)
class Wrap:
    """One public name to time: `module.attr`, where attr may be `Class.method`.

    `name` is the span name, or a callable (args, kwargs) -> span name.
    `work` maps (args, kwargs, result) to the span's work count. `cold`, when
    set, marks calls that missed the function's own cache as work = 1; a
    function without a cache counts every call as cold.
    """

    module: str
    attr: str
    name: object
    work: object = None
    cold: bool = False


# The names each module calls through, in the namespace the caller looks
# them up in (a `from .qubits import measure_many` binds a separate name in
# each importing module).
WRAPS = (
    Wrap("keyedqkd.keystream", "LfsrKeystream.running_key", "keystream.running_key",
         _running_key_bits),
    Wrap("keyedqkd.keystream", "RepetitionKeystream.running_key", "keystream.running_key",
         _running_key_bits),
    Wrap("keyedqkd.adversary", "expand_running_key", "keystream.running_key",
         _running_key_bits),
    Wrap("keyedqkd.protocol", "measure_many", "qubits.measure_many", _result_size),
    Wrap("keyedqkd.adversary", "measure_many", "qubits.measure_many", _result_size),
    Wrap("keyedqkd.protocol", "optimal_fixed_basis", "qubits.optimal_fixed_basis", cold=True),
    Wrap("keyedqkd.analysis", "optimal_fixed_basis", "qubits.optimal_fixed_basis", cold=True),
    Wrap("keyedqkd.analysis", "keyless_error", "qubits.keyless_error"),
    Wrap("keyedqkd.protocol", "run_protocol", "protocol.run_protocol"),
    Wrap("keyedqkd.protocol", "transmit_round", "protocol.transmit_round"),
    Wrap("keyedqkd.protocol", "reconcile", "protocol.reconcile"),
    Wrap("keyedqkd.protocol", "privacy_amplify", "protocol.privacy_amplify", _input_bits),
    Wrap("keyedqkd.protocol", "verify_key", "protocol.verify_key"),
    Wrap("keyedqkd.adversary", "run_attack", _attack_name),
    Wrap("keyedqkd.cli", "sweep_m", "analysis.sweep_m"),
    Wrap("keyedqkd.cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span recorder with a parent stack per thread.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the thread that created the tracer as its parent,
    which is how chunked attack kernels attach to their `run_attack` span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def current(self) -> int | None:
        """Id of the innermost span open on the calling thread."""
        return self._parent(self._stack())

    def record(self, name: str, start: float, end: float):
        """Add a finished top-level span, e.g. one timed outside any wrapper."""
        self.spans.append(Span(next(self._ids), name, start, end, None, self.op, self.phase))

    def call(self, name: str, fn, args=(), kwargs=None, work=None, probe=None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        kwargs = kwargs or {}
        stack = self._stack()
        span_id = next(self._ids)
        parent = self._parent(stack)
        op, phase = self.op, self.phase
        before = probe() if probe else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        amount = 0.0
        if probe:
            amount = probe() - before
        elif work:
            amount = work(args, kwargs, result)
        self.spans.append(Span(span_id, name, start, end, parent, op, phase, amount))
        return result

    def install(self, wraps=WRAPS):
        """Swap every wrap target for a timing wrapper; absent names go to `missing`."""
        if self._installed:
            return
        for wrap in wraps:
            owner, leaf, original = _resolve(wrap)
            if original is None:
                label = f"{wrap.module}.{wrap.attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            setattr(owner, leaf, self._wrapper(wrap, original))
            self._installed.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def _wrapper(self, wrap: Wrap, original):
        tracer = self
        work, probe = wrap.work, None
        if wrap.cold:
            probe = _cache_misses(original)
            if probe is None:
                work = lambda args, kwargs, result: 1

        def wrapper(*args, **kwargs):
            name = wrap.name(args, kwargs) if callable(wrap.name) else wrap.name
            return tracer.call(name, original, args, kwargs, work, probe)

        wrapper.__wrapped__ = original
        return wrapper

    def merge(self, spans: list[dict], parent: int):
        """Adopt spans recorded in a child process under the span `parent`."""
        ids = {doc["id"]: next(self._ids) for doc in spans}
        for doc in spans:
            self.spans.append(Span(
                ids[doc["id"]], doc["name"], doc["start"], doc["end"],
                ids.get(doc["parent"], parent), self.op, self.phase, doc["work"]))

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _resolve(wrap: Wrap):
    """(owner, leaf attribute, current value) for a wrap target, or value None."""
    try:
        owner = importlib.import_module(wrap.module)
    except ImportError:
        return None, None, None
    *path, leaf = wrap.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, leaf, getattr(owner, leaf, None)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {span.id: span.dur - busy(children.get(span.id, ())) for span in spans}


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


STRATEGIES = ("breidbart", "intercept", "keyguess", "blockguess")


def busy(spans) -> float:
    """Wall time during which at least one of `spans` is open.

    Spans of one layer on parallel threads overlap, so their durations would
    add up to more than the time that passed.
    """
    total, cursor = 0.0, -math.inf
    for span in sorted(spans, key=lambda s: s.start):
        lo = max(span.start, cursor)
        if span.end > lo:
            total += span.end - lo
            cursor = span.end
    return total


def layer_metrics(tracer: Tracer, op_wall: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer numbers from the recorded spans.

    A layer's time in an op is the wall time its spans cover (self time for
    the `_self_s` metrics); the metric is the median over measured ops.
    Rates are total work over total covered time. `op_wall` holds the wall
    time of each `untraced` and `traced` op, from which the tracing overhead
    follows. Layers the workload never calls read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def ops_of(pool):
        groups: dict[int, list[Span]] = {}
        for s in pool:
            groups.setdefault(s.op, []).append(s)
        return groups

    measured = [s for s in spans if s.phase == "op"]
    op_ids = sorted({s.op for s in measured})

    def pick(name, pool=measured):
        return [s for s in pool if s.name == name]

    def per_op(chosen, ops=op_ids):
        groups = ops_of(chosen)
        return median([busy(groups.get(op, ())) for op in ops])

    def rate(chosen):
        return _rate(sum(s.work for s in chosen),
                     sum(busy(group) for group in ops_of(chosen).values()))

    def self_per_op(name):
        totals = {op: 0.0 for op in op_ids}
        for s in pick(name):
            totals[s.op] += selfs[s.id]
        return median(totals.values())

    out = {}
    keystream = pick("keystream.running_key")
    out["keystream.running_key_s"] = per_op(keystream)
    out["keystream.bits_per_s"] = rate(keystream)
    out["keystream.calls_per_op"] = len(keystream) / len(op_ids) if op_ids else 0.0

    measured_qubits = pick("qubits.measure_many")
    out["qubits.measure_many_s"] = per_op(measured_qubits)
    out["qubits.measured_per_s"] = rate(measured_qubits)
    # Cold (cache-missing) basis searches happen once per process: in the
    # set-up warm-up for the in-process workloads, in every op for sweep-cli.
    cold = [s for s in pick("qubits.optimal_fixed_basis", spans) if s.work > 0]
    out["qubits.optimal_fixed_basis_s"] = per_op(cold, sorted(ops_of(cold)))
    out["qubits.keyless_error_s"] = per_op(pick("qubits.keyless_error"))

    out["protocol.verify_s"] = per_op(pick("protocol.verify_key"))
    # Privacy amplification proper; verify_key reaches the same function
    # through the verification tag.
    amplify = [s for s in pick("protocol.privacy_amplify")
               if s.parent in by_id and by_id[s.parent].name == "protocol.run_protocol"]
    out["protocol.privacy_amplify_s"] = per_op(amplify)
    out["protocol.pa_bits_per_s"] = rate(amplify)
    out["protocol.transmit_self_s"] = self_per_op("protocol.transmit_round")
    out["protocol.reconcile_s"] = per_op(pick("protocol.reconcile"))
    out["protocol.run_self_s"] = self_per_op("protocol.run_protocol")

    replica = [s for s in spans if s.phase == "threads1"]
    for strategy in STRATEGIES:
        threads2 = per_op(pick(f"adversary.{strategy}"))
        chosen = pick(f"adversary.{strategy}", replica)
        threads1 = per_op(chosen, sorted(ops_of(chosen)))
        out[f"adversary.{strategy}_s"] = threads2
        out[f"adversary.thread_speedup.{strategy}"] = threads1 / threads2 if threads2 else 0.0

    out["analysis.sweep_m_s"] = per_op(pick("analysis.sweep_m"))
    out["cli.import_s"] = median(s.dur for s in pick("cli.import", spans))

    untraced, traced = median(op_wall.get("untraced", ())), median(op_wall.get("traced", ()))
    out["trace.overhead_frac"] = traced / untraced - 1.0 if untraced and traced else 0.0
    roots = pick("op")
    root_time = sum(s.dur for s in roots)
    out["trace.unaccounted_frac"] = (sum(selfs[s.id] for s in roots) / root_time
                                     if root_time else 0.0)
    out["trace.missing"] = float(len(tracer.missing))
    return out
