"""Per-layer timing from outside the program.

``Tracer.install()`` replaces the public functions of each ogrebench layer
with timing wrappers and ``uninstall()`` puts the originals back.  Engines
bind kernel and wire functions by name at import, so a function is replaced
in every ogrebench module that holds it, and in the engine registry.

Each thread keeps a stack of open spans, so every call gets a self time: its
duration minus the time spent in wrapped calls it made.  Spans are kept in
memory and can be written as Chrome Trace Event JSON, one track per thread.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

# Spans kept per thread for the trace file; aggregates are always complete.
MAX_SPANS_PER_THREAD = 100_000


def _nbytes_result(_args, result):
    return len(result)


def _nbytes_arg(index):
    return lambda args, _result: len(args[index])


def _nbytes_array(_args, result):
    return result.nbytes


def _rows_arg(args, _result):
    return len(args[0])


def _int_result(_args, result):
    return result


def _sleep_class(stack) -> str:
    """Which modeled delay a CostModel.sleep_ms call is, from the wrapped
    call it happens in."""
    for name in reversed(stack[:-1]):
        if name == "fabric.charge_task_launch":
            return "costs.injected_task_launch"
        if name == "schedulers.submit_job":
            return "costs.injected_job_launch"
        if name.startswith("schedulers."):
            return "costs.injected_container_grant"
    # The decentralized mapreduce path charges a job launch inline.
    return "costs.injected_job_launch"


def _next_event_name(stack) -> str:
    """next_event calls made by wait_for_grants count as its wait."""
    if len(stack) > 1 and stack[-2] == "schedulers.wait_for_grants":
        return "schedulers.wait_for_grants.next_event"
    return "schedulers.next_event"


def _targets():
    """(owner, attribute, layer name, bytes function) for every wrapped
    public function."""
    from ogrebench import blockstore, collectives, costs, dataset, fabric
    from ogrebench import kernel, runner, schedulers, wire
    from ogrebench.engines import ENGINES

    out = [
        (kernel, "assign_block", "kernel.assign_block", _rows_arg),
        (kernel, "partial_sums_from_assignment",
         "kernel.partial_sums_from_assignment", None),
        (wire, "encode", "wire.encode", _nbytes_result),
        (wire, "decode", "wire.decode", _nbytes_arg(0)),
        (wire, "encode_shuffle_records", "wire.encode_shuffle_records",
         _nbytes_result),
        (wire, "decode_shuffle_records", "wire.decode_shuffle_records",
         _nbytes_arg(0)),
        (fabric.Cluster, "send", "fabric.send", _int_result),
        (fabric.Cluster, "recv", "fabric.recv", None),
        (fabric.Cluster, "charge_task_launch", "fabric.charge_task_launch", None),
        (collectives.GroupMember, "allreduce", "collectives.allreduce", None),
        (blockstore.BlockStore, "ingest", "blockstore.ingest", None),
        (blockstore.BlockStore, "read_block", "blockstore.read_block",
         _nbytes_array),
        (blockstore.BlockStore, "write", "blockstore.write", _nbytes_arg(3)),
        (blockstore.BlockStore, "read_object", "blockstore.read_object",
         _nbytes_result),
        (schedulers.CentralizedScheduler, "submit_job", "schedulers.submit_job", None),
        (schedulers.CentralizedScheduler, "release", "schedulers.release", None),
        (schedulers.MultilevelScheduler, "submit_job", "schedulers.submit_job", None),
        (schedulers.AppMasterSession, "request_containers",
         "schedulers.request_containers", None),
        (schedulers.AppMasterSession, "release", "schedulers.release", None),
        (schedulers.AppMasterSession, "deregister", "schedulers.deregister", None),
        (schedulers.AppMasterSession, "wait_for_grants",
         "schedulers.wait_for_grants", None),
        (schedulers.AppMasterSession, "next_event", "schedulers.next_event", None),
        (costs.CostModel, "sleep_ms", "costs.sleep_ms", None),
        (costs.CostModel, "charge_message", "costs.injected_link", None),
        (costs.CostModel, "charge_store", "costs.injected_store", None),
        (dataset, "generate", "dataset.generate", None),
        (dataset, "partition", "dataset.partition", None),
        (runner, "run", "runner.run", None),
    ]
    out += [(ENGINES, engine, f"engines.{engine}", None) for engine in ENGINES]
    return out


class _ThreadLog:
    def __init__(self, tid: int, name: str):
        self.tid = tid
        self.name = name
        self.stack: list[str] = []
        self.child: list[float] = []
        # name -> [calls, inclusive seconds, self seconds, bytes]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.spans: list[tuple[str, float, float]] = []


class Tracer:
    """Wraps the layers' public functions while installed."""

    def __init__(self):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs), threading.current_thread().name)
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, fn, name: str, nbytes):
        tracer = self
        rename = {"costs.sleep_ms": _sleep_class,
                  "schedulers.next_event": _next_event_name}.get(name)
        is_cost = name.startswith("costs.")

        def wrapper(*args, **kwargs):
            log = tracer._log()
            log.stack.append(name)
            log.child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = log.child.pop()
                key = rename(log.stack) if rename else name
                log.stack.pop()
                if log.child:
                    log.child[-1] += dur
                entry = log.agg[key]
                entry[0] += 1
                # With delays off a CostModel call sleeps nothing: keep the
                # injected-delay figures at exactly zero and out of the trace.
                if not (is_cost and not args[0].inject_delays):
                    entry[1] += dur
                    entry[2] += dur - child
                    if len(log.spans) < MAX_SPANS_PER_THREAD:
                        log.spans.append((key, start, dur))
            if nbytes is not None:
                entry[3] += nbytes(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ogrebench" or name.startswith("ogrebench.")]
        for owner, attr, name, nbytes in _targets():
            if isinstance(owner, dict):
                orig = owner[attr]
                owner[attr] = self._wrap(orig, name, nbytes)
                self._patches.append((owner, attr, orig))
                continue
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(orig, name, nbytes)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is orig]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._patches.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patches):
            if isinstance(holder, dict):
                holder[attr] = orig
            else:
                setattr(holder, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive s, self s, bytes] over all threads."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for name, (calls, incl, self_s, nbytes) in log.agg.items():
                entry = out[name]
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_s
                entry[3] += nbytes
        return out

    def chrome_trace(self) -> dict:
        """Chrome Trace Event Format: complete events, one track per thread."""
        events = []
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": log.tid, "args": {"name": log.name}})
            for name, start, dur in log.spans:
                events.append({"name": name, "cat": name.split(".")[0],
                               "ph": "X", "pid": 1, "tid": log.tid,
                               "ts": round((start - self.origin) * 1e6, 3),
                               "dur": round(dur * 1e6, 3)})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# Per-layer metric -> (layer name, field); field 0 calls, 2 self s, 3 bytes,
# or "incl" for inclusive seconds.  Self time is the default: the layer's own
# work, without the wrapped layers it called.  A blocking call's self time is
# its wait.  Inclusive where the interest is the whole call: allreduce's wait
# for peers, a task launch's charged delay, wait_for_grants' wait.
LAYER_METRICS = {
    "kernel.assign_block_calls": ("kernel.assign_block", 0),
    "kernel.assign_block_points": ("kernel.assign_block", 3),
    "kernel.assign_block_s": ("kernel.assign_block", 2),
    "kernel.partial_sums_from_assignment_calls":
        ("kernel.partial_sums_from_assignment", 0),
    "kernel.partial_sums_from_assignment_s":
        ("kernel.partial_sums_from_assignment", 2),
    "wire.encode_calls": ("wire.encode", 0),
    "wire.encode_bytes": ("wire.encode", 3),
    "wire.encode_s": ("wire.encode", 2),
    "wire.decode_calls": ("wire.decode", 0),
    "wire.decode_bytes": ("wire.decode", 3),
    "wire.decode_s": ("wire.decode", 2),
    "wire.encode_shuffle_records_bytes": ("wire.encode_shuffle_records", 3),
    "wire.encode_shuffle_records_s": ("wire.encode_shuffle_records", 2),
    "wire.decode_shuffle_records_bytes": ("wire.decode_shuffle_records", 3),
    "wire.decode_shuffle_records_s": ("wire.decode_shuffle_records", 2),
    "fabric.send_calls": ("fabric.send", 0),
    "fabric.send_bytes": ("fabric.send", 3),
    "fabric.send_self_s": ("fabric.send", 2),
    "fabric.recv_calls": ("fabric.recv", 0),
    "fabric.recv_wait_s": ("fabric.recv", 2),
    "fabric.charge_task_launch_calls": ("fabric.charge_task_launch", 0),
    "fabric.charge_task_launch_s": ("fabric.charge_task_launch", "incl"),
    "collectives.allreduce_calls": ("collectives.allreduce", 0),
    "collectives.allreduce_s": ("collectives.allreduce", "incl"),
    "blockstore.ingest_s": ("blockstore.ingest", 2),
    "blockstore.read_block_calls": ("blockstore.read_block", 0),
    "blockstore.read_block_bytes": ("blockstore.read_block", 3),
    "blockstore.read_block_s": ("blockstore.read_block", 2),
    "blockstore.write_calls": ("blockstore.write", 0),
    "blockstore.write_bytes": ("blockstore.write", 3),
    "blockstore.write_s": ("blockstore.write", 2),
    "blockstore.read_object_calls": ("blockstore.read_object", 0),
    "blockstore.read_object_bytes": ("blockstore.read_object", 3),
    "blockstore.read_object_s": ("blockstore.read_object", 2),
    "dataset.partition_s": ("dataset.partition", 2),
    "schedulers.submit_job_s": ("schedulers.submit_job", 2),
    "schedulers.request_containers_s": ("schedulers.request_containers", 2),
    "schedulers.release_s": ("schedulers.release", 2),
    "schedulers.wait_for_grants_wait_s": ("schedulers.wait_for_grants", "incl"),
    "schedulers.next_event_wait_s": ("schedulers.next_event", 2),
    "costs.injected_job_launch_s": ("costs.injected_job_launch", 2),
    "costs.injected_task_launch_s": ("costs.injected_task_launch", 2),
    "costs.injected_container_grant_s": ("costs.injected_container_grant", 2),
    "costs.injected_link_s": ("costs.injected_link", 2),
    "costs.injected_store_s": ("costs.injected_store", 2),
    "runner.run_calls": ("runner.run", 0),
    "runner.run_self_s": ("runner.run", 2),
}


def layer_metrics(totals: dict[str, list]) -> dict[str, float]:
    out = {}
    for metric, (name, field) in LAYER_METRICS.items():
        entry = totals.get(name, [0, 0.0, 0.0, 0])
        out[metric] = entry[1] if field == "incl" else entry[field]
    return out
