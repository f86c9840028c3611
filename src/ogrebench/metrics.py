"""Global per-run accounting: phase wall times, byte and message counters,
locality hits, jobs/tasks launched, peak resident dataset generations.

Counters are monotonically non-decreasing during a run; ``snapshot`` returns a
consistent point-in-time copy (linearizable per counter).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace


@dataclass
class MetricsRecord:
    network_messages: int = 0
    network_bytes: int = 0
    intra_node_messages: int = 0
    intra_node_bytes: int = 0
    shuffle_bytes: int = 0
    shuffle_records: int = 0
    shuffle_spills: int = 0
    store_bytes_read: int = 0
    store_bytes_written: int = 0
    store_reads: int = 0
    store_writes: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    shared_reads: int = 0
    jobs_launched: int = 0
    tasks_launched: int = 0
    collective_messages: int = 0
    collective_bytes: int = 0
    peak_resident_generations: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class MetricsCollector:
    """Thread-safe counter set shared by the fabric, stores and engines."""

    def __init__(self):
        self._lock = threading.Lock()
        self._record = MetricsRecord()

    def add(self, counter: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        with self._lock:
            setattr(self._record, counter, getattr(self._record, counter) + amount)

    def note_generations(self, generations: int) -> None:
        with self._lock:
            if generations > self._record.peak_resident_generations:
                self._record.peak_resident_generations = generations

    def add_phase_time(self, phase: str, seconds: float) -> None:
        with self._lock:
            cur = self._record.phase_seconds.get(phase, 0.0)
            self._record.phase_seconds[phase] = cur + seconds

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase_time(name, time.perf_counter() - start)

    def snapshot(self) -> MetricsRecord:
        with self._lock:
            return replace(self._record,
                           phase_seconds=dict(self._record.phase_seconds))
