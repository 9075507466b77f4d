"""Run-event plane: operator lineage events into the manifest.

A named, detached ``MetricsCollector`` actor keeps structured events
that driver-side operators log (e.g. a semdedup sub-split round, via
``log_event``); the partition runner drains them into the next
manifest entry's ``events``. When no collector exists (plain pipeline
runs, tests), logging is a no-op — the data plane never depends on the
metrics plane.

Per-worker throughput is not reported here: each manifest entry's
``worker_metrics`` is built from the count rows its own partition's
extraction tasks returned (``state.manifest``), so it is exact.
"""

from __future__ import annotations

import time

import ray

COLLECTOR_NAME = "graft_metrics_collector"
NAMESPACE = "pdf_extractor_ray"


@ray.remote(num_cpus=0)
class MetricsCollector:
    def __init__(self) -> None:
        self._events: list[dict] = []

    def log_event(self, kind: str, payload: dict) -> None:
        """Structured operator lineage (e.g. a semdedup sub-split round):
        arbitrary JSON-safe payload, kept verbatim."""
        self._events.append({"kind": kind, "at": time.strftime("%Y-%m-%dT%H:%M:%S"), **payload})

    def drain_events(self) -> list[dict]:
        out, self._events = self._events, []
        return out


def start_collector():
    """Create (or reuse) the named collector. Driver-side. Detached so
    the actor survives a failed run's handle going out of scope (a
    non-detached named actor is GC'd with its last handle, leaving the
    next resume run a dying handle). Leftover events from a previous
    (crashed) run are discarded here so they can never leak into this
    run's first partition.
    """
    try:
        collector = ray.get_actor(COLLECTOR_NAME, namespace=NAMESPACE)
    except ValueError:
        try:
            return MetricsCollector.options(
                name=COLLECTOR_NAME, namespace=NAMESPACE, lifetime="detached"
            ).remote()
        except ValueError:  # lost the creation race
            collector = ray.get_actor(COLLECTOR_NAME, namespace=NAMESPACE)
    try:
        ray.get(collector.drain_events.remote(), timeout=10)  # discard stale events
    except Exception:
        pass
    return collector


def stop_collector() -> None:
    try:
        ray.kill(ray.get_actor(COLLECTOR_NAME, namespace=NAMESPACE))
    except ValueError:
        pass


def log_event(kind: str, payload: dict) -> None:
    """Driver-side fire-and-forget lineage event to the NAMED collector
    if one is running (operators like semdedup call this from the
    driver, where a name lookup is cheap and cannot go stale the way a
    worker-side global could); no-op when the metrics plane is absent."""
    if not ray.is_initialized():
        return
    try:
        collector = ray.get_actor(COLLECTOR_NAME, namespace=NAMESPACE)
        collector.log_event.remote(kind, payload)
    except Exception:
        pass  # metrics plane never fails the data plane
