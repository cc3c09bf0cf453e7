"""Deterministic observability: spans and metrics.

Two opt-in instruments over the simulator, all off by default and all
guarded by one module-level ``ACTIVE`` flag apiece so the hot paths pay
a single attribute load when disabled:

* :mod:`repro.obs.tracer` -- sim-time spans over the invocation
  lifecycle (admission, routing, VMM load, artifact promote, WS fetch,
  per-fault-window demand paging, connection, processing), exported as
  Chrome ``trace_event`` JSON for Perfetto (``bench run --trace-out``);
* :mod:`repro.obs.metrics` -- a Counter/Gauge/Histogram registry the
  existing ``*Stats`` classes register into, snapshotted per experiment
  cell and rendered by ``bench metrics``.

The instruments observe but never steer: spans and metrics are keyed by
simulated time and stable invocation ids only (no wall clock, no
iteration-order dependence), so enabling them cannot change a cell's
payload -- ``tests/test_obs.py`` pins byte-identical digests with
tracing on and off.  See ``docs/observability.md``.
"""

from repro.obs import metrics, tracer

__all__ = ["metrics", "tracer"]
