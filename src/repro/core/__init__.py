"""REAP: Record-and-Prefetch (the paper's primary contribution, §5).

The package implements the complete REAP mechanism over the simulated
substrate, structurally faithful to the paper's userspace design:

* :mod:`repro.core.files` -- the two on-disk artifacts: the **trace
  file** (offsets of working-set pages inside the guest memory file) and
  the compact **working-set (WS) file** (copies of those pages, laid out
  contiguously so one large read fetches everything);
* :mod:`repro.core.monitor` -- per-instance monitor "goroutines" that
  poll the userfaultfd event queue and serve faults, recording the trace
  on a function's first invocation;
* :mod:`repro.core.policies` -- the restore policies of Fig. 7:
  ``vanilla`` (kernel lazy paging), ``record`` (REAP's first-invocation
  mode), ``parallel_pf`` (trace-driven parallel page reads), ``ws_file``
  (single buffered read) and ``reap`` (single O_DIRECT read + eager
  install);
* :mod:`repro.core.manager` -- per-function bookkeeping: record vs
  prefetch mode selection, misprediction accounting (§7.1), and the
  §7.2 stale-working-set fallback.
"""

from repro.core.context import LatencyBreakdown
from repro.core.files import ReapArtifacts, TraceFile, WorkingSetFile
from repro.core.manager import FunctionReapState, ReapManager, ReapParameters
from repro.core.monitor import PrefetchMonitor, RecordMonitor, UffdMonitor
from repro.core.policies import (
    ParallelPfPolicy,
    ReapPolicy,
    RecordPolicy,
    RestorePolicy,
    VanillaPolicy,
    WsFilePolicy,
)

__all__ = [
    "LatencyBreakdown",
    "TraceFile",
    "WorkingSetFile",
    "ReapArtifacts",
    "UffdMonitor",
    "RecordMonitor",
    "PrefetchMonitor",
    "RestorePolicy",
    "VanillaPolicy",
    "RecordPolicy",
    "ParallelPfPolicy",
    "WsFilePolicy",
    "ReapPolicy",
    "ReapManager",
    "ReapParameters",
    "FunctionReapState",
]
