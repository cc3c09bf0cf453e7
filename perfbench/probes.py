"""Per-layer measurement from outside the program.

Two instruments, both installed only for a traced pass and fully removed
afterwards:

* **call counters** -- count-only wrappers on a fixed table of public entry
  points, one or more per layer (:data:`ENTRY_POINTS`).  A wrapper adds one
  Python call and a dict increment; it never times anything, because
  timing every resume of the simulator's generators costs more than the
  work it measures and charges that cost to the caller's layer;
* **a SIGPROF sampler** -- every :data:`INTERVAL_S` of process CPU time it
  walks the interrupted Python stack.  The innermost frame under
  ``src/repro/<layer>/`` gets the sample as *self* time; every layer on
  the stack gets it as *inclusive* time.  Samples whose innermost frame is
  a wrapper of this module count as probe overhead (unattributed).

Layer = the package directly under ``repro`` that defines the code.
"""

from __future__ import annotations

import functools
import importlib
import os
import signal
from collections import Counter

import repro

#: The ``src/repro`` packages on the measured path, in report order.
LAYERS = ("sim", "vm", "memory", "storage", "snapstore", "core",
          "orchestrator", "functions")

#: (layer, module, class, method): the entry points whose calls are
#: counted.  A layer's ``calls`` metric is the sum over its rows.
ENTRY_POINTS = (
    ("sim", "repro.sim.engine", "Environment", "process"),
    ("sim", "repro.sim.engine", "Environment", "run"),
    ("vm", "repro.vm.vcpu", "VCpu", "execute_phase"),
    ("vm", "repro.vm.snapshot", "SnapshotStore", "instantiate"),
    ("memory", "repro.memory.guest", "GuestMemory", "install"),
    ("memory", "repro.memory.uffd", "UserFaultFd", "raise_fault"),
    ("memory", "repro.memory.uffd", "UserFaultFd", "copy_batch"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "hit_cost"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "fault_in"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "read"),
    ("snapstore", "repro.snapstore.store", "TieredSnapshotStore",
     "ensure_for_restore"),
    ("snapstore", "repro.snapstore.store", "TieredSnapshotStore",
     "local_bytes"),
    ("core", "repro.core.manager", "ReapManager", "mode_for"),
    ("core", "repro.core.manager", "ReapManager", "policy_for"),
    ("core", "repro.core.manager", "ReapManager", "complete"),
    ("orchestrator", "repro.orchestrator.orchestrator", "Orchestrator",
     "invoke"),
    ("orchestrator", "repro.orchestrator.cluster", "LoadBalancer", "pick"),
    ("functions", "repro.functions.behavior", "FunctionBehavior",
     "trace_for"),
)

#: Entry points whose inclusive sampled time is reported per call.
PER_CALL = ("GuestMemory.install", "FunctionBehavior.trace_for")

#: Sampling period, in seconds of process CPU time.
INTERVAL_S = 0.001

_PROBE_FILE = os.path.abspath(__file__)
_REPRO_PREFIX = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _resolve(module: str, cls: str):
    return getattr(importlib.import_module(module), cls)


def _counting(original, counts: Counter, key: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    return wrapper


class LayerProbe:
    """Call counters plus a stack sampler, as a context manager.

    Inside the ``with`` block the wrappers are installed and the signal
    handler is set; :meth:`start` / :meth:`stop` bracket each measured
    phase (the timer runs only between them).  Leaving the block restores
    every wrapped method, the previous SIGPROF handler and a stopped
    timer.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._originals: list[tuple[type, str, object]] = []
        self._previous_handler = None
        self._at_start: Counter = Counter()
        #: Per measured phase: entry-point call counts ("Class.method").
        self.phase_calls: list[dict[str, int]] = []
        self.samples = 0
        self.self_samples: Counter = Counter()
        self.incl_samples: Counter = Counter()
        #: Samples with a :data:`PER_CALL` entry point on the stack.
        self.per_call_samples: Counter = Counter()

    # -- install / remove ------------------------------------------------

    def __enter__(self) -> "LayerProbe":
        for _layer, module, cls_name, method in ENTRY_POINTS:
            cls = _resolve(module, cls_name)
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, _counting(original, self._counts,
                                           f"{cls_name}.{method}"))
        self._previous_handler = signal.signal(signal.SIGPROF,
                                               self._sampler())
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler
                      if self._previous_handler is not None
                      else signal.SIG_DFL)
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def start(self) -> None:
        """Begin a measured phase: snapshot counts, start the timer."""
        self._at_start = Counter(self._counts)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """End a measured phase: stop the timer, keep its call counts."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.phase_calls.append({
            key: self._counts[key] - self._at_start[key]
            for key in (f"{cls}.{method}"
                        for _layer, _module, cls, method in ENTRY_POINTS)})

    # -- sampling ----------------------------------------------------------

    def _sampler(self):
        package_of: dict = {}
        watched = {original.__code__: f"{cls.__name__}.{method}"
                   for cls, method, original in self._originals
                   if f"{cls.__name__}.{method}" in PER_CALL}
        self_samples = self.self_samples
        incl_samples = self.incl_samples
        per_call = self.per_call_samples

        def layer(code) -> str:
            """Package under ``repro`` defining ``code``; "" if none."""
            path = os.path.abspath(code.co_filename)
            if path == _PROBE_FILE:
                return "probe"
            if not path.startswith(_REPRO_PREFIX):
                return ""
            head, sep, _tail = path[len(_REPRO_PREFIX):].partition(os.sep)
            return head if sep else ""

        def on_sample(_signum, frame) -> None:
            self.samples += 1
            innermost = None
            seen = set()
            hits = set()
            while frame is not None:
                code = frame.f_code
                package = package_of.get(code)
                if package is None:
                    package = package_of[code] = layer(code)
                if package:
                    if innermost is None:
                        innermost = package
                    seen.add(package)
                key = watched.get(code)
                if key is not None:
                    hits.add(key)
                frame = frame.f_back
            # A wrapper's own frame is only ever charged when innermost.
            seen.discard("probe")
            self_samples[innermost or ""] += 1
            for package in seen:
                incl_samples[package] += 1
            for key in hits:
                per_call[key] += 1

        return on_sample
