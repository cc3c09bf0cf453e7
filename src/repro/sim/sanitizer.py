"""Runtime "sim sanitizer": dynamic checks of the determinism story.

The static linter (:mod:`repro.lint`) proves invariants per call site;
this module samples the two properties that only exist at runtime:

* **Tie-break independence** (``REPRO_SANITIZE_TIEBREAK=<seed>``).  The
  engine's event heap breaks same-timestamp ties by insertion sequence
  number.  Model results must not depend on that arbitrary order -- it
  is the discrete-event analogue of a memory model's unsynchronized
  access order, and a result that changes when ties reorder is the
  simulation equivalent of a data race.  Setting the variable makes
  every :class:`~repro.sim.engine.Environment` replace the raw sequence
  with a seed-keyed *bijective* mix, i.e. a deterministic shuffle of
  same-timestamp tie order (causality is untouched: an event scheduled
  while handling another is pushed only after its cause popped).
  Running an experiment under several tie-break seeds and asserting
  byte-identical payload digests certifies tie-break independence.

* **Resource leaks** (``REPRO_SANITIZE=1``).  End-of-run accounting
  over weakly-tracked simulation objects: resource grants still held or
  queued, tier-cache entries still pinned or mid-promotion, userfaultfd
  regions with unserved faults or unread events.  Each of these is an
  exception-path bug -- an Interrupt or model error escaped a
  ``try/finally`` somewhere (statically, a REPRO-R001 violation) -- and
  each silently skews any later cell sharing the objects.  The bench
  cell boundary (``Experiment.run``, ``runner.execute_cell``) resets
  the registry before a cell and asserts emptiness after it.

Kept import-light on purpose (stdlib ``os``/``weakref`` only): the
engine, resource, tier, and uffd constructors all call into this
module, so it must not import any of them back.  Both knobs are read
from the environment *per call*, so tests can flip them with
``monkeypatch.setenv`` and no process-global state sticks.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Callable, Optional

#: Sequence numbers are mixed within this many bits; far above any real
#: event count, so mixed keys never collide with each other.
_SEQ_BITS = 63
_SEQ_MASK = (1 << _SEQ_BITS) - 1

#: SplitMix64 / golden-ratio multipliers, the usual avalanche constants.
_MIX_MULT = 0x9E3779B97F4A7C15
_MIX_ADD = 0xD1B54A32D192ED03


class LeakError(AssertionError):
    """End-of-run leak check failed (the report is the message)."""


def enabled() -> bool:
    """Whether ``REPRO_SANITIZE=1`` leak tracking is on."""
    return os.environ.get("REPRO_SANITIZE") == "1"


def tiebreak_seed() -> Optional[int]:
    """The ``REPRO_SANITIZE_TIEBREAK`` seed, or ``None`` when off."""
    raw = os.environ.get("REPRO_SANITIZE_TIEBREAK")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SANITIZE_TIEBREAK must be an integer seed, "
            f"got {raw!r}") from None


def sequence_mixer(seed: int) -> Callable[[int], int]:
    """A bijection over ``[0, 2**63)`` keyed by ``seed``.

    An affine map with an odd multiplier is invertible modulo a power
    of two, so distinct sequence numbers stay distinct -- the heap's
    tie order is *permuted*, never made ambiguous.  Seed 0 still
    perturbs (the additive constant shifts ties even when the odd
    multiplier degenerates to 1).
    """
    mult = ((seed * _MIX_MULT) | 1) & _SEQ_MASK
    add = ((seed + 1) * _MIX_ADD) & _SEQ_MASK

    def mix(sequence: int) -> int:
        return (sequence * mult + add) & _SEQ_MASK

    return mix


# -- leak registry ---------------------------------------------------------

#: Live simulation objects under watch.  WeakSets so that tracking never
#: extends a lifetime: an object the model dropped is not a leak.
_resources: "weakref.WeakSet[Any]" = weakref.WeakSet()
_tier_caches: "weakref.WeakSet[Any]" = weakref.WeakSet()
_uffds: "weakref.WeakSet[Any]" = weakref.WeakSet()


def track_resource(resource: Any) -> None:
    """Watch a :class:`~repro.sim.resources.Resource` (no-op when off)."""
    if enabled():
        _resources.add(resource)


def track_tier_cache(cache: Any) -> None:
    """Watch a :class:`~repro.snapstore.tier.TierCache` (no-op when off)."""
    if enabled():
        _tier_caches.add(cache)


def track_uffd(uffd: Any) -> None:
    """Watch a :class:`~repro.memory.uffd.UserFaultFd` (no-op when off)."""
    if enabled():
        _uffds.add(uffd)


def reset() -> None:
    """Forget every tracked object (call at a cell boundary)."""
    _resources.clear()
    _tier_caches.clear()
    _uffds.clear()


def leak_report() -> list[str]:
    """One line per leaked acquisition among live tracked objects.

    What counts as a leak is deliberately narrow, so quiescent-but-alive
    state never trips it: a warm instance may keep an open (idle) uffd
    and an empty resource may outlive its cell.  Leaks are *held*
    things: a grant never released, a request still queued, a pin never
    unpinned, a promotion never resolved, a fault never served, an
    event never read.
    """
    lines: list[str] = []
    for resource in sorted(_resources, key=_sort_key):
        held = len(getattr(resource, "_users", ()))
        queued = getattr(resource, "queue_length", 0)
        if held or queued:
            lines.append(
                f"{_describe(resource)}: {held} grant(s) held, "
                f"{queued} request(s) queued")
    for cache in sorted(_tier_caches, key=_sort_key):
        for entry in cache.entries_for_leak_check():
            problems = []
            if entry.pins:
                problems.append(f"{entry.pins} pin(s)")
            if entry.promote_done is not None:
                problems.append("unresolved promotion")
            if problems:
                lines.append(f"{_describe(cache)}: entry "
                             f"{entry.file.name!r}: {', '.join(problems)}")
    for uffd in sorted(_uffds, key=_sort_key):
        pending = len(getattr(uffd, "_pending", ()))
        events = len(getattr(uffd, "_events", ()))
        if pending or events:
            lines.append(
                f"{_describe(uffd)}: {pending} unserved fault(s), "
                f"{events} unread event(s)")
    return lines


def assert_no_leaks(context: str = "") -> None:
    """Raise :class:`LeakError` when any tracked acquisition is held."""
    lines = leak_report()
    if lines:
        where = f" after {context}" if context else ""
        raise LeakError(
            f"simulation leak check failed{where}:\n  "
            + "\n  ".join(lines))


def _describe(obj: Any) -> str:
    name = getattr(obj, "name", None)
    label = type(obj).__name__
    return f"{label}({name!r})" if name else label


def _sort_key(obj: Any) -> tuple[str, str]:
    # WeakSet iteration order is id()-dependent; report deterministically.
    return (type(obj).__name__, str(getattr(obj, "name", "")))
