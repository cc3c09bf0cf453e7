"""Bounded local-SSD artifact cache over a remote backend (§2.3, §7.1).

The local tier is a byte-budgeted cache of snapshot artifact files
(VMM state, guest memory file, REAP trace/WS files).  Registration is
write-through: every artifact also lives in the remote service, so
*demotion* is metadata-only -- the local copy is dropped and the file's
device is flipped to the :class:`~repro.storage.remote.RemoteDevice`.
From that moment every read of the file -- a kernel lazy fault, a
buffered WS fetch, the VMM-state load -- transparently pays the network
round trip and link bandwidth, which is exactly the §7.1 setting where
lazy paging pays a round trip per small read while REAP moves its
working set in one large transfer.

*Promotion* (:meth:`TierCache.ensure_local`) is the opposite move: one
bulk sequential read of the artifact from the remote service, after
which the file's device points back at its home (local) device.  The
write of the promoted bytes into the local cache overlaps the network
stream and is not charged separately.  Artifacts pinned by in-flight
restores are never evicted; an artifact that cannot fit even after
evicting everything unpinned is served remotely in place (counted in
``stats.bypassed``).

Eviction is pluggable (:data:`EVICTION_POLICIES`):

* ``lru`` -- least-recently-accessed first;
* ``lfu`` -- least-frequently-accessed first, LRU tie-break;
* ``ws_aware`` -- working-set-size-aware: guest memory files go first
  (REAP-style restores touch only a working set of them lazily, so they
  are the cheapest bytes to serve remotely), largest first, then LRU --
  keeping the small, restore-critical VMM/WS artifacts local.

All orderings end on the file name, so eviction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.sim import sanitizer
from repro.sim.engine import Environment, Event
from repro.storage.device import IoRequest, ReadKind
from repro.storage.filesystem import SimFile
from repro.storage.remote import (
    RemoteDevice,
    RemoteOutageError,
    RemoteStorageParameters,
)


@dataclass(frozen=True)
class TierParameters:
    """Placement knobs of the tiered snapshot store."""

    #: Local-SSD cache budget in bytes; ``None`` = unbounded (everything
    #: stays local and the remote tier is never read).
    local_capacity_bytes: Optional[int] = None
    #: Eviction policy name (see :data:`EVICTION_POLICIES`).
    eviction: str = "lru"
    #: Network path to the remote service; ``None`` uses the host's
    #: calibrated :class:`~repro.storage.remote.RemoteStorageParameters`.
    remote: Optional[RemoteStorageParameters] = None
    #: Promotion deadline in sim microseconds; a promote still in flight
    #: past it is abandoned and the artifact served remotely in place
    #: (resilience under outages/latency spikes).  ``None`` (default)
    #: keeps the unbounded direct-fetch path.
    promote_timeout_us: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.local_capacity_bytes is not None
                and self.local_capacity_bytes <= 0):
            raise ValueError("local_capacity_bytes must be positive or None")
        if self.eviction not in EVICTION_POLICIES:
            known = ", ".join(sorted(EVICTION_POLICIES))
            raise ValueError(f"unknown eviction policy "
                             f"{self.eviction!r}; known: {known}")
        if (self.promote_timeout_us is not None
                and self.promote_timeout_us <= 0):
            raise ValueError("promote_timeout_us must be positive or None")


@dataclass
class TierEntry:
    """One artifact file tracked by the tier cache."""

    file: SimFile
    function: str
    #: Artifact kind: ``vmm`` | ``mem`` | ``ws`` | ``trace``.
    kind: str
    #: The local device the file was created on (restored on promote).
    home_device: Any
    #: Bytes charged against the tier budget -- the file's *written*
    #: (non-hole) bytes, frozen at registration so accounting is stable.
    size: int = 0
    local: bool = True
    #: Whether this entry's bytes are counted against the local budget
    #: (True while resident *or* mid-promotion, when room is reserved).
    charged: bool = False
    pins: int = 0
    last_access: float = 0.0
    hits: int = 0
    #: In-flight promotion completion event; concurrent restores of the
    #: same artifact wait on it instead of double-fetching (the remote
    #: link is capacity-one, so duplicate transfers would serialize).
    promote_done: Any = None


def _lru_key(entry: TierEntry) -> tuple:
    return (entry.last_access, entry.file.name)


def _lfu_key(entry: TierEntry) -> tuple:
    return (entry.hits, entry.last_access, entry.file.name)


def _ws_aware_key(entry: TierEntry) -> tuple:
    # Memory files first (usable lazily from remote), biggest first,
    # then stale-first; VMM/WS/trace artifacts are kept local longest.
    kind_rank = 0 if entry.kind == "mem" else 1
    return (kind_rank, -entry.size, entry.last_access, entry.file.name)


#: name -> sort key; the entry sorting *first* is evicted first.
EVICTION_POLICIES: dict[str, Callable[[TierEntry], tuple]] = {
    "lru": _lru_key,
    "lfu": _lfu_key,
    "ws_aware": _ws_aware_key,
}


@dataclass
class TierStats:
    """Counters of the tier cache."""

    registered: int = 0
    released: int = 0
    evictions: int = 0
    demoted_bytes: int = 0
    promotions: int = 0
    promoted_bytes: int = 0
    #: ``ensure_local`` found the artifact already resident.
    local_hits: int = 0
    #: ``ensure_local`` had to reach the remote tier.
    remote_misses: int = 0
    #: Artifacts served remotely in place (no room to promote).
    bypassed: int = 0
    #: Restores that waited on another restore's in-flight promotion.
    coalesced: int = 0
    #: Promotions abandoned at the ``promote_timeout_us`` deadline.
    promote_timeouts: int = 0
    #: Promotions that failed because the remote service was down.
    unreachable: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-serializable counter snapshot."""
        return dict(vars(self))


class TierCache:
    """The bounded local tier (see module docstring)."""

    def __init__(self, env: Environment, remote: RemoteDevice,
                 params: TierParameters | None = None) -> None:
        sanitizer.track_tier_cache(self)
        self.env = env
        self.remote = remote
        self.params = params or TierParameters()
        self._evict_key = EVICTION_POLICIES[self.params.eviction]
        self._entries: dict[str, TierEntry] = {}
        #: Per-function resident bytes, maintained on every placement
        #: flip -- the cluster front end reads this on every cold route.
        self._local_by_function: dict[str, int] = {}
        self.local_bytes_used = 0
        self.stats = TierStats()
        #: Trace process name (the owning orchestrator overrides it).
        self.obs_proc = "worker0"
        #: Per-call counter naming unique trace lanes for
        #: :meth:`ensure_local` (concurrent restores of one function
        #: must not share a lane, or aborting one would close spans the
        #: other still holds).
        self._ensure_seq = 0
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.register("tier", self.stats)

    # -- registration -----------------------------------------------------

    def register(self, file: SimFile, function: str,
                 kind: str) -> TierEntry:
        """Admit a freshly written artifact (write-through to remote).

        The artifact starts local when it fits (evicting colder entries
        as needed) and remote-only when it is larger than the whole
        cache budget.
        """
        if file.name in self._entries:
            raise ValueError(f"artifact {file.name!r} already registered")
        entry = TierEntry(file=file, function=function, kind=kind,
                          home_device=file.device,
                          size=file.written_bytes,
                          last_access=self.env.now)
        self._entries[file.name] = entry
        self._count_local(entry, +1)
        self.stats.registered += 1
        capacity = self.params.local_capacity_bytes
        if capacity is not None and entry.size > capacity:
            self._demote(entry, evicted=False)
            return entry
        entry.charged = True
        self.local_bytes_used += entry.size
        if not self._make_room(exclude=entry):
            # Everything else is pinned by in-flight restores: the
            # newcomer is the only evictable entry, so it starts remote.
            self._demote(entry, evicted=False)
        return entry

    def release(self, file_name: str) -> int:
        """Forget an artifact; returns local bytes freed."""
        entry = self._entries.pop(file_name, None)
        if entry is None:
            return 0
        self.stats.released += 1
        if entry.local:
            self._count_local(entry, -1)
        if entry.charged:
            entry.charged = False
            self.local_bytes_used -= entry.size
            return entry.size
        return 0

    def entries_for_leak_check(self) -> list[TierEntry]:
        """All entries, name-ordered (sanitizer end-of-run accounting)."""
        return [self._entries[name] for name in sorted(self._entries)]

    def entries_for(self, function: str) -> list[TierEntry]:
        """All registered artifacts of one function, insertion-ordered."""
        return [entry for entry in self._entries.values()
                if entry.function == function]

    def local_bytes(self, function: str) -> int:
        """Bytes of a function's artifacts resident in the local tier."""
        return self._local_by_function.get(function, 0)

    def _count_local(self, entry: TierEntry, sign: int) -> None:
        self._local_by_function[entry.function] = (
            self._local_by_function.get(entry.function, 0)
            + sign * entry.size)

    # -- the restore path -------------------------------------------------

    def ensure_local(self, function: str, kinds: tuple[str, ...],
                     ) -> Generator[Event, Any, list[TierEntry]]:
        """Promote the named artifact kinds of ``function``; pin them.

        Missing artifacts are fetched from the remote service as one
        bulk sequential read each (promote-on-restore).  Returns the
        pinned entries; callers must :meth:`unpin` them when the restore
        completes.  Artifacts that cannot fit stay remote -- subsequent
        reads flow through the remote device per access.
        """
        tracer = obs_tracer.ACTIVE
        lane = None
        span = None
        if tracer is not None:
            self._ensure_seq += 1
            lane = f"{function}:ensure{self._ensure_seq}"
        pinned: list[TierEntry] = []
        try:
            for entry in self.entries_for(function):
                if entry.kind not in kinds:
                    continue
                if self._entries.get(entry.file.name) is not entry:
                    # Released during an earlier artifact's promotion
                    # yield (superseded generation, re-record): charging
                    # it now would leak budget forever.
                    continue
                entry.last_access = self.env.now
                entry.hits += 1
                entry.pins += 1
                pinned.append(entry)
                if entry.local:
                    self.stats.local_hits += 1
                    continue
                if entry.promote_done is not None:
                    # Another restore is already fetching this artifact;
                    # wait for its transfer instead of a duplicate fetch.
                    self.stats.coalesced += 1
                    if tracer is not None:
                        span = tracer.begin(
                            "promote_wait", self.env.now, lane=lane,
                            proc=self.obs_proc, cat="snapstore",
                            args={"artifact": entry.kind,
                                  "bytes": entry.size})
                    yield entry.promote_done
                    if tracer is not None:
                        tracer.end(span, self.env.now)
                    continue
                self.stats.remote_misses += 1
                if not self._admit(entry):
                    self.stats.bypassed += 1
                    if tracer is not None:
                        tracer.instant(
                            "tier_bypass", self.env.now, lane=lane,
                            proc=self.obs_proc, cat="snapstore",
                            args={"artifact": entry.kind,
                                  "bytes": entry.size})
                    continue
                try:
                    if self.params.promote_timeout_us is None:
                        yield from self._promote(entry, lane)
                    else:
                        yield from self._promote_bounded(entry, lane)
                except RemoteOutageError:
                    # Remote service down (fail-mode outage): the
                    # artifact stays remote and the entry stays pinned;
                    # the caller decides whether to degrade the restore
                    # (the store surfaces this through the breakdown).
                    self.stats.unreachable += 1
                    continue
        except BaseException:
            # The caller never receives the pinned list, so it cannot
            # unpin: drop the pins accrued so far here (REPRO-R001's
            # runtime counterpart -- the sanitizer leak check).
            if tracer is not None:
                tracer.abort_lane(lane, self.env.now, proc=self.obs_proc)
            self.unpin(pinned)
            raise
        return pinned

    def unpin(self, entries: list[TierEntry]) -> None:
        """Release restore pins taken by :meth:`ensure_local`."""
        for entry in entries:
            if entry.pins <= 0:
                raise RuntimeError(f"{entry.file.name}: unpin without pin")
            entry.pins -= 1

    def _promote(self, entry: TierEntry,
                 lane: str | None) -> Generator[Event, Any, None]:
        """Fetch one artifact from the remote service and flip it local.

        Cleans up after itself on *any* failure -- Interrupt (abandoned
        at the promote deadline, or the promoting restore crashed),
        outage error, model error -- by undoing the ``_admit``
        reservation and waking coalesced waiters, whose reads then flow
        through the remote device per access.  Without that the budget
        bytes and the waiters leak forever.
        """
        tracer = obs_tracer.ACTIVE
        span = None
        entry.promote_done = self.env.event()
        if tracer is not None:
            span = tracer.begin(
                "promote", self.env.now, lane=lane,
                proc=self.obs_proc, cat="snapstore",
                args={"artifact": entry.kind, "bytes": entry.size})
        try:
            # One large sequential fetch from the remote service.
            yield from self.remote.read(IoRequest(
                lba=entry.file.to_lba(0), nbytes=entry.size,
                kind=ReadKind.BUFFERED))
        except BaseException:
            if entry.charged:
                entry.charged = False
                self.local_bytes_used -= entry.size
            done, entry.promote_done = entry.promote_done, None
            done.succeed()
            if tracer is not None:
                tracer.abort_lane(lane, self.env.now, proc=self.obs_proc)
            raise
        if self._entries.get(entry.file.name) is entry:
            entry.file.device = entry.home_device
            entry.local = True
            self._count_local(entry, +1)
            self.stats.promotions += 1
            self.stats.promoted_bytes += entry.size
        # else: released mid-transfer (superseded generation) -- the
        # file stays on the remote path and release() uncharged it.
        done, entry.promote_done = entry.promote_done, None
        done.succeed()
        if tracer is not None:
            tracer.end(span, self.env.now)

    def _promote_bounded(self, entry: TierEntry,
                         lane: str | None) -> Generator[Event, Any, None]:
        """Race :meth:`_promote` against the configured deadline.

        The fetch runs as a child process; if the deadline fires first
        it is interrupted (its own cleanup undoes the reservation and
        wakes waiters) and the artifact is served remotely in place --
        same semantics as a capacity bypass.  A fetch that *fails*
        before the deadline re-raises here (the late abandoned-process
        failure after a deadline win is defused by the race event).
        """
        proc = self.env.process(self._promote(entry, lane),
                                name=f"promote:{entry.file.name}")
        try:
            yield self.env.any_of([
                proc, self.env.timeout(self.params.promote_timeout_us)])
        except BaseException:
            # The promoting restore itself was aborted (or the fetch
            # failed): make sure the child is not left running.
            if proc.is_alive:
                proc.interrupt("promote-abort")
            raise
        if proc.is_alive:
            proc.interrupt("promote-timeout")
            self.stats.promote_timeouts += 1
            self.stats.bypassed += 1
            tracer = obs_tracer.ACTIVE
            if tracer is not None:
                tracer.instant(
                    "promote_timeout", self.env.now, lane=lane,
                    proc=self.obs_proc, cat="snapstore",
                    args={"artifact": entry.kind, "bytes": entry.size})

    def lose_local(self) -> int:
        """Crash semantics: drop every locally resident artifact copy.

        Registration is write-through, so the remote copies survive a
        worker crash; the local tier contents do not.  Every resident
        entry is demoted in place (name order, deterministic) and the
        budget zeroed.  Returns the bytes lost.
        """
        lost = 0
        for name in sorted(self._entries):
            entry = self._entries[name]
            if entry.local:
                lost += entry.size
                self._demote(entry, evicted=False)
        return lost

    # -- capacity ---------------------------------------------------------

    def _admit(self, entry: TierEntry) -> bool:
        """Reserve local room for ``entry``; False when impossible."""
        capacity = self.params.local_capacity_bytes
        if capacity is not None:
            if entry.size > capacity:
                return False
            if not self._make_room(needed=entry.size, exclude=entry):
                return False
        entry.charged = True
        self.local_bytes_used += entry.size
        return True

    def _make_room(self, needed: int = 0,
                   exclude: TierEntry | None = None) -> bool:
        """Evict until ``needed`` extra bytes fit; False if they cannot.

        Checked before any demotion: a request that cannot fit even
        after evicting every unpinned entry fails without flushing the
        cache (the bypass would otherwise stand atop pointless
        evictions).
        """
        capacity = self.params.local_capacity_bytes
        if capacity is None:
            return True
        victims = [entry for entry in self._entries.values()
                   if entry.local and entry.pins == 0
                   and entry is not exclude]
        evictable = sum(entry.size for entry in victims)
        if self.local_bytes_used + needed - evictable > capacity:
            return False
        victims.sort(key=self._evict_key)
        for victim in victims:
            if self.local_bytes_used + needed <= capacity:
                break
            self._demote(victim)
        return True

    def _demote(self, entry: TierEntry, evicted: bool = True) -> None:
        """Drop the local copy; reads now flow through the remote tier.

        ``evicted=False`` marks registrations that never fit (too big,
        or the cache is fully pinned) -- they are not counted as
        evictions of previously resident artifacts.
        """
        if entry.local:
            self._count_local(entry, -1)
        if entry.charged:
            entry.charged = False
            self.local_bytes_used -= entry.size
            if evicted and entry.local:
                self.stats.evictions += 1
                self.stats.demoted_bytes += entry.size
        entry.local = False
        entry.file.device = self.remote
