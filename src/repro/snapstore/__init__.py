"""Tiered content-addressed snapshot storage.

The paper's storage findings motivate this subsystem: >=97 % of
guest-memory pages are byte-identical across invocations for 7 of 10
functions (Fig. 5), and whether a snapshot's artifacts sit on the local
SSD or behind a remote S3/EBS-style service dominates restore behaviour
(§2.3, §7.1).  Three pieces turn those observations into machinery:

* :mod:`repro.snapstore.chunks` -- a content-addressed page chunk index
  that deduplicates identical pages across functions, invocations, and
  snapshot generations, with a deterministic compression model and
  capacity accounting in bytes;
* :mod:`repro.snapstore.tier` -- a bounded local-SSD cache over the
  remote backend with pluggable eviction (LRU / LFU /
  working-set-aware); demotion flips an artifact file's device to the
  remote path, so every subsequent read -- lazy fault, WS fetch, VMM
  load -- transparently pays the network;
* :mod:`repro.snapstore.store` -- the tiered subclass of the worker's
  snapshot store: snapshot bundles and REAP artifacts register in the
  tier, and every cold
  restore first ensures the artifacts its policy needs are local
  (promote-on-restore), faithfully reproducing §7.1's remote-storage
  penalty when they are not.

See the "Snapshot storage" section of ``docs/architecture.md`` and the
``snapstore_capacity`` / ``snapstore_tiering`` experiments.
"""

from repro.snapstore.chunks import (
    ZERO_PAGE_DIGEST,
    ChunkIndex,
    compressed_chunk_bytes,
    page_digest,
    snapshot_page_digest,
)
from repro.snapstore.store import TieredSnapshotStore
from repro.snapstore.tier import (
    EVICTION_POLICIES,
    TierCache,
    TierEntry,
    TierParameters,
    TierStats,
)

__all__ = [
    "ChunkIndex",
    "EVICTION_POLICIES",
    "TierCache",
    "TierEntry",
    "TierParameters",
    "TierStats",
    "TieredSnapshotStore",
    "ZERO_PAGE_DIGEST",
    "compressed_chunk_bytes",
    "page_digest",
    "snapshot_page_digest",
]
