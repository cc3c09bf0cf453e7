"""The worker host: devices, kernel paths, and calibrated cost constants.

One :class:`WorkerHost` is the paper's single evaluation server (§6.1):
a many-core box with a local SATA3 SSD (or, for the §6.3 variant, a
7200 RPM HDD).  It owns

* the raw storage device and the **thin-pool** (devmapper) path that
  snapshot files are served through,
* the **host page cache** (flushed before every cold invocation, §4.1),
* the **containerd control plane**, whose per-instance serialized
  section is a first-order term in concurrent-load scalability (Fig. 9),
* all calibrated microsecond-level constants for userfaultfd and install
  paths (:class:`HostParameters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import metrics as obs_metrics
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.sim.rng import RandomStream
from repro.sim.units import MIB, mbps_to_bytes_per_us
from repro.storage.filesystem import Filesystem
from repro.storage.hdd import HddDevice, HddParameters
from repro.storage.pagecache import HostPageCache, PageCacheParameters
from repro.storage.remote import RemoteDevice, RemoteStorageParameters
from repro.storage.ssd import SsdDevice, SsdParameters
from repro.storage.thinpool import ThinPoolDevice, ThinPoolParameters


@dataclass(frozen=True)
class HostParameters:
    """Calibrated host constants.

    Field comments name the paper section a constant models; where each
    value comes from is provenance not yet written down.
    """

    #: Logical cores (2x24-core SMT host in the paper).
    cores: int = 48

    # -- control plane (containerd / firecracker-containerd) -------------
    #: Serialized per-instance section of instance creation (global
    #: containerd/devmapper bookkeeping).
    containerd_serial_ms: float = 12.0
    #: Spawning the Firecracker process.
    firecracker_spawn_ms: float = 4.0
    #: Attaching network/block devices (parallel across instances).
    device_setup_ms: float = 6.0
    #: Size of the serialized VMM + emulated-device state file.
    vmm_state_mb: float = 2.5
    #: Orchestrator-side gRPC (re-)connection handshake.
    grpc_handshake_ms: float = 1.0

    # -- full boot path (§2.2) -------------------------------------------
    kernel_boot_ms: float = 125.0
    rootfs_mount_ms: float = 250.0
    agent_startup_ms: float = 300.0

    # -- userfaultfd / monitor costs (§5.2) --------------------------------
    #: Kernel -> monitor fault-event delivery.
    uffd_event_us: float = 8.0
    #: Monitor goroutine scheduling per event.
    monitor_dispatch_us: float = 4.0
    #: Single-page UFFDIO_COPY (ioctl + page-table update + wake).
    uffd_copy_us: float = 14.0
    #: UFFDIO_ZEROPAGE.
    uffd_zeropage_us: float = 9.0
    #: Per-ioctl cost of eager batch installs (one per contiguous run).
    uffd_batch_ioctl_us: float = 2.5
    #: Install memcpy bandwidth (guest memory is RAM-resident).
    memcpy_mbps: float = 10_000.0
    #: Anonymous zero-fill fault (fresh allocation in a warm instance).
    anon_fault_us: float = 2.0

    # -- local S3-style object store (MinIO on the same host) -------------
    s3_latency_ms: float = 1.5
    s3_bandwidth_mbps: float = 1200.0

    # -- sub-model parameter bundles ---------------------------------------
    ssd: SsdParameters = field(default_factory=SsdParameters)
    hdd: HddParameters = field(default_factory=HddParameters)
    thinpool: ThinPoolParameters = field(default_factory=ThinPoolParameters)
    remote: RemoteStorageParameters = field(
        default_factory=RemoteStorageParameters)
    page_cache: PageCacheParameters = field(
        default_factory=PageCacheParameters)

    @property
    def vmm_state_bytes(self) -> int:
        """VMM state file size in bytes."""
        return int(self.vmm_state_mb * MIB)


class WorkerHost:
    """A single worker server with its storage and kernel paths."""

    def __init__(self, env: Environment,
                 params: HostParameters | None = None,
                 storage: str = "ssd",
                 seed: int = 42) -> None:
        if storage not in ("ssd", "hdd", "remote"):
            raise ValueError(
                f"storage must be 'ssd', 'hdd' or 'remote', got {storage!r}")
        self.env = env
        self.params = params or HostParameters()
        self.storage_kind = storage
        self.rng = RandomStream(seed, "host")
        if storage == "ssd":
            self.device = SsdDevice(env, self.params.ssd)
            self.snapshot_device = ThinPoolDevice(env, self.device,
                                                  self.params.thinpool)
        elif storage == "hdd":
            self.device = HddDevice(env, self.params.hdd)
            self.snapshot_device = ThinPoolDevice(env, self.device,
                                                  self.params.thinpool)
        else:
            # Disaggregated snapshot storage (§7.1): every file, including
            # REAP's WS files, is reached over the network; the devmapper
            # thin-pool path does not apply.
            service_disk = SsdDevice(env, self.params.ssd)
            self.device = RemoteDevice(env, service_disk,
                                       self.params.remote)
            self.snapshot_device = self.device
        self.filesystem = Filesystem(self.device)
        self.page_cache = HostPageCache(env, self.params.page_cache)
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.register("device", self.device.stats)
        #: Containerd's global serialized section.
        self.containerd_lock = Resource(env, capacity=1)
        #: Host CPU pool (used by CPU-bound control-plane steps).
        self.cpu = Resource(env, capacity=self.params.cores)
        self._s3_bytes_per_us = mbps_to_bytes_per_us(
            self.params.s3_bandwidth_mbps)

    def flush_page_cache(self) -> None:
        """Model the paper's pre-invocation ``drop_caches`` (§4.1)."""
        self.page_cache.drop_caches()

    def s3_fetch_us(self, nbytes: int) -> float:
        """Latency of fetching an object from the local S3 service."""
        if nbytes <= 0:
            return 0.0
        return (self.params.s3_latency_ms * 1000.0
                + nbytes / self._s3_bytes_per_us)

    def install_batch_us(self, runs: int, nbytes: int) -> float:
        """Cost of eagerly installing a prefetched working set.

        One ioctl per contiguous run plus the memcpy of all page bytes
        (§5.2.2: "a sequence of ioctl system calls").
        """
        memcpy_us = nbytes / mbps_to_bytes_per_us(self.params.memcpy_mbps)
        return runs * self.params.uffd_batch_ioctl_us + memcpy_us
