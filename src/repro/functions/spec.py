"""Function profile: the calibrated description of one workload."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import MIB, PAGE_SIZE


@dataclass(frozen=True)
class FunctionProfile:
    """Workload model of one FunctionBench function.

    Page-count fields describe the *stable* working set (identical across
    invocations, §4.4) split by invocation phase, plus the per-invocation
    unique pages caused by input-dependent allocation.  All counts are
    4 KiB guest pages.
    """

    name: str
    description: str

    #: Guest memory size (the paper boots 256 MB VMs).
    vm_memory_mb: int = 256
    #: Resident footprint after boot + first invocation, Fig. 4 blue bars.
    boot_footprint_mb: float = 160.0
    #: Warm end-to-end invocation latency (data-plane, Fig. 2 warm bars).
    warm_ms: float = 10.0
    #: Guest compute in the gRPC connection-restoration phase.
    connection_warm_ms: float = 4.0
    #: Language-runtime / user-code initialization on a full cold boot
    #: (§2.2: "up to several seconds to bootstrap").  Only exercised by
    #: the boot-versus-snapshot comparison; snapshots elide it entirely.
    init_ms: float = 300.0

    #: Stable pages touched while the orchestrator's connection to the
    #: guest gRPC server is restored.
    connection_pages: int = 1200
    #: Stable pages touched while processing the invocation.
    processing_pages: int = 600
    #: Pages unique to each invocation (Fig. 5 "unique" bars).
    unique_pages: int = 50
    #: Fraction of unique pages that are fresh allocations beyond the
    #: snapshotted footprint (zero-filled, no disk read on fault).
    unique_zero_fraction: float = 0.5

    #: Mean contiguous-run length of the stable set (Fig. 3).
    contiguity_mean: float = 2.4
    #: Mean run length of the per-invocation unique pages.
    unique_contiguity_mean: float = 1.3
    #: Extra guest/kernel CPU per major demand fault, in microseconds.
    #: Runtimes differ in how expensive a first touch is beyond the disk
    #: read (page-table depth, VMA count, allocator bookkeeping);
    #: calibrated per function to reconcile the baseline and REAP bars of
    #: Fig. 2/8 (see the calibration notes in ``functions/catalog.py``).
    fault_cpu_us: float = 0.0

    #: Input fetched from the S3 service at invocation start, in MB.
    input_mb: float = 0.0
    #: Fraction of the stable processing set that differs between the
    #: *first* (record) invocation and later ones -- the §6.3
    #: video_processing effect where REAP's recorded working set
    #: mispredicts subsequent invocations.
    record_divergence: float = 0.0

    def __post_init__(self) -> None:
        if self.connection_pages < 0 or self.processing_pages < 0:
            raise ValueError("page counts must be non-negative")
        if self.unique_pages < 0:
            raise ValueError("unique_pages must be non-negative")
        if not 0.0 <= self.unique_zero_fraction <= 1.0:
            raise ValueError("unique_zero_fraction must be in [0, 1]")
        if not 0.0 <= self.record_divergence <= 1.0:
            raise ValueError("record_divergence must be in [0, 1]")
        if self.fault_cpu_us < 0.0:
            raise ValueError("fault_cpu_us must be non-negative")
        if self.contiguity_mean < 1.0 or self.unique_contiguity_mean < 1.0:
            raise ValueError("contiguity means must be >= 1")
        if self.total_working_set_pages > self.vm_pages:
            raise ValueError("working set exceeds VM memory")
        if self.boot_footprint_bytes > self.vm_memory_mb * MIB:
            raise ValueError("boot footprint exceeds VM memory")
        if self.stable_pages > self.boot_footprint_pages:
            raise ValueError("stable working set exceeds boot footprint")

    # -- derived quantities -------------------------------------------------

    @property
    def vm_pages(self) -> int:
        """Total guest-physical pages."""
        return self.vm_memory_mb * MIB // PAGE_SIZE

    @property
    def stable_pages(self) -> int:
        """Stable working-set size in pages."""
        return self.connection_pages + self.processing_pages

    @property
    def total_working_set_pages(self) -> int:
        """Pages touched by one invocation (stable + unique)."""
        return self.stable_pages + self.unique_pages

    @property
    def working_set_mb(self) -> float:
        """Per-invocation working set in MB (Fig. 4 red bars)."""
        return self.total_working_set_pages * PAGE_SIZE / 1e6

    @property
    def boot_footprint_pages(self) -> int:
        """Boot footprint in pages."""
        return int(self.boot_footprint_mb * 1e6) // PAGE_SIZE

    @property
    def boot_footprint_bytes(self) -> int:
        """Boot footprint in bytes."""
        return self.boot_footprint_pages * PAGE_SIZE

    @property
    def unique_fraction(self) -> float:
        """Fraction of an invocation's pages unique to it (Fig. 5)."""
        total = self.total_working_set_pages
        return self.unique_pages / total if total else 0.0

    @property
    def input_bytes(self) -> int:
        """Input payload size in bytes."""
        return int(self.input_mb * 1e6)
