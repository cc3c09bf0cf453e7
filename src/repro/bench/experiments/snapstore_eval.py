"""Snapshot-storage experiments: dedup capacity and tiered restores.

Two experiments exercise the :mod:`repro.snapstore` subsystem:

* ``snapstore_capacity`` -- one cell per catalog function.  Each cell
  builds a content-addressed :class:`~repro.snapstore.chunks.ChunkIndex`
  over the function's snapshot memory file, several invocations' working
  sets, and a re-captured second snapshot generation, then reports the
  Fig. 5 cross-invocation page-identity fraction, the
  generation-over-generation sharing, and the dedup + compression
  savings.  Page contents follow the deterministic content model:
  stable-working-set pages carry their snapshot bytes, fresh
  allocations beyond the boot footprint are zero pages, and reused
  allocator regions inside it are dirtied per invocation -- which is
  precisely what makes the large-input functions (image_rotate,
  lr_training, video_processing) fall below the 97 % identity line, as
  in the paper.

* ``snapstore_tiering`` -- the §7.1 storage-placement study at cluster
  scale: the ``azure`` trace mix replayed against a 2-worker cluster
  whose snapshot artifacts live in a bounded local-SSD tier over a
  remote service.  Cells sweep local capacity x eviction policy x
  restore scheme (plus a locality-blind routing control), reporting
  cold fractions, promote traffic, and latency tails.  Shrinking the
  local tier degrades p99 monotonically -- evicted artifacts pay the
  remote path on restore -- and snapshot-locality-aware routing beats
  blind spreading at equal capacity.  Each replay follows the shared
  trace-replay cell method of :mod:`repro.bench.experiments.replay`
  (docs/experiments.md, "Trace-replay cells").

Every cell is a pure function of its params, so both experiments shard
and cache through :mod:`repro.bench.runner` byte-identically.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.aggregate import collect
from repro.bench.experiments import replay
from repro.bench.experiments.replay import SCHEMES
from repro.bench.experiments.spec import Cell, Experiment
from repro.bench.harness import ExperimentResult
from repro.functions import get_profile
from repro.functions.behavior import FunctionBehavior
from repro.functions.catalog import catalog_names
from repro.sim.rng import derive_seed
from repro.sim.units import MIB
from repro.snapstore.chunks import (
    ZERO_PAGE_DIGEST,
    ChunkIndex,
    snapshot_page_digest,
)
from repro.snapstore.tier import TierParameters

#: The Fig. 5 identity threshold the paper reports for 7 of 10 functions.
IDENTITY_THRESHOLD = 0.97


class SnapstoreCapacity(Experiment):
    """Content-addressed dedup and compression across the catalog."""

    id = "snapstore_capacity"
    title = "Snapshot store: page dedup and compression (Fig. 5, §2.3)"

    def cells(self, seed: int = 42, functions=None, invocations: int = 4,
              **_kwargs) -> list[Cell]:
        names = list(functions) if functions else catalog_names()
        return [self._cell(name, function=name, seed=seed,
                           invocations=int(invocations))
                for name in names]

    def run_cell(self, cell: Cell) -> dict[str, Any]:
        function = cell.params["function"]
        seed = cell.params["seed"]
        invocations = cell.params["invocations"]
        profile = get_profile(function)
        behavior = FunctionBehavior(
            profile, seed=derive_seed(seed, "fn", function))
        footprint = profile.boot_footprint_pages
        stable = behavior.layout.stable_page_set

        index = ChunkIndex()
        boot_digests = [snapshot_page_digest(function, 0, page)
                        for page in range(footprint)]
        index.add_object(f"{function}/gen0/mem", boot_digests)

        # Invocation working sets, content-addressed.  Stable pages keep
        # their snapshot bytes; fresh allocations beyond the footprint
        # are zero pages (dedup to one chunk); reused allocator regions
        # inside it carry invocation-dirtied bytes (never dedup).
        shared: list[float] = []
        previous = None
        last_dirty: dict[int, bytes] = {}
        for k in range(invocations):
            trace = behavior.trace_for(k)
            digests = []
            dirty: dict[int, bytes] = {}
            for page in trace.pages:
                if page in stable:
                    digests.append(boot_digests[page])
                elif page >= footprint:
                    digests.append(ZERO_PAGE_DIGEST)
                else:
                    digest = snapshot_page_digest(
                        f"{function}#inv{k}", 0, page)
                    digests.append(digest)
                    dirty[page] = digest
            object_id = f"{function}/inv{k}"
            index.add_object(object_id, digests)
            if previous is not None:
                shared.append(index.shared_fraction(previous, object_id))
            previous = object_id
            last_dirty = dirty

        # Second snapshot generation: a re-capture after serving traffic
        # (same layout epoch).  Only the allocator regions the last
        # invocation dirtied differ from generation 0.
        gen1 = [last_dirty.get(page, boot_digests[page])
                for page in range(footprint)]
        index.add_object(f"{function}/gen1/mem", gen1)
        gen_shared = index.shared_fraction(f"{function}/gen0/mem",
                                           f"{function}/gen1/mem")

        identical = sum(shared) / len(shared) if shared else 1.0
        logical = index.logical_bytes
        unique = index.unique_bytes
        stored = index.stored_bytes
        return {
            "identical": identical,
            "gen_shared": gen_shared,
            "logical_bytes": logical,
            "unique_bytes": unique,
            "stored_bytes": stored,
            "row": {
                "function": function,
                "ws_pages": profile.total_working_set_pages,
                "identical": f"{identical:.1%}",
                "gen_shared": f"{gen_shared:.1%}",
                "logical_mb": round(logical / 1e6, 1),
                "unique_mb": round(unique / 1e6, 1),
                "stored_mb": round(stored / 1e6, 1),
                "dedup_x": round(index.dedup_ratio, 2),
                "saved": f"{1.0 - stored / logical:.0%}",
            },
        }

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        ge_threshold = 0
        for payload in payloads:
            name = payload["row"]["function"]
            result.metrics[f"{name}_identical"] = payload["identical"]
            if payload["identical"] >= IDENTITY_THRESHOLD:
                ge_threshold += 1
        logical = sum(payload["logical_bytes"] for payload in payloads)
        unique = sum(payload["unique_bytes"] for payload in payloads)
        stored = sum(payload["stored_bytes"] for payload in payloads)
        result.metrics["functions_ge_97_fraction"] = (
            ge_threshold / len(payloads))
        result.metrics["catalog_dedup_ratio"] = logical / unique
        result.metrics["catalog_stored_savings"] = 1.0 - stored / logical
        result.notes.append(
            "Fig. 5 regime: stable working sets plus zero-page fresh "
            "allocations keep >=97% of accessed pages byte-identical "
            "across invocations for the small-input majority; the "
            "large-input functions (image_rotate, lr_training, "
            "video_processing) dirty enough reused allocator pages to "
            "fall below the line")
        result.notes.append(
            "re-captured snapshot generations share all but the dirtied "
            "allocator regions with their predecessor, so keeping N "
            "generations costs far less than N full images; "
            "cross-function sharing under the content model is limited "
            "to the zero chunk")
        return result


class SnapstoreTiering(Experiment):
    """Restore tails vs local tier capacity, eviction, and routing."""

    id = "snapstore_tiering"
    title = "Tiered snapshot store: restore tails vs local capacity (§7.1)"

    #: An azure-mix population of sporadic endpoints and bursty pipeline
    #: stages whose snapshot artifacts total ~725 MB per worker.
    FUNCTIONS = ("helloworld", "image_rotate", "json_serdes",
                 "rnn_serving")
    #: Local-SSD budgets per worker, spanning three regimes: at 256 MB
    #: one function's artifacts fit (constant churn), at 512 MB about
    #: half the population fits, at 1 GB everything fits.
    CAPACITIES_MB = (256, 512, 1024)
    POLICIES = ("lru", "lfu", "ws_aware")

    def cells(self, seed: int = 42, duration_s: float = 2400.0,
              capacities_mb=CAPACITIES_MB, policies=POLICIES,
              functions=FUNCTIONS, repetitions: int = 2,
              **_kwargs) -> list[Cell]:
        cells = [self._cell(f"cap{capacity}/{policy}/{scheme}",
                            capacity_mb=int(capacity), policy=policy,
                            scheme=scheme, locality=True, seed=seed,
                            duration_s=float(duration_s),
                            repetitions=int(repetitions),
                            functions=list(functions))
                 for capacity in capacities_mb
                 for policy in policies
                 for scheme in SCHEMES]
        # Locality-blind routing controls under eviction pressure (the
        # non-largest capacities): same tier budgets, front end ignores
        # artifact placement.  The control uses the first requested
        # policy so subsets without "lru" still get advantage metrics.
        control = policies[0]
        cells += [self._cell(f"cap{capacity}/{control}/{scheme}/blind",
                             capacity_mb=int(capacity), policy=control,
                             scheme=scheme, locality=False, seed=seed,
                             duration_s=float(duration_s),
                             repetitions=int(repetitions),
                             functions=list(functions))
                  for capacity in sorted(int(c) for c in capacities_mb)[:-1]
                  for scheme in SCHEMES]
        return cells

    def run_cell(self, cell: Cell) -> dict[str, Any]:
        from repro.orchestrator.cluster import Cluster
        from repro.orchestrator.loadgen import SchemeInvoker, TraceReplayer
        from repro.sim.engine import Environment

        scheme = cell.params["scheme"]
        seed = cell.params["seed"]
        locality = cell.params["locality"]
        capacity_mb = cell.params["capacity_mb"]
        policy = cell.params["policy"]
        # Several independent replays pool their samples: tail
        # percentiles then reflect how *often* restores pay the remote
        # path rather than one replay's single worst queueing accident.
        function_stats = []
        tier_totals = {"promotions": 0, "evictions": 0, "local_hits": 0,
                       "remote_misses": 0, "promoted_bytes": 0}
        locality_routed = 0
        for repetition in range(cell.params["repetitions"]):
            rep_seed = derive_seed(seed, "rep", repetition)
            trace = replay.cell_trace(cell.params, "azure", rep_seed)
            if not len(trace):
                # A duration short enough to synthesize no arrivals
                # contributes no samples.
                continue
            env = Environment()
            with Cluster(
                    env, n_workers=2, seed=rep_seed,
                    autoscaler_params=replay.autoscaler_params("azure"),
                    snapstore_params=TierParameters(
                        local_capacity_bytes=capacity_mb * MIB,
                        eviction=policy),
                    locality_aware=locality) as cluster:
                replay.deploy(cluster, cell.params["functions"],
                              record=scheme == "reap")
                stats = env.run(until=env.process(TraceReplayer(
                    env, SchemeInvoker(cluster, scheme), trace).run()))
            function_stats.extend(stats.values())
            for worker in cluster.workers:
                store = worker.orchestrator.snapshot_store
                counters = store.cache.stats.to_dict()
                for key in tier_totals:
                    tier_totals[key] += counters[key]
            locality_routed += cluster.balancer.stats.locality_routed
        pooled = replay.pooled(function_stats)
        return {
            "p99_ms": pooled["p99_ms"],
            "cold_fraction": pooled["cold_fraction"],
            "promotions": tier_totals["promotions"],
            "row": {
                "capacity_mb": capacity_mb,
                "policy": policy,
                "scheme": scheme,
                "routing": "locality" if locality else "blind",
                "invocations": pooled["invocations"],
                "cold_fraction": f"{pooled['cold_fraction']:.0%}",
                "promotions": tier_totals["promotions"],
                "evictions": tier_totals["evictions"],
                "promoted_gb": round(
                    tier_totals["promoted_bytes"] / 1e9, 2),
                "locality_routed": locality_routed,
                "p50_ms": round(pooled["p50_ms"], 1),
                "p99_ms": round(pooled["p99_ms"], 1),
            },
        }

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        # Derive the grid from the cells actually run, so kwarg subsets
        # (one capacity, no lru, ...) assemble without KeyErrors.
        by_key = {(payload["row"]["capacity_mb"], payload["row"]["policy"],
                   payload["row"]["scheme"], payload["row"]["routing"]):
                  payload for payload in payloads}
        capacities = sorted({capacity for capacity, _policy, _scheme,
                             routing in by_key if routing == "locality"})
        policies = sorted({policy for _capacity, policy, _scheme, routing
                           in by_key if routing == "locality"})
        for scheme in SCHEMES:
            for policy in policies:
                tail = [by_key[capacity, policy, scheme, "locality"]
                        ["p99_ms"] for capacity in capacities]
                for capacity, p99 in zip(capacities, tail):
                    result.metrics[
                        f"{scheme}_{policy}_cap{capacity}_p99_ms"] = p99
                # 1.0 when p99 only improves as the local tier grows.
                result.metrics[f"{scheme}_{policy}_p99_monotone"] = float(
                    all(earlier >= later for earlier, later
                        in zip(tail, tail[1:])))
        for scheme in SCHEMES:
            advantages: dict[int, float] = {}
            for (capacity, policy, blind_scheme,
                 routing), blind in sorted(by_key.items(),
                                           key=lambda item: item[0][:2]):
                if routing != "blind" or blind_scheme != scheme:
                    continue
                aware = by_key.get((capacity, policy, scheme, "locality"))
                if aware is None or not aware["p99_ms"]:
                    continue
                ratio = blind["p99_ms"] / aware["p99_ms"]
                advantages[capacity] = ratio
                result.metrics[
                    f"{scheme}_locality_p99_advantage_cap{capacity}"] = ratio
                result.metrics[
                    f"{scheme}_locality_promote_savings_cap{capacity}"] = (
                    1.0 - aware["promotions"] / blind["promotions"]
                    if blind["promotions"] else 0.0)
            if advantages:
                # Headline: the largest capacity with a blind control --
                # the regime where each worker's rendezvous home set fits
                # its tier and locality steady-states.
                result.metrics[f"{scheme}_locality_p99_advantage"] = (
                    advantages[max(advantages)])
        result.notes.append(
            "shrinking the local tier forces restores of evicted "
            "artifacts through the remote service (promote-on-restore), "
            "so p99 degrades monotonically with capacity; REAP's small "
            "trace+WS artifacts survive eviction pressure far longer "
            "than guest memory files, and ws_aware eviction widens that "
            "gap by sacrificing memory files first (§7.1)")
        result.notes.append(
            "snapshot-locality-aware routing sends cold starts to the "
            "worker whose tier still holds the function's artifacts, "
            "beating locality-blind spreading at equal capacity")
        return result
