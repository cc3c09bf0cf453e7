"""§4 characterization experiments: Table 1 and Figures 2-5.

Each experiment is an :class:`~repro.bench.experiments.spec.Experiment`
whose cells are one function each -- the per-function measurements were
always independent (every loop iteration built its own
:class:`~repro.bench.harness.Testbed` or
:class:`~repro.functions.behavior.FunctionBehavior` from the seed), so
the declarative split changes nothing about the numbers, only who gets
to schedule the work.
"""

from __future__ import annotations

from repro.analysis.aggregate import average_breakdowns, collect, spread
from repro.bench import reference
from repro.bench.experiments.spec import Cell, Experiment
from repro.bench.harness import ExperimentResult, Testbed
from repro.functions import FUNCTIONBENCH, FunctionBehavior, get_profile
from repro.memory.working_set import mean_run_length, reuse_between


def _function_names(functions) -> list[str]:
    if functions is None:
        return list(FUNCTIONBENCH)
    return list(functions)


class Table1Catalog(Experiment):
    """Table 1: the FunctionBench suite and its calibrated profiles."""

    id = "table1"
    title = "Serverless functions (Table 1)"
    aliases = ("table1_catalog",)

    def cells(self, **_kwargs) -> list[Cell]:
        return [self._cell(name, function=name) for name in FUNCTIONBENCH]

    def run_cell(self, cell: Cell) -> dict:
        profile = get_profile(cell.params["function"])
        return {"row": {
            "name": profile.name,
            "description": profile.description,
            "warm_ms": profile.warm_ms,
            "working_set_mb": round(profile.working_set_mb, 1),
            "boot_footprint_mb": profile.boot_footprint_mb,
            "input_mb": profile.input_mb,
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        result.metrics["functions"] = len(result.rows)
        return result


class Fig2ColdVsWarm(Experiment):
    """Fig. 2: cold-start latency breakdown versus warm invocations.

    For every function: ``repetitions`` cold starts from a vanilla
    snapshot (host page cache flushed before each, §4.1) and the same
    number of warm invocations on a memory-resident instance.
    """

    id = "fig2"
    title = "Cold-start breakdown vs warm latency (Fig. 2)"

    def cells(self, functions=None, repetitions: int = 2, seed: int = 42,
              **_kwargs) -> list[Cell]:
        return [self._cell(name, function=name, repetitions=repetitions,
                           seed=seed)
                for name in _function_names(functions)]

    def run_cell(self, cell: Cell) -> dict:
        name = cell.params["function"]
        repetitions = cell.params["repetitions"]
        seed = cell.params["seed"]
        testbed = Testbed(seed=seed)
        testbed.deploy(get_profile(name))
        cold = [r.breakdown for r in testbed.invoke_many(
            name, repetitions, mode="vanilla")]
        testbed.invoke(name, mode="vanilla", keep_warm=True)
        warm = [r.breakdown for r in testbed.invoke_many(name, repetitions)]
        cold_summary = average_breakdowns(cold)
        warm_summary = average_breakdowns(warm)
        paper_cold = reference.FIG2_COLD_MS[name]
        paper_warm = reference.FIG2_WARM_MS[name]
        ratio = cold_summary.total_ms / max(warm_summary.total_ms, 0.1)
        return {"ratio": ratio, "row": {
            "function": name,
            "warm_ms": round(warm_summary.total_ms, 1),
            "paper_warm_ms": paper_warm,
            "cold_ms": round(cold_summary.total_ms, 1),
            "paper_cold_ms": paper_cold,
            "cold_dev": f"{cold_summary.total_ms / paper_cold - 1:+.1%}",
            "load_vmm_ms": round(cold_summary.load_vmm_ms, 1),
            "connection_ms": round(cold_summary.connection_ms, 1),
            "processing_ms": round(cold_summary.processing_ms, 1),
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        ratios = collect(payloads, "ratio")
        result.metrics["min_cold_over_warm"] = min(ratios)
        result.metrics["max_cold_over_warm"] = max(ratios)
        result.notes.append(
            "paper: cold invocations are one to two orders of magnitude "
            "slower than warm ones")
        return result


class Fig3Contiguity(Experiment):
    """Fig. 3: contiguity of the guest pages faulted during a cold start."""

    id = "fig3"
    title = "Guest memory page contiguity (Fig. 3)"
    aliases = ("fig3_contiguity",)

    def cells(self, functions=None, seed: int = 42, **_kwargs) -> list[Cell]:
        return [self._cell(name, function=name, seed=seed)
                for name in _function_names(functions)]

    def run_cell(self, cell: Cell) -> dict:
        name = cell.params["function"]
        profile = get_profile(name)
        behavior = FunctionBehavior(profile, seed=cell.params["seed"])
        observed = mean_run_length(behavior.trace_for(1).page_set)
        paper = reference.FIG3_CONTIGUITY[name]
        return {"row": {
            "function": name,
            "mean_run_length": round(observed, 2),
            "paper": paper,
            "deviation": f"{observed / paper - 1:+.1%}",
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        lengths = [row["mean_run_length"] for row in result.rows]
        result.metrics["min_run_length"] = min(lengths)
        result.metrics["max_run_length"] = max(lengths)
        result.notes.append(
            "paper: 2-3 pages on average for all functions except "
            "lr_training (up to 5)")
        return result


class Fig4Footprints(Experiment):
    """Fig. 4: booted-instance footprint vs snapshot-restore working set."""

    id = "fig4"
    title = "Memory footprint after boot vs restore (Fig. 4)"

    def cells(self, functions=None, seed: int = 42, **_kwargs) -> list[Cell]:
        return [self._cell(name, function=name, seed=seed)
                for name in _function_names(functions)]

    def run_cell(self, cell: Cell) -> dict:
        name = cell.params["function"]
        seed = cell.params["seed"]
        profile = get_profile(name)
        testbed = Testbed(seed=seed)
        # Boot footprint: resident bytes of a freshly booted instance.
        entry = testbed.run(testbed.orchestrator.deploy(
            profile, take_snapshot=False))
        boot_mb = entry.warm[0].vm.memory.resident_bytes / 1e6
        # Restore footprint: resident bytes after one invocation from a
        # snapshot (traced via the lazy restore path).
        testbed2 = Testbed(seed=seed)
        testbed2.deploy(profile)
        testbed2.invoke(name, mode="vanilla", keep_warm=True)
        restored_vm = testbed2.orchestrator.function(name).warm[0].vm
        restore_mb = restored_vm.memory.resident_bytes / 1e6
        reduction = 1.0 - restore_mb / boot_mb
        return {"restore_mb": restore_mb, "reduction": reduction, "row": {
            "function": name,
            "booted_mb": round(boot_mb, 1),
            "restored_mb": round(restore_mb, 1),
            "reduction": f"{reduction:.0%}",
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        restores = spread(collect(payloads, "restore_mb"))
        reductions = spread(collect(payloads, "reduction"))
        result.metrics["restore_min_mb"] = restores["min"]
        result.metrics["restore_max_mb"] = restores["max"]
        result.metrics["restore_avg_mb"] = restores["mean"]
        result.metrics["reduction_min"] = reductions["min"]
        result.metrics["reduction_max"] = reductions["max"]
        result.notes.append(
            "paper: restore working sets span 8-99 MB (24 MB average), "
            "61-96 % below the booted footprint")
        return result


class Fig5Reuse(Experiment):
    """Fig. 5: pages shared vs unique across invocations with new inputs."""

    id = "fig5"
    title = "Same vs unique pages across invocations (Fig. 5)"

    def cells(self, functions=None, seed: int = 42, invocations: int = 4,
              **_kwargs) -> list[Cell]:
        return [self._cell(name, function=name, seed=seed,
                           invocations=invocations)
                for name in _function_names(functions)]

    def run_cell(self, cell: Cell) -> dict:
        name = cell.params["function"]
        profile = get_profile(name)
        behavior = FunctionBehavior(profile, seed=cell.params["seed"])
        traces = [behavior.trace_for(index)
                  for index in range(1, cell.params["invocations"] + 1)]
        pair_stats = [reuse_between(first.page_set, second.page_set)
                      for first, second in zip(traces, traces[1:])]
        same = sum(s.same_fraction for s in pair_stats) / len(pair_stats)
        unique_pages = sum(s.unique_pages for s in pair_stats) / len(pair_stats)
        return {"function": name, "same": same, "row": {
            "function": name,
            "same_fraction": f"{same:.1%}",
            "unique_pages": round(unique_pages),
            "paper_min_same": f"{reference.FIG5_MIN_SAME_FRACTION[name]:.0%}",
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        same_fractions = {p["function"]: p["same"] for p in payloads}
        small_input = [name for name in same_fractions
                       if reference.FIG5_MIN_SAME_FRACTION[name] >= 0.97]
        result.metrics["min_same_small_input"] = min(
            same_fractions[name] for name in small_input)
        result.metrics["min_same_overall"] = min(same_fractions.values())
        result.notes.append(
            "paper: >=97 % identical pages for 7 of 10 functions; >76 % even "
            "for the large-input ones")
        return result
