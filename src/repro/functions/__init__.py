"""FunctionBench workload models (Table 1 of the paper).

Each serverless function is described by a :class:`FunctionProfile`
capturing the characteristics the paper measures -- boot footprint
(Fig. 4), working-set size and its split across the connection and
processing phases, guest-physical contiguity (Fig. 3), per-invocation
unique pages (Fig. 5), warm execution latency (Fig. 2) and input size.
A :class:`FunctionBehavior` turns a profile into concrete, seeded
working-set layouts and per-invocation access traces.

The profile numbers are *calibrated to the paper's own measurements*;
:mod:`repro.functions.catalog` says which figure each one comes from.
"""

from repro.functions.behavior import FunctionBehavior, WorkingSetLayout
from repro.functions.catalog import (
    FUNCTIONBENCH,
    catalog_names,
    get_profile,
)
from repro.functions.spec import FunctionProfile

__all__ = [
    "FunctionProfile",
    "FunctionBehavior",
    "WorkingSetLayout",
    "FUNCTIONBENCH",
    "get_profile",
    "catalog_names",
]
