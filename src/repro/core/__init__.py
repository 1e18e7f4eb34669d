"""Core contribution of the paper: the Dominant Graph index and its queries.

The subpackage layout follows the paper's structure:

- :mod:`repro.core.dataset` — the record set ``D`` (Section II, Table I).
- :mod:`repro.core.functions` — aggregate monotone query functions
  (Definition 2.1).
- :mod:`repro.core.dominance` — the dominance relation (Definition 2.2).
- :mod:`repro.core.layers` — maximal-layer decomposition (Definition 2.3).
- :mod:`repro.core.graph` — the Dominant Graph itself (Definition 2.4).
- :mod:`repro.core.builder` — offline DG construction.
- :mod:`repro.core.traveler` — Basic Traveler (Algorithm 1).
- :mod:`repro.core.cost` — the cost model (Theorems 3.1 and 3.2).
- :mod:`repro.core.pseudo` — pseudo records / Extended DG (Section IV-A).
- :mod:`repro.core.advanced` — Advanced Traveler (Algorithm 2).
- :mod:`repro.core.compiled` — compiled flat-array engine (records in
  layer order, one layer-sweep batch kernel, no edges); bit-identical
  to the reference Travelers.
- :mod:`repro.core.nway` — N-Way Traveler (Algorithm 3, Section IV-C).
- :mod:`repro.core.maintenance` — insertion/deletion (Section V).
"""

from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.compiled import (
    CompiledAdvancedTraveler,
    CompiledBasicTraveler,
    CompiledDG,
)
from repro.core.dataset import Dataset
from repro.core.functions import (
    DecomposableFunction,
    LinearFunction,
    MinFunction,
    ProductFunction,
    ScoringFunction,
    WeightedPowerFunction,
)
from repro.core.graph import DominantGraph
from repro.core.guard import BudgetedAccessCounter, run_query
from repro.core.io import load_graph, repair_graph, save_graph
from repro.core.maintenance import (
    delete_many,
    delete_record,
    insert_many,
    insert_record,
    mark_deleted,
)
from repro.core.progressive import iter_ranked, top_k_progressive
from repro.core.nway import NWayTraveler
from repro.core.result import TopKResult
from repro.core.traveler import BasicTraveler

__all__ = [
    "AdvancedTraveler",
    "BasicTraveler",
    "BudgetedAccessCounter",
    "CompiledAdvancedTraveler",
    "CompiledBasicTraveler",
    "CompiledDG",
    "Dataset",
    "DecomposableFunction",
    "DominantGraph",
    "LinearFunction",
    "MinFunction",
    "NWayTraveler",
    "ProductFunction",
    "ScoringFunction",
    "TopKResult",
    "WeightedPowerFunction",
    "build_dominant_graph",
    "build_extended_graph",
    "delete_many",
    "delete_record",
    "insert_many",
    "insert_record",
    "iter_ranked",
    "load_graph",
    "mark_deleted",
    "repair_graph",
    "run_query",
    "save_graph",
    "top_k_progressive",
]
