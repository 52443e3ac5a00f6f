"""Wrench-set analysis and minimum-module search for modular multi-rotors."""

from .allocation import (
    AllocationReport,
    AllocationRow,
    evaluate_task_trace,
    generate_random_task,
    min_norm_allocation,
    truncate_input,
)
from .geometry import wrench
from .hull import (
    CapacityError,
    WrenchHull,
    construct_hull,
    hull_contains,
)
from .lp import (
    SolverError,
    max_force_zero_torque,
    max_lambda,
    satisfies_wrench,
)
from .search import (
    AsymmetricSeedError,
    SearchOptions,
    SearchResult,
    exhaustive_search,
    expand_one,
    generate_config_symmetry,
    heuristic_search,
    is_centrosymmetric,
)
from .structures import (
    ModuleParams,
    StructureConfig,
    StructureError,
    attachable_surfaces,
    canonical_form,
    center_of_mass,
    configuration_matrix,
    is_connected,
    is_torque_balanced,
)

__version__ = "0.1.0"
