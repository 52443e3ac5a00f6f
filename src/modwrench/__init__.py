"""Wrench-set analysis and minimum-module search for modular multi-rotors."""

from .allocation import (
    AllocationReport,
    AllocationRow,
    evaluate_task_trace,
    generate_random_task,
    min_norm_allocation,
    truncate_input,
)
from .geometry import cross, rotation_about_axis, wrench
from .hull import (
    CapacityError,
    VertexHull,
    WrenchHull,
    construct_hull,
    enumerate_binary_images,
    hull_contains,
    prune_redundant,
    satisfies_task_hull,
)
from .lp import (
    LpProblem,
    LpSolution,
    max_force_zero_torque,
    max_lambda,
    satisfies_task,
    satisfies_wrench,
    solve_lp,
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
    run_search,
)
from .structures import (
    ModuleParams,
    RotorSpec,
    StructureConfig,
    StructureError,
    attachable_surfaces,
    build_configuration_matrix,
    canonical_form,
    center_of_mass,
    configuration_matrix,
    is_connected,
    is_torque_balanced,
    module_rotor_layout,
    rotor_configuration,
)

__version__ = "0.1.0"
