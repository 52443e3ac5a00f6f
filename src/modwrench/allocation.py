"""Input allocation and task-trace evaluation.

The plain allocator maps each desired wrench through the Moore-Penrose
pseudoinverse of the configuration matrix and clamps the result into the
thrust box, recording whether clamping changed anything and how far the
achieved wrench lands from the desired one.  The optional fallback mode
first reads the input of every wrench that `check` accepts off the same
capacity solve, `lp.task_capacity`: A U* = lambda* w/|w| with U* in the
box, so u = U* min(1, |w| / lambda*) is in the box and misses w by the
shortfall max(0, |w| - lambda*) plus round-off.  An accepted wrench falls
short by at most lp.BOUNDARY_TOL * f_max * max|a_i|, so that bounds its
error too.  Clamping flags saturation beyond SATURATION_TOL * f_max, a band
that scales with f_max like the round-off of the inputs it forgives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp

# Singular values below this fraction of the largest are treated as zero.
PINV_RCOND = 1e-10
# Elementwise change larger than this, per unit of f_max, counts as saturation.
SATURATION_TOL = 1e-12


@dataclass(frozen=True)
class AllocationRow:
    desired: np.ndarray
    raw_input: np.ndarray
    input: np.ndarray
    achieved: np.ndarray
    error: float
    saturated: bool


@dataclass(frozen=True)
class AllocationReport:
    rows: list[AllocationRow]

    @property
    def max_error(self) -> float:
        return max((r.error for r in self.rows), default=0.0)

    @property
    def any_saturated(self) -> bool:
        return any(r.saturated for r in self.rows)


def min_norm_allocation(A, w) -> np.ndarray:
    """Minimum-norm least-squares preimage of a wrench under A."""
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    u, *_ = np.linalg.lstsq(A, w, rcond=PINV_RCOND)
    return u


def truncate_input(u, f_max: float):
    """Clamp thrusts into [0, f_max]; flags whether anything moved by more than round-off."""
    u = np.asarray(u, dtype=float)
    clamped = np.clip(u, 0.0, float(f_max))
    saturated = bool(np.any(np.abs(clamped - u) > SATURATION_TOL * f_max))
    return clamped, saturated


def _fallback_inputs(A, task, f_max: float) -> list:
    """In-box input reproducing each task wrench, or None where check rejects the wrench.

    The batched solve can stall on a wrench just outside a vertex of the
    wrench set (the iteration limit, or a singular basis).  Then each row
    is solved alone, as check solves a one-wrench task, and a row whose
    solve still fails is left to the pseudoinverse.
    """
    try:
        ok, lam, U = lp.task_capacity(A, task, f_max)
    except lp.SolverError:
        if task.shape[0] == 1:
            return [None]
        return [u for w in task for u in _fallback_inputs(A, w[None], f_max)]
    norms = np.linalg.norm(task, axis=1)
    return [(u * (norm / lam_i) if lam_i > norm else u) if accepted else None
            for accepted, lam_i, u, norm in zip(ok, lam, U, norms)]


def evaluate_task_trace(A, task, f_max: float, fallback: bool = False) -> AllocationReport:
    """Allocate, clamp and measure every wrench of a task in order.

    With `fallback` set, every feasible wrench takes its input from the
    capacity solve; the pseudoinverse route is used only for the others.
    """
    A = np.asarray(A, dtype=float)
    task = np.atleast_2d(np.asarray(task, dtype=float))
    inputs = _fallback_inputs(A, task, f_max) if fallback else [None] * task.shape[0]
    rows = []
    for w, raw in zip(task, inputs):
        if raw is None:
            raw = min_norm_allocation(A, w)
        u, saturated = truncate_input(raw, f_max)
        achieved = A @ u
        rows.append(AllocationRow(
            desired=w.copy(),
            raw_input=raw,
            input=u,
            achieved=achieved,
            error=float(np.linalg.norm(achieved - w)),
            saturated=saturated,
        ))
    return AllocationReport(rows)


def generate_random_task(count: int, half_range: float = 0.5, fz_scale: float = 30.0,
                         seed: int = 0) -> np.ndarray:
    """Random task: components i.i.d. uniform(-half_range, half_range), vertical
    force column scaled by fz_scale.  Identical seeds give identical tasks.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if half_range <= 0:
        raise ValueError("half_range must be positive")
    rng = np.random.default_rng(seed)
    task = rng.uniform(-half_range, half_range, size=(int(count), 6))
    task[:, 2] *= fz_scale
    return task
