"""Input allocation and task-trace evaluation.

The plain allocator maps each desired wrench through the Moore-Penrose
pseudoinverse of the configuration matrix and clamps the result into the
thrust box, recording whether clamping changed anything and how far the
achieved wrench lands from the desired one.  The optional fallback mode
instead asks the feasibility LP for an in-box input reproducing the wrench
exactly, which succeeds whenever the wrench is actually feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp

# Singular values below this fraction of the largest are treated as zero.
PINV_RCOND = 1e-10
# Elementwise change larger than this counts as saturation.
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
    """Clamp thrusts into [0, f_max]; flags whether anything moved."""
    u = np.asarray(u, dtype=float)
    clamped = np.clip(u, 0.0, float(f_max))
    saturated = bool(np.any(np.abs(clamped - u) > SATURATION_TOL))
    return clamped, saturated


def _fallback_input(A, w, f_max: float):
    """In-box input reproducing w exactly, when one exists (feasibility LP).

    The residual is accepted relative to f_max * max|a_i|, so the answer does
    not change when f_max and w are rescaled together.
    """
    n = A.shape[1]
    residual, u = lp.equality_feasibility(A, w, np.zeros(n), np.full(n, float(f_max)))
    if residual <= lp.FEASIBILITY_TOL * f_max * float(np.linalg.norm(A, axis=0).max()):
        return u
    return None


def evaluate_task_trace(A, task, f_max: float, fallback: bool = False) -> AllocationReport:
    """Allocate, clamp and measure every wrench of a task in order.

    With `fallback` set, each wrench is first given to the feasibility LP;
    the pseudoinverse route is used only for wrenches no in-box input can
    reproduce.
    """
    A = np.asarray(A, dtype=float)
    task = np.atleast_2d(np.asarray(task, dtype=float))
    rows = []
    for w in task:
        raw = None
        if fallback:
            raw = _fallback_input(A, w, f_max)
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
