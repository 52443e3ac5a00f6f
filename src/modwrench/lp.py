"""The capacity LP: how far the thrust box reaches along a wrench direction.

The only LP in the package is max lambda s.t. A u - lambda w + a = 0 over
u in [0, f_max], lambda >= 0 and one artificial a per row pinned to [0, 0].
It starts feasible at u = 0, lambda = 0 with the artificials basic, so
there is no phase 1.  On top of it sit the wrench-satisfiability queries:
the maximum achievable magnitude along a wrench direction under the thrust
box, the per-wrench and per-task verdicts, and the zero-torque force
variant; the allocator's fallback reads its in-box inputs off the same
solve.  Every band is relative to the scale of the problem (f_max *
max|a_i| for magnitudes, f_max for ratio-test steps), so no verdict changes
when f_max and the task are rescaled together.

Every query has one front end: `_setup` validates the input and sets the
zero-wrench cut and the boundary band, and `_capacity` projects the
directions onto range(A) and picks the kernel by row count.  The two
kernels share one contract, `(A, W, f_max, stop=None)`, and one set of
rules: a dense bounded-variable revised simplex priced by steepest reduced
cost, with a switch to Bland's smallest-index rule after a run of
degenerate pivots, so every solve is deterministic and terminates
(Bertsimas & Tsitsiklis, Introduction to Linear Optimization, ch. 3).
`_max_lambda_batch` gives each wrench its own simplex over the same
columns, stacks the K bases and their inverses, and makes every pivot one
numpy step across the batch, with B^-1 kept by rank-one (eta) updates and
refactored from the basis columns every _REFACTOR_EVERY pivots.
`_simplex` solves a single row, for which it is the faster.

A search needs only to know whether some wrench fails, and how.
`separating_normal` runs the same solve but stops it at the first problem
that is optimal and short of |w| minus the boundary band; a batch also
settles a problem as soon as its lambda, solved from the basis columns,
reaches |w|.  The failing problem's dual y, the one that priced its final
basis, gives the unit normal n = -y / |y| (mapped back from range(A) on a
rank-deficient A) with n . w > h_A(n), h_A being the support function
f_max * sum_i max(0, n . a_i) of the wrench set (LP duality: Bertsimas &
Tsitsiklis, ch. 4).  `task_capacity` keeps full solves, since `check`
prints every verdict.
"""

from __future__ import annotations

import numpy as np

# Magnitude comparisons against the achievable maximum, relative to
# f_max * max|a_i|, so verdicts do not change when f_max and the task are
# rescaled together.
BOUNDARY_TOL = 1e-9
# Wrenches within this norm, relative to f_max * max|a_i|, are treated as
# the zero wrench.
ZERO_WRENCH_TOL = 1e-12
# Relative singular-value cut for the rank of A, and the off-range residual
# of a unit direction beyond which it is unreachable.
RANGE_TOL = 1e-9

_RCOST_TOL = 1e-9
_PIVOT_TOL = 1e-10
# Ratio-test tie band and degenerate-step cut of the lambda queries, per
# unit of f_max: the step lengths scale with f_max, so an absolute band
# would break ties differently when f_max and the task are rescaled.
_TIE_TOL = 1e-12
# Pivots between refactorizations of the stacked basis inverses of
# _max_lambda_batch; the eta updates in between accumulate round-off.
_REFACTOR_EVERY = 32


class SolverError(RuntimeError):
    """A simplex kernel gave up: iteration limit, singular basis or an unbounded step."""


def _setup(A, task, f_max: float):
    """Validate a query; return (A, task, norms, live, band), one task wrench per row.

    `live` indexes the wrenches beyond ZERO_WRENCH_TOL * f_max * max|a_i| of
    zero, which pass outright; `band` is BOUNDARY_TOL * f_max * max|a_i|.
    """
    A = np.asarray(A, dtype=float)
    task = np.atleast_2d(np.asarray(task, dtype=float))
    if A.ndim != 2 or task.ndim != 2 or task.shape[1] != A.shape[0]:
        raise ValueError("wrench size must match the rows of A")
    if not (np.isfinite(f_max) and f_max > 0):
        raise ValueError("f_max must be positive")
    norms = np.linalg.norm(task, axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("task wrenches must have finite norms")
    scale = f_max * float(np.linalg.norm(A, axis=0).max())
    return A, task, norms, np.flatnonzero(norms > ZERO_WRENCH_TOL * scale), BOUNDARY_TOL * scale


def max_lambda(A, w_hat, f_max: float):
    """Largest magnitude lambda with A @ u = lambda * w_hat, 0 <= u <= f_max.

    w_hat must be a unit 6-vector.  Returns (lambda_star, u_star); u = 0 makes
    lambda = 0 feasible, so lambda_star >= 0 always, and a w_hat that leaves
    range(A) gets lambda = 0 and u = 0.
    """
    A, W, norms, _, _ = _setup(A, np.asarray(w_hat, dtype=float)[None], f_max)
    if abs(norms[0] - 1.0) > 1e-9:
        raise ValueError("direction must have unit norm")
    lam, U = _capacity(A, W, float(f_max))
    return float(lam[0]), U[0]


def _capacity(A, W, f_max, stop=None):
    """(lambda_star, U) of the unit rows W, in range(A); with `stop`, separating_normal's hit.

    A rank-deficient A has dependent rows, on which the simplex pivots on
    round-off, so A and W are projected onto range(A); a row off it gets
    lambda = 0 and u = 0.  `stop` = (need, enough) per row is that of
    _max_lambda_batch, and a row off range(A) with need > 0 fails first.
    The rows left take _simplex when there is one, _max_lambda_batch else.
    """
    Q, s, _ = np.linalg.svd(A, full_matrices=False)
    Q = Q[:, s > RANGE_TOL * s[0]]
    if Q.shape[1] == A.shape[0]:
        Q, on = None, np.arange(W.shape[0])
    else:
        W_range = W @ Q
        off = W - W_range @ Q.T
        off_norm = np.linalg.norm(off, axis=1)
        if stop is not None and ((off_norm > RANGE_TOL) & (stop[0] > 0)).any():
            i = int(np.argmax(np.where(stop[0] > 0, off_norm, 0.0)))
            return i, off[i] / off_norm[i]
        on = np.flatnonzero(off_norm <= RANGE_TOL)
        A, W = Q.T @ A, W_range
    kernel = _simplex if on.size == 1 else _max_lambda_batch
    if stop is None:
        lam, U = np.zeros(W.shape[0]), np.zeros((W.shape[0], A.shape[1]))
        lam[on], U[on] = kernel(A, W[on], f_max)
        return lam, U
    hit = kernel(A, W[on], f_max, (stop[0][on], stop[1][on]))
    if hit is None:
        return None
    i, y = hit
    n = -y if Q is None else Q @ -y
    return int(on[i]), n / np.linalg.norm(n)


def _max_lambda_batch(A, W, f_max, stop=None):
    """Stacked simplex of max lambda s.t. A u - lambda w_k + a = 0 for every row w_k.

    Variables are u (indices 0..n-1, in [0, f_max]), lambda (index n, in
    [0, inf)) and one artificial per row (pinned to [0, 0]), all started at
    0 with the artificials basic.  Only the lambda column differs between
    problems, so the others are shared.  Per problem, the rules are
    steepest reduced cost, Bland's rule after 2(m + 2) degenerate pivots,
    and ratio-test ties within _TIE_TOL * f_max broken by the smallest
    variable index.  A problem that reaches optimality is recorded and
    masked out of every later update.  The arrays keep their shape
    rather than shrink, so every pivot reuses buffers of the same sizes.

    Returns (lambda_star, U).  With `stop` = (need, enough), two arrays of
    one value per row, the batch instead ends at the first problem that is
    optimal with lambda < need and returns (row, y), y being that
    problem's simplex multipliers; it returns None once every problem is
    optimal with lambda >= need or settled.  A problem settles as soon as
    lambda, solved from its basis columns, reaches `enough`: lambda never
    decreases, so it can no longer end short.  Masking never changes the
    pivots of the other problems, so every lambda compared with `need` is
    the one the full solve ends on.
    """
    m, n = A.shape
    k = W.shape[0]
    shared = np.hstack([A, np.zeros((m, 1)), np.eye(m)])
    upper = np.concatenate([np.full(n, f_max), [np.inf], np.zeros(m)])

    def basis_matrices(W, basis):
        return np.where(basis[:, None, :] == n, -W[:, :, None],
                        shared[:, basis].transpose(1, 0, 2))

    basis = np.tile(np.arange(n + 1, n + 1 + m), (k, 1))
    is_basic = np.zeros((k, n + 1 + m), dtype=bool)
    is_basic[:, n + 1:] = True
    at_upper = np.zeros_like(is_basic)  # never set on a basic variable
    b_inv = np.tile(np.eye(m), (k, 1, 1))
    stalled = np.zeros(k, dtype=int)
    active = np.ones(k, dtype=bool)
    lam, U = np.empty(k), np.empty((k, n))
    r = np.arange(k)
    tie = _TIE_TOL * f_max
    # Iteration bound, shared with _simplex.
    max_iter = 2000 + 200 * (n + 1 + 2 * m)
    try:
        for it in range(max_iter):
            # Only u can rest at a nonzero bound: lambda has none, the
            # artificials are pinned at 0.
            x_u = np.where(at_upper[:, :n], f_max, 0.0)
            rhs = -(x_u @ A.T)
            x_b = (b_inv @ rhs[:, :, None])[:, :, 0]
            y = ((basis == n)[:, None, :] @ b_inv)[:, 0]
            d = np.hstack([-(y @ A), 1.0 + (y * W).sum(axis=1, keepdims=True)])
            gain = np.where(at_upper[:, :n + 1], -d, d)
            gain[is_basic[:, :n + 1]] = 0.0
            improving = (gain > _RCOST_TOL) & active[:, None]
            done = active & ~improving.any(axis=1)
            if done.any():
                # Final basic values from the basis columns, free of eta drift.
                x = np.zeros((done.sum(), n + 1 + m))
                x[:, :n] = x_u[done]
                np.put_along_axis(x, basis[done], np.linalg.solve(
                    basis_matrices(W[done], basis[done]), rhs[done][:, :, None])[:, :, 0], axis=1)
                lam[done] = x[:, n]
                U[done] = x[:, :n]
                active &= ~done
                if stop is not None:
                    short = np.flatnonzero(done)[x[:, n] < stop[0][done]]
                    if short.size:
                        return int(short[0]), y[short[0]]
            if stop is not None:
                # Settle on lambda solved from the basis columns, not on
                # the eta-updated value that nominates the problem.
                near = np.flatnonzero(active & (((basis == n) * x_b).sum(axis=1) >= stop[1]))
                if near.size:
                    x_near = np.linalg.solve(basis_matrices(W[near], basis[near]),
                                             rhs[near][:, :, None])[:, :, 0]
                    lam_near = (x_near * (basis[near] == n)).sum(axis=1)
                    active[near[lam_near >= stop[1][near]]] = False
            if not active.any():
                return (lam, U) if stop is None else None
            j = np.where(stalled > 2 * (m + 2), improving.argmax(axis=1),
                         np.where(improving, gain, -np.inf).argmax(axis=1))
            entering = np.where((j == n)[:, None], -W, A.T[np.minimum(j, n - 1)])
            alpha = (b_inv @ entering[:, :, None])[:, :, 0]
            step = np.where(at_upper[r, j], -1.0, 1.0)[:, None] * alpha
            # Ratio test: smallest step before a basic variable or the entering
            # variable itself hits a bound.
            ub = upper[basis]
            down = step > _PIVOT_TOL
            up = (step < -_PIVOT_TOL) & np.isfinite(ub)
            with np.errstate(divide="ignore", invalid="ignore"):
                lim = np.where(down, x_b / step, np.where(up, (ub - x_b) / -step, np.inf))
            lim = np.maximum(lim, 0.0)
            best = np.minimum(lim.min(axis=1), upper[j])
            if not np.isfinite(best[active]).all():
                raise SolverError("direction maximization ended unbounded")
            tied = np.where(lim <= best[:, None] + tie, basis, n + 1 + m)
            row = tied.argmin(axis=1)
            flip = (upper[j] <= best + tie) & (j < tied[r, row]) & active
            stalled = np.where(best <= tie, stalled + 1, 0)
            at_upper[r[flip], j[flip]] ^= True  # bound flip, basis unchanged
            p = r[active & ~flip]
            rp, jp = row[p], j[p]
            leave = basis[p, rp]
            at_upper[p, leave] = up[p, rp]
            is_basic[p, leave] = False
            basis[p, rp] = jp
            is_basic[p, jp] = True
            at_upper[p, jp] = False
            if (it + 1) % _REFACTOR_EVERY:
                pivot_row = b_inv[p, rp] / alpha[p, rp][:, None]
                b_inv[p] -= alpha[p][:, :, None] * pivot_row[:, None, :]
                b_inv[p, rp] = pivot_row
            else:
                b_inv = np.linalg.inv(basis_matrices(W, basis))
    except np.linalg.LinAlgError as exc:  # guarded by the pivot tolerance
        raise SolverError("singular simplex basis") from exc
    raise SolverError("simplex iteration limit exceeded")


def _simplex(A, W, f_max, stop=None):
    """_max_lambda_batch for one row, W = [w]: the same variables, start, rules and returns.

    B^-1 is inverted afresh at every pivot, which on one row beats the
    batch's stacked eta updates.  With `stop` the row is solved in full,
    and the dual returned is the one that priced the final basis.
    """
    m, n = A.shape
    T = np.hstack([A, -W.T, np.eye(m)])
    c = np.zeros(n + 1 + m)
    c[n] = 1.0
    upper = np.concatenate([np.full(n, f_max), [np.inf], np.zeros(m)]).tolist()
    basis = np.arange(n + 1, n + 1 + m)
    # Values of the nonbasic variables, 0 on the basic ones: only u can
    # rest at a nonzero bound, lambda has none and the artificials are
    # pinned at 0.
    x = np.zeros(n + 1 + m)
    at_upper = np.zeros(n + 1 + m, dtype=bool)  # never set on a basic variable
    frozen = np.zeros(n + 1 + m, dtype=bool)  # basic or pinned: never enters
    frozen[n + 1:] = True
    tie = _TIE_TOL * f_max
    stalled = 0
    for _ in range(2000 + 200 * (n + 1 + 2 * m)):
        try:
            b_inv = np.linalg.inv(T[:, basis])
        except np.linalg.LinAlgError as exc:  # guarded by the pivot tolerance
            raise SolverError("singular simplex basis") from exc
        # 0.0 - v rather than -v keeps a zero basic value at +0.0.
        x_b = b_inv @ (0.0 - T @ x)
        y = c[basis] @ b_inv
        d = c - y @ T
        gain = np.where(at_upper, -d, d)
        gain[frozen] = 0.0
        candidates = np.flatnonzero(gain > _RCOST_TOL)
        if candidates.size == 0:
            x[basis] = x_b
            if stop is None:
                return x[n:n + 1], x[None, :n]
            return None if x[n] >= stop[0][0] else (0, y)
        if stalled > 2 * (m + 2):
            j = int(candidates[0])  # Bland: smallest improving index
        else:
            j = int(candidates[np.argmax(gain[candidates])])
        sigma = -1.0 if at_upper[j] else 1.0
        # Ratio test: smallest step before a basic variable or the entering
        # variable itself hits a bound; ties broken by variable index.
        best = upper[j]
        best_var = j
        best_row = -1
        best_hit_upper = False
        for i, (s, var, value) in enumerate(zip((sigma * (b_inv @ T[:, j])).tolist(),
                                                 basis.tolist(), x_b.tolist())):
            if s > _PIVOT_TOL:
                lim = value / s
                hit_upper = False
            elif s < -_PIVOT_TOL and var != n:
                lim = (upper[var] - value) / -s
                hit_upper = True
            else:
                continue
            if lim < 0.0:
                lim = 0.0
            if lim < best - tie or (lim <= best + tie and var < best_var):
                best = lim
                best_var = var
                best_row = i
                best_hit_upper = hit_upper
        if best == np.inf:
            raise SolverError("direction maximization ended unbounded")
        stalled = stalled + 1 if best <= tie else 0
        if best_row < 0:
            at_upper[j] = not at_upper[j]  # bound flip, basis unchanged
            x[j] = upper[j] if at_upper[j] else 0.0
        else:
            leave = basis[best_row]
            at_upper[leave] = best_hit_upper
            x[leave] = upper[leave] if best_hit_upper else 0.0
            frozen[leave] = leave > n
            basis[best_row] = j
            at_upper[j] = False
            x[j] = 0.0
            frozen[j] = True
    raise SolverError("simplex iteration limit exceeded")


def satisfies_wrench(A, w, f_max: float) -> bool:
    """True iff the wrench w is inside the feasible set of A under the thrust box.

    The capacity along w may fall short of |w| by BOUNDARY_TOL * f_max * max|a_i|,
    and a wrench within ZERO_WRENCH_TOL * f_max * max|a_i| of zero passes.
    """
    return bool(task_capacity(A, np.asarray(w, dtype=float)[None], f_max)[0][0])


def task_capacity(A, task, f_max: float):
    """The verdict of satisfies_wrench on every task wrench, with lambda* and U*.

    Returns (ok, lam, U), one row per wrench.  A wrench within
    ZERO_WRENCH_TOL * f_max * max|a_i| of zero passes with lam = 0 and
    U = 0.  The others get lam and U along w / |w|, all from one solve, and
    pass when lam >= |w| - BOUNDARY_TOL * f_max * max|a_i|.
    """
    A, task, norms, live, band = _setup(A, task, f_max)
    lam, U = np.zeros(task.shape[0]), np.zeros((task.shape[0], A.shape[1]))
    lam[live], U[live] = _capacity(A, task[live] / norms[live, None], float(f_max))
    # The zero-wrench cut lies inside the band, so lam = 0 passes those rows.
    return lam >= norms - band, lam, U


def separating_normal(A, task, f_max: float):
    """A task wrench outside the wrench set of A, with a unit normal that separates it.

    Returns None when every wrench passes, else (i, n): wrench i fails and
    n . w_i > h_A(n) = f_max * sum_j max(0, n . a_j).  The verdict is that
    of task_capacity, band included.  A row off range(A) gives its residual
    direction.  The others share one solve that ends at the first problem
    found optimal and short of |w| - band, whose dual y gives n = -y
    (mapped back to six coordinates on a rank-deficient A): at that optimum
    n . w_hat = 1 and h_A(n) = lambda*, so n . w - h_A(n) = |w| - lambda*,
    up to the reduced-cost tolerance, before n is scaled to unit length.
    Row i need not be the smallest failing index.
    """
    A, task, norms, live, band = _setup(A, task, f_max)
    hit = _capacity(A, task[live] / norms[live, None], float(f_max),
                    (norms[live] - band, norms[live]))
    return None if hit is None else (int(live[hit[0]]), hit[1])


def max_force_zero_torque(A, f_hat, f_max: float) -> float:
    """Largest pure-force magnitude along unit 3-vector f_hat with zero torque."""
    f_hat = np.asarray(f_hat, dtype=float)
    if f_hat.shape != (3,):
        raise ValueError("force direction must be a 3-vector")
    direction = np.concatenate([f_hat, np.zeros(3)])
    lam, _ = max_lambda(A, direction, f_max)
    return lam
