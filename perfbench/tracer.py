"""Spans around the public functions of every modwrench module, from outside.

`Tracer.install` replaces each public function of the package's modules with
a wrapper, under every name it is reachable by: its own module, the package
namespace, and the modules that imported it directly (for instance
`search.configuration_matrix` or `structures.rotation_about_axis`).  A call
through any of those names records one span (name, start, end, parent) plus
two small integers: the module count of a configuration-matrix argument,
and a value read from the result by a per-function hook.  Spans stay in
flat arrays in memory; `save` writes them out once the run ends.
`uninstall` restores the original functions, so untraced passes run the
unmodified program.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

MODULES = ("geometry", "structures", "lp", "hull", "search", "allocation", "fileio", "cli")


def _modules_of(args):
    """Module count of the first positional argument when it is a 6 x 4n matrix."""
    if args and isinstance(args[0], np.ndarray) and args[0].ndim == 2 and args[0].shape[0] == 6:
        return args[0].shape[1] // 4
    return -1


# Result values kept per span: verdict of a task check, vertex count of a
# hull, number of wrenches traced by the allocator.
RESULT_HOOKS = {
    "lp.satisfies_task": lambda r: int(bool(r[0])),
    "hull.construct_hull": lambda r: int(r.n_vertices),
    "allocation.evaluate_task_trace": lambda r: len(r.rows),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("i")
        self.value = array("i")
        self._stack = [-1]
        self._wrappers = {}  # original function -> its wrapper, kept across installs
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.name)

    def _wrap(self, fn, qualname):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = RESULT_HOOKS.get(qualname)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        sizes, values = self.size, self.value
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            sizes.append(_modules_of(args))
            values.append(-1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                values[idx] = hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public package function under every module name that binds it."""
        import importlib

        modules = [self.package] + [importlib.import_module(f"{self.package.__name__}.{m}")
                                    for m in MODULES]
        prefix = self.package.__name__ + "."
        wrappers = self._wrappers
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(prefix)):
                    continue
                if obj not in wrappers:
                    qualname = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, qualname)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def arrays(self, lo=0, hi=None):
        """Spans [lo, hi) as numpy arrays; parents are re-based to the slice."""
        hi = len(self) if hi is None else hi
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        parent[parent < 0] = -1
        return {
            "name": name,
            "parent": parent,
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi],
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi],
            "size": np.frombuffer(self.size, dtype=np.int32)[lo:hi],
            "value": np.frombuffer(self.value, dtype=np.int32)[lo:hi],
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


class PassSpans:
    """Per-layer figures of one traced pass, derived from its spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        a = tracer.arrays(lo, hi)
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.size = a["size"]
        self.value = a["value"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child_time = np.zeros(self.name.size)
        np.add.at(child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_time
        self.module = np.array([n.split(".", 1)[0] for n in self.names])[self.name]
        self.parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)

    def ids(self, *qualnames):
        return [self.names.index(q) for q in qualnames if q in self.names]

    def mask(self, *qualnames):
        return np.isin(self.name, self.ids(*qualnames))

    def top(self, qualname):
        """Spans of `qualname` not called from a span of the same name."""
        ids = self.ids(qualname)
        return np.isin(self.name, ids) & ~np.isin(self.parent_name, ids)

    def under(self, mask, owner_mask):
        """Spans in `mask` whose nearest ancestor in `owner_mask` exists; returns owner index."""
        owner = np.full(self.name.size, -1)
        for i in range(self.name.size):
            p = self.parent[i]
            if p >= 0:
                owner[i] = p if owner_mask[p] else owner[p]
        return np.where(mask, owner, -1)

    def parent_in_module(self, module):
        return (self.parent >= 0) & (self.module[np.maximum(self.parent, 0)] == module)

    def metrics(self):
        m = {}
        dur, self_time = self.dur, self.self_time

        matrix = self.top("structures.configuration_matrix")
        m["structures.matrix_builds"] = int(matrix.sum())
        m["structures.matrix_s"] = float(dur[matrix].sum())
        m["geometry.rotations"] = int(self.mask("geometry.rotation_about_axis").sum())

        solves = self.mask("lp.max_lambda")
        m["lp.max_lambda_solves"] = int(solves.sum())
        m["lp.max_lambda_s"] = float(dur[solves].sum())
        m["lp.max_lambda_us_per_solve"] = 1e6 * m["lp.max_lambda_s"] / max(m["lp.max_lambda_solves"], 1)
        feas = self.mask("lp.equality_feasibility")
        m["lp.feasibility_solves"] = int(feas.sum())
        m["lp.feasibility_s"] = float(dur[feas].sum())

        in_search = self.parent_in_module("search")
        checks = self.mask("lp.satisfies_task", "hull.satisfies_task_hull") & in_search
        searches = (self.module == "search") & ~in_search
        m["search.designs_evaluated"] = int(checks.sum())
        for n in range(1, 9):
            m[f"search.designs_level.{n}"] = int((checks & (self.size == n)).sum())
        m["search.check_s"] = float(dur[checks].sum())
        m["search.self_s"] = float(dur[searches].sum() - dur[checks].sum()
                                   - dur[matrix & in_search].sum())
        rejected = checks & (self.value == 0)
        owner = self.under(solves, rejected)
        m["search.solves_per_rejection"] = float((owner >= 0).sum() / max(rejected.sum(), 1))

        builds = self.top("hull.construct_hull")
        for n in (1, 2, 3):
            sel = builds & (self.size == n)
            m[f"hull.build_s.m{n}"] = float(dur[sel].sum())
            m[f"hull.vertices.m{n}"] = int(self.value[sel].sum())
        m["hull.prune_calls"] = int(self.mask("hull.prune_redundant").sum())
        queries = self.mask("hull.hull_contains")
        n_queries = max(int(queries.sum()), 1)
        m["hull.feasibility_solves_per_query"] = float(
            (self.under(feas, queries) >= 0).sum() / n_queries)
        m["hull.contains_us_per_query"] = 1e6 * float(dur[queries].sum()) / n_queries

        traces = self.mask("allocation.evaluate_task_trace")
        m["allocation.trace_s"] = float(dur[traces].sum())
        m["allocation.us_per_wrench"] = 1e6 * m["allocation.trace_s"] / max(int(self.value[traces].sum()), 1)
        m["allocation.fallback_solves"] = int((self.under(feas, traces) >= 0).sum())

        io_top = (self.module == "fileio") & ~self.parent_in_module("fileio")
        reads = np.array([n.startswith(("fileio.read_", "fileio.parse_")) for n in self.names])[self.name]
        m["fileio.read_s"] = float(dur[io_top & reads].sum())
        m["fileio.write_s"] = float(dur[io_top & ~reads].sum())
        m["cli.self_s"] = float(self_time[self.module == "cli"].sum())
        m["trace.spans"] = int(self.name.size)
        return m
