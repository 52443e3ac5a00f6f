"""Build one wrench hull and query it, inside an address-space cap.

Usage: capped_hull.py CAP_BYTES STRUCTURE_FILE WRENCHES_NPY RESULT_JSON

The cap is set before numpy loads, so an oversized allocation in the hull
build raises MemoryError here instead of exhausting the machine.  Exit code
0 writes the verdicts, timings and vertices next to RESULT_JSON; exit code 3
means the build raised MemoryError.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    cap, structure, wrenches, result = int(argv[0]), argv[1], argv[2], Path(argv[3])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy as np

    from modwrench import fileio, hull, structures

    config = fileio.read_structure(structure)
    W = np.load(wrenches)
    t0 = time.perf_counter()
    try:
        h = hull.construct_hull(structures.configuration_matrix(config), config.params.f_max)
    except MemoryError as exc:
        print(f"MemoryError after {time.perf_counter() - t0:.2f} s: {exc}")
        return 3
    t1 = time.perf_counter()
    verdicts = [bool(hull.hull_contains(h, w)) for w in W]
    t2 = time.perf_counter()
    np.save(result.with_name(result.name.replace("_result.json", "_vertices.npy")), h.vertices)
    result.write_text(json.dumps({"verdicts": verdicts, "build_s": t1 - t0, "query_s": t2 - t1}),
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
