"""Plain-text file formats for structures, tasks, search results and hulls.

All formats are line-oriented: full-line comments start with '#', floats are
serialized with repr so files round-trip exactly, and every parse error
names the offending line and field.  The tilt angle accepts fractions of pi
(e.g. "pi/4") so the canonical value survives without decimal drift.
"""

from __future__ import annotations

import re

import numpy as np

from .allocation import AllocationReport
from .hull import WrenchHull
from .search import SearchResult
from .structures import ModuleParams, StructureConfig

_PARAM_FIELDS = ("eta", "side_length", "arm_length", "c_tau", "f_max")

_PI_RE = re.compile(
    r"^(?P<sign>-?)(?:(?P<coef>\d+(?:\.\d+)?)\s*\*?\s*)?pi(?:\s*/\s*(?P<div>\d+(?:\.\d+)?))?$"
)


class ParseError(ValueError):
    """A file did not match the expected format; message names line and field."""


def parse_angle(text: str) -> float:
    """A float, or a fraction of pi such as 'pi/4', '-pi/6', '3*pi/4'."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    m = _PI_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse angle {text!r}")
    value = float(m.group("coef") or 1.0) * np.pi
    if m.group("div"):
        value /= float(m.group("div"))
    return -value if m.group("sign") else value


def _content_lines(text: str):
    """Yield (line_number, stripped_line) skipping blanks and comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_structure(text: str, name: str = "structure file") -> StructureConfig:
    params: dict[str, float] = {}
    cells = []
    in_cells = False
    for lineno, line in _content_lines(text):
        if not in_cells:
            if line == "cells:":
                in_cells = True
                continue
            if "=" not in line:
                raise ParseError(f"{name}, line {lineno}: expected 'key = value' or 'cells:'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _PARAM_FIELDS:
                raise ParseError(f"{name}, line {lineno}: unknown field {key!r}")
            try:
                params[key] = parse_angle(value) if key == "eta" else float(value)
            except ValueError:
                raise ParseError(f"{name}, line {lineno}: malformed number for "
                                 f"field {key!r}: {value!r}") from None
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{name}, line {lineno}: cell rows need exactly "
                                 f"two integers, got {line!r}")
            try:
                cells.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError(f"{name}, line {lineno}: malformed cell "
                                 f"coordinate in {line!r}") from None
    missing = [f for f in _PARAM_FIELDS if f not in params]
    if missing:
        raise ParseError(f"{name}: missing fields: {', '.join(missing)}")
    if not in_cells:
        raise ParseError(f"{name}: missing 'cells:' section")
    if not cells:
        raise ParseError(f"{name}: 'cells:' section is empty")
    return StructureConfig(frozenset(cells), ModuleParams(**params))


def _read_text(path) -> str:
    """The file's text; a file that is not UTF-8 is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def read_structure(path) -> StructureConfig:
    return parse_structure(_read_text(path), name=str(path))


def format_structure(config: StructureConfig) -> str:
    p = config.params
    lines = ["# structure definition"]
    lines += [f"{field} = {getattr(p, field)!r}" for field in _PARAM_FIELDS]
    lines.append("cells:")
    lines += [f"{ix} {iy}" for ix, iy in config.sorted_cells()]
    return "\n".join(lines) + "\n"


def write_structure(path, config: StructureConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_structure(config))


def parse_task(text: str, name: str = "task file") -> np.ndarray:
    rows = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"{name}, line {lineno}: wrench rows need exactly "
                             f"6 numbers, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{name}, line {lineno}: malformed number in {line!r}") from None
        if not all(np.isfinite(row)):
            raise ParseError(f"{name}, line {lineno}: wrench components must be finite")
        rows.append(row)
    if not rows:
        raise ParseError(f"{name}: no wrench rows")
    return np.array(rows)


def read_task(path) -> np.ndarray:
    return parse_task(_read_text(path), name=str(path))


def format_task(task: np.ndarray) -> str:
    lines = ["# task requirement: one wrench per row (fx fy fz tx ty tz)"]
    lines += [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(task)]
    return "\n".join(lines) + "\n"


def write_task(path, task: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_task(task))


def format_search_result(result: SearchResult, method: str, checker: str) -> str:
    """Search result: metadata in comments plus a parseable structure section."""
    shift = " ".join(repr(float(v)) for v in result.com_shift)
    lines = [
        "# search result",
        f"# method = {method}",
        f"# checker = {checker}",
        f"# satisfied = {'true' if result.satisfied else 'false'}",
        f"# modules_total = {result.modules_total}",
        f"# evaluations = {result.evaluations}",
        f"# com_shift = {shift}",
    ]
    return "\n".join(lines) + "\n" + format_structure(result.config)


def write_search_result(path, result: SearchResult, method: str, checker: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_search_result(result, method, checker))


def read_search_result(path):
    """Parse a search-result file back into (metadata dict, StructureConfig)."""
    text = _read_text(path)
    meta = {}
    for raw in text.splitlines():
        m = re.match(r"^#\s*(\w+)\s*=\s*(.+)$", raw.strip())
        if m:
            meta[m.group(1)] = m.group(2).strip()
    return meta, parse_structure(text, name=str(path))


def format_hull(hull: WrenchHull, n_modules: int, f_max: float, eta: float) -> str:
    lines = [
        "# feasible-wrench hull vertices",
        f"# modules = {n_modules}",
        f"# f_max = {float(f_max)!r}",
        f"# eta = {float(eta)!r}",
        f"# dimension = {hull.dimension}",
        "# columns: fx fy fz tx ty tz",
    ]
    lines += [" ".join(repr(float(v)) for v in row) for row in hull.vertices]
    return "\n".join(lines) + "\n"


def write_hull(path, hull: WrenchHull, n_modules: int, f_max: float, eta: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hull(hull, n_modules, f_max, eta))


def read_hull_vertices(path) -> np.ndarray:
    """Vertex rows of a hull file (metadata comments are skipped)."""
    return parse_task(_read_text(path), name=str(path))


def format_allocation_report(report: AllocationReport) -> str:
    lines = [
        "# allocation report",
        "# columns: fx fy fz tx ty tz saturated error",
    ]
    for row in report.rows:
        desired = " ".join(repr(float(v)) for v in row.desired)
        lines.append(f"{desired} {int(row.saturated)} {row.error!r}")
    lines.append(f"# max_error = {report.max_error!r}")
    lines.append(f"# any_saturated = {'true' if report.any_saturated else 'false'}")
    return "\n".join(lines) + "\n"


def write_allocation_report(path, report: AllocationReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_allocation_report(report))
