"""Design configuration: parsing and validation with JSON-pointer errors.

The dataclasses here are built by `parse_config_dict` alone, which holds
every default and resolves each section's transversal constants w1 and w2,
in section order, from a literal, a datum ``w(B, h_ref) = w_ref`` or the
section below.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import BadValue, BladekitError, MissingField
from .inverse import VelocityDistribution
from .positioning import AREA_SPACING, METHODS

FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class SectionConfig:
    """One section; w1 and w2 are its resolved transversal constants (w2 = 0 at degree 1)."""

    id: str
    degree: int
    lower: VelocityDistribution
    upper: VelocityDistribution
    w1: float
    w2: float


@dataclass(frozen=True)
class PositioningConfig:
    method: str
    box: "tuple[float, float, float, float] | None"
    partition: "int | None"
    spacing: float


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    formats: tuple


@dataclass(frozen=True)
class DesignConfig:
    sections: tuple
    n_boundary: int
    positioning: PositioningConfig
    output: OutputConfig


def _need(obj: dict, key: str, pointer: str):
    if key not in obj:
        raise MissingField(f"{pointer}/{key}")
    return obj[key]


def _as_object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise BadValue(pointer, f"expected an object, got {value!r}")
    return value


def _as_number(value, pointer: str) -> float:
    # bools are ints; NaN, inf and ints beyond the float range are not finite numbers
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= sys.float_info.max):
        raise BadValue(pointer, f"expected a finite number, got {value!r}")
    return float(value)


def _read_json(path: str, pointer: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise BadValue(pointer, f"invalid JSON: {exc}") from exc


def _load_distribution(value, pointer: str, base_dir: str) -> VelocityDistribution:
    if isinstance(value, str):
        if "\0" in value:          # no file name holds one; open() raises ValueError
            raise BadValue(pointer, f"path contains a NUL character: {value!r}")
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        try:
            value = _read_json(path, pointer)
        except FileNotFoundError:
            raise BadValue(pointer, f"file not found: {path}") from None
        except OSError as exc:      # a directory, no read permission
            raise BadValue(pointer, f"cannot read {path}: {exc.strerror}") from None
    if not isinstance(value, dict):
        raise BadValue(pointer, "expected a distribution object or a file path")
    for key in ("samples", "total_length", "branch_indices", "v_inf"):
        if key not in value:
            raise MissingField(f"{pointer}/{key}")
    try:
        return VelocityDistribution.from_json(value)
    except BladekitError as exc:
        raise BadValue(pointer, str(exc)) from exc


def _parse_w1(value, pointer: str) -> "float | tuple[float, float]":
    """A literal w1, or the datum's (w_ref, h_ref) pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _as_number(value, pointer)
    if isinstance(value, dict) and "from_transversal" in value:
        ptr = f"{pointer}/from_transversal"
        datum = _as_object(value["from_transversal"], ptr)
        w_ref = _as_number(_need(datum, "w_ref", ptr), f"{ptr}/w_ref")
        h_ref = _as_number(_need(datum, "h_ref", ptr), f"{ptr}/h_ref")
        if h_ref == 0.0:
            raise BadValue(f"{ptr}/h_ref", "reference height must be nonzero")
        return w_ref, h_ref
    raise BadValue(pointer, "expected a number or {'from_transversal': {...}}")


def datum_rule(w_ref: float, h_ref: float, w1: "float | None" = None,
               w2: "float | None" = None) -> float:
    """Solve the transversal datum ``h_ref*w1 + h_ref^2*w2 = w_ref`` for the unknown.

    w0 vanishes over the branch point, so this is ``w(B, h_ref) = w_ref``,
    stated in the section's own w.  First sections know w2 and solve for
    w1; chained sections know w1 and solve for w2.  Dividing by h_ref
    first forms no h_ref**2, which over- or underflows where the unknown
    need not.
    """
    if w1 is None:
        return w_ref / h_ref - h_ref * w2
    return (w_ref / h_ref - w1) / h_ref


def _finite(value: float, pointer: str, name: str) -> float:
    if not math.isfinite(value):
        raise BadValue(pointer, f"{name} = {value!r} is not a finite number")
    return value


def parse_config(path: str) -> DesignConfig:
    """Read and validate a design configuration file.

    Velocity distributions may be inline objects or paths to JSON files
    relative to the configuration file.
    """
    raw = _read_json(path, "/")
    return parse_config_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config_dict(raw: dict, base_dir: str = ".") -> DesignConfig:
    if not isinstance(raw, dict):
        raise BadValue("/", "top level must be an object")
    sections_raw = _need(raw, "sections", "")
    if not isinstance(sections_raw, list) or len(sections_raw) == 0:
        raise BadValue("/sections", "need a nonempty list of sections")

    disc = _as_object(raw.get("discretization", {}), "/discretization")
    n_boundary = disc.get("n_boundary", 256)
    if not isinstance(n_boundary, int) or isinstance(n_boundary, bool):
        raise BadValue("/discretization/n_boundary", "expected an integer")
    if n_boundary < 64:
        raise BadValue("/discretization/n_boundary", "must be at least 64")
    if n_boundary & (n_boundary - 1):
        raise BadValue("/discretization/n_boundary", f"{n_boundary} is not a power of two")

    sections = []
    for i, sec in enumerate(sections_raw):
        ptr = f"/sections/{i}"
        if not isinstance(sec, dict):
            raise BadValue(ptr, "section must be an object")
        sid = sec.get("id", f"section{i}")
        if not isinstance(sid, str) or not sid:
            raise BadValue(f"{ptr}/id", "section id must be a nonempty string")
        # the id names the section's artifact directory under the output one
        if sid in (".", "..") or any(ch in sid for ch in "/\\\0"):
            raise BadValue(f"{ptr}/id", f"section id must be a plain file name, got {sid!r}")
        if sid == "report.json":
            raise BadValue(f"{ptr}/id", "section id report.json is the report's file name")
        if any(s.id == sid for s in sections):
            raise BadValue(f"{ptr}/id", "section ids must be unique")
        degree = sec.get("degree", 1)
        if type(degree) is not int or degree not in (1, 2):  # True and 1.0 equal 1
            raise BadValue(f"{ptr}/degree", f"degree must be 1 or 2, got {degree!r}")
        if sections and degree != sections[0].degree:
            raise BadValue(f"{ptr}/degree", "degree must be uniform across sections, "
                           f"section 0 has degree {sections[0].degree}")
        lower = _load_distribution(_need(sec, "lower", ptr), f"{ptr}/lower", base_dir)
        upper = _load_distribution(_need(sec, "upper", ptr), f"{ptr}/upper", base_dir)
        w1 = _parse_w1(sec.get("w1", 0.0), f"{ptr}/w1")
        datum = w1 if isinstance(w1, tuple) else None
        datum_ptr = f"{ptr}/w1/from_transversal"
        chained = degree == 2 and i > 0
        w2 = 0.0
        if degree == 2 and not chained:
            if "w2" not in sec:
                raise MissingField(f"{ptr}/w2")
            w2 = _as_number(sec["w2"], f"{ptr}/w2")
        elif "w2" in sec:
            raise BadValue(f"{ptr}/w2", "w2 of a chained section comes from its data"
                           if chained else "w2 is a degree-2 parameter")
        if chained:
            # the shared blade's slope dw/dh; this drops a literal w1 (ROADMAP item 6)
            prev = sections[-1]
            w1 = _finite(prev.w1 + 2.0 * prev.w2, f"{ptr}/w1", "w1")
            if datum is not None:
                w2 = _finite(datum_rule(*datum, w1=w1), datum_ptr, "w2")
        elif datum is not None:
            w1 = _finite(datum_rule(*datum, w2=w2), datum_ptr, "w1")
        sections.append(SectionConfig(sid, degree, lower, upper, w1, w2))

    pos_raw = _as_object(raw.get("positioning", {}), "/positioning")
    method = pos_raw.get("method", METHODS[0])
    if method not in METHODS:
        raise BadValue("/positioning/method", f"method must be one of {METHODS}")
    box = None
    if "box" in pos_raw:
        b = pos_raw["box"]
        if not (isinstance(b, list) and len(b) == 4):
            raise BadValue("/positioning/box", "box must be [x0, y0, x1, y1]")
        box = tuple(_as_number(v, f"/positioning/box/{j}") for j, v in enumerate(b))
        if not (box[2] > box[0] and box[3] > box[1]):
            raise BadValue("/positioning/box", "box must have positive extent")
    partition = pos_raw.get("partition")
    if partition is not None and (type(partition) is not int or partition < 1):
        raise BadValue("/positioning/partition", "partition must be a positive integer")
    # the contours have n_boundary nodes, and the upper surface needs one
    if partition is not None and partition >= n_boundary:
        raise BadValue("/positioning/partition",
                       f"partition must be below n_boundary = {n_boundary}")
    spacing = _as_number(pos_raw.get("spacing", AREA_SPACING), "/positioning/spacing")
    if spacing <= 0:
        raise BadValue("/positioning/spacing", "spacing must be positive")
    if method == "lift":
        if box is None:
            raise MissingField("/positioning/box")
        if partition is None:
            raise MissingField("/positioning/partition")

    out_raw = _as_object(raw.get("output", {}), "/output")
    directory = out_raw.get("directory", "out")
    if not isinstance(directory, str):
        raise BadValue("/output/directory", "expected a string")
    if not directory or "\0" in directory:
        raise BadValue("/output/directory",
                       f"expected a nonempty path without NUL characters, got {directory!r}")
    formats = out_raw.get("formats", list(FORMATS))
    if not isinstance(formats, list):
        raise BadValue("/output/formats", f"expected a list, got {formats!r}")
    formats = tuple(formats)
    for j, f in enumerate(formats):
        if f not in FORMATS:
            raise BadValue(f"/output/formats/{j}", f"unknown format {f!r}")

    return DesignConfig(tuple(sections), n_boundary,
                        PositioningConfig(method, box, partition, spacing),
                        OutputConfig(directory, formats))
