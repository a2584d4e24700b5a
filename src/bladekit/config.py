"""Design configuration: parsing and validation with JSON-pointer errors."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import BadValue, MissingField, NotPowerOfTwo
from .inverse import VelocityDistribution

_METHODS = ("lsq", "area", "lift")


@dataclass(frozen=True)
class TransversalDatum:
    """Prescribed transversal speed w_ref at height h_ref over the branch point."""

    w_ref: float
    h_ref: float


@dataclass(frozen=True)
class SectionConfig:
    id: str
    degree: int
    lower: VelocityDistribution
    upper: VelocityDistribution
    w1: "float | TransversalDatum"
    w2: "float | None" = None


@dataclass(frozen=True)
class PositioningConfig:
    method: str = "lsq"
    box: "tuple[float, float, float, float] | None" = None
    partition: "int | None" = None
    spacing: float = 1.0


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv", "json", "svg")


@dataclass(frozen=True)
class DesignConfig:
    sections: tuple
    n_boundary: int = 256
    positioning: PositioningConfig = field(default_factory=PositioningConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _need(obj: dict, key: str, pointer: str):
    if key not in obj:
        raise MissingField(f"{pointer}/{key}")
    return obj[key]


def _as_object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise BadValue(pointer, f"expected an object, got {value!r}")
    return value


def _as_number(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadValue(pointer, f"expected a number, got {value!r}")
    return float(value)


def _load_distribution(value, pointer: str, base_dir: str) -> VelocityDistribution:
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        if not os.path.exists(path):
            raise BadValue(pointer, f"file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    if not isinstance(value, dict):
        raise BadValue(pointer, "expected a distribution object or a file path")
    for key in ("samples", "total_length", "branch_indices", "v_inf"):
        if key not in value:
            raise MissingField(f"{pointer}/{key}")
    try:
        return VelocityDistribution.from_json(value)
    except Exception as exc:
        raise BadValue(pointer, str(exc)) from exc


def _parse_w1(value, pointer: str):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, dict) and "from_transversal" in value:
        ptr = f"{pointer}/from_transversal"
        datum = _as_object(value["from_transversal"], ptr)
        w_ref = _as_number(_need(datum, "w_ref", ptr), f"{ptr}/w_ref")
        h_ref = _as_number(_need(datum, "h_ref", ptr), f"{ptr}/h_ref")
        if h_ref == 0.0:
            raise BadValue(f"{ptr}/h_ref", "reference height must be nonzero")
        return TransversalDatum(w_ref, h_ref)
    raise BadValue(pointer, "expected a number or {'from_transversal': {...}}")


def parse_config(path: str) -> DesignConfig:
    """Read and validate a design configuration file.

    Velocity distributions may be inline objects or paths to JSON files
    relative to the configuration file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadValue("/", f"invalid JSON: {exc}") from exc
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
        raise NotPowerOfTwo("/discretization/n_boundary", n_boundary)

    sections = []
    degrees = set()
    for i, sec in enumerate(sections_raw):
        ptr = f"/sections/{i}"
        if not isinstance(sec, dict):
            raise BadValue(ptr, "section must be an object")
        sid = sec.get("id", f"section{i}")
        if not isinstance(sid, str) or not sid:
            raise BadValue(f"{ptr}/id", "section id must be a nonempty string")
        degree = sec.get("degree", 1)
        if degree not in (1, 2):
            raise BadValue(f"{ptr}/degree", f"degree must be 1 or 2, got {degree!r}")
        degrees.add(degree)
        lower = _load_distribution(_need(sec, "lower", ptr), f"{ptr}/lower", base_dir)
        upper = _load_distribution(_need(sec, "upper", ptr), f"{ptr}/upper", base_dir)
        w1 = _parse_w1(sec.get("w1", 0.0), f"{ptr}/w1")
        w2 = None
        if degree == 2:
            if i == 0:
                if "w2" not in sec:
                    raise MissingField(f"{ptr}/w2")
                w2 = _as_number(sec["w2"], f"{ptr}/w2")
            elif "w2" in sec:
                raise BadValue(f"{ptr}/w2",
                               "w2 of a chained section comes from its data")
        elif "w2" in sec:
            raise BadValue(f"{ptr}/w2", "w2 is a degree-2 parameter")
        sections.append(SectionConfig(sid, degree, lower, upper, w1, w2))
    if len(degrees) > 1:
        raise BadValue("/sections", "degree must be uniform across sections")
    ids = [s.id for s in sections]
    if len(set(ids)) != len(ids):
        raise BadValue("/sections", "section ids must be unique")

    pos_raw = _as_object(raw.get("positioning", {}), "/positioning")
    method = pos_raw.get("method", "lsq")
    if method not in _METHODS:
        raise BadValue("/positioning/method", f"method must be one of {_METHODS}")
    box = None
    if "box" in pos_raw:
        b = pos_raw["box"]
        if not (isinstance(b, list) and len(b) == 4):
            raise BadValue("/positioning/box", "box must be [x0, y0, x1, y1]")
        box = tuple(_as_number(v, f"/positioning/box/{j}") for j, v in enumerate(b))
        if not (box[2] > box[0] and box[3] > box[1]):
            raise BadValue("/positioning/box", "box must have positive extent")
    partition = pos_raw.get("partition")
    if partition is not None and (not isinstance(partition, int) or partition < 1):
        raise BadValue("/positioning/partition", "partition must be a positive integer")
    spacing = _as_number(pos_raw.get("spacing", 1.0), "/positioning/spacing")
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
    formats = out_raw.get("formats", ["csv", "json", "svg"])
    if not isinstance(formats, list):
        raise BadValue("/output/formats", f"expected a list, got {formats!r}")
    formats = tuple(formats)
    for j, f in enumerate(formats):
        if f not in ("csv", "json", "svg"):
            raise BadValue(f"/output/formats/{j}", f"unknown format {f!r}")

    return DesignConfig(tuple(sections), n_boundary,
                        PositioningConfig(method, box, partition, spacing),
                        OutputConfig(directory, formats))
