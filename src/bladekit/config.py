"""Design configuration: parsing and validation with JSON-pointer errors.

The dataclasses here are built by `parse_config_dict` alone, which holds
every default and resolves each section's transversal constants w1 and w2,
in section order, from a literal, a datum ``w(B, h_ref) = w_ref`` or the
section below.  Each config object takes a fixed set of keys, and any other
key is refused at its pointer, so a misspelt key cannot be silently dropped.

Config and distribution files are decoded by orjson. It is strict RFC
8259: NaN and Infinity literals, numbers past the float range, lone
surrogate escapes and bytes that are not UTF-8 are invalid JSON at the
file's pointer. It returns the stdlib decoder's trees with the same float
bits, without the floor of 2.5 ms per 4096-sample distribution file that
the stdlib's correctly rounded float conversion set. A tree passed to
`parse_config_dict` may still hold NaN, infinities or integers past the
float range; the checks below refuse them at their own pointer.

Both parsers run with CPython's cyclic garbage collector paused (see
`_collector_paused`). A 4096-sample distribution decodes into 4096
two-element lists that live through several young collections, get
promoted, and in a process with a large heap set off a full collection
that finds nothing to free: a decoded JSON tree holds no reference cycle,
and reference counting frees it as soon as the samples are an array.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import orjson

from .errors import BadValue, BladekitError, MissingField
from .inverse import DISTRIBUTION_KEYS, VelocityDistribution
from .positioning import METHODS

FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class SectionConfig:
    """One section: its resolved transversal constants w1 and w2 (w2 = 0 at degree 1),
    and ``chained``, set on a degree-2 section after the first: its lower blade is the
    previous section's upper one."""

    id: str
    degree: int
    lower: VelocityDistribution
    upper: VelocityDistribution
    w1: float
    w2: float
    chained: bool

    @property
    def upper_w1(self) -> float:
        """dw/dh at h = 1, the upper plane's conj(z) coefficient: the w1 its blade
        is solved at, and the w1 of a section chained on top."""
        return self.w1 + 2.0 * self.w2


@dataclass(frozen=True)
class PositioningConfig:
    method: str
    box: "tuple[float, float, float, float] | None"
    partition: "int | None"


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


def _known_keys(obj: dict, keys: tuple, pointer: str, name: str) -> None:
    """Refuse the first key of ``obj`` outside ``keys`` at its RFC 6901
    pointer: a key nothing reads is refused, not dropped."""
    for key in obj:
        if key not in keys:
            raise BadValue(f"{pointer}/" + str(key).replace("~", "~0").replace("/", "~1"),
                           f"unknown key, {name} takes only {keys}")


def _as_number(value, pointer: str) -> float:
    # bools are ints; NaN, inf and ints beyond the float range are not finite numbers
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= sys.float_info.max):
        raise BadValue(pointer, f"expected a finite number, got {value!r}")
    return float(value)


@contextmanager
def _collector_paused():
    """Disable the cyclic collector, then restore the caller's state, on any exit.

    Safe for the parsers it wraps: the JSON trees they decode hold no
    cycles, and reference counting frees each one as the wrapped function
    returns (after a refusal, when the caller drops the exception). Cyclic
    garbage made elsewhere meanwhile is collected later, never lost. A
    collector that was disabled stays disabled, so nested and concurrent
    pauses are harmless.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_json(path: str, pointer: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:   # not UTF-8, not RFC 8259 JSON
        raise BadValue(pointer, f"invalid JSON: {exc}") from exc


# A decoded tree deeper than Python's recursion limit is refused where a check
# formats a bad value with repr, which recurses once per level; a decoder that
# limits nesting refuses the file itself.
_TOO_DEEP = "invalid JSON: nested too deep"


def _file_name(name: str, pointer: str) -> None:
    """Refuse a name that no file name holds: one with a NUL, on which open()
    raises ValueError, or with a lone surrogate outside U+DC80..U+DCFF, which
    is how Python spells an undecodable file-name byte."""
    if "\0" in name:
        raise BadValue(pointer, f"path contains a NUL character: {name!r}")
    try:
        os.fsencode(name)
    except UnicodeEncodeError as exc:
        raise BadValue(pointer, f"not encodable as a file name ({exc.reason}): "
                                f"{name!r}") from None


def _load_distribution(value, pointer: str, base_dir: str) -> VelocityDistribution:
    from_file = isinstance(value, str)
    if from_file:
        _file_name(value, pointer)
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        try:
            value = _read_json(path, pointer)
        except FileNotFoundError:
            raise BadValue(pointer, f"file not found: {path}") from None
        except OSError as exc:      # a directory, no read permission
            raise BadValue(pointer, f"cannot read {path}: {exc.strerror}") from None
    if not isinstance(value, dict):
        raise BadValue(pointer, "expected a distribution object or a file path")
    for key in DISTRIBUTION_KEYS:
        if key not in value:
            raise MissingField(f"{pointer}/{key}")
    try:
        return VelocityDistribution.from_json(value)
    except BladekitError as exc:
        raise BadValue(pointer, str(exc)) from exc
    except RecursionError:
        if not from_file:           # the config file's own tree: parse_config's
            raise
        raise BadValue(pointer, _TOO_DEEP) from None


def _parse_w1(value, pointer: str) -> "float | tuple[float, float]":
    """A literal w1, or the datum's (w_ref, h_ref) pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _as_number(value, pointer)
    if isinstance(value, dict):
        _known_keys(value, ("from_transversal",), pointer, "w1")
    if isinstance(value, dict) and "from_transversal" in value:
        ptr = f"{pointer}/from_transversal"
        datum = _as_object(value["from_transversal"], ptr)
        _known_keys(datum, ("w_ref", "h_ref"), ptr, "from_transversal")
        w_ref = _as_number(_need(datum, "w_ref", ptr), f"{ptr}/w_ref")
        h_ref = _as_number(_need(datum, "h_ref", ptr), f"{ptr}/h_ref")
        if h_ref == 0.0:
            raise BadValue(f"{ptr}/h_ref", "reference height must be nonzero")
        return w_ref, h_ref
    raise BadValue(pointer, "expected a number or {'from_transversal': {...}}")


def datum_rule(w_ref: float, h_ref: float, w1: "float | None" = None,
               w2: "float | None" = None) -> float:
    """Solve the transversal datum ``h_ref*w1 + h_ref^2*w2 = w_ref`` for the unknown.

    Every potential vanishes at B, the origin, the blades' common branch
    point, so this is ``w(B, h_ref) = w_ref``, stated in the section's own
    w.  First sections know w2 and solve for w1; chained sections know w1
    and solve for w2.  Dividing by h_ref first forms no h_ref**2, which
    over- or underflows where the unknown need not.
    """
    if w1 is None:
        return w_ref / h_ref - h_ref * w2
    return (w_ref / h_ref - w1) / h_ref


def _finite(value: float, pointer: str, name: str) -> float:
    if not math.isfinite(value):
        raise BadValue(pointer, f"{name} = {value!r} is not a finite number")
    return value


@_collector_paused()
def parse_config(path: str) -> DesignConfig:
    """Read and validate a design configuration file.

    Velocity distributions may be inline objects or paths to JSON files
    relative to the configuration file.
    """
    raw = _read_json(path, "/")
    try:
        return parse_config_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))
    except RecursionError:
        raise BadValue("/", _TOO_DEEP) from None


@_collector_paused()
def parse_config_dict(raw: dict, base_dir: str = ".") -> DesignConfig:
    if not isinstance(raw, dict):
        raise BadValue("/", "top level must be an object")
    _known_keys(raw, ("sections", "discretization", "positioning", "output"), "", "the config")
    sections_raw = _need(raw, "sections", "")
    if not isinstance(sections_raw, list) or len(sections_raw) == 0:
        raise BadValue("/sections", "need a nonempty list of sections")

    disc = _as_object(raw.get("discretization", {}), "/discretization")
    _known_keys(disc, ("n_boundary",), "/discretization", "discretization")
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
        _known_keys(sec, ("id", "degree", "lower", "upper", "w1", "w2"), ptr, "a section")
        sid = sec.get("id", f"section{i}")
        if not isinstance(sid, str) or not sid:
            raise BadValue(f"{ptr}/id", "section id must be a nonempty string")
        # the id names the section's artifact directory under the output one
        if sid in (".", "..") or any(ch in sid for ch in "/\\\0"):
            raise BadValue(f"{ptr}/id", f"section id must be a plain file name, got {sid!r}")
        _file_name(sid, f"{ptr}/id")
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
            w1 = _finite(prev.upper_w1, f"{ptr}/w1", "w1")
            if datum is not None:
                w2 = _finite(datum_rule(*datum, w1=w1), datum_ptr, "w2")
        elif datum is not None:
            w1 = _finite(datum_rule(*datum, w2=w2), datum_ptr, "w1")
        sections.append(SectionConfig(sid, degree, lower, upper, w1, w2, chained))

    pos_raw = _as_object(raw.get("positioning", {}), "/positioning")
    # a plane spacing among them: the area method's planes are the field's, one unit apart
    _known_keys(pos_raw, ("method", "box", "partition"), "/positioning", "positioning")
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
    if method == "lift":
        if box is None:
            raise MissingField("/positioning/box")
        if partition is None:
            raise MissingField("/positioning/partition")

    out_raw = _as_object(raw.get("output", {}), "/output")
    _known_keys(out_raw, ("directory", "formats"), "/output", "output")
    directory = out_raw.get("directory", "out")
    if not isinstance(directory, str):
        raise BadValue("/output/directory", "expected a string")
    if not directory:
        raise BadValue("/output/directory", "expected a nonempty path")
    _file_name(directory, "/output/directory")
    formats = out_raw.get("formats", list(FORMATS))
    if not isinstance(formats, list):
        raise BadValue("/output/formats", f"expected a list, got {formats!r}")
    formats = tuple(formats)
    for j, f in enumerate(formats):
        if f not in FORMATS:
            raise BadValue(f"/output/formats/{j}", f"unknown format {f!r}")

    return DesignConfig(tuple(sections), n_boundary,
                        PositioningConfig(method, box, partition),
                        OutputConfig(directory, formats))
