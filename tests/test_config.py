"""Transversal constants, resolved once by the config parser, and the
parser on mutated configs.

A section's w1 is a literal, a datum ``w(B, h_ref) = w_ref`` or, for a
chained degree-2 section, the slope ``prev.w1 + 2*prev.w2`` of the section
below; w2 is a literal on a first degree-2 section, the datum's solution or
0 on a chained one, and 0 at degree 1.
"""

import copy
import gc
import json
import math
import os
import re
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bladekit.config import DesignConfig, _read_json, parse_config, parse_config_dict
from bladekit.errors import BadValue, ConfigError

DIST = oracles.joukowski_flow().distribution(64, 64).to_json()
EPS = sys.float_info.epsilon
TINY = Fraction(2) ** -1074      # the least subnormal, the absolute error of an underflow


def _datum(w_ref, h_ref):
    return {"from_transversal": {"w_ref": w_ref, "h_ref": h_ref}}


def _raw(degree, specs, w2=None):
    """A config of sections with w1 ``specs[k]``; ``w2`` goes to the first one."""
    sections = [{"id": f"s{k}", "degree": degree, "w1": w1, "lower": DIST, "upper": DIST}
                for k, w1 in enumerate(specs)]
    if w2 is not None:
        sections[0]["w2"] = w2
    return {"sections": sections, "discretization": {"n_boundary": 64}}


def _constants(degree, specs, w2=None):
    return [(s.w1, s.w2) for s in parse_config_dict(_raw(degree, specs, w2)).sections]


def _datum_error_bound(w_ref, h_ref, w1, w2) -> Fraction:
    """Bound on ``|h_ref*w1 + h_ref^2*w2 - w_ref|`` after solving the datum in floats.

    A handful of roundings, each off by EPS/2 of its result, plus the
    absolute error of one that underflows: TINY on a product, TINY/h_ref^2
    relative on h_ref^2 itself when that is subnormal.
    """
    w_ref, h, w1, w2 = (abs(Fraction(v)) for v in (w_ref, h_ref, w1, w2))
    terms = w_ref + h * w1 + h * h * w2
    return 8 * Fraction(EPS) * terms + 2 * TINY * (1 + h + w2 + h * h + terms / (h * h))


def _datum_holds(w_ref, h_ref, w1, w2) -> bool:
    h = Fraction(h_ref)
    residual = h * Fraction(w1) + h * h * Fraction(w2) - Fraction(w_ref)
    return abs(residual) <= _datum_error_bound(w_ref, h_ref, w1, w2)


class TestChainRule:
    def test_w1_chaining_rule(self):
        # the slope dw/dh of the first section at h = 1: 0.3 + 2*0.1
        (w1, w2), nxt = _constants(2, [0.3, 0.0], w2=0.1)
        assert nxt == (w1 + 2.0 * w2, 0.0)
        assert abs(nxt[0] - 0.5) < 1e-14

    def test_transversal_datum_fixes_w2(self):
        # w(B, 1) = w1 + w2 = 0.9 with w1 = 0.5 gives w2 = 0.4
        _, (w1, w2) = _constants(2, [0.3, _datum(0.9, 1.0)], w2=0.1)
        assert w1 == 0.3 + 2.0 * 0.1
        assert abs(w2 - 0.4) < 1e-13

    def test_flat_continuation(self):
        assert _constants(2, [0.0, 0.0, 0.0], w2=0.0) == [(0.0, 0.0)] * 3

    def test_degree1_sections_are_independent(self):
        consts = _constants(1, [0.05, _datum(0.3, 2.0), -0.1])
        assert consts == [(0.05, 0.0), (0.15, 0.0), (-0.1, 0.0)]

    def test_datum_past_the_square_of_h_ref(self):
        # h_ref * w1 = 1e350 and h_ref**2 = 4e308 leave the float range; the
        # constants they solve for do not
        _, (w1, w2) = _constants(2, [1e250, _datum(0.1, 1e100)], w2=0.0)
        assert w1 == 1e250 and w2 == -1e150
        assert _constants(1, [_datum(1.0, 2e154)]) == [(5e-155, 0.0)]

    def test_chained_w1_is_still_type_checked(self):
        with pytest.raises(BadValue) as err:
            _constants(2, [0.05, "0.1"], w2=0.1)
        assert err.value.pointer == "/sections/1/w1"


EXTREMES = (0.0, 1e-320, 1e-300, 1e-200, 1e-160, 1e-10, 1e154, 1e200, 1e300, 1e308)
NUMBERS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from(EXTREMES + tuple(-x for x in EXTREMES)),
    st.floats(allow_nan=False, allow_infinity=False),
)
W1 = st.one_of(NUMBERS, st.builds(_datum, NUMBERS, NUMBERS))


@given(degree=st.sampled_from((1, 2)), specs=st.lists(W1, min_size=1, max_size=4),
       w2=NUMBERS)
def test_constants_are_finite_and_obey_both_rules(degree, specs, w2):
    # every chain either is refused with a pointer at a section's w1, or
    # resolves to finite constants that follow the chain and datum rules
    try:
        consts = _constants(degree, specs, w2 if degree == 2 else None)
    except ConfigError as exc:
        parts = exc.pointer.split("/")
        assert parts[:2] == ["", "sections"] and 0 <= int(parts[2]) < len(specs), exc.pointer
        assert "/".join(parts[3:]) in ("w1", "w1/from_transversal",
                                       "w1/from_transversal/h_ref"), exc.pointer
        return
    for k, (spec, (w1, w2_k)) in enumerate(zip(specs, consts)):
        assert type(w1) is float and type(w2_k) is float
        assert math.isfinite(w1) and math.isfinite(w2_k)
        datum = spec["from_transversal"] if isinstance(spec, dict) else None
        if degree == 2 and k > 0:
            prev_w1, prev_w2 = consts[k - 1]
            assert w1 == prev_w1 + 2.0 * prev_w2
            if datum is None:
                assert w2_k == 0.0
        else:
            assert w2_k == (w2 if degree == 2 and k == 0 else 0.0)
            if datum is None:
                assert w1 == spec
        if datum is not None:
            assert _datum_holds(datum["w_ref"], datum["h_ref"], w1, w2_k), (k, w1, w2_k)


def _lift_chain() -> dict:
    """A valid config: two chained degree-2 sections positioned by lift."""
    dist = oracles.joukowski_flow().distribution(8, 8).to_json()
    return {"sections": [{"id": "a", "degree": 2, "w1": 0.05, "w2": 0.1,
                          "lower": dist, "upper": copy.deepcopy(dist)},
                         {"id": "b", "degree": 2, "w1": _datum(0.3, 1.0),
                          "lower": copy.deepcopy(dist), "upper": copy.deepcopy(dist)}],
            "discretization": {"n_boundary": 64},
            "positioning": {"method": "lift", "box": [-0.5, -0.5, 0.5, 0.5],
                            "partition": 32},
            "output": {"directory": "out", "formats": ["csv", "json"]}}


def _key_paths(node, path=()):
    """The key path of every node below the root of a JSON tree."""
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _key_paths(child, path + (key,))


DROP = object()
JSON_VALUES = st.one_of(
    st.just(DROP),
    # no config file holds NaN, Infinity or a number past the float range, but
    # a library caller's tree may
    st.sampled_from((10 ** 400, -(10 ** 400), math.nan, math.inf, -math.inf)),
    st.sampled_from((None, True, False, "", "a", ".", "a\x00b", "0.1", 0, 1, 2, 3, 64, 96, -1,
                     [], {})),
    NUMBERS,
    st.lists(NUMBERS, max_size=4),
)
MUTATIONS = st.lists(st.tuples(st.sampled_from(list(_key_paths(_lift_chain()))), JSON_VALUES),
                     min_size=1, max_size=3)


@given(MUTATIONS)
def test_mutated_config_parses_or_is_refused_with_a_pointer(mutations):
    # each mutation drops or replaces one node, down to single samples; a
    # path that an earlier mutation removed or retyped is skipped
    raw = _lift_chain()
    for path, value in mutations:
        node = raw
        try:
            for key in path[:-1]:
                node = node[key]
            if value is DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    try:
        cfg = parse_config_dict(raw)
    except ConfigError as exc:
        assert re.fullmatch(r"/|(/[^/]+)+", exc.pointer), exc.pointer
        return
    assert isinstance(cfg, DesignConfig)


PATHS = {
    # the path's place in the config, the value; open() and os.makedirs raise
    # ValueError on a NUL and UnicodeEncodeError on a lone surrogate outside
    # U+DC80..U+DCFF, and makedirs("") names no directory
    "lower with NUL": (("sections", 0, "lower"), "a\x00b.json", "/sections/0/lower"),
    "upper with NUL": (("sections", 0, "upper"), "a\x00b.json", "/sections/0/upper"),
    "directory with NUL": (("output", "directory"), "a\x00b", "/output/directory"),
    "empty directory": (("output", "directory"), "", "/output/directory"),
    "lower with a lone surrogate": (("sections", 0, "lower"), "x\ud800.json",
                                    "/sections/0/lower"),
    "id with a lone surrogate": (("sections", 0, "id"), "s\ud800", "/sections/0/id"),
    "directory with a lone surrogate": (("output", "directory"), "out\ud800",
                                        "/output/directory"),
}


@pytest.mark.parametrize("path, value, pointer", PATHS.values(), ids=PATHS)
def test_unusable_path_is_refused_at_its_pointer(path, value, pointer):
    raw = _lift_chain()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(BadValue) as err:
        parse_config_dict(raw)
    assert err.value.pointer == pointer


@pytest.mark.parametrize("key, pointer", [
    ("a/b", "/positioning/a~1b"),
    ("~", "/positioning/~0"),
])
def test_unknown_positioning_key_is_refused_at_its_pointer(key, pointer):
    # refused, not dropped (test_cli's MALFORMED refuses the former plane
    # distance); the key is escaped in its pointer as RFC 6901 says
    raw = _lift_chain()
    raw["positioning"][key] = 1.0
    with pytest.raises(BadValue) as err:
        parse_config_dict(raw)
    assert err.value.pointer == pointer


def test_undecodable_file_name_bytes_are_usable_names(tmp_path):
    # Python spells a file-name byte that does not decode as a lone surrogate
    # in U+DC80..U+DCFF, and the file system takes it back as that byte
    name = os.fsdecode(b"d\xff.json")
    (tmp_path / name).write_text(json.dumps(DIST))
    raw = _lift_chain()
    raw["sections"][0].update(id=os.fsdecode(b"s\x80"), lower=name)
    raw["output"]["directory"] = os.fsdecode(b"out\xfe")
    cfg = parse_config_dict(raw, base_dir=str(tmp_path))
    assert os.fsencode(cfg.sections[0].id) == b"s\x80"
    assert os.fsencode(cfg.output.directory) == b"out\xfe"


NON_FINITE_DISTRIBUTION = {
    # no distribution file holds NaN, Infinity or a number past the float
    # range, but a library caller's tree may: the place in section 0, the
    # value, the reported pointer and message
    "lower v_inf": (("lower", "v_inf"), math.inf, "/sections/0/lower",
                    "v_inf must be a finite real number"),
    "lower total_length": (("lower", "total_length"), math.inf, "/sections/0/lower",
                           "total_length must be a finite real number"),
    "lower incidence": (("lower", "incidence"), math.nan, "/sections/0/lower",
                        "incidence must be a finite real number"),
    "upper incidence": (("upper", "incidence"), math.inf, "/sections/0/upper",
                        "incidence must be a finite real number"),
    "sample past the float range": (("lower", "samples", 1, 1), 10 ** 400, "/sections/0/lower",
                                    "samples must be finite"),
}


@pytest.mark.parametrize("path, value, pointer, message", NON_FINITE_DISTRIBUTION.values(),
                         ids=NON_FINITE_DISTRIBUTION)
def test_non_finite_distribution_number_is_refused_at_its_pointer(path, value, pointer,
                                                                   message):
    raw = _lift_chain()
    node = raw["sections"][0]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(BadValue) as err:
        parse_config_dict(raw)
    assert f"{pointer}: {message}" in str(err.value)


# -- the collector pause ----------------------------------------------------------

@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request):
    """Set the cyclic collector on or off for the test, then restore it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _design(lower) -> dict:
    return {"sections": [{"id": "s0", "lower": lower, "upper": "d.json"}],
            "discretization": {"n_boundary": 64}}


BAD_DIST = dict(DIST, samples=[[0.0, "0.1"]] + DIST["samples"][1:])
CASES = ("valid", "missing", "directory", "invalid JSON", "bad samples")


def _place(path, case, valid, bad_samples):
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_text("{" if case == "invalid JSON"
                        else json.dumps(bad_samples if case == "bad samples" else valid))


def _parse(parser, tmp_path):
    if parser == "parse_config":
        return parse_config(str(tmp_path / "c.json"))
    return parse_config_dict(_design("d.json"), base_dir=str(tmp_path))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("parser, broken", [("parse_config", "c.json"),
                                            ("parse_config", "d.json"),
                                            ("parse_config_dict", "d.json")])
def test_parsers_restore_the_collector(tmp_path, collector, parser, broken, case):
    # on success and on each refusal, in the config file or in a distribution
    # file, an enabled collector is enabled again and a disabled one stays off
    files = {"c.json": (_design("d.json"), _design(BAD_DIST)), "d.json": (DIST, BAD_DIST)}
    for name, (valid, bad_samples) in files.items():
        _place(tmp_path / name, case if name == broken else "valid", valid, bad_samples)
    if case == "valid":
        assert isinstance(_parse(parser, tmp_path), DesignConfig)
    else:
        with pytest.raises((ConfigError, OSError)):
            _parse(parser, tmp_path)
    assert gc.isenabled() is collector


@pytest.fixture(scope="module")
def big_design(tmp_path_factory):
    """A config file and a 4096-sample distribution file it names twice."""
    path = tmp_path_factory.mktemp("big")
    (path / "d.json").write_text(json.dumps(
        oracles.joukowski_flow().distribution(2048, 2048).to_json()))
    (path / "c.json").write_text(json.dumps(_design("d.json")))
    return path


@pytest.mark.parametrize("parser", ["parse_config", "parse_config_dict"])
def test_no_collection_starts_while_a_distribution_file_is_parsed(big_design, parser):
    # the file decodes to 4096 two-element lists, several young collections'
    # worth of allocations
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()        # empties the young generation: the test's own allocations start none
    gc.callbacks.append(hook)
    try:
        cfg = _parse(parser, big_design)
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was else gc.disable)()
    assert len(cfg.sections[0].upper.samples) == 4096
    assert starts == []


@pytest.mark.parametrize("parser", ["parse_config", "parse_config_dict"])
def test_parsing_leaves_no_cyclic_garbage(big_design, parser):
    # the premise of the pause: reference counting frees every decoded tree
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cfg = _parse(parser, big_design)
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()
    assert len(cfg.sections[0].upper.samples) == 4096


# -- the decoder ------------------------------------------------------------------

def _same(a, b) -> bool:
    """Equal JSON trees, floats equal bit for bit: -0.0 is not 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.fixture(scope="module")
def decode_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decode")


def _decode(directory, text: str):
    """``text`` read back as the config parsers read a file."""
    path = directory / "t.json"
    path.write_text(text, encoding="utf-8")
    return _read_json(str(path), "/")


FINITE_TREES = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    # JSON integers that both decoders read as ints
    | st.integers(-(2 ** 63), 2 ** 64 - 1),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24)


@given(FINITE_TREES, st.booleans(), st.sampled_from((None, 2)))
def test_decoder_reads_what_the_stdlib_reads(decode_dir, tree, ensure_ascii, indent):
    text = json.dumps(tree, ensure_ascii=ensure_ascii, indent=indent)
    assert _same(_decode(decode_dir, text), json.loads(text)), text


@pytest.mark.parametrize("text", [
    "5e-324", "-0.0", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1e-400",                   # reads as 0.0
    "1E+2",
    # 17 significant digits, the longest repr, and halfway cases near it
    "0.30000000000000004", "0.10000000000000001", "2.2250738585072011e-308",
    "9007199254740993.0", "1.0000000000000002",
    "[-4.9406564584124654e-324, 1.7976931348623157e+308, 123456789012345680.0]",
])
def test_decoder_reads_extreme_numbers_as_the_stdlib_does(decode_dir, text):
    assert _same(_decode(decode_dir, text), json.loads(text))


def test_distribution_file_parses_to_the_stdlib_floats(big_design):
    # to_json's reprs, read through the config file that names the file
    cfg = parse_config(str(big_design / "c.json"))
    ref = json.loads((big_design / "d.json").read_text(encoding="utf-8"))
    samples = np.asarray(ref["samples"], dtype=float)
    dist = cfg.sections[0].upper
    assert np.array_equal(dist.samples, samples)
    assert np.array_equal(dist.samples.view(np.uint64), samples.view(np.uint64))
    assert _same([dist.total_length, dist.v_inf], [ref["total_length"], ref["v_inf"]])
