"""Transversal constants, resolved once by the config parser, and the
parser on mutated configs.

A section's w1 is a literal, a datum ``w(B, h_ref) = w_ref`` or, for a
chained degree-2 section, the slope ``prev.w1 + 2*prev.w2`` of the section
below; w2 is a literal on a first degree-2 section, the datum's solution or
0 on a chained one, and 0 at degree 1.
"""

import copy
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bladekit.config import DesignConfig, parse_config_dict
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
                            "partition": 32, "spacing": 0.5},
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
    # json.load reads NaN, Infinity and integers past the float range
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
    # ValueError on a NUL, and makedirs("") names no directory
    "lower with NUL": (("sections", 0, "lower"), "a\x00b.json", "/sections/0/lower"),
    "upper with NUL": (("sections", 0, "upper"), "a\x00b.json", "/sections/0/upper"),
    "directory with NUL": (("output", "directory"), "a\x00b", "/output/directory"),
    "empty directory": (("output", "directory"), "", "/output/directory"),
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
