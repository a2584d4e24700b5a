"""End-to-end pipeline runs on oracle data: a chain of degree-2 sections."""

import dataclasses
import functools

import numpy as np
import pytest

import oracles
from oracles import assert_same_blade
from bladekit import assembly, inverse, planefield
from bladekit.config import datum_rule, parse_config_dict
from bladekit.harmonic import evaluate_series
from bladekit.inverse import PlanarSolution, solve_distribution
from bladekit.pipeline import GLUE_TOL, _residual_grid, run_pipeline, solve_blade_stage
from bladekit.planefield import SeriesMap

# (lower centre, lower beta, upper centre, upper beta, w1) per section; the
# chained sections take w1 from the chaining rule and w2 from their datum
CHAIN = (
    (-0.08 + 0.05j, 0.10, -0.09 + 0.06j, 0.12, 0.05),
    (-0.10 + 0.08j, 0.20, -0.11 + 0.09j, 0.22,
     {"from_transversal": {"w_ref": 0.25, "h_ref": 1.0}}),
    (-0.06 + 0.03j, 0.30, -0.07 + 0.04j, 0.33,
     {"from_transversal": {"w_ref": 0.15, "h_ref": 1.0}}),
)


def _distribution(centre, beta):
    return oracles.joukowski_flow(center=centre, beta=beta).distribution(512, 512).to_json()


def _chain_config(c0_w1=CHAIN[0][4], positioning=None):
    sections = []
    for i, (lo_c, lo_b, up_c, up_b, w1) in enumerate(CHAIN):
        sections.append({"id": f"c{i}", "degree": 2, "w1": w1,
                         "lower": _distribution(lo_c, lo_b),
                         "upper": _distribution(up_c, up_b)})
    sections[0].update(w1=c0_w1, w2=0.1)
    return parse_config_dict({"sections": sections,
                              "discretization": {"n_boundary": 64},
                              "positioning": positioning or {"method": "lsq"}})


@pytest.fixture(scope="module")
def chain_report():
    return run_pipeline(_chain_config())


class TestDegree2Chain:
    def test_chain_passes(self, chain_report):
        assert chain_report.errors == []
        assert [s.section.id for s in chain_report.sections] == ["c0", "c1", "c2"]
        assert [s.section.chained for s in chain_report.sections] == [False, True, True]
        assert chain_report.passed

    def test_chained_sections_carry_glue_checks(self, chain_report):
        report = chain_report.to_json()["sections"]
        for sec, entry in zip(chain_report.sections[1:], report[1:]):
            checks = {c.name: c for c in sec.checks}
            for name in ("glue_du", "glue_dv", "glue_w1_rule"):
                assert checks[name].passed is True
            assert checks["glue_du"].value < GLUE_TOL
            assert checks["glue_dv"].value < GLUE_TOL
            assert entry["glue"] == {"w1_const": sec.section.w1, "w2": sec.section.w2}

    def test_shared_blade_is_one_solve(self, chain_report):
        secs = chain_report.sections
        for prev, sec in zip(secs, secs[1:]):
            assert sec.lower is prev.upper

    def test_w1_is_the_previous_slope(self, chain_report):
        # the shared blade was solved with the previous slope dw/dh at h = 1;
        # the chained section takes it as w1 and is divergence free
        for prev, sec in zip(chain_report.sections, chain_report.sections[1:]):
            assert sec.section.w1 == prev.field.w1 + 2 * prev.field.w2 == sec.lower.w1
            check = {c.name: c for c in sec.checks}["residual_analytic"]
            assert check.tolerance == 1e-8 and check.passed is True
            assert check.value < 1e-8

    def test_zero_shift_breaks_the_glue(self):
        # negative control: chained by the value rule w1 = w(B, 1), without
        # the in-plane shift prev.w2 of the conj(z) term, a chained section
        # no longer continues the one below it, and the report fails
        cfg = _chain_config()
        sections = list(cfg.sections)
        for k in range(1, len(sections)):
            prev = sections[k - 1]
            w1 = prev.w1 + prev.w2
            w2 = datum_rule(**CHAIN[k][4]["from_transversal"], w1=w1)
            sections[k] = dataclasses.replace(sections[k], w1=w1, w2=w2)
        report = run_pipeline(dataclasses.replace(cfg, sections=tuple(sections)))
        assert not report.passed
        for prev, sec in zip(report.sections, report.sections[1:]):
            assert sec.lower.w1 - sec.section.w1 == pytest.approx(prev.field.w2) != 0.0
            checks = {c.name: c for c in sec.checks}
            for name in ("glue_du", "glue_dv", "glue_w1_rule"):
                assert checks[name].passed is False, (sec.section.id, name)

    def test_only_glue_dw_is_ungated(self, chain_report):
        for sec in chain_report.sections:
            for check in sec.checks:
                assert (check.tolerance is None) is (check.name == "glue_dw"), check.name
                assert check.passed is (None if check.tolerance is None else True)

    def test_glue_dw_is_the_w_jump(self, chain_report):
        # w jumps by the previous w(B, 1) = w1 + w2 over the branch point B,
        # the origin, where every potential vanishes to a few ulp of its
        # order-1 terms; glue_dw is the largest jump over the residual grid
        for prev, sec in zip(chain_report.sections, chain_report.sections[1:]):
            Bp, Bs = prev.lower.z_start, sec.lower.z_start
            jump = (prev.field.velocity(Bp.real, Bp.imag, 1.0)[2]
                    - sec.field.velocity(Bs.real, Bs.imag, 0.0)[2])
            assert abs(jump - (prev.field.w1 + prev.field.w2)) <= 8 * np.finfo(float).eps
            x, y = sec.residuals.grid.plane_nodes()
            dw = {c.name: c for c in sec.checks}["glue_dw"].value
            below, above = prev.field.velocity(x, y, 1.0), sec.field.velocity(x, y, 0.0)
            assert dw == np.max(np.abs(below[2] - above[2]))

    def test_chained_fields_do_not_grow(self, chain_report):
        # every field is the spline between its own two blades, however long
        # the chain: each plane is one blade's potential over that blade's map,
        # three terms and the circulation's log
        for sec in chain_report.sections:
            for plane, blade in ((sec.field.lower, sec.lower), (sec.field.upper, sec.upper)):
                assert plane is blade.potential and plane.map is blade.map
                assert (plane.series.low, len(plane.series.coefficients)) == (-1, 3)
                assert plane.log == blade.corr.dist.circulation_smooth / (2 * np.pi)

    def test_chained_residual_box_clears_the_evaluated_blades(self, chain_report):
        # the box clears the previous lower blade (trace_defect evaluates the
        # previous field), the shared blade and the section's own upper blade
        secs = chain_report.sections
        for prev, sec in zip(secs, secs[1:]):
            blades = [prev.lower.contour, sec.lower.contour, sec.upper.contour]
            grid = sec.residuals.grid
            assert grid == _residual_grid(blades)
            for blade in blades:
                assert blade.points[:, 0].max() < grid.x0

    def test_closed_form_residuals_are_identities(self, chain_report):
        # on an assembled field the closed-form figures are exact zeros, so
        # the FD agreement check reads the FD check's figure
        for sec in chain_report.sections:
            res = sec.residuals
            assert res.max_div == 0.0
            assert res.max_curl == (0.0, 0.0, 0.0)
            checks = {c.name: c for c in sec.checks}
            assert checks["residual_fd_agreement"].value == checks["residual_fd"].value

    def test_residual_fd_reports_the_gated_figure(self, chain_report):
        # the first section's FD check shows the figure it compares with the
        # tolerance: the worst of the FD divergence and the three FD curls
        sec = chain_report.sections[0]
        res = sec.residuals
        check = {c.name: c for c in sec.checks}["residual_fd"]
        assert check.value == max(res.fd_max_div, *res.fd_max_curl)
        assert check.passed is (check.value < check.tolerance)

    def test_w1_rule_sees_a_misanchored_field(self, chain_report):
        # the rule reads the new field's conj(z) coefficient against the w1
        # the shared blade was solved with; the same planes assembled with
        # w1 anchored at the previous value w(B, 1) no longer match it
        prev, sec = chain_report.sections[:2]
        rule = {c.name: c for c in sec.checks}["glue_w1_rule"]
        assert rule.value == abs(sec.field.absorbed - sec.lower.w1) == 0.0
        fld = sec.field
        misanchored = assembly.assemble(fld.lower, fld.upper, prev.field.w1 + prev.field.w2,
                                        fld.w2)
        assert abs(misanchored.absorbed - sec.lower.w1) > GLUE_TOL


def test_chain_onto_a_failed_section_is_refused():
    # at w1 = -50 or 50 the first section's blade solve fails, and neither
    # chained section has a lower blade to start from; the errors keep their order
    for w1 in (-50.0, 50.0):
        report = run_pipeline(_chain_config(c0_w1=w1))
        assert report.sections == []
        assert report.errors == [
            f"c0: transversal term w1={w1} destroys the branch structure",
            "c1: cannot chain onto a failed section",
            "c2: cannot chain onto a failed section",
        ]
        assert not report.passed


def _degree1_pair(d0_w1):
    sections = []
    for i, w1 in enumerate((d0_w1, 0.05)):
        lo_c, lo_b, up_c, up_b, _ = CHAIN[i]
        sections.append({"id": f"d{i}", "degree": 1, "w1": w1,
                         "lower": _distribution(lo_c, lo_b),
                         "upper": _distribution(up_c, up_b)})
    return parse_config_dict({"sections": sections,
                              "discretization": {"n_boundary": 64},
                              "positioning": {"method": "lsq"}})


def test_degree1_section_after_a_failed_one_still_runs():
    report = run_pipeline(_degree1_pair(50.0))
    assert report.errors == ["d0: transversal term w1=50.0 destroys the branch structure"]
    assert [s.section.id for s in report.sections] == ["d1"]
    assert report.sections[0].passed
    assert report.to_json()["sections"][0]["glue"] is None


def _degree1_triple(w1s):
    sections = [{"id": f"t{i}", "degree": 1, "w1": w1,
                 "lower": _distribution(lo_c, lo_b), "upper": _distribution(up_c, up_b)}
                for i, (w1, (lo_c, lo_b, up_c, up_b, _)) in enumerate(zip(w1s, CHAIN))]
    return parse_config_dict({"sections": sections, "discretization": {"n_boundary": 64},
                              "positioning": {"method": "lsq"}})


def test_blade_stage_isolates_a_failed_blade():
    # w1 = 50 destroys the middle section's branch structure; the batch fails,
    # each blade is solved alone, and only that section's blades hold the error
    cfg = _degree1_triple((0.05, 50.0, 0.1))
    stage = solve_blade_stage(cfg)
    message = "transversal term w1=50.0 destroys the branch structure"
    for i, (section, pair) in enumerate(zip(cfg.sections, stage)):
        for blade, d, w1 in zip(pair, (section.lower, section.upper),
                                (section.w1, section.w1 + 2.0 * section.w2)):
            if i == 1:
                assert isinstance(blade, inverse.InconsistentDistribution)
                assert str(blade) == message
            else:
                assert_same_blade(blade, solve_distribution(d, 64, w1=w1))
    report = run_pipeline(cfg)
    assert report.errors == [f"t1: {message}"]
    assert [s.section.id for s in report.sections] == ["t0", "t2"]
    assert all(s.passed for s in report.sections)


def test_blade_stage_leaves_chained_lower_blades_to_the_chain():
    # a chain of three has four blades: c0's two and the upper blades of c1 and
    # c2, whose lower blades are the section below's upper one
    stage = solve_blade_stage(_chain_config())
    assert [lower is None for lower, _ in stage] == [False, True, True]
    assert all(isinstance(upper, PlanarSolution) for _, upper in stage)


def test_parser_marks_chained_sections():
    assert [s.chained for s in _chain_config().sections] == [False, True, True]
    assert [s.chained for s in _degree1_pair(0.05).sections] == [False, False]


@pytest.mark.parametrize("degree, positioning", [
    (1, {"method": "lsq"}),
    (2, {"method": "lift", "box": [-0.5, -0.5, 0.5, 0.5], "partition": 32}),
])
def test_each_blade_computes_its_gauge_once(monkeypatch, degree, positioning):
    # the solve picks it, and the datum, map and potential all read that one
    calls = []
    gauge_angle = inverse.gauge_angle

    def counted(*args):
        calls.append(args)
        return gauge_angle(*args)

    monkeypatch.setattr(inverse, "gauge_angle", counted)
    lo_c, lo_b, up_c, up_b, w1 = CHAIN[0]
    cfg = parse_config_dict({
        "sections": [{"id": "g0", "degree": degree, "w1": w1,
                      **({"w2": 0.1} if degree == 2 else {}),
                      "lower": _distribution(lo_c, lo_b),
                      "upper": _distribution(up_c, up_b)}],
        "discretization": {"n_boundary": 64},
        "positioning": positioning})
    assert run_pipeline(cfg).passed
    assert len(calls) == 2


def test_chained_lift_reuses_the_shared_blades_node_speeds(monkeypatch):
    # a chain of three has four distinct blades; each chained section's lower
    # blade is the section below's upper one, whose node speeds are cached
    calls = []
    node_speeds = PlanarSolution.node_speeds.func

    def counted(sol):
        calls.append(sol)
        return node_speeds(sol)

    counting = functools.cached_property(counted)
    counting.__set_name__(PlanarSolution, "node_speeds")
    monkeypatch.setattr(PlanarSolution, "node_speeds", counting)
    report = run_pipeline(_chain_config(positioning={
        "method": "lift", "box": [-0.5, -0.5, 0.5, 0.5], "partition": 32}))
    assert not report.errors
    assert [s.shift.method for s in report.sections] == ["lift"] * 3
    assert len(calls) == 4
    assert len({id(sol) for sol in calls}) == 4


def test_first_section_datum_holds_with_w2():
    # a degree-2 first section solves the datum for w1 with its w2, so w over
    # the branch point at h_ref is w_ref
    lo_c, lo_b, up_c, up_b, _ = CHAIN[0]
    w_ref, h_ref = 0.05, 0.5
    cfg = parse_config_dict({
        "sections": [{"id": "d0", "degree": 2, "w2": 0.1,
                      "w1": {"from_transversal": {"w_ref": w_ref, "h_ref": h_ref}},
                      "lower": _distribution(lo_c, lo_b),
                      "upper": _distribution(up_c, up_b)}],
        "discretization": {"n_boundary": 64},
        "positioning": {"method": "lsq"}})
    report = run_pipeline(cfg)
    assert report.passed
    fld = report.sections[0].field
    B = report.sections[0].lower.z_start
    assert abs(float(fld.velocity(B.real, B.imag, h_ref)[2]) - w_ref) < 1e-12


def _degree1_section(n=256):
    # the first section of the benchmark's deg1_triple, at its full n = 256 by default
    lo_c, lo_b, up_c, up_b, w1 = CHAIN[0]
    cfg = parse_config_dict({
        "sections": [{"id": "t0", "degree": 1, "w1": w1,
                      "lower": _distribution(lo_c, lo_b),
                      "upper": _distribution(up_c, up_b)}],
        "discretization": {"n_boundary": n},
        "positioning": {"method": "lsq"}})
    return run_pipeline(cfg).sections[0]


@pytest.mark.parametrize("which", ["degree1", "c1", "c2"])
def test_fd_pass_matches_cold_velocity_differences(which, chain_report):
    # the FD figures of the report against cold velocity calls per section
    if which == "degree1":
        sec = _degree1_section()
    else:
        sec = {s.section.id: s for s in chain_report.sections}[which]
    res = sec.residuals
    fd_div, fd_curl = oracles.fd_residuals_by_velocity(sec.field, res.grid)
    assert abs(res.fd_max_div - fd_div) < 1e-11
    assert np.max(np.abs(np.subtract(res.fd_max_curl, fd_curl))) < 1e-11


@pytest.mark.parametrize("which", ["degree1", "c0", "c1", "c2"])
def test_planes_carry_no_flux_through_their_contours(which, chain_report):
    # each plane's flow is tangent to its blade, the map's image of the circle:
    # the normal part of f*z'(zeta)*i*zeta is roundoff against its size
    if which == "degree1":
        sec = _degree1_section()
    else:
        sec = {s.section.id: s for s in chain_report.sections}[which]
    zeta = np.exp(2j * np.pi * np.arange(sec.lower.n) / sec.lower.n)
    f_lo, f_up, _ = sec.field.planes(tuple((zeta, evaluate_series(blade.map.deriv, zeta))
                                           for blade in (sec.lower, sec.upper)))
    for f, blade in ((f_lo, sec.lower), (f_up, sec.upper)):
        fz = f * evaluate_series(blade.map.deriv, zeta)
        assert np.max(np.abs((-1j * fz * 1j * zeta).imag)) <= 1e-13 * np.max(np.abs(fz))


@pytest.mark.parametrize("n", [64, 256])
def test_lift_node_speeds_are_the_fields_speed(n):
    # the lift partitions |F'| of the plane the field assembles, at the
    # contour nodes found by inverting the map there; at w1 != 0 a second
    # projection of e^chi differs from it by 8.3e-4 (n 64) and 2.9e-5 (n 256)
    d = oracles.joukowski_flow(center=-0.08 + 0.05j, beta=0.1).distribution(2048, 2048)
    sol = solve_distribution(d, n, w1=0.1)
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    zeta, dz = sol.map.invert(sol.contour.points @ (1, 1j), start=circle)
    speed = np.abs(sol.potential.derivative(zeta, dz))
    assert np.max(np.abs(sol.node_speeds - speed)) <= 1e-12 * np.max(speed)


def test_degree1_section_inverts_each_map_twice(monkeypatch):
    # per map: the residual nodes once and the four FD shifts, stacked, once;
    # w needs no anchor, since both potentials vanish at the branch point
    calls = []
    invert = SeriesMap.invert

    def counted(self, *args, **kwargs):
        calls.append(self)
        return invert(self, *args, **kwargs)

    monkeypatch.setattr(SeriesMap, "invert", counted)
    sec = _degree1_section()
    assert len(calls) == 4
    assert calls.count(sec.lower.map) == calls.count(sec.upper.map) == 2


def test_residual_grid_sums_few_map_terms_and_circle_points_all(monkeypatch):
    # off the circle (min |zeta| ~3 on the residual grid) each map sums at
    # most 32 of its 512 powers of 1/zeta; on the circle every power whose
    # bound exceeds 2**-60 of the whole sum is kept
    sec = _degree1_section(1024)
    widths = []
    polynomial = planefield._polynomial

    def counted(c, x):
        widths.append(c.shape[-1])
        return polynomial(c, x)

    monkeypatch.setattr(planefield, "_polynomial", counted)
    assembly.field_residuals(sec.field, sec.residuals.grid)
    assert widths and max(widths) <= 32
    circle = np.exp(2j * np.pi * np.arange(sec.lower.n) / sec.lower.n)
    for blade in (sec.lower, sec.upper):
        smap = blade.map
        bounds = oracles.map_term_bounds(smap.series)
        assert bounds.shape[1] == 512
        widths.clear()
        z, dz = smap.values(circle)
        kept = widths[0]
        whole = bounds.sum(axis=1) + (bounds[1, 0], 0.0)
        assert np.all(bounds[:, kept:].T <= 2.0 ** -60 * whole)
        assert np.max(np.abs(z - evaluate_series(smap.series, circle))) <= 1e-13 * whole[0]
        assert np.max(np.abs(dz - evaluate_series(smap.deriv, circle))) <= 1e-13 * whole[1]


def test_lift_overflow_fails_the_section():
    # lift bounds over a box near the float range overflow; carried on as NaN
    # they pruned every cell and certified the origin as the maximum
    lo_c, lo_b, up_c, up_b, w1 = CHAIN[0]
    cfg = parse_config_dict({
        "sections": [{"id": "s0", "degree": 2, "w1": w1, "w2": 0.1,
                      "lower": _distribution(lo_c, lo_b),
                      "upper": _distribution(up_c, up_b)}],
        "discretization": {"n_boundary": 64},
        "positioning": {"method": "lift", "box": [-1e308, -1e308, 1e308, 1e308],
                        "partition": 32}})
    report = run_pipeline(cfg)
    assert report.sections == []
    assert len(report.errors) == 1
    assert report.errors[0].startswith("s0: lift positioning: overflow")
    assert not report.passed


@pytest.mark.parametrize("speed, length, v_inf, message", [
    # the data's potential range underflows against the canonical one
    (1e-150, 1.0, 1e300, "divide by zero encountered in log"),
    # the blade's dz/dzeta = exp(-chi) leaves the float range
    (1e-20, 1e20, 1e300, "overflow encountered in exp"),
], ids=["log", "exp"])
def test_floating_point_fault_fails_its_section(speed, length, v_inf, message):
    # a scaled lower blade used to warn on stderr and fail later with a
    # misleading message (non-finite boundary samples, an unconverged NaN
    # closure); the first overflow or zero division is now the section's error
    d = oracles.joukowski_flow().distribution(64, 64).to_json()
    lower = dict(d, samples=[[s * length, v * speed] for s, v in d["samples"]],
                 total_length=d["total_length"] * length, v_inf=d["v_inf"] * v_inf)
    cfg = parse_config_dict({"sections": [{"id": "s0", "degree": 1, "lower": lower,
                                           "upper": d}],
                             "discretization": {"n_boundary": 64}})
    report = run_pipeline(cfg)
    assert report.sections == []
    assert report.errors == [f"s0: {message}"]
