"""End-to-end pipeline runs on oracle data: a chain of degree-2 sections."""

import dataclasses

import numpy as np
import pytest

import oracles
from bladekit import assembly
from bladekit.config import parse_config_dict
from bladekit.pipeline import GLUE_TOL, _residual_grid, run_pipeline

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


@pytest.fixture(scope="module")
def chain_report():
    sections = []
    for i, (lo_c, lo_b, up_c, up_b, w1) in enumerate(CHAIN):
        sections.append({"id": f"c{i}", "degree": 2, "w1": w1,
                         "lower": _distribution(lo_c, lo_b),
                         "upper": _distribution(up_c, up_b)})
    sections[0]["w2"] = 0.1
    cfg = parse_config_dict({"sections": sections,
                             "discretization": {"n_boundary": 64},
                             "positioning": {"method": "lsq"}})
    return run_pipeline(cfg)


class TestDegree2Chain:
    def test_chain_passes(self, chain_report):
        assert chain_report.errors == []
        assert [s.id for s in chain_report.sections] == ["c0", "c1", "c2"]
        assert chain_report.passed

    def test_chained_sections_carry_glue_checks(self, chain_report):
        for sec in chain_report.sections[1:]:
            checks = {c.name: c for c in sec.checks}
            for name in ("glue_du", "glue_dv", "glue_w1_rule"):
                assert checks[name].passed is True
            assert checks["glue_du"].value < GLUE_TOL
            assert checks["glue_dv"].value < GLUE_TOL
            assert sec.glue_info["extra_div"] == sec.field.extra_div

    def test_shared_blade_is_one_solve(self, chain_report):
        secs = chain_report.sections
        for prev, sec in zip(secs, secs[1:]):
            assert sec.lower is prev.upper

    def test_in_plane_shift_accumulates(self, chain_report):
        c0, c1, c2 = chain_report.sections
        assert c1.field.extra_div == c0.field.w2
        assert c2.field.extra_div == c1.field.extra_div + c1.field.w2
        # the shift is the chained section's constant continuity defect
        for sec in (c1, c2):
            glued = {c.name: c for c in sec.checks}["residual_analytic_glued"]
            assert abs(glued.value - abs(sec.field.extra_div)) < 1e-8

    def test_zero_shift_breaks_the_glue(self, chain_report):
        # negative control: the same chained section assembled without its
        # in-plane shift no longer continues the section below it
        prev, sec = chain_report.sections[:2]
        assert sec.field.extra_div != 0.0
        fld = sec.field
        unshifted = assembly.assemble(fld.lower, fld.upper, fld.w1, fld.branch_point,
                                      fld.w2, extra_div=0.0)
        du, dv = assembly.trace_defect(prev.field, unshifted, sec.residuals.grid)
        assert max(du, dv) > GLUE_TOL

    def test_chained_fields_do_not_grow(self, chain_report):
        # every field is the spline between its own two blades, however long
        # the chain: each plane is one blade's completion over that blade's map
        for sec in chain_report.sections:
            for plane, blade in ((sec.field.lower, sec.lower), (sec.field.upper, sec.upper)):
                assert plane.map is blade.map and plane.log == 0.0
                assert np.array_equal(plane.series.coefficients,
                                      (blade.velocity_series * 1j).coefficients)

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

    def test_residual_fd_reports_the_gated_figure(self, chain_report):
        # the first section's FD check shows the figure it compares with the
        # tolerance: the worst of the FD divergence and the three FD curls
        sec = chain_report.sections[0]
        res = sec.residuals
        check = {c.name: c for c in sec.checks}["residual_fd"]
        assert check.value == max(res.fd_max_div, *res.fd_max_curl)
        assert check.passed is (check.value < check.tolerance)

    def test_w1_rule_sees_a_misanchored_field(self, chain_report):
        # the rule reads w of the previous field over its branch point; the
        # same field with w0 anchored elsewhere no longer matches the new w1
        prev, sec = chain_report.sections[:2]
        rule = {c.name: c for c in sec.checks}["glue_w1_rule"]
        assert rule.value == assembly.w1_rule_defect(prev.field, sec.w1) == 0.0
        B = prev.field.branch_point
        offset = float(prev.field.w(B.x + 0.5, B.y, 0.0))
        misanchored = dataclasses.replace(prev.field, w0_anchor=prev.field.w0_anchor + offset)
        assert assembly.w1_rule_defect(misanchored, sec.w1) > GLUE_TOL


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
    B = fld.branch_point
    assert abs(float(fld.w(B.x, B.y, h_ref)) - w_ref) < 1e-12
