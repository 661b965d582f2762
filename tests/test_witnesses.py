"""Axiom-suite witnesses: a failed check names the first tuple it fails on,
and that tuple alone reproduces the failure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidouble.catalogue import group_by_name
from equidouble.doubles import double_algebra
from equidouble.hopf import (
    VerifyReport,
    first_failure,
    hopf_checks,
    ribbon_checks,
    verify_hopf,
    verify_quasitriangular,
    verify_ribbon,
)

TABLES = ("_mul", "_comul", "_antipode")


@st.composite
def corrupted_doubles(draw):
    """D(G) for G in Z2, Z3, S3 with one structure constant of its product,
    coproduct or antipode table replaced by a different value."""
    hopf = double_algebra(group_by_name(draw(st.sampled_from(("Z2", "Z3", "S3"))))).hopf
    table = getattr(hopf, draw(st.sampled_from(TABLES)))
    key = draw(st.sampled_from(sorted(k for k, v in table.items() if v)))
    entry = draw(st.sampled_from(sorted(table[key])))
    old = table[key][entry]
    new = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(lambda x: x != old))
    table[key][entry] = new
    return hopf


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(corrupted_doubles())
def test_corrupted_double_fails_and_each_witness_reproduces_the_failure(hopf):
    report = verify_hopf(hopf)
    assert not report.all_passed
    assert set(report.witnesses) == set(report.failing())
    checks = hopf_checks(hopf)
    for name, witness in report.witnesses.items():
        arity, holds = checks[name]
        assert len(witness) == arity
        assert not holds(*witness), (name, witness)


@pytest.mark.parametrize("name", ["Z2", "Z3", "S3"])
def test_uncorrupted_suites_have_no_witnesses(name):
    d = double_algebra(group_by_name(name))
    rib = d.ribbon_data()
    for report in (verify_hopf(d.hopf), verify_quasitriangular(rib), verify_ribbon(rib)):
        assert report.all_passed and report.witnesses == {}


def test_check_loop_stops_at_the_first_failure_and_skips_later_parts():
    seen = []

    def holds(i, j):
        seen.append((i, j))
        return i + j < 3

    assert first_failure([(0, 1), (1, 2), (2, 2)], holds) == (1, 2)
    assert seen == [(0, 1), (1, 2)]
    assert first_failure([], holds) is None

    rep = VerifyReport(mode="full")
    rep.check("c", [(0,), (5,)], lambda x: x < 3)
    rep.check("c", [(1,)], lambda x: pytest.fail("a later part ran after a failure"))
    rep.check("d", [()], lambda: True)
    assert rep.checks == {"c": False, "d": True}
    assert rep.witnesses == {"c": (5,)}
    assert not rep.all_passed and rep.failing() == ["c"]

    outer = VerifyReport(mode="full")
    outer.include("suite", rep)
    assert outer.checks == {"suite": False}
    assert outer.witnesses == {"suite": ("c", 5)}


def test_corrupted_ribbon_element_is_witnessed():
    d = double_algebra(group_by_name("Z4"))
    rib = d.ribbon_data()
    key = next(iter(rib.ribbon))
    rib.ribbon[key] = -rib.ribbon[key]
    report = verify_ribbon(rib)
    assert not report.all_passed
    assert set(report.witnesses) == set(report.failing())
    checks = ribbon_checks(rib)
    for name, witness in report.witnesses.items():
        assert not checks[name][1](*witness), (name, witness)
