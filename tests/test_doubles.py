"""Doubles: Hopf/ribbon axioms, sector structure, groupoid simple counts."""

from fractions import Fraction

import pytest
from sparse_oracle import SparseProducts

from equidouble.doubles import double_algebra, sector_double
from equidouble.errors import UsageError
from equidouble.groupoids import simple_objects
from equidouble.groups import action_via_hom, cyclic_group, extension_from_subgroup, symmetric_group
from equidouble.hopf import (
    TableHopf,
    sparse_eq,
    verify_hopf,
    verify_quasitriangular,
    verify_ribbon,
)


def a3_in_s3_extension():
    s3 = symmetric_group(3)
    a = next(x for x in range(6) if s3.element_order(x) == 3)
    return extension_from_subgroup(s3, s3.closure([a]), name="A3-S3")


def test_double_z2_full_axioms():
    d = double_algebra(cyclic_group(2))
    assert d.hopf.dim == 4
    assert verify_hopf(d.hopf).all_passed
    rd = d.ribbon_data()
    assert verify_quasitriangular(rd).all_passed
    assert verify_ribbon(rd).all_passed


def test_double_z2_pinned_products():
    d = double_algebra(cyclic_group(2))
    i = d.index
    one = Fraction(1)
    # (delta_1 x g)(delta_1 x g) = delta_1 x g^2 = delta_1 x 1
    assert d.hopf.mul_basis(i(1, 1), i(1, 1)) == {i(1, 0): one}
    # mismatched delta labels kill the product
    assert d.hopf.mul_basis(i(1, 1), i(0, 1)) == {}
    # coproduct of delta_1 x g: factorizations of 1 over Z2 are (0,1),(1,0)
    assert d.hopf.comul_basis(i(1, 1)) == {
        (i(0, 1), i(1, 1)): one,
        (i(1, 1), i(0, 1)): one,
    }
    assert d.hopf.counit_basis(i(0, 1)) == one
    assert d.hopf.counit_basis(i(1, 1)) == 0


def test_double_s3_full_axioms():
    d = double_algebra(symmetric_group(3))
    assert d.hopf.dim == 36
    assert verify_hopf(d.hopf).all_passed
    rd = d.ribbon_data()
    assert verify_quasitriangular(rd).all_passed
    assert verify_ribbon(rd).all_passed


def test_hopf_table_rejects_a_counit_of_the_wrong_length():
    one = Fraction(1)
    with pytest.raises(UsageError, match="needs 2 counit values, got 1"):
        TableHopf(2, {0: one}, {(0, 0): {0: one}}, {}, [one], {})


def test_double_antipode_is_involutive():
    d = double_algebra(symmetric_group(3))
    for i in range(d.hopf.dim):
        once = d.hopf.antipode_basis(i)
        twice = d.hopf.antipode_vec(once)
        assert sparse_eq(twice, {i: Fraction(1)})


def test_sampled_mode_reports_sampled():
    d = double_algebra(cyclic_group(2))
    rep = verify_hopf(d.hopf, sampled=True)
    assert rep.mode == "sampled"
    assert rep.all_passed
    assert verify_hopf(d.hopf).mode == "full"


def test_sector_double_a3_s3_structure():
    sd = sector_double(a3_in_s3_extension())
    assert sd.hopf.dim == 18
    assert sd.ext.H.order == 6 and sd.n_g == 3
    # sectors are ideals: cross-sector basis products vanish
    for a in range(18):
        for b in range(18):
            if sd.sector_of(a) != sd.sector_of(b):
                assert sd.hopf.mul_basis(a, b) == {}
    # coproduct respects the grading: sectors multiply
    j_of = sd.sector_of
    jgrp = sd.ext.J
    for a in range(18):
        for (x, y) in sd.hopf.comul_basis(a):
            assert jgrp.table[j_of(x)][j_of(y)] == j_of(a)


def test_sector_double_is_hopf():
    sd = sector_double(a3_in_s3_extension())
    assert verify_hopf(sd.hopf).all_passed


def test_phi_are_algebra_automorphisms():
    sd = sector_double(a3_in_s3_extension())
    h = sd.hopf
    nj = sd.ext.J.order
    for j in range(nj):
        perm = sd.phi[j]
        for a in range(h.dim):
            for b in range(h.dim):
                mapped = {perm[k]: c for k, c in h.mul_basis(a, b).items()}
                direct = h.mul_basis(perm[a], perm[b])
                assert mapped == direct, (j, a, b)


def test_phi_composition_twisted_by_coherence():
    sd = sector_double(a3_in_s3_extension())
    h = sd.hopf
    products = SparseProducts(h)
    jgrp = sd.ext.J
    for i in range(jgrp.order):
        for j in range(jgrp.order):
            ij = jgrp.table[i][j]
            c = sd.coherence[(i, j)]
            cinv = sd.coherence_inv[(i, j)]
            for a in range(h.dim):
                lhs = {sd.phi[i][sd.phi[j][a]]: Fraction(1)}
                rhs = products.mul_vec(products.mul_vec(c, {sd.phi[ij][a]: Fraction(1)}), cinv)
                assert sparse_eq(lhs, rhs), (i, j, a)


def test_global_ribbon_requires_trivial_sectors():
    sd = sector_double(a3_in_s3_extension())
    with pytest.raises(UsageError):
        sd.ribbon_data()


def test_conjugation_groupoid_simple_counts():
    d = double_algebra(symmetric_group(3))
    simples = simple_objects(action_via_hom(d.ext.H, d.ext.G, d.ext.incl.images))
    assert len(simples) == 8
    assert sum(s.total_dim ** 2 for s in simples) == 36

    sd = sector_double(a3_in_s3_extension())
    simples = simple_objects(action_via_hom(sd.ext.H, sd.ext.G, sd.ext.incl.images))
    assert len(simples) == 10
    assert sum(s.total_dim ** 2 for s in simples) == 18
    dims = sorted(s.total_dim for s in simples)
    assert dims == [1] * 9 + [3]
