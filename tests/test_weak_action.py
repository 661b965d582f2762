"""The weak action an extension carries (rho, c and the sector untwist):
where it is derived, sector groups that are not abelian, and corruptions of
each table that the suites must catch."""

import ast
import copy
import pathlib

import pytest
from helpers import is_abelian, replaced

import equidouble
from equidouble.catalogue import extension_by_name, extension_names
from equidouble.doubles import double_algebra, sector_double
from equidouble.groups import (
    FiniteGroup,
    dihedral_group,
    extension_from_subgroup,
    extension_to_weak_action,
    symmetric_group,
)
from equidouble.hopf import verify_hopf, verify_quasitriangular, verify_ribbon
from equidouble.modular import check_equivariant_diagrams, simples_of_double
from equidouble.orbifold import orbifold_algebra, orbifold_ribbon, psi_check, verify_sector_double


def z1_in_s3():
    """G trivial, J = S3: the crossed product has dimension 36."""
    return extension_from_subgroup(symmetric_group(3), [0], name="Z1-S3")


def z2_in_d6():
    """The centre of the dihedral group of order 12, J = D6/Z2 = S3."""
    d6 = dihedral_group(6)
    centre = [z for z in range(d6.order) if len(d6.centralizer(z)) == d6.order]
    return extension_from_subgroup(d6, centre, name="Z2-D6")


def first_middle_last(ext):
    simples = simples_of_double(ext)
    return [simples[0], simples[len(simples) // 2], simples[-1]]


def test_only_groups_reads_the_section_back_into_g():
    """rho, c and the untwist are derived once, by GroupExtension: outside
    groups.py no function both reads `.section` and maps an H-element back
    into G with g_of."""
    root = pathlib.Path(equidouble.__file__).parent
    paths = sorted(p for p in root.rglob("*.py") if p.name != "groups.py")
    assert len(paths) >= 13
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            attrs = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
            names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            if "section" in attrs and "g_of" in attrs | names:
                found.append((path.name, fn.name))
    assert found == []


@pytest.mark.parametrize("name", extension_names())
def test_tables_are_the_section_identities_in_h(name):
    ext = extension_by_name(name)
    H, J, s, incl = ext.H, ext.J, ext.section, ext.incl
    for j in range(J.order):
        assert [incl(x) for x in ext.rho[j]] == [H.conj(s[j], incl(g)) for g in range(ext.G.order)]
        for i in range(J.order):
            assert incl(ext.c[i][j]) == H.mul(H.mul(s[i], s[j]), H.inv[s[J.mul(i, j)]])
    assert [incl(u) for u in ext.untwist] == [H.mul(s[J.inv[ext.proj(h)]], h) for h in range(H.order)]
    wa = extension_to_weak_action(ext)
    assert tuple(r.images for r in wa.rho) == ext.rho and wa.c == ext.c


@pytest.mark.parametrize("build", [z1_in_s3, z2_in_d6])
def test_nonabelian_sector_groups_pass_every_suite(build):
    ext = build()
    assert not is_abelian(ext.J)
    sd = sector_double(ext)
    sector = verify_sector_double(sd)
    assert sector.all_passed and sector.mode == "full", sector.failing()
    psi = psi_check(sd, sector.built, double_algebra(ext.H))
    assert psi.all_passed, psi.witnesses
    sample = None if ext.G.order == 1 else first_middle_last(ext)
    diagrams = check_equivariant_diagrams(ext, sample, sd)
    assert diagrams.all_passed, diagrams.failures[:5]
    assert diagrams.counts["action-braiding"] == 6 * len(sample or simples_of_double(ext)) ** 2


def transposed(c):
    return tuple(zip(*c))


def test_transposed_coherence_fails_the_cocycle_and_psi():
    """Z2-D6's c is not symmetric, so its transpose is another table."""
    ext = z2_in_d6()
    assert (ext.c[1][2], ext.c[2][1]) == (1, 0)
    ext.c = transposed(ext.c)
    sd = sector_double(ext)
    sector = verify_sector_double(sd)
    assert sector.witnesses["coherence-cocycle"] == (1, 2, 2)
    psi = psi_check(sd, sector.built, double_algebra(ext.H))
    assert psi.failing() == ["product"] and psi.witnesses["product"] == (1, 2)


def test_transposed_coherence_in_the_compositor_fails_diagrams():
    """The compositor reads c with its arguments swapped: a wrong order of
    composition, which only a nonabelian J shows."""
    ext = z2_in_d6()
    sd = sector_double(ext)
    ext.c = transposed(ext.c)
    failed = {name for name, _ in check_equivariant_diagrams(ext, first_middle_last(ext), sd).failures}
    assert {"hexagon-two", "action-braiding", "twist-product", "twist-action"} <= failed


def test_flipped_untwist_fails_the_r_matrix_comparison():
    ext = z2_in_d6()
    sd = sector_double(ext)
    sample = first_middle_last(ext)
    assert 11 in sample[-1].grades
    untwist = list(ext.untwist)
    untwist[11] = ext.G.mul(1, untwist[11])  # G = Z2: the other element
    ext.untwist = tuple(untwist)
    failed = {name for name, _ in check_equivariant_diagrams(ext, sample, sd).failures}
    assert "braid-equals-r-action" in failed


def test_swapped_automorphisms_fail_phi_hopf_map():
    ext = extension_by_name("V4-A4")
    ext.rho = (ext.rho[0], ext.rho[2], ext.rho[1])
    sector = verify_sector_double(sector_double(ext))
    assert sector.witnesses["phi-hopf-map"] == (1, 5)


@pytest.mark.parametrize(
    "build, associativity",
    [(z1_in_s3, (7, 8, 12)), (z2_in_d6, (1, 2, 2))],
)
def test_crossed_product_over_the_opposite_sector_group_fails_named_checks(build, associativity):
    """The crossed product built over J^op, J with its table transposed, is
    orbifold_algebra with ij swapped for ji: a wrong order of composition,
    which only a nonabelian J shows."""
    ext = build()
    sd = sector_double(ext)
    opposite = copy.copy(ext)
    opposite.J = FiniteGroup(transposed(ext.J.table))
    ohat = orbifold_algebra(replaced(sd, ext=opposite))
    hopf = verify_hopf(ohat)
    assert hopf.failing() == ["associativity"] and hopf.witnesses["associativity"] == associativity
    rib = orbifold_ribbon(sd, ohat)
    assert verify_quasitriangular(rib).failing() == ["r_intertwines_coproducts", "hexagon_coproduct_left"]
    assert verify_ribbon(rib).failing() == ["ribbon_central", "ribbon_coproduct"]
    psi = psi_check(sd, rib, double_algebra(ext.H))
    assert psi.failing() == ["product"] and psi.witnesses["product"] == (1, 2)
