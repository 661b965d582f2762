"""Groups, extensions, weak actions: constructions plus round-trip laws."""

import pytest
from helpers import is_abelian

from equidouble.errors import NonInvertibleError, UsageError
from equidouble.groups import (
    ConjugacyData,
    FiniteGroup,
    GroupExtension,
    GroupHom,
    WeakAction,
    WeakActionIso,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    extension_from_subgroup,
    extension_to_weak_action,
    find_isomorphism,
    group_from_permutations,
    quaternion_group,
    symmetric_group,
    weak_action_to_extension,
    weak_actions_isomorphic,
)


def test_cyclic_basics():
    z6 = cyclic_group(6)
    assert z6.order == 6
    assert z6.mul(4, 5) == 3
    assert z6.inv[2] == 4
    assert z6.element_order(2) == 3
    assert is_abelian(z6)
    assert z6.exponent() == 6


def test_table_validation_rejects_bad_identity():
    with pytest.raises(UsageError):
        FiniteGroup([[1, 0], [0, 1]])


def test_table_validation_rejects_non_associative():
    # latin square with identity that is not a group (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(UsageError):
        FiniteGroup(table)


def test_symmetric_group_s3():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert not is_abelian(s3)
    cd = s3.conjugacy()
    sizes = sorted(len(c) for c in cd.classes)
    assert sizes == [1, 2, 3]
    cent_orders = sorted(len(c) for c in cd.centralizers)
    assert cent_orders == [2, 3, 6]
    # identity class comes first
    assert cd.classes[0] == (0,)


def test_quaternion_group_classes():
    q8 = quaternion_group()
    assert q8.order == 8
    cd = q8.conjugacy()
    assert len(cd.classes) == 5
    assert sorted(len(c) for c in cd.classes) == [1, 1, 2, 2, 2]
    assert q8.exponent() == 4


def test_dihedral_group_d4():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert len(d4.conjugacy().classes) == 5
    assert not is_abelian(d4)
    # D4 and Q8 are not isomorphic (element order multisets differ)
    assert find_isomorphism(d4, quaternion_group()) is None


def test_s4_and_a4():
    s4 = symmetric_group(4)
    assert s4.order == 24
    assert len(s4.conjugacy().classes) == 5
    a4 = alternating_group(4)
    assert a4.order == 12
    assert len(a4.conjugacy().classes) == 4


def test_direct_product_and_isomorphism():
    z2z3 = direct_product(cyclic_group(2), cyclic_group(3))
    z6 = cyclic_group(6)
    images = find_isomorphism(z2z3, z6)
    assert images is not None
    GroupHom(z2z3, z6, images)  # validates the homomorphism property
    assert sorted(images) == list(range(6))
    z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
    assert find_isomorphism(z2z2, cyclic_group(4)) is None


def test_closure_and_subgroup():
    s4 = symmetric_group(4)
    gens = s4.generating_set()
    assert s4.closure(gens) == tuple(range(24))
    # pick an order-3 element; closure is a Z3
    a = next(x for x in range(24) if s4.element_order(x) == 3)
    elems = s4.closure([a])
    sub, embed = s4.subgroup(elems)
    assert sub.order == 3
    assert find_isomorphism(sub, cyclic_group(3)) is not None
    assert embed == elems


def test_group_hom_validation():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    h = GroupHom(z4, z2, [0, 1, 0, 1])
    assert h.kernel() == (0, 2)
    assert h.is_surjective() and not h.is_injective()
    with pytest.raises(UsageError):
        GroupHom(z4, z2, [0, 1, 1, 0])


def test_extension_split_s3():
    """A3 inside S3 with a section landing in a complement: all c = 1."""
    s3 = symmetric_group(3)
    a = next(x for x in range(6) if s3.element_order(x) == 3)
    kernel = s3.closure([a])
    ext = extension_from_subgroup(s3, kernel)
    assert ext.G.order == 3 and ext.J.order == 2
    # replace default section by one through an order-2 element (a complement)
    t = next(x for x in range(6) if s3.element_order(x) == 2)
    ext2 = extension_from_subgroup(s3, kernel, section=[0, t])
    wa = extension_to_weak_action(ext2)
    for i in range(2):
        for j in range(2):
            assert wa.c[i][j] == 0
    # the nontrivial rho inverts the kernel
    assert wa.rho[1](1) == ext2.G.inv[1]


def test_extension_z2_in_z4_coherence():
    """Z2 inside Z4: c_{j,j} is the nontrivial kernel element for j != 1."""
    z4 = cyclic_group(4)
    ext = extension_from_subgroup(z4, [0, 2])
    wa = extension_to_weak_action(ext)
    assert wa.G.order == 2 and wa.J.order == 2
    assert wa.c[0][0] == 0 and wa.c[0][1] == 0 and wa.c[1][0] == 0
    assert wa.c[1][1] == 1  # s(1)^2 = 2 in Z4, the nontrivial kernel element


def test_round_trip_weak_action_extension():
    s3 = symmetric_group(3)
    a = next(x for x in range(6) if s3.element_order(x) == 3)
    ext = extension_from_subgroup(s3, s3.closure([a]))
    wa = extension_to_weak_action(ext)
    ext2 = weak_action_to_extension(wa)
    assert find_isomorphism(ext2.H, s3) is not None
    wa2 = extension_to_weak_action(ext2)
    witness = weak_actions_isomorphic(wa, wa2)
    assert witness is not None
    assert witness.verify(wa, wa2)


def test_strict_inversion_action_builds_s3():
    """Z2 acting on Z3 by inversion with trivial c gives a group iso to S3."""
    z3 = cyclic_group(3)
    z2 = cyclic_group(2)
    ident = GroupHom(z3, z3, [0, 1, 2])
    invert = GroupHom(z3, z3, [0, 2, 1])
    wa = WeakAction(z2, z3, [ident, invert], [[0, 0], [0, 0]])
    ext = weak_action_to_extension(wa)
    assert ext.H.order == 6
    assert find_isomorphism(ext.H, symmetric_group(3)) is not None
    # identity element of H is (0,0) at index 0 and the section is normalized
    assert ext.section[0] == 0


def test_weak_action_validation_rejects_bad_cocycle():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    ident = GroupHom(z4, z4, [0, 1, 2, 3])
    # trivial rho on abelian G satisfies the Inn condition for any c, but
    # c[1][j] = 1 with everything else trivial breaks the coherence cocycle
    with pytest.raises(UsageError):
        WeakAction(z2, z4, [ident, ident], [[0, 1], [0, 0]])
    # while the genuine Z8-building coherence data passes
    WeakAction(z2, z4, [ident, ident], [[0, 0], [0, 1]])


def test_weak_actions_isomorphic_negative():
    """Z2xZ2 vs Z4 as extensions of Z2 by Z2: not isomorphic weak actions."""
    z4 = cyclic_group(4)
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    wa_z4 = extension_to_weak_action(extension_from_subgroup(z4, [0, 2]))
    wa_v4 = extension_to_weak_action(extension_from_subgroup(v4, [0, 1]))
    assert weak_actions_isomorphic(wa_z4, wa_v4) is None


def test_weak_action_iso_depends_on_section_choice_only():
    """Two sections of the same extension give isomorphic weak actions."""
    z4 = cyclic_group(4)
    ext_a = extension_from_subgroup(z4, [0, 2])  # default section s(1) = 1
    ext_b = extension_from_subgroup(z4, [0, 2], section=[0, 3])
    wa_a = extension_to_weak_action(ext_a)
    wa_b = extension_to_weak_action(ext_b)
    witness = weak_actions_isomorphic(wa_a, wa_b)
    assert witness is not None and witness.verify(wa_a, wa_b)


def test_conjugacy_data_is_a_record_with_consistent_fields():
    g = dihedral_group(3)
    cd = g.conjugacy()
    assert isinstance(cd, ConjugacyData)
    for i, cls in enumerate(cd.classes):
        for x in cls:
            assert cd.class_of[x] == i
        assert cd.representatives[i] == cls[0]
    assert sum(len(c) for c in cd.classes) == g.order


def test_normality_check():
    s3 = symmetric_group(3)
    a = next(x for x in range(6) if s3.element_order(x) == 3)
    t = next(x for x in range(6) if s3.element_order(x) == 2)
    assert s3.is_normal(s3.closure([a]))
    assert not s3.is_normal(s3.closure([t]))
    with pytest.raises(UsageError):
        extension_from_subgroup(s3, s3.closure([t]))


def _swapped_maps_extension():
    ext = extension_from_subgroup(cyclic_group(4), [0, 2])
    return GroupExtension(ext.G, ext.H, ext.J, ext.proj, ext.incl, ext.section)


def _short_weak_action():
    wa = extension_to_weak_action(extension_from_subgroup(cyclic_group(4), [0, 2]))
    return WeakAction(wa.J, wa.G, wa.rho[:1], wa.c)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: symmetric_group(3).subgroup([1]), "identity"),
        (lambda: symmetric_group(3).subgroup([]), "identity"),
        (lambda: symmetric_group(3).subgroup([0, 6]), "element indices"),
        (lambda: symmetric_group(3).subgroup([0, 1, 2]), "not closed"),
        (lambda: GroupHom(cyclic_group(2), cyclic_group(4), [0]), "needs 2 images"),
        (_swapped_maps_extension, "inclusion"),
        (lambda: extension_from_subgroup(cyclic_group(4), [0, 2]).g_of(1), "not in the image"),
        (_short_weak_action, "automorphisms and coherence rows"),
        (lambda: group_from_permutations([]), "at least one permutation"),
        (lambda: symmetric_group(6), "degrees 1..5"),
        (lambda: symmetric_group(0), "degrees 1..5"),
        (lambda: alternating_group(2), "degrees 3..5"),
        (lambda: alternating_group(6), "degrees 3..5"),
        (lambda: dihedral_group(1), "n >= 2"),
    ],
)
def test_malformed_group_arguments_are_usage_errors(build, message):
    with pytest.raises(UsageError, match=message):
        build()


def test_permutation_labels_stay_distinct_past_one_digit_points():
    """(2 11) and (1 11 2) on 12 points both read 01113456789102 with their
    images run together; the labels must tell them apart."""
    swap = (0, 1, 11, 3, 4, 5, 6, 7, 8, 9, 10, 2)
    cycle = (0, 11, 1, 3, 4, 5, 6, 7, 8, 9, 10, 2)
    g = group_from_permutations([swap, cycle])
    assert g.order == 6 and len(set(g.labels)) == 6
    assert symmetric_group(3).labels == ("012", "021", "102", "120", "201", "210")


def test_failed_class_equation_is_a_certification_error():
    s3 = symmetric_group(3)
    s3.centralizer = lambda a: (0,)
    with pytest.raises(NonInvertibleError, match="class equation"):
        s3.conjugacy()
