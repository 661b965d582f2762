"""Homomorphism counting, surface state spaces, twisted sectors, Cech classes."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidouble import dw
from equidouble.catalogue import catalogue_list, group_by_name, group_names, load_extension
from equidouble.chartable import character_table
from equidouble.dw import (
    DEFAULT_BUDGET,
    CechClasses,
    CoverNerve,
    Presentation,
    TwistHom,
    circle_nerve,
    count_homs,
    dw_invariant,
    evaluate_word,
    hom_groupoid,
    homomorphisms,
    presentation_by_name,
    surface_presentation,
    surface_state_dim,
    twisted_bundle_groupoid,
    twisted_cech_h1,
)
from equidouble.errors import ResourceError, UsageError
from equidouble.groups import (
    GroupAction,
    cyclic_group,
    dihedral_group,
    extension_from_subgroup,
    extension_to_weak_action,
    groupoid_cardinality,
    quaternion_group,
    symmetric_group,
)


def a3_in_s3():
    s3 = symmetric_group(3)
    a3 = [g for g in range(6) if s3.element_order(g) != 2]
    return extension_from_subgroup(s3, a3, name="A3-S3")


def z2_in_z4():
    z4 = cyclic_group(4)
    return extension_from_subgroup(z4, [0, 2], name="Z2-Z4")


def test_presentation_validation():
    Presentation(2, ((1, 2, -1, -2),))
    with pytest.raises(UsageError):
        Presentation(-1, ())
    with pytest.raises(UsageError):
        Presentation(1, ((2,),))
    with pytest.raises(UsageError):
        Presentation(1, ((0,),))


def test_evaluate_word_commutator():
    s3 = symmetric_group(3)
    r = next(g for g in range(6) if s3.element_order(g) == 3)
    f = next(g for g in range(6) if s3.element_order(g) == 2)
    comm = s3.mul(s3.mul(r, f), s3.mul(s3.inv[r], s3.inv[f]))
    assert evaluate_word(s3, (r, f), (1, 2, -1, -2)) == comm
    assert evaluate_word(s3, (r,), (1, -1)) == 0
    assert evaluate_word(s3, (), ()) == 0


def test_point_presentation_counts_one_hom():
    for grp in (symmetric_group(3), cyclic_group(4), quaternion_group()):
        pres = presentation_by_name("S3sphere")
        assert count_homs(pres, grp) == 1
        assert dw_invariant(pres, grp) == Fraction(1, grp.order)


def test_free_rank_one_counts_group_order():
    pres = presentation_by_name("S2xS1")
    for grp in (symmetric_group(3), dihedral_group(4), cyclic_group(6)):
        assert count_homs(pres, grp) == grp.order
        assert dw_invariant(pres, grp) == 1


def test_torus_counts_commuting_pairs_bruteforce():
    pres = presentation_by_name("T2")
    for grp in (symmetric_group(3), quaternion_group()):
        oracle = sum(
            1
            for a in range(grp.order)
            for b in range(grp.order)
            if grp.mul(a, b) == grp.mul(b, a)
        )
        assert count_homs(pres, grp) == oracle


def test_three_torus_counts_commuting_triples_bruteforce():
    pres = presentation_by_name("T3")
    s3 = symmetric_group(3)
    oracle = 0
    for a, b, c in itertools.product(range(6), repeat=3):
        if (
            s3.mul(a, b) == s3.mul(b, a)
            and s3.mul(a, c) == s3.mul(c, a)
            and s3.mul(b, c) == s3.mul(c, b)
        ):
            oracle += 1
    assert count_homs(pres, s3) == oracle
    assert dw_invariant(pres, s3) == Fraction(oracle, 6)


def test_homomorphisms_are_lexicographic_and_closed_under_relations():
    pres = Presentation(1, ((1, 1),))
    d4 = dihedral_group(4)
    homs = homomorphisms(pres, d4)
    involutions = [g for g in range(8) if d4.mul(g, g) == 0]
    assert [h[0] for h in homs] == involutions


def test_invariant_equals_gauge_groupoid_cardinality():
    for name, grp in (("T2", symmetric_group(3)), ("T2", cyclic_group(4)), ("S2xS1", quaternion_group())):
        pres = presentation_by_name(name)
        action, points = hom_groupoid(pres, grp)
        assert len(points) == count_homs(pres, grp)
        assert groupoid_cardinality(action) == dw_invariant(pres, grp)


def test_surface_presentations():
    assert surface_presentation(0) == Presentation(0, ())
    assert surface_presentation(1).relations == presentation_by_name("T2").relations
    sigma2 = surface_presentation(2)
    assert sigma2.generators == 4
    assert sigma2.relations == ((1, 2, -1, -2, 3, 4, -3, -4),)
    assert presentation_by_name("Sigma_2") == sigma2


def test_surface_state_dims():
    s3 = symmetric_group(3)
    assert surface_state_dim(0, s3) == 1
    assert surface_state_dim(0, quaternion_group()) == 1
    assert surface_state_dim(1, s3) == 8
    for n in (2, 3, 4):
        assert surface_state_dim(1, cyclic_group(n)) == n * n
    assert surface_state_dim(2, cyclic_group(2)) == 16
    assert surface_state_dim(2, symmetric_group(4)) == 1851


def mednykh_count(genus, group):
    """Frobenius-Mednykh: |Hom(pi_1 Sigma_g, G)| = |G|^(2g-1) sum_chi chi(1)^(2-2g)."""
    total = sum(Fraction(d) ** (2 - 2 * genus) for d in character_table(group).degrees)
    count = Fraction(group.order) ** (2 * genus - 1) * total
    assert count.denominator == 1
    return count.numerator


def test_surface_hom_counts_match_mednykh_through_genus_six():
    names = group_names()
    assert len(names) == 16
    for name in names:
        group = group_by_name(name)
        for genus in range(7):
            assert count_homs(surface_presentation(genus), group, budget=DEFAULT_BUDGET) == mednykh_count(
                genus, group
            ), (name, genus)


def scramble(word, generators, rng):
    """Permute the generators and invert some of them, as the benchmark's
    seeded inputs do: an automorphism of the free group."""
    order = list(range(1, generators + 1))
    rng.shuffle(order)
    sign = [rng.choice((1, -1)) for _ in range(generators)]
    return tuple(order[abs(x) - 1] * sign[abs(x) - 1] * (1 if x > 0 else -1) for x in word)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(group_names()), genus=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_scrambled_surface_relators_keep_their_count(name, genus, seed):
    """The block split is found from the word, not matched to [a,b][c,d]:
    a scrambled relator counts the same, and agrees with the leaf search
    wherever that fits its budget."""
    group = group_by_name(name)
    pres = surface_presentation(genus)
    scrambled = Presentation(pres.generators, (scramble(pres.relations[0], pres.generators, random.Random(seed)),))
    count = count_homs(scrambled, group)
    assert count == count_homs(pres, group)
    if group.order ** pres.generators <= 20_000:
        assert count == len(homomorphisms(scrambled, group, budget=20_000))


def test_block_convolution_budget_counts_its_steps():
    """Sigma_3 over S4 splits into three blocks of two generators: 3 x 24^2
    block steps, each one evaluation of a block word, and 2 x 24^2 fold steps."""
    s4 = symmetric_group(4)
    sigma3 = surface_presentation(3)
    message = r"block convolution steps blocks 3 x 24\^2 \+ folds 2 x 24\^2 = 2880 exceed budget 2879"
    with pytest.raises(ResourceError, match=message):
        count_homs(sigma3, s4, budget=2879)
    assert count_homs(sigma3, s4, budget=2880) == mednykh_count(3, s4)
    # a generator the relator does not mention costs |G| steps and multiplies the count by |G|
    padded = Presentation(7, sigma3.relations)
    with pytest.raises(ResourceError, match=r"free generators 1 x 24 = 2904 exceed budget 2880"):
        count_homs(padded, s4, budget=2880)
    assert count_homs(padded, s4, budget=2904) == 24 * mednykh_count(3, s4)
    with pytest.raises(ResourceError, match=r"Burnside block convolution steps"):
        surface_state_dim(3, s4, budget=10)


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_surface_budget_floor_is_the_count_over_the_trivial_group(genus):
    """Over the trivial group Sigma_g costs exactly 2g - 1 steps, so the
    floor that dw.require_surface_budget applies before building the relator
    is the least cost over all groups: it raises exactly when count_homs does."""
    z1, name = cyclic_group(1), f"Sigma_{genus}"
    dw.require_surface_budget(name, 2 * genus - 1)
    assert count_homs(surface_presentation(genus), z1, budget=2 * genus - 1) == 1
    with pytest.raises(ResourceError, match=rf"{name} needs at least 2g - 1 = {2 * genus - 1} counting steps"):
        dw.require_surface_budget(name, 2 * genus - 2)
    with pytest.raises(ResourceError):
        count_homs(surface_presentation(genus), z1, budget=2 * genus - 2)
    # other names, the canonical-decimal rule included, are left to the lookup
    for other in ("T2", "Sigma_01", "Sigma_x"):
        dw.require_surface_budget(other, 1)


def test_surface_state_dim_applies_the_floor_before_building_the_relator(monkeypatch):
    def unbuilt(genus):
        raise AssertionError(f"the relator of genus {genus} was built")

    monkeypatch.setattr(dw, "surface_presentation", unbuilt)
    with pytest.raises(ResourceError, match=r"Sigma_1000000 needs at least 2g - 1 = 1999999 counting steps"):
        surface_state_dim(10**6, cyclic_group(1), budget=1)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter converts ints of any length")
def test_a_genus_past_the_int_conversion_limit_is_a_package_error():
    """Outside the CLI the interpreter's int-digit limit holds; the canonical
    form is decided on the string, so Sigma_01 is still no name."""
    with pytest.raises(ResourceError, match="5000 digits"):
        presentation_by_name("Sigma_" + "9" * 5000)
    with pytest.raises(ResourceError, match="5000 digits"):
        dw.require_surface_budget("Sigma_" + "9" * 5000, DEFAULT_BUDGET)
    for name in ("Sigma_01", "Sigma_00", "Sigma_"):
        with pytest.raises(UsageError, match="unknown presentation"):
            presentation_by_name(name)
    assert presentation_by_name("Sigma_0") == surface_presentation(0)


def test_block_convolution_evaluates_each_block_once_per_assignment(monkeypatch):
    calls = []
    original = dw.evaluate_word

    def counted(group, images, word):
        calls.append(word)
        return original(group, images, word)

    monkeypatch.setattr(dw, "evaluate_word", counted)
    assert count_homs(Presentation(4, ((-3, 2, 3, -2, 1, -4, -1, 4),)), symmetric_group(4)) == 34176
    assert len(calls) == 2 * 24**2
    assert set(calls) == {(-2, 1, 2, -1), (1, -2, -1, 2)}


def test_surface_state_dims_match_the_orbit_count():
    """Burnside over centralisers against the orbits of the gauge groupoid,
    wherever the groupoid's leaf search fits 25,000 leaves."""
    compared = 0
    for name in group_names():
        group = group_by_name(name)
        for genus in range(4):
            if group.order ** (2 * genus) > 25_000:
                continue
            action, _ = hom_groupoid(surface_presentation(genus), group, budget=25_000)
            assert surface_state_dim(genus, group) == len(action.orbits()), (name, genus)
            compared += 1
    assert compared == 54


def test_budget_errors_name_the_search_space():
    s3 = symmetric_group(3)
    with pytest.raises(ResourceError, match=r"6\^5 = 7776"):
        count_homs(Presentation(5, ()), s3, budget=1000)
    with pytest.raises(ResourceError, match=r"2\^4 = 16"):
        count_homs(Presentation(4, ()), cyclic_group(2), budget=1)
    assert count_homs(Presentation(4, ()), cyclic_group(2), budget=16) == 16
    # a four-generator relator that does not split into blocks is counted by
    # the leaf search: 100^4 = 10^8 leaves exceed the default 10^6
    with pytest.raises(ResourceError, match=r"100\^4 = 100000000"):
        count_homs(Presentation(4, ((1, 2, 3, 4, -1, -2, -3, -4),)), cyclic_group(100), budget=DEFAULT_BUDGET)


def test_twist_hom_validation():
    z4 = cyclic_group(4)
    TwistHom(Presentation(1, ((1, 1),)), z4, (2,))
    with pytest.raises(UsageError):
        TwistHom(Presentation(1, ((1, 1),)), z4, (1,))
    with pytest.raises(UsageError):
        TwistHom(Presentation(2, ()), z4, (1,))
    with pytest.raises(UsageError):
        TwistHom(Presentation(1, ()), z4, (7,))


def test_circle_sectors_match_fiber_conjugation():
    ext = a3_in_s3()
    circle = presentation_by_name("circle")
    for j in range(2):
        twist = TwistHom(circle, ext.J, (j,))
        action, points = twisted_bundle_groupoid(twist, ext)
        assert tuple(p[0] for p in points) == ext.fiber(j)

        fiber = ext.fiber(j)
        pos = {h: i for i, h in enumerate(fiber)}
        rows = []
        for g in range(ext.G.order):
            rows.append([pos[ext.H.conj(ext.incl(g), h)] for h in fiber])
        oracle = GroupAction(ext.G, len(fiber), rows)
        assert len(action.orbits()) == len(oracle.orbits())
        got = sorted(len(action.stabilizer(m)) for m in range(action.num_points))
        want = sorted(len(oracle.stabilizer(m)) for m in range(oracle.num_points))
        assert got == want
    twisted, _ = twisted_bundle_groupoid(TwistHom(circle, ext.J, (1,)), ext)
    assert len(twisted.orbits()) == 1
    assert groupoid_cardinality(twisted) == 1
    neutral, _ = twisted_bundle_groupoid(TwistHom(circle, ext.J, (0,)), ext)
    assert len(neutral.orbits()) == 3


def test_circle_sectors_z2_in_z4():
    ext = z2_in_z4()
    circle = presentation_by_name("circle")
    for j in range(2):
        action, points = twisted_bundle_groupoid(TwistHom(circle, ext.J, (j,)), ext)
        assert len(points) == 2
        assert len(action.orbits()) == 2
        assert all(len(action.stabilizer(m)) == 2 for m in range(2))


def test_torus_lifts_respect_relations():
    ext = a3_in_s3()
    pres = presentation_by_name("T2")
    twist = TwistHom(pres, ext.J, (0, 0))
    action, points = twisted_bundle_groupoid(twist, ext)
    a3 = [ext.incl(g) for g in range(3)]
    oracle = [
        (a, b)
        for a in a3
        for b in a3
        if ext.H.mul(a, b) == ext.H.mul(b, a)
    ]
    assert list(points) == oracle


def test_cover_nerve_validation():
    z2 = cyclic_group(2)
    CoverNerve(z2, 3, ((0, 1), (1, 2), (0, 2)), (1, 1, 0), ((0, 1, 2),))
    with pytest.raises(UsageError):
        CoverNerve(z2, 3, ((0, 1), (1, 2), (0, 2)), (1, 1, 1), ((0, 1, 2),))
    with pytest.raises(UsageError):
        CoverNerve(z2, 2, ((1, 0),), (0,))
    with pytest.raises(UsageError):
        CoverNerve(z2, 2, ((0, 1), (0, 1)), (0, 0))
    with pytest.raises(UsageError):
        CoverNerve(z2, 2, ((0, 1),), (3,))


def test_malformed_nerves_raise_usage_errors():
    z2 = cyclic_group(2)
    nerve = circle_nerve(z2, 1)
    with pytest.raises(UsageError, match="not an edge"):
        nerve.edge_index(2, 1)
    with pytest.raises(UsageError, match="not an edge"):
        CoverNerve(z2, 3, ((0, 1), (0, 2)), (0, 0), ((0, 1, 2),))


def test_incoherent_weak_action_fails_the_coboundary_closure():
    """A coherence element that is not central, set after the weak action was
    validated, lets a coboundary move a cocycle off the cocycle set."""
    s3 = symmetric_group(3)
    ext = extension_from_subgroup(s3, list(range(6)), name="S3-S3")
    wa = extension_to_weak_action(ext)
    wa.c = ((1,),)
    nerve = CoverNerve(ext.J, 3, ((0, 1), (1, 2), (0, 2)), (0, 0, 0), ((0, 1, 2),))
    with pytest.raises(UsageError, match="coboundary"):
        twisted_cech_h1(nerve, wa)


def test_circle_nerve_has_no_triangles():
    z2 = cyclic_group(2)
    nerve = circle_nerve(z2, 1)
    assert nerve.vertices == 3
    assert nerve.triangles == ()
    assert nerve.jlabels == (0, 0, 1)


def test_untwisted_cech_counts_conjugacy_classes():
    s3 = symmetric_group(3)
    ext = extension_from_subgroup(s3, list(range(6)), name="S3-S3")
    wa = extension_to_weak_action(ext)
    nerve = circle_nerve(ext.J, 0)
    result = twisted_cech_h1(nerve, wa)
    assert result.count == len(s3.conjugacy().classes)


def test_twisted_cech_matches_sector_groupoid():
    circle = presentation_by_name("circle")
    for ext in (a3_in_s3(), z2_in_z4()):
        wa = extension_to_weak_action(ext)
        for j in range(ext.J.order):
            nerve = circle_nerve(ext.J, j)
            result = twisted_cech_h1(nerve, wa)
            action, _ = twisted_bundle_groupoid(TwistHom(circle, ext.J, (j,)), ext)
            assert result.count == len(action.orbits())
            assert len(result.representatives) == result.count


def test_cech_single_patch_is_trivial():
    ext = a3_in_s3()
    wa = extension_to_weak_action(ext)
    nerve = CoverNerve(ext.J, 1, (), ())
    assert twisted_cech_h1(nerve, wa) == CechClasses(1, ((),))


def test_cech_full_triangle_is_contractible():
    s3 = symmetric_group(3)
    ext = extension_from_subgroup(s3, list(range(6)), name="S3-S3")
    wa = extension_to_weak_action(ext)
    nerve = CoverNerve(ext.J, 3, ((0, 1), (1, 2), (0, 2)), (0, 0, 0), ((0, 1, 2),))
    result = twisted_cech_h1(nerve, wa)
    assert result.count == 1


def test_cech_budget_error():
    ext = a3_in_s3()
    wa = extension_to_weak_action(ext)
    nerve = circle_nerve(ext.J, 0)
    with pytest.raises(ResourceError, match=r"3\^3 = 27"):
        twisted_cech_h1(nerve, wa, budget=10)


def test_cech_budget_counts_the_gauge_sweeps():
    """A nerve without edges has one cochain, so only the 12^5 gauge moves of
    its one sweep can exceed the budget."""
    wa = extension_to_weak_action(load_extension("A4-S4"))
    nerve = CoverNerve(wa.J, 5, (), ())
    with pytest.raises(ResourceError, match=r"gauge sweeps 1 x 12\^5 = 248832 exceed budget 10"):
        twisted_cech_h1(nerve, wa, budget=10)
    assert twisted_cech_h1(nerve, wa, budget=12**5) == CechClasses(1, ((),))
    # the untwisted A3-S3 circle has 3 classes of 3^3 gauge moves each
    wa = extension_to_weak_action(a3_in_s3())
    nerve = circle_nerve(wa.J, 0)
    assert twisted_cech_h1(nerve, wa, budget=81).count == 3
    with pytest.raises(ResourceError, match=r"gauge sweeps 3 x 3\^3 = 81 exceed budget 80"):
        twisted_cech_h1(nerve, wa, budget=80)


def test_cech_budget_refuses_search_spaces_past_the_printable_digits():
    """2^14365 cochains on the complete nerve of 170 vertices has more decimal
    digits than an int is printed with by default; the budget still refuses it."""
    wa = extension_to_weak_action(extension_from_subgroup(cyclic_group(2), [0, 1]))
    edges = tuple(itertools.combinations(range(170), 2))
    nerve = CoverNerve(wa.J, 170, edges, (0,) * len(edges))
    with pytest.raises(ResourceError, match=r"cocycle search space 2\^14365 exceeds budget"):
        twisted_cech_h1(nerve, wa)


def bfs_cech_h1(nerve, wa):
    """The search the one-sweep-per-class enumeration replaced: re-sweep all
    gauges from every cocycle reached, until no new cocycle appears."""
    group = wa.G
    eidx = {edge: i for i, edge in enumerate(nerve.edges)}

    def is_cocycle(z):
        for a, b, c in nerve.triangles:
            jab, jbc = nerve.jlabel(a, b), nerve.jlabel(b, c)
            lhs = group.mul(group.mul(z[eidx[a, b]], wa.rho[jab](z[eidx[b, c]])), wa.c[jab][jbc])
            if lhs != z[eidx[a, c]]:
                return False
        return True

    def coboundary(k, z):
        return tuple(
            group.mul(group.mul(k[a], z[i]), group.inv[wa.rho[j](k[b])])
            for i, ((a, b), j) in enumerate(zip(nerve.edges, nerve.jlabels))
        )

    cocycles = [z for z in itertools.product(range(group.order), repeat=len(nerve.edges)) if is_cocycle(z)]
    cocycle_set = set(cocycles)
    reps, seen = [], set()
    for z in cocycles:
        if z in seen:
            continue
        reps.append(z)
        stack = [z]
        seen.add(z)
        while stack:
            cur = stack.pop()
            for k in itertools.product(range(group.order), repeat=nerve.vertices):
                nxt = coboundary(k, cur)
                if nxt not in cocycle_set:
                    raise UsageError(f"the coboundary of {k} moves the cocycle {cur} off the cocycles")
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return CechClasses(len(reps), tuple(reps))


def test_one_sweep_per_class_matches_the_bfs():
    """A4-S4 is left out: the BFS makes about 3M gauge moves there."""
    names = [name for name in catalogue_list()["extensions"] if name != "A4-S4"]
    assert len(names) == 7
    for name in names:
        wa = extension_to_weak_action(load_extension(name))
        for j in range(wa.J.order):
            nerve = circle_nerve(wa.J, j)
            assert twisted_cech_h1(nerve, wa) == bfs_cech_h1(nerve, wa), (name, j)
    s3 = symmetric_group(3)
    wa = extension_to_weak_action(extension_from_subgroup(s3, list(range(6)), name="S3-S3"))
    triangle = CoverNerve(wa.J, 3, ((0, 1), (1, 2), (0, 2)), (0, 0, 0), ((0, 1, 2),))
    single = CoverNerve(wa.J, 1, (), ())
    for nerve in (triangle, single):
        assert twisted_cech_h1(nerve, wa) == bfs_cech_h1(nerve, wa)
    wa.c = ((1,),)
    with pytest.raises(UsageError) as swept:
        twisted_cech_h1(triangle, wa)
    with pytest.raises(UsageError) as searched:
        bfs_cech_h1(triangle, wa)
    assert str(swept.value) == str(searched.value)


def test_named_presentations():
    assert presentation_by_name("T3").generators == 3
    assert presentation_by_name("circle").relations == ()
    with pytest.raises(UsageError):
        presentation_by_name("Klein")
