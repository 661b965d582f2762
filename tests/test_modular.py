"""Graded modules, braiding and twist diagrams, S-matrix."""

import json
import re
from collections import Counter
import tracemalloc
from fractions import Fraction

import pytest
from helpers import with_entries

from equidouble import cli, modular
from equidouble.catalogue import extension_by_name, extension_names
from equidouble.doubles import sector_double
from equidouble.errors import ResourceError, UsageError
from equidouble.groupoids import simple_objects
from equidouble.groups import (
    GroupExtension,
    action_via_hom,
    conjugacy_data,
    cyclic_group,
    dihedral_group,
    extension_from_subgroup,
    symmetric_group,
)
from equidouble.linalg import ExactMatrix
from equidouble.modular import (
    DiagramReport,
    GradedModule,
    ModuleMap,
    braid,
    check_equivariant_diagrams,
    compositor,
    dual_map,
    dual_module,
    fuse,
    identity_map,
    j_act,
    j_act_map,
    r_action_map,
    s_matrix,
    s_matrix_character_formula,
    simples_of_double,
    tensor_map,
    trivial_extension,
    twist,
)
from equidouble.scalars import Cyclotomic

ONE = Fraction(1)


def validate_action(v: GradedModule) -> bool:
    """Full multiplicativity check rho(g)rho(g') = rho(gg')."""
    G = v.ext.G
    return all(v.act(g) @ v.act(g2) == v.act(G.mul(g, g2)) for g in range(G.order) for g2 in range(G.order))


def unit_module(ext: GroupExtension) -> GradedModule:
    return GradedModule(ext, (0,), tuple(ExactMatrix.identity(1) for _ in range(ext.G.order)), name="1")


def intertwines(f: ModuleMap) -> bool:
    return all(f.matrix @ f.source.act(g) == f.target.act(g) @ f.matrix for g in range(f.source.ext.G.order))


def a3_in_s3():
    s3 = symmetric_group(3)
    a3 = [g for g in range(6) if s3.element_order(g) != 2]
    return extension_from_subgroup(s3, a3, name="A3-S3")


def z2_in_z4():
    return extension_from_subgroup(cyclic_group(4), [0, 2], name="Z2-Z4")


def z2_in_d6():
    """The centre of the dihedral group of order 12, J = S3."""
    d6 = dihedral_group(6)
    centre = [z for z in range(d6.order) if len(d6.centralizer(z)) == d6.order]
    return extension_from_subgroup(d6, centre, name="Z2-D6")


def test_simples_of_trivially_extended_s3_match_the_known_double():
    ext = trivial_extension(symmetric_group(3))
    simples = simples_of_double(ext)
    assert len(simples) == 8
    assert sum(v.dim * v.dim for v in simples) == 36
    assert sorted(v.dim for v in simples) == [1, 1, 2, 2, 2, 2, 3, 3]
    for v in simples:
        assert validate_action(v)
        assert v.degree() == 0


def test_simples_of_the_sector_double_of_a3_in_s3():
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    assert len(simples) == 10
    assert sorted(v.dim for v in simples) == [1] * 9 + [3]
    for v in simples:
        assert validate_action(v)
        assert v.degree() is not None
    big = next(v for v in simples if v.dim == 3)
    assert big.degree() == 1
    assert all(ext.H.element_order(h) == 2 for h in big.grades)


def test_fusion_is_strictly_unital_and_associative():
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    one = unit_module(ext)
    u, v, w = simples[1], simples[-1], simples[4]
    assert fuse(one, v) == v
    assert fuse(v, one) == v
    assert fuse(fuse(u, v), w) == fuse(u, fuse(v, w))
    assert validate_action(fuse(u, v))


def eager_fuse(x, y):
    """The fusion formed at once through the validating constructor."""
    H = x.ext.H
    grades = [H.mul(a, b) for a in x.grades for b in y.grades]
    return GradedModule(x.ext, grades, [x.act(g).kron(y.act(g)) for g in range(x.ext.G.order)])


def test_fused_actions_are_the_nested_kronecker_products_of_the_factors():
    """fuse, j_act and dual_module check no block condition; on pairs and
    triples of simples and their shifts, in both bracketings, fuse's grades
    and actions must equal the eager fusion's, and the validating constructor
    must accept them, as it must accept every shift and dual of a simple, and
    every shift of a fused pair, on A3-S3, Z2-Z4 and Z2-D6."""
    for ext in (a3_in_s3(), z2_in_z4(), z2_in_d6()):
        simples = simples_of_double(ext)
        pairs = [fuse(simples[0], simples[-1]), fuse(simples[-1], simples[len(simples) // 2])]
        for x in range(ext.J.order):
            for v in simples + pairs:
                shifted = j_act(x, v)
                derived = [shifted] if len(v.factors) > 1 else [shifted, dual_module(v), dual_module(shifted)]
                for m in derived:
                    assert GradedModule(ext, m.grades, m.matrices) == m
    ext = a3_in_s3()
    base = simples_of_double(ext)[2:5]
    mods = base + [j_act(1, v) for v in base]
    cases = [((u, v), fuse(u, v), eager_fuse(u, v)) for u in mods for v in mods]
    for u in mods:
        for v in mods:
            for w in mods:
                cases.append(((u, v, w), fuse(fuse(u, v), w), eager_fuse(eager_fuse(u, v), w)))
                cases.append(((u, v, w), fuse(u, fuse(v, w)), eager_fuse(u, eager_fuse(v, w))))
    for factors, fused, eager in cases:
        assert fused.factors == factors
        assert fused.grades == eager.grades
        assert all(fused.act(g) == eager.act(g) for g in range(ext.G.order))
        rebuilt = GradedModule(ext, fused.grades, fused.matrices)
        assert rebuilt == fused and fused == rebuilt and eager == fused


@pytest.mark.parametrize("make", [a3_in_s3, z2_in_z4, z2_in_d6], ids=["A3-S3", "Z2-Z4", "Z2-D6"])
def test_lazy_fusions_and_their_shifts_match_the_eager_construction(make):
    """A fusion, and each shift of one, forms its grades, degree and actions
    from its factors when they are first read. On every fusion of two and of
    three simples, in both bracketings, and on every shift of those, they
    must be what the eager construction gives: grades multiplied out and
    Kronecker products formed at once through the validating constructor,
    shifted as a module given by matrices."""
    ext = make()
    G, J = ext.G, ext.J
    simples = simples_of_double(ext)

    def agrees(lazy, eager):
        for x in range(J.order):
            shifted, eager_shifted = j_act(x, lazy), j_act(x, eager)
            assert shifted.degree() == eager_shifted.degree()
            assert shifted.grades == eager_shifted.grades
            assert all(shifted.act(g) == eager_shifted.act(g) for g in range(G.order))
        assert lazy.degree() == eager.degree() and lazy.grades == eager.grades
        assert all(lazy.act(g) == eager.act(g) for g in range(G.order))

    eager_pairs = {(a, b): eager_fuse(u, v) for a, u in enumerate(simples) for b, v in enumerate(simples)}
    for (a, b), eager in eager_pairs.items():
        agrees(fuse(simples[a], simples[b]), eager)
        for c, w in enumerate(simples):
            agrees(fuse(fuse(simples[a], simples[b]), w), eager_fuse(eager, w))
            agrees(fuse(simples[a], fuse(simples[b], w)), eager_fuse(simples[a], eager_pairs[b, c]))


def test_fuse_forms_each_action_once_when_it_is_read(monkeypatch):
    ext = a3_in_s3()
    u, v, w = simples_of_double(ext)[2:5]
    calls = []
    kron = ExactMatrix.kron
    monkeypatch.setattr(ExactMatrix, "kron", lambda a, b: calls.append(1) or kron(a, b))
    fused = fuse(fuse(u, v), w)
    shifted = j_act(1, fused)
    assert calls == []
    assert shifted.factors == tuple(j_act(1, f) for f in (u, v, w))
    assert fused.act(1) is fused.act(1)
    assert len(calls) == 2


def test_sector_action_is_strict_on_fusion_and_trivial_at_identity():
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    u, v = simples[3], simples[-1]
    assert j_act(0, v) == v
    assert j_act(1, fuse(u, v)) == fuse(j_act(1, u), j_act(1, v))
    assert j_act(1, dual_module(v)) == dual_module(j_act(1, v))
    assert validate_action(j_act(1, v))


def test_sector_action_permutes_conjugate_simples():
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    cycles = [v for v in simples if v.dim == 1 and ext.H.element_order(v.grades[0]) == 3]
    assert len(cycles) == 6
    v = cycles[0]
    moved = j_act(1, v)
    assert any(moved == w for w in simples)
    assert moved.grades[0] == ext.H.inv[v.grades[0]]
    assert j_act(1, moved) == v


def test_mixed_degree_module_has_no_twist():
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    a = next(v for v in simples if v.degree() == 0 and v.dim == 1)
    b = next(v for v in simples if v.degree() == 1)
    grades = a.grades + b.grades
    mats = []
    for g in range(ext.G.order):
        top = [[a.act(g)[r, c] for c in range(a.dim)] + [0] * b.dim for r in range(a.dim)]
        bottom = [[0] * a.dim + [b.act(g)[r, c] for c in range(b.dim)] for r in range(b.dim)]
        mats.append(ExactMatrix.from_rows(top + bottom))
    mixed = GradedModule(ext, grades, mats)
    assert mixed.degree() is None
    with pytest.raises(UsageError):
        twist(mixed)


def test_module_constructors_reject_bad_data():
    ext = a3_in_s3()
    v = simples_of_double(ext)[-1]
    bad = list(v.matrices)
    bad[0] = with_entries(bad[0], {(0, 0): Fraction(2)})
    with pytest.raises(UsageError):
        GradedModule(ext, v.grades, bad)
    with pytest.raises(UsageError):
        GradedModule(ext, (ext.section[1],), [ExactMatrix.identity(1)] * ext.G.order)
    with pytest.raises(UsageError):
        ModuleMap(v, v, ExactMatrix.zeros(2, v.dim))
    z = z2_in_z4()
    for grade in (99, "a", True, -1):
        with pytest.raises(UsageError, match=re.escape(f"grade {grade!r} is not an element index")):
            GradedModule(z, (grade,), [ExactMatrix.identity(1)] * z.G.order)
    with pytest.raises(UsageError, match="g=1 is not an ExactMatrix"):
        GradedModule(z, (0,), [ExactMatrix.identity(1), [[1]]])
    for entry in (1.5, True):
        with pytest.raises(UsageError, match=re.escape(f"inexact entry {entry!r}")):
            GradedModule(z, (0,), [ExactMatrix.identity(1), ExactMatrix.from_rows([[entry]])])


def test_braid_twist_compositor_are_invertible_intertwiners():
    for ext in (a3_in_s3(), z2_in_z4()):
        simples = simples_of_double(ext)
        u, v = simples[1], simples[-1]
        for f in (
            braid(u, v),
            braid(v, u),
            twist(u),
            twist(v),
            compositor(1, 1, v),
            compositor(0, 1, v),
        ):
            assert intertwines(f)
            assert f.is_invertible()


def test_braid_agrees_with_the_r_matrix_action():
    for ext in (a3_in_s3(), z2_in_z4()):
        sd = sector_double(ext)
        simples = simples_of_double(ext)
        for u in simples[:3] + simples[-2:]:
            for v in simples[:3] + simples[-2:]:
                assert braid(u, v).equals(r_action_map(sd, u, v))


def test_full_diagram_suite_for_a3_in_s3():
    report = check_equivariant_diagrams(a3_in_s3())
    assert report.all_passed, report.failures[:5]
    assert report.counts["hexagon-one"] == 1000
    assert report.counts["hexagon-two"] == 1000
    assert report.counts["action-braiding"] == 200
    assert report.counts["twist-product"] == 100
    assert report.counts["braid-equals-r-action"] == 100
    assert report.counts["twist-action"] == 20
    assert report.counts["twist-duality"] == 10


def test_full_diagram_suite_for_z2_in_z4():
    report = check_equivariant_diagrams(z2_in_z4())
    assert report.all_passed, report.failures[:5]
    assert report.counts["hexagon-one"] == 512


def test_diagram_suite_takes_the_callers_sector_double():
    ext = z2_in_z4()
    sample = simples_of_double(ext)[:2]
    given = check_equivariant_diagrams(ext, sample, sector_double(ext))
    assert given.counts == check_equivariant_diagrams(ext, sample).counts and given.all_passed
    with pytest.raises(UsageError, match="another extension"):
        check_equivariant_diagrams(ext, sample, sector_double(a3_in_s3()))


def test_negative_control_sign_flipped_braiding_breaks_a_hexagon():
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    u, v, w = simples[-1], simples[2], simples[5]
    assert hexagon_one_holds(u, v, w)
    good = braid(u, fuse(v, w))
    flipped = ModuleMap(good.source, good.target, with_entries(good.matrix, {(r, c): -x for r, c, x in good.matrix.nonzeros()}))
    i = u.degree()
    rhs = tensor_map(braid(u, v), identity_map(w)).then(
        tensor_map(identity_map(j_act(i, v)), braid(u, w))
    )
    assert not flipped.equals(rhs)


def test_negative_control_inverted_grade_braiding_fails_r_comparison():
    ext = a3_in_s3()
    sd = sector_double(ext)
    H = ext.H
    simples = simples_of_double(ext)
    cycles = [
        s
        for s in simples
        if s.dim == 1
        and H.element_order(s.grades[0]) == 3
        and twist(s).matrix[0, 0] != ONE
    ]
    v = w = cycles[0]
    source = fuse(v, w)
    target = fuse(j_act(v.degree(), w), v)
    u = ext.g_of(H.inv[v.grades[0]])
    mat = with_entries(ExactMatrix.zeros(target.dim, source.dim), {(0, 0): w.act(u)[0, 0]})
    wrong = ModuleMap(source, target, mat)
    assert not wrong.equals(braid(v, w))
    assert not wrong.equals(r_action_map(sd, v, w))


def test_twist_scalars_on_the_double_of_z2():
    ext = trivial_extension(cyclic_group(2))
    simples = simples_of_double(ext)
    assert [v.grades[0] for v in simples] == [0, 0, 1, 1]
    scalars = [twist(v).matrix[0, 0] for v in simples]
    assert scalars == [ONE, ONE, ONE, -ONE]


def test_twist_scalars_on_the_double_of_z4_are_fourth_roots():
    ext = trivial_extension(cyclic_group(4))
    simples = simples_of_double(ext)
    assert len(simples) == 16
    zeta = Cyclotomic.zeta(4)
    v = next(s for s in simples if s.grades[0] == 1 and twist(s).matrix[0, 0] == zeta)
    assert twist(fuse(v, v)).matrix[0, 0] == ONE
    assert twist(fuse(v, fuse(v, v))).matrix[0, 0] == zeta


def test_s_matrix_of_z2_double_matches_the_hand_computed_table():
    sm = s_matrix(cyclic_group(2))
    assert sm.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    expected = ExactMatrix.from_rows(
        [
            [ONE, ONE, ONE, ONE],
            [ONE, ONE, -ONE, -ONE],
            [ONE, -ONE, ONE, -ONE],
            [ONE, -ONE, -ONE, ONE],
        ]
    )
    assert sm.matrix == expected
    assert sm.is_symmetric()
    assert sm.is_invertible()


def test_s_matrix_trace_equals_the_character_formula():
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3), symmetric_group(4)):
        traced = s_matrix(group)
        counted = s_matrix_character_formula(group)
        assert traced.labels == counted.labels
        assert traced.matrix.rows == counted.matrix.rows
        for r in range(traced.matrix.rows):
            for c in range(traced.matrix.cols):
                assert traced.matrix[r, c] == counted.matrix[r, c]


def test_negative_control_sign_flipped_action_entry_fails_two_diagrams():
    """One negated entry of one action matrix of the three-dimensional simple
    keeps the block condition, so the constructor accepts it; the diagram
    suite must name exactly these seven failures."""
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    v = next(s for s in simples if s.dim >= 2)
    for g in (1, 2):
        mats = list(v.matrices)
        r, c, x = next(mats[g].nonzeros())
        mats[g] = with_entries(mats[g], {(r, c): -x})
        bad = GradedModule(ext, v.grades, mats, name="bad")
        report = check_equivariant_diagrams(ext, [simples[0], bad, simples[-1]])
        last = simples[-1].name
        assert report.failures == [
            ("hexagon-two", ("bad", "bad", "bad")),
            ("hexagon-two", ("bad", last, "bad")),
            ("hexagon-two", (last, "bad", "bad")),
            ("hexagon-two", (last, last, "bad")),
            ("twist-product", ("bad", "bad")),
            ("twist-product", ("bad", last)),
            ("twist-product", (last, "bad")),
        ]


def first_failures(report):
    first = {}
    for diagram, labels in report.failures:
        first.setdefault(diagram, labels)
    return first


def test_negative_control_untwist_corrupted_after_the_sector_double_fails_diagrams():
    """untwist[1] times element 1 of G = A3 moves the braiding and the twist
    of the three-dimensional simple off the grading. The module maps accept
    them, and the suite names each failing diagram instead of raising."""
    ext = a3_in_s3()
    sd = sector_double(ext)
    untwist = list(ext.untwist)
    untwist[1] = ext.G.mul(1, untwist[1])
    ext.untwist = tuple(untwist)
    report = check_equivariant_diagrams(ext, None, sd)
    assert len(report.failures) == 124
    assert first_failures(report) == {
        "hexagon-two": ("[1]x0", "[1]x0", "[0]x1"),
        "action-braiding": ("021", "[1]x0", "[0]x1"),
        "twist-product": ("[0]x1", "[1]x0"),
        "braid-equals-r-action": ("[1]x0", "[0]x1"),
        "twist-action": ("021", "[1]x0"),
        "twist-duality": ("[1]x0",),
    }


def test_negative_control_inverted_rho_fails_diagrams():
    """rho[1] composed with inversion breaks the block condition of every
    shift of a module on which G = A3 acts nontrivially; j_act builds them
    unchecked and the diagrams that read them fail."""
    ext = a3_in_s3()
    sd = sector_double(ext)
    ext.rho = (ext.rho[0], tuple(ext.G.inv[g] for g in ext.rho[1]))
    report = check_equivariant_diagrams(ext, None, sd)
    assert len(report.failures) == 117
    assert first_failures(report) == {
        "hexagon-two": ("[1]x0", "[1]x0", "[0]x1"),
        "action-braiding": ("021", "[1]x0", "[0]x1"),
        "twist-product": ("[1]x0", "[1]x0"),
        "twist-action": ("021", "[1]x0"),
        "twist-duality": ("[1]x0",),
    }


def preserves_grading(f):
    return all(f.target.grades[r] == f.source.grades[c] for r, c, _ in f.matrix.nonzeros())


@pytest.mark.parametrize("build", [a3_in_s3, z2_in_z4, z2_in_d6])
def test_built_maps_preserve_the_grading(build):
    """ModuleMap no longer checks the grading; every builder must keep it."""
    ext = build()
    sd = sector_double(ext)
    simples = simples_of_double(ext)
    sample = [simples[0], simples[len(simples) // 2], simples[-1]]
    n_j = ext.J.order
    maps = []
    for u in sample:
        maps += [identity_map(u), twist(u), dual_map(twist(u))]
        maps += [j_act_map(x, twist(u)) for x in range(n_j)]
        maps += [compositor(x, y, u) for x in range(n_j) for y in range(n_j)]
        for v in sample:
            b = braid(u, v)
            maps += [b, r_action_map(sd, u, v), tensor_map(b, twist(u)), b.then(twist(b.target))]
    assert all(preserves_grading(f) for f in maps)


def test_only_the_simples_pass_the_checked_constructor(monkeypatch):
    """Fusions, shifts and duals are built unchecked: the diagram suite runs
    GradedModule.__init__ once per simple and never again."""
    ext = z2_in_z4()
    n_simples = len(simples_of_double(ext))
    calls = []
    init = GradedModule.__init__
    monkeypatch.setattr(GradedModule, "__init__", lambda self, *args, **kw: calls.append(1) or init(self, *args, **kw))
    assert check_equivariant_diagrams(ext).all_passed
    assert len(calls) == n_simples


def test_s_matrices_of_small_doubles_are_invertible():
    for group, size in ((symmetric_group(3), 8), (cyclic_group(4), 16)):
        sm = s_matrix(group)
        assert sm.matrix.rows == size
        assert sm.is_symmetric()
        assert sm.is_invertible()
    with pytest.raises(ResourceError):
        s_matrix(symmetric_group(5))


def test_first_row_of_the_s_matrix_lists_total_dimensions():
    group = symmetric_group(3)
    sm = s_matrix(group)
    dims = [v.dim for v in simples_of_double(trivial_extension(group))]
    for c, d in enumerate(dims):
        assert sm.matrix[0, c] == Fraction(d)


def test_modularity_verdict_for_the_catalogue_extensions(tmp_path):
    """verify-all reports the S-matrix of D(H) invertible, the J-modularity
    claim true and the crossed product identified with D(H)."""
    for name in ("A3-S3", "Z2-Z4"):
        path = tmp_path / f"{name}.json"
        assert cli.main(["verify-all", "--extension", name, "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["sections"]["modularity"] == {"orbifold_modular": True, "j_modular_claim": True}
        assert report["section_passed"]["psi-identification"]


def test_dual_pairing_diagrams():
    ext = a3_in_s3()
    simples = simples_of_double(ext)
    v = next(s for s in simples if s.dim == 3)
    dv = dual_module(v)
    assert validate_action(dv)
    assert dv.degree() == ext.J.inv[v.degree()]
    assert dual_module(dv) == v
    f = twist(v)
    assert dual_map(dual_map(f)).equals(f)
    assert twist_duality_holds(v)


def test_single_diagram_helpers_accept_shifted_modules():
    ext = z2_in_z4()
    simples = simples_of_double(ext)
    u = j_act(1, simples[-1])
    v = simples[2]
    w = simples[5]
    assert hexagon_one_holds(u, v, w)
    assert hexagon_two_holds(u, v, w)
    assert action_braiding_holds(1, u, v)
    assert twist_product_holds(u, v)
    assert twist_action_holds(1, u)
    assert twist_duality_holds(u)
    shifted = j_act_map(1, braid(u, v))
    assert shifted.source == j_act(1, fuse(u, v))


# -- the diagram suite against its per-tuple oracle -----------------------------


def hexagon_one_holds(u, v, w):
    """c_{U,V(x)W} equals (id (x) c_{U,W}) after (c_{U,V} (x) id)."""
    return ModuleMap.equals(*modular._hexagon_one_sides(u, v, w))


def hexagon_two_holds(u, v, w):
    """c_{U(x)V,W} equals the compositor-corrected two-step braiding."""
    return ModuleMap.equals(*modular._hexagon_two_sides(u, v, w))


def action_braiding_holds(i, u, v):
    """The sector shift of the braiding matches the braiding of the shifted
    modules, up to compositors."""
    return ModuleMap.equals(*modular._action_braiding_sides(i, u, v))


def twist_product_holds(u, v):
    """The twist of a product factors through the two twists, two braidings
    and two compositors."""
    return ModuleMap.equals(*modular._twist_product_sides(u, v))


def twist_duality_holds(v):
    """The dual of the twist equals the twist of the shifted dual followed by
    the compositor down to the plain dual."""
    return ModuleMap.equals(*modular._twist_duality_sides(v))


def twist_action_holds(i, v):
    """Shifting the twist and twisting the shift agree through compositors."""
    return ModuleMap.equals(*modular._twist_action_sides(i, v))


def per_tuple_report(ext, mods, sd):
    """The diagram suite with one composite per tuple, in the order of its
    nested loops: the oracle for check_equivariant_diagrams, which decides
    every family on direct sums, the sample's or its sector parts."""
    report = DiagramReport()
    names = [m.name for m in mods]
    J = ext.J
    for a, u in enumerate(mods):
        for b, v in enumerate(mods):
            for c, w in enumerate(mods):
                labels = (names[a], names[b], names[c])
                report.record("hexagon-one", labels, hexagon_one_holds(u, v, w))
                report.record("hexagon-two", labels, hexagon_two_holds(u, v, w))
    for i in range(J.order):
        for a, u in enumerate(mods):
            for b, v in enumerate(mods):
                report.record("action-braiding", (J.labels[i], names[a], names[b]), action_braiding_holds(i, u, v))
    for a, u in enumerate(mods):
        for b, v in enumerate(mods):
            labels = (names[a], names[b])
            report.record("twist-product", labels, twist_product_holds(u, v))
            report.record("braid-equals-r-action", labels, braid(u, v).equals(r_action_map(sd, u, v)))
    for i in range(J.order):
        for a, v in enumerate(mods):
            report.record("twist-action", (J.labels[i], names[a]), twist_action_holds(i, v))
    for a, v in enumerate(mods):
        report.record("twist-duality", (names[a],), twist_duality_holds(v))
    return report


def agrees_with_the_oracle(ext, mods, sd):
    """The suite's counts and failures, labels and order, are the oracle's;
    returns the failures."""
    report = check_equivariant_diagrams(ext, mods, sd)
    oracle = per_tuple_report(ext, mods, sd)
    assert report.counts == oracle.counts
    assert report.failures == oracle.failures
    return report.failures


def z1_in_s3():
    """G trivial, J = S3."""
    return extension_from_subgroup(symmetric_group(3), [0], name="Z1-S3")


DIRECT_SUM_EXTENSIONS = {
    "A3-S3": a3_in_s3,
    "Z2-Z4": z2_in_z4,
    "Z2-D6": z2_in_d6,
    "Z1-S3": z1_in_s3,
    "Z2-Q8": lambda: extension_by_name("Z2-Q8"),
    "Z4-D4": lambda: extension_by_name("Z4-D4"),
}


@pytest.mark.parametrize("name", list(DIRECT_SUM_EXTENSIONS))
def test_the_suite_on_direct_sums_matches_the_per_tuple_oracle(name):
    ext = DIRECT_SUM_EXTENSIONS[name]()
    assert agrees_with_the_oracle(ext, simples_of_double(ext), sector_double(ext)) == []


def corrupt_untwist(ext):
    untwist = list(ext.untwist)
    untwist[1] = ext.G.mul(1, untwist[1])
    ext.untwist = tuple(untwist)


def corrupt_rho(ext):
    ext.rho = (ext.rho[0], tuple(ext.G.inv[g] for g in ext.rho[1]))


def transpose_c(ext):
    ext.c = tuple(zip(*ext.c))


@pytest.mark.parametrize(
    "make, corrupt",
    [(a3_in_s3, corrupt_untwist), (a3_in_s3, corrupt_rho), (z2_in_d6, transpose_c)],
    ids=["untwist", "rho", "transposed-c"],
)
def test_corrupted_weak_actions_fail_the_suite_as_they_fail_the_oracle(make, corrupt):
    ext = make()
    sd = sector_double(ext)
    simples = simples_of_double(ext)
    corrupt(ext)
    assert agrees_with_the_oracle(ext, simples, sd)


def v4_in_s4():
    """The Klein four-group in S4, J = S3: 30 simples of dimension 1, 2 or 4,
    two sectors holding one four-dimensional simple each."""
    s4 = symmetric_group(4)
    klein = next(c for c in conjugacy_data(s4).classes if len(c) == 3)
    return extension_from_subgroup(s4, [0, *klein], name="V4-S4")


@pytest.mark.parametrize(
    "make, flags, per_sector",
    [
        (lambda: extension_by_name("A4-S4"), {"sampled": True}, {0: 2, 1: 1}),
        (lambda: extension_by_name("V4-A4"), {"sampled": True}, {0: 3}),
        (v4_in_s4, {"budget_dim": 2, "sampled": True}, {0: 2, 5: 1}),
    ],
    ids=["A4-S4-sampled", "V4-A4-sampled", "V4-S4-budget-dim"],
)
def test_the_suite_matches_the_oracle_on_the_samples_the_cli_draws(make, flags, per_sector):
    """verify-category's samples leave sectors with one module or none, the
    sector sums' edge cases: A4-S4's --sampled picks hold one module of
    sector 1, V4-A4's none of sectors 1 and 2, and V4-S4's --budget-dim 2
    --sampled picks one of sector 5 and none of sectors 1 to 4."""
    ext = make()
    mods = cli._category_sample(simples_of_double(ext), cli.RunConfig("verify-category", **flags))
    assert Counter(v.degree() for v in mods) == per_sector
    assert agrees_with_the_oracle(ext, mods, sector_double(ext)) == []


def r_action_oracle(sd, v, w):
    """r_action_map as it was built entry by entry: each (module, basis
    index) leg walks the action of its g and keeps the rows graded by its h,
    and each term of the R-matrix adds into its entry."""
    legs = {}

    def leg(mod, idx):
        if (id(mod), idx) not in legs:
            h, g = sd.label_of(idx)
            legs[id(mod), idx] = [(r, c, x) for r, c, x in mod.act(g).nonzeros() if mod.grades[r] == h]
        return legs[id(mod), idx]

    sums = {}
    for ten in sd.r_sector.values():
        for (a1, a2), coef in ten.items():
            for r_out, r_in, c1 in leg(v, a1):
                for s_out, s_in, c2 in leg(w, a2):
                    key = (s_out * v.dim + r_out, r_in * w.dim + s_in)
                    sums[key] = sums.get(key, 0) + coef * c1 * c2
    matrix = with_entries(ExactMatrix.zeros(w.dim * v.dim, v.dim * w.dim), sums)
    return ModuleMap(fuse(v, w), fuse(j_act(v.degree(), w), v), matrix)


@pytest.mark.parametrize(
    "name, corrupt",
    [(name, None) for name in DIRECT_SUM_EXTENSIONS]
    # corrupt_untwist needs a second element of G, corrupt_rho a J of order 2
    + [(name, corrupt_untwist) for name in DIRECT_SUM_EXTENSIONS if name != "Z1-S3"]
    + [(name, corrupt_rho) for name in ("A3-S3", "Z2-Z4", "Z4-D4")],
    ids=lambda x: x.__name__ if callable(x) else str(x),
)
def test_the_one_pass_r_action_map_equals_the_entry_by_entry_oracle(name, corrupt):
    """r_action_map walks each action once, split by row grade; on each
    simple against the direct sum of them all, as the suite calls it, it
    stores the oracle's entries with their types, also once untwist or rho
    is corrupted after the sector double."""
    ext = DIRECT_SUM_EXTENSIONS[name]()
    sd = sector_double(ext)
    simples = simples_of_double(ext)
    if corrupt is not None:
        corrupt(ext)
    total, _ = modular._direct_sum(ext, simples)
    for u in simples:
        got, want = r_action_map(sd, u, total), r_action_oracle(sd, u, total)
        assert got.equals(want)
        assert [type(x) for x in got.matrix.data] == [type(x) for x in want.matrix.data]


def test_each_negated_entry_of_an_action_matrix_fails_as_in_the_oracle():
    """Negate each nonzero entry of the action of g = 1 on A3-S3's
    three-dimensional simple in turn; a sample holding the corrupted module
    twice must fail at both positions, told apart by position."""
    ext = a3_in_s3()
    sd = sector_double(ext)
    simples = simples_of_double(ext)
    v = next(s for s in simples if s.dim == 3)
    entries = list(v.act(1).nonzeros())
    assert len(entries) >= 3
    for r, c, x in entries:
        mats = list(v.matrices)
        mats[1] = with_entries(mats[1], {(r, c): -x})
        bad = GradedModule(ext, v.grades, mats, name="bad")
        assert agrees_with_the_oracle(ext, [simples[0], bad, simples[-1]], sd)
        failures = agrees_with_the_oracle(ext, [bad, bad, simples[-1]], sd)
        assert ("hexagon-two", ("bad", "bad", "bad")) in failures
    assert agrees_with_the_oracle(ext, [v, v, simples[0]], sd) == []


def test_the_suite_on_an_empty_sample_reports_nothing():
    ext = a3_in_s3()
    report = check_equivariant_diagrams(ext, [])
    assert report.counts == {} and report.failures == [] and report.all_passed


def test_the_suite_braids_once_per_pair_not_per_triple(monkeypatch):
    """On Z2-Q8's 16 simples, one composite per tuple made 27,392 braidings,
    107 n^2; one per pair and direct sum makes under 10 n^2."""
    ext = extension_by_name("Z2-Q8")
    simples = simples_of_double(ext)
    n = len(simples)
    assert n == 16
    calls = []
    braid_ = modular.braid
    monkeypatch.setattr(modular, "braid", lambda v, w: calls.append(1) or braid_(v, w))
    assert check_equivariant_diagrams(ext, simples).all_passed
    assert 0 < len(calls) <= 10 * n * n


def test_the_suite_keeps_no_composite_past_its_step():
    """The traced peak of the whole Z2-Q8 suite, simples and sector double
    included, is about 0.25 MiB; braidings or fusions kept across tuples
    raise it several times over."""
    ext = extension_by_name("Z2-Q8")
    tracemalloc.start()
    try:
        assert check_equivariant_diagrams(ext).all_passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- normalized simples against the conductor-form build ------------------------


def conductor_form_simples(ext):
    """The simples as built before their entries were normalized: each action
    matrix is s.total_matrix(g) as it is, every entry a cyclotomic at the
    conductor exponent(stabilizer), stored zeros included."""
    action = action_via_hom(ext.H, ext.G, ext.incl.images)
    return [
        GradedModule(
            ext,
            tuple(m for m in s.orbit for _ in range(s.stab_degree)),
            [s.total_matrix(g) for g in range(ext.G.order)],
            name=f"[{s.orbit[0]}]x{s.row}",
        )
        for s in simple_objects(action)
    ]


def sampled(mods):
    """The first, middle and last module, as verify-category --sampled picks."""
    return cli._category_sample(mods, cli.RunConfig("verify-category", sampled=True))


SMALL_CATALOGUE = [name for name in extension_names() if extension_by_name(name).H.order <= 12]


@pytest.mark.parametrize("name", SMALL_CATALOGUE + ["A4-S4"])
def test_normalized_simples_give_the_conductor_form_reports(name):
    """On every catalogue extension with |H| <= 12, and on A4-S4's sample, the
    normalized simples equal the conductor-form ones and the diagram suite
    gives both the same counts and failures."""
    ext = extension_by_name(name)
    sd = sector_double(ext)
    normalized, oracle = simples_of_double(ext), conductor_form_simples(ext)
    assert [v.name for v in normalized] == [v.name for v in oracle]
    assert normalized == oracle
    if ext.H.order > 12:
        normalized, oracle = sampled(normalized), sampled(oracle)
    got, want = check_equivariant_diagrams(ext, normalized, sd), check_equivariant_diagrams(ext, oracle, sd)
    assert got.counts == want.counts and got.failures == want.failures == []


def negated(v, g, r, c):
    mats = list(v.matrices)
    mats[g] = with_entries(mats[g], {(r, c): -mats[g][r, c]})
    return GradedModule(v.ext, v.grades, mats, name="bad")


@pytest.mark.parametrize("make", [a3_in_s3, lambda: extension_by_name("Z4-D4")], ids=["A3-S3", "Z4-D4"])
def test_corruption_controls_fail_alike_on_normalized_and_conductor_form_simples(make):
    """Negating each nonzero entry of the action of g = 1 on the first simple
    of dimension at least two, and corrupting untwist after the sector
    double, fail the same diagrams on both builds of the simples. Z4-D4's
    simples hold entries of Q(i) as well as ints."""
    ext = make()
    sd = sector_double(ext)
    builds = [simples_of_double(ext), conductor_form_simples(ext)]
    pick = next(k for k, v in enumerate(builds[0]) if v.dim >= 2)
    reports = []
    for simples in builds:
        v = simples[pick]
        runs = [
            check_equivariant_diagrams(ext, [simples[0], negated(v, 1, r, c), simples[-1]], sd)
            for r, c, _ in v.act(1).nonzeros()
        ]
        reports.append([(rep.counts, rep.failures) for rep in runs])
    assert reports[0] == reports[1] and all(failures for _, failures in reports[0])
    corrupt_untwist(ext)
    untwisted = [check_equivariant_diagrams(ext, simples, sd) for simples in builds]
    assert untwisted[0].counts == untwisted[1].counts
    assert untwisted[0].failures == untwisted[1].failures != []


@pytest.mark.parametrize("name", extension_names())
def test_simples_store_no_rational_cyclotomic_and_no_zero(name):
    """Every stored entry of every simple's action matrices is nonzero, and a
    rational one is an int or a Fraction; an irrational one keeps the
    conductor of its stabilizer's table, exponent(stabilizer)."""
    ext = extension_by_name(name)
    action = action_via_hom(ext.H, ext.G, ext.incl.images)
    for v, s in zip(simples_of_double(ext), simple_objects(action)):
        entries = [x for m in v.matrices for x in m._store.values()]
        assert all(entries)
        assert {type(x) for x in entries} <= {int, Fraction, Cyclotomic}
        cyclotomics = [x for x in entries if isinstance(x, Cyclotomic)]
        assert not any(x.is_rational() for x in cyclotomics)
        assert {x.n for x in cyclotomics} <= {s.stab_group.exponent()}
