"""Acceptance gate: one test per release criterion, each with a time budget.

Every test prints a single summary line when it passes; a failed assert (or a
blown budget) fails that criterion's test, so `pytest -v` shows exactly one
pass/fail line per criterion.
"""

import json
import time
from fractions import Fraction

from helpers import regular_character, trivial_action
from sparse_oracle import rebuilt

from equidouble import cli
from equidouble.catalogue import (
    extension_by_name,
    extension_names,
    group_by_name,
    group_names,
)
from equidouble.doubles import double_algebra, sector_double
from equidouble.dw import (
    TwistHom,
    circle_nerve,
    dw_invariant,
    presentation_by_name,
    surface_state_dim,
    twisted_bundle_groupoid,
    twisted_cech_h1,
)
from equidouble.groupoids import (
    character_pairing,
    decompose_character,
    inertia,
    simple_objects,
)
from equidouble.groups import (
    GroupAction,
    conjugation_action,
    extension_to_weak_action,
    find_isomorphism,
    groupoid_cardinality,
    weak_action_to_extension,
    weak_actions_isomorphic,
)
from equidouble.hopf import verify_hopf, verify_quasitriangular, verify_ribbon
from equidouble.modular import (
    check_equivariant_diagrams,
    s_matrix,
    s_matrix_character_formula,
    simples_of_double,
    trivial_extension,
)
from equidouble.orbifold import orbifold_ribbon, psi_check, verify_sector_double


def _finish(num: int, name: str, start: float, budget: float) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {num} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_1_extension_action_round_trip():
    start = time.monotonic()
    names = extension_names()
    assert len(names) >= 6
    for name in names:
        ext = extension_by_name(name)
        assert ext.H.order <= 24, name
        wa = extension_to_weak_action(ext)
        rebuilt = weak_action_to_extension(wa)
        assert find_isomorphism(rebuilt.H, ext.H) is not None, name
        wa2 = extension_to_weak_action(rebuilt)
        assert weak_actions_isomorphic(wa, wa2) is not None, name
    _finish(1, "extension/action round trip", start, 5.0)


def test_criterion_2_hopf_axiom_suites_and_corruption_detection():
    start = time.monotonic()
    for name in ("Z2", "Z4", "S3", "D4", "Q8"):
        d = double_algebra(group_by_name(name))
        assert verify_hopf(d.hopf).all_passed, name
        rib = d.ribbon_data()
        assert verify_quasitriangular(rib).all_passed, name
        assert verify_ribbon(rib).all_passed, name
    for name in ("A3-S3", "Z2-Z4", "Z4-D4"):
        report = verify_sector_double(sector_double(extension_by_name(name)))
        assert report.all_passed, (name, report.failing())

    # single corrupted structure constants must be caught
    d = double_algebra(group_by_name("Z2"))

    def corrupt(tables):
        pair = next(k for k, v in tables.mul.items() if v)
        target = next(iter(tables.mul[pair]))
        tables.mul[pair][target] = Fraction(5)

    report = verify_hopf(rebuilt(d.hopf, corrupt))
    assert not report.all_passed
    assert set(report.witnesses) == set(report.failing())

    d = double_algebra(group_by_name("Z4"))
    rib = d.ribbon_data()
    key = next(iter(rib.ribbon))
    rib.ribbon[key] = -rib.ribbon[key]
    report = verify_ribbon(rib)
    assert not report.all_passed
    assert set(report.witnesses) == set(report.failing())

    sd = sector_double(extension_by_name("Z2-Z4"))
    key = next(iter(sd.r_sector[(1, 1)]))
    sd.r_sector[(1, 1)][key] = Fraction(2)
    report = verify_sector_double(sd)
    assert "rmatrix-sectors" in report.failing()
    assert report.witnesses["rmatrix-sectors"] == (1, 1)

    sd = sector_double(extension_by_name("A3-S3"))
    entry = next(iter(sd.theta[1]))
    sd.theta[1][entry] = -sd.theta[1][entry]
    report = verify_sector_double(sd)
    assert "twist-sectors" in report.failing()
    assert report.witnesses["twist-sectors"] == (1,)
    _finish(2, "Hopf axiom suites with corruption controls", start, 60.0)


def test_criterion_3_crossed_product_identification():
    start = time.monotonic()
    for name in ("A3-S3", "Z2-Z4"):
        ext = extension_by_name(name)
        sd = sector_double(ext)
        psi = psi_check(sd, orbifold_ribbon(sd), double_algebra(ext.H))
        assert psi.checks["bijective"], name
        assert psi.checks["product"], name
        assert psi.checks["coproduct"], name
        assert psi.checks["rmatrix"], name
        assert psi.checks["twist"], name
        assert psi.all_passed
    _finish(3, "crossed product identified with plain double", start, 30.0)


def test_criterion_4_s_matrices_and_modularity(tmp_path):
    start = time.monotonic()
    traced = s_matrix(group_by_name("S3"))
    assert traced.matrix.rows == 8
    assert traced.is_invertible()
    for name, size in (("Z2", 4), ("Z4", 16)):
        m = s_matrix(group_by_name(name))
        assert m.matrix.rows == size
        assert m.is_invertible(), name
    for name in ("Z2", "Z4", "S3"):
        a = s_matrix(group_by_name(name))
        b = s_matrix_character_formula(group_by_name(name))
        assert a.labels == b.labels
        for r in range(a.matrix.rows):
            for c in range(a.matrix.cols):
                assert a.matrix[r, c] == b.matrix[r, c], (name, r, c)
    path = tmp_path / "verify-all.json"
    assert cli.main(["verify-all", "--extension", "A3-S3", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["sections"]["modularity"] == {"orbifold_modular": True, "j_modular_claim": True}
    assert report["section_passed"]["psi-identification"]
    _finish(4, "S-matrices invertible and formula-checked", start, 60.0)


def test_criterion_5_braiding_and_twist_diagrams():
    start = time.monotonic()
    report = check_equivariant_diagrams(extension_by_name("A3-S3"))
    assert report.all_passed, report.failures[:5]
    assert report.counts == {
        "hexagon-one": 1000,
        "hexagon-two": 1000,
        "action-braiding": 200,
        "twist-product": 100,
        "braid-equals-r-action": 100,
        "twist-action": 20,
        "twist-duality": 10,
    }
    _finish(5, "all coherence diagrams on all simples", start, 120.0)


def _left_translation_action(group) -> GroupAction:
    rows = [[group.mul(a, m) for m in range(group.order)] for a in range(group.order)]
    return GroupAction(group, group.order, rows)


def _groupoid_zoo() -> list[tuple[str, GroupAction]]:
    z2 = group_by_name("Z2")
    z4 = group_by_name("Z4")
    return [
        ("S3 conjugation", conjugation_action(group_by_name("S3"))),
        ("D4 conjugation", conjugation_action(group_by_name("D4"))),
        ("Q8 conjugation", conjugation_action(group_by_name("Q8"))),
        ("A4 conjugation", conjugation_action(group_by_name("A4"))),
        ("S3 left translation", _left_translation_action(group_by_name("S3"))),
        ("Z6 left translation", _left_translation_action(group_by_name("Z6"))),
        ("D4 left translation", _left_translation_action(group_by_name("D4"))),
        ("Z4 left translation", _left_translation_action(z4)),
        ("Z4 trivial on 5 points", trivial_action(z4, 5)),
        ("Z2 swapping 2 points", GroupAction(z2, 2, [[0, 1], [1, 0]])),
    ]


def test_criterion_6_groupoid_character_theory():
    start = time.monotonic()
    zoo = _groupoid_zoo()
    assert len(zoo) >= 10
    for label, action in zoo:
        grp = action.group
        assert action.num_points <= 12 and grp.order <= 12, label
        inert = inertia(action)
        simples = simple_objects(action)
        vecs = [s.character_vector(inert) for s in simples]

        for i, vi in enumerate(vecs):
            for j in range(i, len(vecs)):
                want = Fraction(1 if i == j else 0)
                assert character_pairing(inert, vi, vecs[j]) == want, label

        for i, (m, g) in enumerate(inert.pairs):
            for (n, h) in inert.pairs:
                jinv = inert.pair_index[(n, grp.inv[h])]
                acc = Fraction(0)
                for v in vecs:
                    acc = acc + v[i] * v[jinv]
                count = sum(
                    1
                    for z in range(grp.order)
                    if action.act[z][m] == n and grp.conj(z, g) == h
                )
                assert acc == count, (label, (m, g), (n, h))

        assert sum(s.total_dim ** 2 for s in simples) == action.num_points * grp.order, label

        reg = regular_character(inert)
        for idx, (_m, g) in enumerate(inert.pairs):
            total = Fraction(0)
            for s, v in zip(simples, vecs):
                total = total + Fraction(s.total_dim) * v[idx]
            want = Fraction(grp.order if g == 0 else 0)
            assert total == want, label
            assert reg[idx] == want, label
        for s, mult in decompose_character(action, reg):
            assert mult == s.total_dim, label

        assert len(simples) == len(inert.action.orbits()), label
    _finish(6, "character theory on ten action groupoids", start, 30.0)


def test_criterion_7_partition_function_invariants():
    start = time.monotonic()
    sphere3 = presentation_by_name("S3sphere")
    product3 = presentation_by_name("S2xS1")
    for name in group_names():
        group = group_by_name(name)
        assert dw_invariant(sphere3, group) == Fraction(1, group.order), name
        assert dw_invariant(product3, group) == Fraction(1), name
        assert surface_state_dim(0, group) == 1, name
    s3 = group_by_name("S3")
    assert surface_state_dim(1, s3) == 8
    assert surface_state_dim(1, s3) == len(simples_of_double(trivial_extension(s3)))
    _finish(7, "partition functions on basic spaces", start, 10.0)


def test_criterion_8_twisted_sector_comparisons():
    start = time.monotonic()
    for name in ("A3-S3", "Z2-Z4"):
        ext = extension_by_name(name)
        for j in (0, 1):
            twist_hom = TwistHom(presentation_by_name("circle"), ext.J, (j,))
            action, _points = twisted_bundle_groupoid(twist_hom, ext)
            fiber = ext.fiber(j)
            pos = {h: i for i, h in enumerate(fiber)}
            rows = [
                [pos[ext.H.conj(ext.incl(g), h)] for h in fiber]
                for g in range(ext.G.order)
            ]
            oracle = GroupAction(ext.G, len(fiber), rows)
            assert len(action.orbits()) == len(oracle.orbits()), (name, j)
            got = sorted(len(action.stabilizer(o[0])) for o in action.orbits())
            want = sorted(len(oracle.stabilizer(o[0])) for o in oracle.orbits())
            assert got == want, (name, j)
            assert groupoid_cardinality(action) == groupoid_cardinality(oracle)
            classes = twisted_cech_h1(circle_nerve(ext.J, j), extension_to_weak_action(ext))
            assert classes.count == len(oracle.orbits()), (name, j)
    _finish(8, "twisted circle sectors match local data", start, 10.0)


def test_criterion_9_reproducible_reports(tmp_path):
    start = time.monotonic()
    blobs = []
    for fname in ("first.json", "second.json"):
        path = tmp_path / fname
        assert cli.main(["verify-all", "--extension", "A3-S3", "--out", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert report["all_passed"] is True
    assert report["schema"] == 1
    elapsed = time.monotonic() - start
    print(f"criterion 9 (byte-identical reports): PASS in {elapsed:.2f}s")
