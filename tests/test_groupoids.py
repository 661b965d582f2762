"""Action groupoids: cardinality, inertia, simples, character identities."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import regular_character, trivial_action

import equidouble
from equidouble.errors import UsageError
from equidouble.groupoids import (
    character_pairing,
    decompose_character,
    inertia,
    simple_objects,
)
from equidouble.groups import (
    GroupAction,
    conjugation_action,
    cyclic_group,
    groupoid_cardinality,
    symmetric_group,
)


def natural_s3_action():
    s3 = symmetric_group(3)
    act = [tuple(int(ch) for ch in s3.labels[g]) for g in range(6)]
    return GroupAction(s3, 3, act)


def test_cardinalities():
    s3 = symmetric_group(3)
    assert groupoid_cardinality(trivial_action(s3, 1)) == Fraction(1, 6)
    assert groupoid_cardinality(conjugation_action(s3)) == Fraction(1)
    assert groupoid_cardinality(natural_s3_action()) == Fraction(1, 2)


def test_action_validation():
    s3 = symmetric_group(3)
    with pytest.raises(UsageError):
        GroupAction(s3, 2, [[1, 0]] * 6)  # identity row must fix points
    with pytest.raises(UsageError):
        GroupAction(s3, 2, [[0, 0]] * 6)  # rows must be permutations


def test_orbits_and_stabilizers():
    a = natural_s3_action()
    assert a.orbits() == [(0, 1, 2)]
    stab = a.stabilizer(0)
    assert len(stab) == 2  # the transposition fixing point 0, plus identity
    c = conjugation_action(symmetric_group(3))
    assert [len(o) for o in c.orbits()] == [1, 3, 2]


def test_inertia_of_s3_conjugation():
    c = conjugation_action(symmetric_group(3))
    inert = inertia(c)
    # commuting pairs: sum over elements of |centralizer|
    assert len(inert.pairs) == 18
    assert len(inert.action.orbits()) == 8


def test_simples_point_mod_group_match_irreducibles():
    s3 = symmetric_group(3)
    simples = simple_objects(trivial_action(s3, 1))
    assert sorted(s.total_dim for s in simples) == [1, 1, 2]


def test_simples_s3_conjugation():
    simples = simple_objects(conjugation_action(symmetric_group(3)))
    assert len(simples) == 8
    assert sorted(s.total_dim for s in simples) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert sum(s.total_dim ** 2 for s in simples) == 36


def test_twisted_sector_style_action():
    """Z3 inside S3 conjugating the three transpositions: one simple."""
    s3 = symmetric_group(3)
    a3_elems = next(
        s3.closure([x]) for x in range(6) if s3.element_order(x) == 3
    )
    a3, embed = s3.subgroup(a3_elems)
    transpositions = [x for x in range(6) if s3.element_order(x) == 2]
    pos = {t: i for i, t in enumerate(transpositions)}
    act = [
        [pos[s3.conj(embed[a], t)] for t in transpositions] for a in range(3)
    ]
    action = GroupAction(a3, 3, act)
    assert groupoid_cardinality(action) == Fraction(1)
    simples = simple_objects(action)
    assert len(simples) == 1
    assert simples[0].stab_degree == 1
    assert simples[0].total_dim == 3


def test_characters_orthonormal():
    c = conjugation_action(symmetric_group(3))
    inert = inertia(c)
    simples = simple_objects(c)
    vecs = [s.character_vector(inert) for s in simples]
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            want = Fraction(1) if i == j else Fraction(0)
            assert character_pairing(inert, vi, vj) == want, (i, j)


def test_regular_character_decomposes_by_dimension():
    c = conjugation_action(symmetric_group(3))
    reg = regular_character(inertia(c))
    parts = decompose_character(c, reg)
    for s, mult in parts:
        assert mult == s.total_dim


def test_second_orthogonality():
    """Sum over simples of chi(m,g) chi(n, h^{-1}) counts transporting z."""
    grp = symmetric_group(3)
    c = conjugation_action(grp)
    inert = inertia(c)
    simples = simple_objects(c)
    vecs = [s.character_vector(inert) for s in simples]
    for i, (m, g) in enumerate(inert.pairs):
        for (n, h) in inert.pairs:
            acc = Fraction(0)
            jinv = inert.pair_index[(n, grp.inv[h])]
            for v in vecs:
                acc = acc + v[i] * v[jinv]
            count = sum(
                1
                for z in range(grp.order)
                if c.act[z][m] == n and grp.conj(z, g) == h
            )
            assert acc == count, ((m, g), (n, h))


def test_total_matrices_multiplicative_and_match_character():
    c = conjugation_action(symmetric_group(3))
    simples = simple_objects(c)
    big = next(s for s in simples if s.total_dim == 3)
    grp = c.group
    mats = [big.total_matrix(g) for g in range(grp.order)]
    for a in range(grp.order):
        for b in range(grp.order):
            assert mats[a] @ mats[b] == mats[grp.mul(a, b)]
    inert = inertia(c)
    for (m, g) in inert.pairs:
        # trace of the diagonal block at m equals the character there
        d = big.stab_degree
        if m not in big.transversal:
            continue
        pos = {mm: i for i, mm in enumerate(big.orbit)}
        blk = mats[g]
        tr = Fraction(0)
        for i in range(d):
            tr = tr + blk[pos[m] * d + i, pos[m] * d + i]
        assert tr == big.character_at(m, g)


def test_cyclic_conjugation_is_trivial():
    z4 = cyclic_group(4)
    c = conjugation_action(z4)
    assert groupoid_cardinality(c) == Fraction(1)  # 4 orbits, each stab = Z4
    assert len(simple_objects(c)) == 16  # 4 points x 4 characters


def test_bad_arguments_raise_usage_errors():
    s3 = symmetric_group(3)
    with pytest.raises(UsageError, match="not a permutation"):
        GroupAction(s3, -1, [[]] * 6)
    simples = simple_objects(natural_s3_action())
    moving = next(g for g in range(6) if natural_s3_action().act[g][0] != 0)
    with pytest.raises(UsageError, match="inertia pairs"):
        simples[0].character_at(0, moving)


def test_certification_does_not_depend_on_assert():
    """Under python -O every assert is stripped; a character read off an
    inertia pair must still raise UsageError, and a decomposition whose
    multiplicities do not reproduce the character NonInvertibleError."""
    script = """
import equidouble.groupoids as gp
from fractions import Fraction
from equidouble.errors import NonInvertibleError, UsageError
from equidouble.groups import conjugation_action, symmetric_group

c = conjugation_action(symmetric_group(3))
simples = gp.simple_objects(c)
moving = next(g for g in range(6) if c.act[g][1] != 1)
try:
    simples[0].character_at(1, moving)
except UsageError as exc:
    print("raised:", exc)
gp.character_pairing = lambda inert, f, f2: Fraction(0)
try:
    gp.decompose_character(c, [6 if g == 0 else 0 for (_m, g) in gp.inertia(c).pairs])
except NonInvertibleError as exc:
    print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(equidouble.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and lines[0].startswith("raised: character only defined on inertia pairs")
    assert lines[1] == "raised: decomposition mismatch"
