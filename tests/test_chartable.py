"""Character tables and irreducible matrices, cross-checked against
independently known small tables and representation-theoretic identities."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import equidouble
import equidouble.chartable as ct
from equidouble.catalogue import catalogue_list, group_by_name
from equidouble.chartable import CharacterTable, character_table, irrep_matrices
from equidouble.groups import (
    FiniteGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
)
from equidouble.cli import encode_scalar
from equidouble.errors import ResourceError, UsageError
from equidouble.linalg import ExactMatrix, mat_rank_det_kernel
from equidouble.scalars import Cyclotomic, cyclotomic_conjugate


def test_trivial_and_z2():
    t1 = character_table(cyclic_group(1))
    assert t1.degrees == (1,)
    t2 = character_table(cyclic_group(2))
    assert t2.degrees == (1, 1)
    rows = [[t2.value(r, x) for x in range(2)] for r in range(2)]
    assert all(v == 1 for v in rows[0])
    assert rows[1][0] == 1 and rows[1][1] == -1


def test_cyclic_tables_match_fourier_oracle():
    """Every row of the Z_n table must be k -> zeta_n^{jk} for a distinct j."""
    for n in [3, 4, 5, 6]:
        t = character_table(cyclic_group(n))
        assert t.degrees == tuple([1] * n)
        used = set()
        for j in range(n):
            match = [
                r
                for r in range(n)
                if all(t.value(r, k) == Cyclotomic.zeta(n, (j * k) % n) for k in range(n))
            ]
            assert len(match) == 1
            used.add(match[0])
        assert used == set(range(n))


def test_s3_table_pinned():
    s3 = symmetric_group(3)
    t = character_table(s3)
    assert t.degrees == (1, 1, 2)
    cd = t.conjugacy
    # classes ordered: identity, transpositions (size 3), three-cycles (size 2)
    sizes = [len(c) for c in cd.classes]
    assert sizes == [1, 3, 2]
    assert [t.rows[0][l] for l in range(3)] == [1, 1, 1] or all(
        t.rows[0][l] == 1 for l in range(3)
    )
    assert t.rows[1][1] == -1 and t.rows[1][2] == 1
    assert t.rows[2][0] == 2
    assert t.rows[2][1] == 0
    assert t.rows[2][2] == -1


def test_degree_patterns():
    assert sorted(character_table(symmetric_group(4)).degrees) == [1, 1, 2, 3, 3]
    assert sorted(character_table(dihedral_group(4)).degrees) == [1, 1, 1, 1, 2]
    assert sorted(character_table(quaternion_group()).degrees) == [1, 1, 1, 1, 2]
    assert sorted(character_table(alternating_group(4)).degrees) == [1, 1, 1, 3]
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert character_table(v4).degrees == (1, 1, 1, 1)


def test_regular_character_decomposition():
    """sum_chi d_chi * chi is |G| at the identity and 0 elsewhere."""
    for g in [symmetric_group(3), dihedral_group(4), quaternion_group(), symmetric_group(4)]:
        t = character_table(g)
        for x in range(g.order):
            acc = Fraction(0)
            for r in range(len(t.rows)):
                acc = acc + Fraction(t.degrees[r]) * t.value(r, x)
            want = Fraction(g.order) if x == 0 else Fraction(0)
            assert acc == want, (g.name, x)


def test_column_orthogonality():
    for g in [symmetric_group(3), quaternion_group(), alternating_group(4)]:
        t = character_table(g)
        cd = t.conjugacy
        k = len(cd.classes)
        for i in range(k):
            for j in range(k):
                acc = Fraction(0)
                for r in range(k):
                    acc = acc + t.rows[r][i] * cyclotomic_conjugate(t.rows[r][j])
                want = Fraction(len(cd.centralizers[i])) if i == j else Fraction(0)
                assert acc == want


def test_a4_has_cube_root_entries():
    t = character_table(alternating_group(4))
    z3 = Cyclotomic.zeta(3)
    found = any(
        t.rows[r][l] == z3 or t.rows[r][l] == z3 * z3
        for r in range(4)
        for l in range(4)
    )
    assert found


def _commutant_dimension(rep):
    """dim of {X : rep(g) X = X rep(g) for all g}; 1 iff irreducible."""
    g = rep.group
    d = rep.degree
    rows = []
    for a in g.generating_set():
        m = rep.matrix(a)
        # (M X - X M) entry (i,j) as linear functional of X entries
        for i in range(d):
            for j in range(d):
                coeff = [Fraction(0)] * (d * d)
                for k in range(d):
                    coeff[k * d + j] = coeff[k * d + j] + m[i, k]
                    coeff[i * d + k] = coeff[i * d + k] - m[k, j]
                rows.append(coeff)
    sys = ExactMatrix.from_rows(rows)
    return len(mat_rank_det_kernel(sys).kernel_basis)


def test_irrep_matrices_s3():
    s3 = symmetric_group(3)
    t = character_table(s3)
    rep = irrep_matrices(s3, t, 2)
    assert rep.degree == 2
    assert rep.matrix(0) == ExactMatrix.identity(2)
    assert _commutant_dimension(rep) == 1


def test_irrep_matrices_q8_two_dimensional():
    q8 = quaternion_group()
    t = character_table(q8)
    idx = next(r for r, d in enumerate(t.degrees) if d == 2)
    rep = irrep_matrices(q8, t, idx)
    assert rep.degree == 2
    # -1 (element index 1) must act as -identity in the 2-dim irrep
    minus = rep.matrix(1)
    assert minus == ExactMatrix.from_positions(2, 2, {0: -1, 3: -1})
    assert _commutant_dimension(rep) == 1


def test_irrep_matrices_s4_three_dimensional():
    s4 = symmetric_group(4)
    t = character_table(s4)
    idx = next(r for r, d in enumerate(t.degrees) if d == 3)
    rep = irrep_matrices(s4, t, idx)
    assert rep.degree == 3
    assert _commutant_dimension(rep) == 1


def test_irrep_matrices_linear_case():
    z4 = cyclic_group(4)
    t = character_table(z4)
    reps = [irrep_matrices(z4, t, r) for r in range(4)]
    for r, rep in enumerate(reps):
        for x in range(4):
            assert rep.matrix(x)[0, 0] == t.value(r, x)


def test_character_method_round_trip():
    s3 = symmetric_group(3)
    t = character_table(s3)
    rep = irrep_matrices(s3, t, 2)
    assert all(a == b for a, b in zip(rep.character(), t.rows[2]))


def test_table_is_cached():
    s3 = symmetric_group(3)
    assert character_table(s3) is character_table(s3)
    assert isinstance(character_table(s3), CharacterTable)


def test_cached_table_is_bound_to_the_group_asked_for():
    first = symmetric_group(3, name="first")
    second = FiniteGroup(first.table, labels=first.labels, name="second")
    for g in (first, second, first):
        table = character_table(g)
        assert table.group is g
        assert table.rows == character_table(second).rows


def test_irrep_of_another_groups_table_is_a_usage_error():
    with pytest.raises(UsageError, match="another multiplication table"):
        irrep_matrices(cyclic_group(6), character_table(symmetric_group(3)), 0)


def test_dixon_prime_search_is_bounded(monkeypatch):
    monkeypatch.setattr(ct, "is_prime", lambda n: False)
    with pytest.raises(ResourceError, match="no Dixon prime below 10\\^9"):
        ct._find_dixon_prime(6, 10 ** 8)


# sha256 over the JSON encoding of every character table and every irreducible
# matrix of the 16 catalogue groups, as produced by the separate Bareiss,
# Gauss-Jordan, F_p and echelon routines that row_reduce replaced. The
# encoding names each cyclotomic's conductor, so a changed value or a changed
# scalar type both show.
CATALOGUE_TABLES_AND_IRREPS_SHA256 = "a9b0eed4fb272a4c7f142e2210581cbe8f5c5cb508c1eebfca5a0417bd422767"


def test_catalogue_tables_and_irreps_match_recorded_digest():
    digest = hashlib.sha256()
    for name in catalogue_list()["groups"]:
        g = group_by_name(name)
        table = character_table(g)
        irreps = [irrep_matrices(g, table, r).mats for r in range(len(table.rows))]
        payload = {
            "group": name,
            "table": [[encode_scalar(x) for x in row] for row in table.rows],
            "irreps": [[[encode_scalar(x) for x in m.data] for m in mats] for mats in irreps],
        }
        digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == CATALOGUE_TABLES_AND_IRREPS_SHA256


# sha256 over the JSON encoding of the character tables of five groups outside
# the catalogue, as computed when each multi-dimensional eigenspace was split
# at the roots of a Hessenberg characteristic polynomial. They reach the Dixon
# primes 61 (S5), 31 (A5), 37 (S4xZ2, Q8xS3) and 13 (D12), and Q8xS3 splits
# 15 classes.
NON_CATALOGUE_TABLES_SHA256 = "a419a7020814b84df08cfb73e6f747ad6af49aebcbbbdc416458b90fd883cd10"


def test_non_catalogue_tables_match_recorded_digest():
    groups = [
        symmetric_group(5),
        alternating_group(5),
        direct_product(symmetric_group(4), cyclic_group(2)),
        dihedral_group(12),
        direct_product(quaternion_group(), symmetric_group(3)),
    ]
    digest = hashlib.sha256()
    for g in groups:
        payload = {"group": g.name, "table": [[encode_scalar(x) for x in row] for row in character_table(g).rows]}
        digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == NON_CATALOGUE_TABLES_SHA256


def test_table_and_irrep_certification_does_not_depend_on_assert():
    """Under python -O every assert is stripped; a corrupted irrep solve, a
    corrupted conjugation and a Dixon prime that is not 1 mod the exponent must
    still raise NonInvertibleError, each naming what failed."""
    script = """
import equidouble.chartable as ct
from equidouble.errors import NonInvertibleError
from equidouble.groups import cyclic_group, symmetric_group
from equidouble.linalg import ExactMatrix

s3 = symmetric_group(3)
table = ct.character_table(s3)
real_solve = ct.solve

def corrupted_solve(a, b):
    x = real_solve(a, b)
    data = x.data
    data[0] = -data[0]
    return ExactMatrix(x.rows, x.cols, data)

def irrep():
    ct.solve = corrupted_solve
    try:
        ct.irrep_matrices(s3, table, table.degrees.index(2))
    finally:
        ct.solve = real_solve

def table_without_conjugation():
    real_conjugate = ct.cyclotomic_conjugate
    ct.cyclotomic_conjugate = lambda x: x
    try:
        ct.character_table(cyclic_group(3))
    finally:
        ct.cyclotomic_conjugate = real_conjugate

def table_with_wrong_prime():
    # 11 - 1 = 10 is not a multiple of exponent(S3) = 6
    real_prime = ct._find_dixon_prime
    ct._find_dixon_prime = lambda order, exponent: 11
    try:
        ct._character_table_uncached(s3)
    finally:
        ct._find_dixon_prime = real_prime

for case in (table_without_conjugation, irrep, table_with_wrong_prime):
    try:
        case()
    except NonInvertibleError as exc:
        print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(equidouble.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised: row orthogonality fails at (1,1)",
        "raised: trace mismatch at element 0",
        "raised: exponent 6 does not divide p - 1 for the prime p = 11",
    ]
