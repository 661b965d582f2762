"""Exact matrices: the sparse store against a dense oracle, and rank / det /
kernel / solve with oracle cross-checks."""

import ast
import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import with_entries
from hypothesis import given, settings
from hypothesis import strategies as st

import equidouble
from equidouble.catalogue import extension_by_name, extension_names
from equidouble.chartable import character_table
from equidouble.errors import NonInvertibleError, UsageError
from equidouble.groupoids import simple_objects
from equidouble.groups import action_via_hom, cyclic_group
from equidouble.linalg import (
    ExactMatrix,
    echelon_kernel,
    inverse,
    mat_rank_det_kernel,
    row_reduce,
    solve,
    solve_rows,
)
from equidouble.scalars import Cyclotomic


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return ExactMatrix.from_rows(
        [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]
    )


def test_identity_and_zeros_pinned():
    r = mat_rank_det_kernel(ExactMatrix.identity(2))
    assert r.rank == 2 and r.det == 1 and r.kernel_basis == []
    r = mat_rank_det_kernel(ExactMatrix.zeros(2, 2))
    assert r.rank == 0 and not r.det and len(r.kernel_basis) == 2


def test_det_requested_on_rectangular_raises():
    r = mat_rank_det_kernel(ExactMatrix.zeros(2, 3))
    with pytest.raises(UsageError):
        _ = r.det


def test_det_multiplicative_random():
    rng = random.Random(123)
    for n in range(1, 7):
        for _ in range(4):
            a = rand_matrix(rng, n, n)
            b = rand_matrix(rng, n, n)
            da = mat_rank_det_kernel(a).det
            db = mat_rank_det_kernel(b).det
            dab = mat_rank_det_kernel(a @ b).det
            assert dab == da * db


def test_det_pinned_3x3():
    a = ExactMatrix.from_rows(
        [
            [Fraction(2), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(3), Fraction(-1)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
    )
    # cofactor expansion by hand: 2*(3+1) - 0 + 1*(1-0) = 9
    assert mat_rank_det_kernel(a).det == 9


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for rows, cols in [(3, 5), (4, 4), (5, 3), (2, 6)]:
        for _ in range(6):
            a = rand_matrix(rng, rows, cols, -3, 3)
            res = mat_rank_det_kernel(a)
            assert res.rank + len(res.kernel_basis) == cols
            for v in res.kernel_basis:
                prod = a @ ExactMatrix.from_rows([[x] for x in v])
                assert prod.is_zero()


def test_rank_of_outer_product_is_one():
    u = [Fraction(1), Fraction(2), Fraction(-1)]
    v = [Fraction(3), Fraction(0), Fraction(5), Fraction(1)]
    a = ExactMatrix.from_rows([[ui * vj for vj in v] for ui in u])
    assert mat_rank_det_kernel(a).rank == 1


def test_solve_and_inverse_random():
    rng = random.Random(31)
    for n in range(1, 6):
        a = ExactMatrix.identity(n)
        # random invertible: start from identity, apply row ops
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            c = Fraction(rng.randint(-2, 2))
            if i != j:
                a = with_entries(a, {(i, k): a[i, k] + c * a[j, k] for k in range(n)})
        b = rand_matrix(rng, n, 2)
        x = solve(a, b)
        assert (a @ x) == b
        ainv = inverse(a)
        assert (a @ ainv) == ExactMatrix.identity(n)


def test_solve_singular_raises_with_witness():
    a = ExactMatrix.from_rows(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    )
    b = ExactMatrix.from_rows([[Fraction(1)], [Fraction(3)]])
    with pytest.raises(NonInvertibleError):
        solve(a, b)


def test_cyclotomic_entries():
    z = Cyclotomic.zeta(4)
    a = ExactMatrix.from_rows([[z, Fraction(1)], [Fraction(-1), z]])
    # det = z^2 + 1 = 0, so rank 1
    res = mat_rank_det_kernel(a)
    assert not res.det
    assert res.rank == 1
    for v in res.kernel_basis:
        assert (a @ ExactMatrix.from_rows([[x] for x in v])).is_zero()


def test_matmul_shape_mismatch():
    with pytest.raises(UsageError):
        ExactMatrix.zeros(2, 3) @ ExactMatrix.zeros(2, 3)


def test_trace_and_transpose():
    a = ExactMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert a.trace() == 5
    assert a.transpose() == ExactMatrix.from_rows(
        [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]
    )


# -- the row-reduction kernel against independent oracles ---------------------


def leibniz_det(rows, one=Fraction(1)):
    """Determinant as the signed sum over permutations (no elimination)."""
    n = len(rows)
    total = 0 * one
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def rand_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def rand_zeta3(rng):
    return Cyclotomic(3, [rng.randint(-2, 2), rng.randint(-2, 2)])


def rand_rank_deficient(rng, entry, n, cols):
    """An n x cols product of random n x r and r x cols factors, r < n."""
    r = rng.randrange(n)
    left = [[entry(rng) for _ in range(r)] for _ in range(n)]
    right = [[entry(rng) for _ in range(cols)] for _ in range(r)]
    return [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(cols)] for i in range(n)]


@pytest.mark.parametrize("entry", [rand_rational, rand_zeta3], ids=["Q", "Q(zeta3)"])
def test_kernel_against_leibniz_and_round_trips(entry):
    rng = random.Random(2024)
    for n in range(1, 6):
        for low_rank in (False, True):
            rows = rand_rank_deficient(rng, entry, n, n) if low_rank else [
                [entry(rng) for _ in range(n)] for _ in range(n)
            ]
            a = ExactMatrix.from_rows(rows)
            res = mat_rank_det_kernel(a)
            assert res.det == leibniz_det(rows)
            assert res.rank + len(res.kernel_basis) == n
            if low_rank:
                assert res.rank < n
            for v in res.kernel_basis:
                assert (a @ ExactMatrix.from_rows([[x] for x in v])).is_zero()
            b = ExactMatrix.from_rows([[entry(rng), entry(rng)] for _ in range(n)])
            if not res.det:
                with pytest.raises(NonInvertibleError):
                    solve(a, b)
            else:
                assert all(x == y for x, y in zip((a @ solve(a, b)).data, b.data))
                assert all(
                    x == y for x, y in zip((a @ inverse(a)).data, ExactMatrix.identity(n).data)
                )


@pytest.mark.parametrize("entry", [rand_rational, rand_zeta3], ids=["Q", "Q(zeta3)"])
def test_rectangular_kernels_annihilate(entry):
    rng = random.Random(7)
    for rows_n, cols in [(2, 5), (3, 4), (5, 3), (4, 4)]:
        rows = rand_rank_deficient(rng, entry, rows_n, cols)
        a = ExactMatrix.from_rows(rows)
        res = mat_rank_det_kernel(a)
        assert res.rank + len(res.kernel_basis) == cols
        for v in res.kernel_basis:
            assert (a @ ExactMatrix.from_rows([[x] for x in v])).is_zero()


def rand_sparse(rng, entry, rows, cols):
    """Random matrix with about half its entries zero; over Q(zeta3) some of
    the zeros are cyclotomic zeros."""
    def pick():
        roll = rng.random()
        if roll < 0.3:
            return Fraction(0)
        if roll < 0.5:
            return entry(rng) * 0
        return entry(rng)

    return ExactMatrix.from_rows([[pick() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("entry", [rand_rational, rand_zeta3], ids=["Q", "Q(zeta3)"])
def test_kron_matches_its_definition_and_the_mixed_product_law(entry):
    rng = random.Random(5)
    for _ in range(6):
        ra, ca, rb, cb, cc = (rng.randint(1, 3) for _ in range(5))
        a, b = rand_sparse(rng, entry, ra, ca), rand_sparse(rng, entry, rb, cb)
        k = a.kron(b)
        assert (k.rows, k.cols) == (ra * rb, ca * cb)
        for i, j, p, q in itertools.product(range(ra), range(ca), range(rb), range(cb)):
            assert k[i * rb + p, j * cb + q] == a[i, j] * b[p, q]
        c, d = rand_sparse(rng, entry, ca, cc), rand_sparse(rng, entry, cb, cc)
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_kron_leaves_unreached_entries_rational():
    z = Cyclotomic.zeta(3)
    a = ExactMatrix.from_rows([[z, Fraction(0)], [z * 0, Fraction(2)]])
    k = a.kron(ExactMatrix.identity(2))
    assert k == ExactMatrix.from_rows(
        [[z, 0, 0, 0], [0, z, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    )
    types = [type(x) for x in k.data]
    assert (types.count(int), types.count(Fraction), types.count(Cyclotomic)) == (12, 2, 2)
    assert all(x == 0 for x, t in zip(k.data, types) if t is int)


def test_nonzeros_walk_row_major():
    z = Cyclotomic.zeta(3)
    a = ExactMatrix.from_rows([[Fraction(0), z], [z * 0, Fraction(-1)], [Fraction(3), Fraction(0)]])
    assert list(a.nonzeros()) == [(0, 1, z), (1, 1, Fraction(-1)), (2, 0, Fraction(3))]
    assert list(ExactMatrix.zeros(2, 3).nonzeros()) == []


def test_malformed_shapes_are_usage_errors():
    with pytest.raises(UsageError):
        ExactMatrix(2, 2, [Fraction(1)] * 3)
    with pytest.raises(UsageError):
        ExactMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(3)]])
    with pytest.raises(UsageError):
        ExactMatrix.zeros(2, 3).trace()


def test_matrix_and_module_layers_have_no_assert():
    """Certification must survive python -O, which strips every assert: no
    module of the package may hold one."""
    root = pathlib.Path(equidouble.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert len(paths) >= 14
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)


def _is_int_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_scalar_rules_live_in_scalars():
    """Outside scalars.py no module defines its own zero or one, builds a
    Fraction from one integer literal, or divides with `/`: an int divided by
    an int with `/` is a float, so every inverse goes through
    scalars.reciprocal."""
    root = pathlib.Path(equidouble.__file__).parent
    paths = sorted(p for p in root.rglob("*.py") if p.name != "scalars.py")
    assert len(paths) >= 13
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if name.id in ("ZERO", "ONE"):
                        found.append(("assigns " + name.id, node.lineno))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(("divides", node.lineno))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and len(node.args) == 1
                and not node.keywords
                and _is_int_literal(node.args[0])
            ):
                found.append(("Fraction of an int literal", node.lineno))
        assert found == [], (path.name, found)


def test_integer_scalars_are_ints_and_eliminate_exactly():
    for m in (ExactMatrix.zeros(2, 3), ExactMatrix.identity(3)):
        assert {type(x) for x in m.data} == {int}
    mixed = ExactMatrix.from_rows([[Cyclotomic.zeta(4), 0], [0, Fraction(1, 2)]])
    unreached = [x for x in mixed.kron(ExactMatrix.identity(2)).data if not x]
    assert len(unreached) == 12 and {type(x) for x in unreached} == {int}
    trivial = character_table(cyclic_group(1))
    assert trivial.rows == ((1,),) and type(trivial.rows[0][0]) is int
    # a simple module's matrix is int zeros around the blocks of a stabilizer
    # irrep; the irrep's own entries keep the field its elimination ran in
    # (the chartable digest pins them), so its zeros may be cyclotomic
    for name in extension_names():
        ext = extension_by_name(name)
        for s in simple_objects(action_via_hom(ext.H, ext.G, ext.incl.images)):
            in_blocks = len(s.orbit) * s.stab_degree ** 2
            for g in range(ext.G.order):
                data = s.total_matrix(g).data
                zeros = [x for x in data if not x]
                assert sum(type(x) is int for x in zeros) >= len(data) - in_blocks, (name, g)
                assert all(type(x) is int or isinstance(x, Cyclotomic) for x in zeros), (name, g)
    # each pivot is inverted by scalars.reciprocal, so an int pivot 2 gives
    # Fraction(1, 2), never the float 0.5
    a = ExactMatrix.from_rows([[2, 1], [0, 4]])
    inv = inverse(a)
    assert inv == ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 8)], [0, Fraction(1, 4)]])
    assert a @ inv == ExactMatrix.identity(2)
    x = solve(a, ExactMatrix.from_rows([[1], [1]]))
    assert x == ExactMatrix.from_rows([[Fraction(3, 8)], [Fraction(1, 4)]])
    singular = mat_rank_det_kernel(ExactMatrix.from_rows([[2, 1], [4, 2]]))
    assert (singular.rank, singular.det, singular.kernel_basis) == (1, 0, [[Fraction(-1, 2), 1]])
    det = mat_rank_det_kernel(a).det
    assert det == 8
    for value in inv.data + x.data + singular.kernel_basis[0] + [singular.det, det]:
        assert type(value) in (int, Fraction), value


def test_kernel_over_prime_field():
    p = 13
    rng = random.Random(11)
    for rows_n, cols in [(3, 5), (4, 4), (5, 3), (6, 6)]:
        for _ in range(5):
            a = [[rng.randrange(-20, 20) for _ in range(cols)] for _ in range(rows_n)]
            # force a dependent last row
            a[-1] = [(2 * x + 5 * y) for x, y in zip(a[0], a[1 % rows_n])]
            work = [row[:] for row in a]
            pivots, factor = row_reduce(work, modulus=p)
            basis = echelon_kernel(work, pivots, cols, p)
            assert len(pivots) + len(basis) == cols
            free = [c for c in range(cols) if c not in pivots]
            for f, v in zip(free, basis):
                assert [v[c] for c in free] == [1 if c == f else 0 for c in free]
                assert all(0 <= x < p for x in v)
                assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in a)
            if rows_n == cols:
                want = leibniz_det(a, 1) % p
                assert (factor if len(pivots) == cols else 0) == want


def test_prime_field_solve_rejects_target_outside_span():
    p = 7
    basis = [[1, 0, 2], [0, 1, 3]]  # columns of the 3 x 2 system
    inside = [3 * x + 4 * y for x, y in zip(basis[0], basis[1])]
    aug = [[basis[0][r], basis[1][r], inside[r]] for r in range(3)]
    assert solve_rows(aug, 2, p) == [[3], [4]]
    outside = [0, 0, 1]
    aug = [[basis[0][r], basis[1][r], outside[r]] for r in range(3)]
    with pytest.raises(NonInvertibleError, match="inconsistent"):
        solve_rows(aug, 2, p)
    dependent = [[1, 2, 1], [0, 0, 0], [2, 4, 2]]
    with pytest.raises(NonInvertibleError, match="singular"):
        solve_rows(dependent, 2, p)


def test_solve_errors_do_not_depend_on_assert():
    """Under python -O every assert is stripped; the kernel's callers must
    still reject an out-of-span target and an inconsistent exact system."""
    script = """
from fractions import Fraction
from equidouble.errors import NonInvertibleError
from equidouble.linalg import ExactMatrix, solve, solve_rows
cases = [
    lambda: solve_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, 7),
    lambda: solve(
        ExactMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]),
        ExactMatrix.from_rows([[Fraction(1)], [Fraction(3)]]),
    ),
]
for case in cases:
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
        "raised: inconsistent system at row 2",
        "raised: inconsistent system at row 1",
    ]


# -- the sparse store against a dense oracle ----------------------------------


class DenseMatrix:
    """The dense oracle: a row-major list holding every entry, the int zero
    where nothing was set, with the arithmetic of a plain entry loop."""

    def __init__(self, rows, cols, data):
        self.rows, self.cols, self.data = rows, cols, list(data)

    def at(self, i, j):
        return self.data[i * self.cols + j]

    def __matmul__(self, other):
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.at(i, k)
                for j in range(other.cols):
                    b = other.at(k, j)
                    if a and b:
                        out[i * other.cols + j] = out[i * other.cols + j] + a * b
        return DenseMatrix(self.rows, other.cols, out)

    def kron(self, other):
        rows, cols = self.rows * other.rows, self.cols * other.cols
        out = DenseMatrix(rows, cols, [0] * (rows * cols))
        for i, j, k, l in itertools.product(range(self.rows), range(self.cols), range(other.rows), range(other.cols)):
            a, b = self.at(i, j), other.at(k, l)
            if a and b:
                out.data[(i * other.rows + k) * out.cols + j * other.cols + l] = a * b
        return out

    def transpose(self):
        return DenseMatrix(self.cols, self.rows, [self.at(i, j) for j in range(self.cols) for i in range(self.rows)])

    def nonzeros(self):
        return [(i, j, self.at(i, j)) for i in range(self.rows) for j in range(self.cols) if self.at(i, j)]

    def trace(self):
        t = 0
        for i in range(self.rows):
            t = t + self.at(i, i)
        return t


def same(x, y):
    """Equal value, type and, for cyclotomics, conductor."""
    return type(x) is type(y) and x == y and getattr(x, "n", None) == getattr(y, "n", None)


def same_data(m, dense):
    return (m.rows, m.cols) == (dense.rows, dense.cols) and len(m.data) == len(dense.data) and all(
        same(x, y) for x, y in zip(m.data, dense.data)
    )


small = st.integers(-2, 2)
scalars = st.one_of(
    small,
    st.builds(Fraction, small, st.integers(1, 3)),
    st.builds(lambda n, a, b: Cyclotomic(n, [a, b]), st.sampled_from([3, 4]), small, small),
    st.sampled_from([Fraction(0), Cyclotomic(3, [0, 0]), Cyclotomic(4, [0, 0]), Fraction(1), 1]),
)


def built_from(rows, cols, data, order):
    """The matrix of the row-major data, built by from_positions from a dict
    filled in the given order of positions; an int zero is left out, as no
    builder stores one."""
    return ExactMatrix.from_positions(rows, cols, {p: data[p] for p in order if type(data[p]) is not int or data[p]})


@st.composite
def stored(draw, rows=None, cols=None):
    """A matrix given by its entries in a drawn order (so the store's rows
    are filled out of column order), and its oracle."""
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    data = draw(st.lists(scalars, min_size=rows * cols, max_size=rows * cols))
    order = draw(st.permutations(range(rows * cols)))
    return built_from(rows, cols, data, order), DenseMatrix(rows, cols, data)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sparse_store_matches_the_dense_oracle(data):
    (a, da), (b, db) = data.draw(stored()), data.draw(stored())
    assert same_data(a, da) and same_data(ExactMatrix(da.rows, da.cols, da.data), da)
    assert same_data(a.transpose(), da.transpose())
    assert same_data(a.kron(b), da.kron(db))
    assert list(a.nonzeros()) == da.nonzeros()
    assert a.is_zero() == (not any(da.data))
    (c, dc) = data.draw(stored(rows=a.cols))
    assert same_data(a @ c, da @ dc)
    for m, dense in ((a @ c, da @ dc), (a.kron(b), da.kron(db)), (a.transpose(), da.transpose())):
        assert list(m.nonzeros()) == dense.nonzeros()
    if a.rows == a.cols:
        assert same(a.trace(), da.trace())
    assert (a == b) == ((da.rows, da.cols) == (db.rows, db.cols) and da.data == db.data)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(stored(), st.sampled_from([Fraction(0), Cyclotomic(3, [0, 0]), Cyclotomic(4, [0, 0])]), st.data())
def test_a_stored_zero_equals_an_unset_entry_and_keeps_its_type(pair, zero, data):
    m, dense = pair
    if not (m.rows and m.cols):
        return
    i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    p = i * m.cols + j
    order = data.draw(st.permutations(range(m.rows * m.cols)))
    unset = built_from(m.rows, m.cols, dense.data[:p] + [0] + dense.data[p + 1:], order)
    typed = built_from(m.rows, m.cols, dense.data[:p] + [zero] + dense.data[p + 1:], order)
    assert unset == typed and typed == unset
    assert type(unset[i, j]) is int and same(typed[i, j], zero)
    assert same(typed.data[i * m.cols + j], zero) and type(unset.data[i * m.cols + j]) is int
    assert (i, j) not in [(r, c) for r, c, _ in typed.nonzeros()]
    oracle = DenseMatrix(m.rows, m.cols, dense.data)
    oracle.data[i * m.cols + j] = zero
    assert same_data(typed, oracle)
    if m.rows == m.cols:
        assert same(typed.trace(), oracle.trace())


def test_entries_written_out_of_order_walk_in_column_order():
    z = Cyclotomic.zeta(4)
    written = [((0, 3), z), ((0, 1), 2), ((1, 2), Fraction(1, 2)), ((0, 0), 1), ((1, 0), z), ((0, 2), Fraction(0))]
    m = ExactMatrix.from_positions(2, 4, {i * 4 + j: x for (i, j), x in written})
    assert list(m.nonzeros()) == [(0, 0, 1), (0, 1, 2), (0, 3, z), (1, 0, z), (1, 2, Fraction(1, 2))]
    assert [type(x) for x in m.data] == [int, int, Fraction, Cyclotomic, Cyclotomic, int, Fraction, int]
    with pytest.raises(IndexError):
        _ = m[0, 4]


def test_a_built_matrix_is_read_only():
    """Every builder and operation gives a matrix no entry of which can be
    assigned, and the dense view is a new list: changing it changes nothing."""
    z = Cyclotomic.zeta(4)
    m = ExactMatrix.from_rows([[z, 0], [Fraction(0), 2]])
    built = [
        m,
        ExactMatrix(2, 2, [1, 0, 0, z]),
        ExactMatrix.from_positions(2, 2, {1: z}),
        ExactMatrix.identity(2),
        ExactMatrix.zeros(2, 2),
        m @ m,
        m.kron(m),
        m.transpose(),
    ]
    for b in built:
        with pytest.raises(TypeError):
            b[0, 0] = 1
    assert not any(hasattr(ExactMatrix, name) for name in ("__setitem__", "copy", "scale"))
    view = m.data
    view[0] = 5
    assert m[0, 0] == z and same_data(m, DenseMatrix(2, 2, [z, 0, Fraction(0), 2]))
