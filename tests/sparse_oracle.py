"""The sparse products of a Hopf table, the oracle for its integer rows, and
the one way a test corrupts a table.

`equidouble.hopf.TableHopf` takes every product the package needs from the
integer rows it derives when it is built. The kernels below take the same
products term by term, as the definition of the product extended
bilinearly: every term of one factor times every term of the other, each
basis product read with mul_basis. The tests compare the table's products,
and the verdicts and witnesses of the checks built on them, with these.
`first_unmapped_product` is the pair loop that
`rowscans.first_unmapped_product` decides on rows, and
`take_sparse_products` puts the oracle in the place of the table's products
in every verifier.

A built table is read-only, so a test corrupts a copy: `rebuilt` hands
fresh sparse copies of a table's structure maps (`Tables`) to an edit and
builds a new table from them.
"""

from dataclasses import dataclass
from itertools import product
from typing import Callable

from equidouble import rowscans
from equidouble.hopf import SparseTen, SparseVec, TableHopf, clean, sparse_eq
from equidouble.scalars import ZERO


def mul_vec(hopf: TableHopf, a: SparseVec, b: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for i, ca in a.items():
        if not ca:
            continue
        for j, cb in b.items():
            prod = hopf.mul_basis(i, j)
            if not prod:
                continue
            c = ca * cb
            for k, ck in prod.items():
                out[k] = out.get(k, ZERO) + c * ck
    return clean(out)


def ten_mul(hopf: TableHopf, a: SparseTen, b: SparseTen) -> SparseTen:
    """Componentwise product on H (tensor) H."""
    out: SparseTen = {}
    for (i1, i2), ca in a.items():
        for (j1, j2), cb in b.items():
            p1 = hopf.mul_basis(i1, j1)
            if not p1:
                continue
            p2 = hopf.mul_basis(i2, j2)
            if not p2:
                continue
            c = ca * cb
            for k1, c1 in p1.items():
                for k2, c2 in p2.items():
                    key = (k1, k2)
                    out[key] = out.get(key, ZERO) + c * c1 * c2
    return clean(out)


class SparseProducts:
    """mul_vec and ten_mul of a TableHopf, by the sparse kernels. It can
    stand in for the table as the products of a suite: ones is False, so
    the checks built on it are the definitional predicates."""

    ones = False

    def __init__(self, hopf: TableHopf):
        self.hopf = hopf

    def mul_vec(self, a: SparseVec, b: SparseVec) -> SparseVec:
        return mul_vec(self.hopf, a, b)

    def ten_mul(self, a: SparseTen, b: SparseTen) -> SparseTen:
        return ten_mul(self.hopf, a, b)


def first_unmapped_product(src: TableHopf, dst: TableHopf, perm) -> "tuple[int, int] | None":
    """The first basis pair (x, y) of src, in product order, whose product
    relabeled by perm differs from the product of (perm[x], perm[y]) in dst."""
    for x, y in product(range(src.dim), repeat=2):
        mapped = {perm[k]: c for k, c in src.mul_basis(x, y).items()}
        if not sparse_eq(mapped, dst.mul_basis(perm[x], perm[y])):
            return (x, y)
    return None


def take_sparse_products(monkeypatch) -> None:
    """Let every table take its products from the sparse kernels, with no
    integer predicate or reduced scan (ones is False), and decide relabeled
    products by the pair loop: the path that the integer rows replaced, for
    a test to compare reports with."""
    monkeypatch.setattr(TableHopf, "mul_vec", mul_vec)
    monkeypatch.setattr(TableHopf, "ten_mul", ten_mul)
    monkeypatch.setattr(TableHopf, "ones", False)
    monkeypatch.setattr(rowscans, "first_unmapped_product", first_unmapped_product)


@dataclass
class Tables:
    """Fresh sparse copies of a table's structure maps, for an edit."""

    unit: SparseVec
    mul: dict
    comul: dict
    counit: list
    antipode: dict


def rebuilt(hopf: TableHopf, edit: Callable[[Tables], object]) -> TableHopf:
    """A new table with hopf's structure maps as edit(tables) leaves them;
    hopf itself is unchanged. mul holds the nonzero products, in product
    order, and comul and antipode every basis element."""
    basis = range(hopf.dim)
    tables = Tables(
        dict(hopf.unit),
        {(i, j): hopf.mul_basis(i, j) for i, j in product(basis, basis) if hopf.rows[i][j] >= 0},
        {i: dict(hopf.comul_basis(i)) for i in basis},
        [hopf.counit_basis(i) for i in basis],
        {i: dict(hopf.antipode_basis(i)) for i in basis},
    )
    edit(tables)
    return TableHopf(hopf.dim, tables.unit, tables.mul, tables.comul, tables.counit, tables.antipode, name=hopf.name)
