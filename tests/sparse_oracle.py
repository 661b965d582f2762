"""The sparse products of a Hopf table, the oracle for the integer view.

`equidouble.hopf.MonomialView` takes every product the package needs. The
kernels below take the same products term by term from the table's sparse
vectors, as the definition of the product extended bilinearly: every term
of one factor times every term of the other, each basis product read with
mul_basis. The tests compare the view's products, and the verdicts and
witnesses of the checks built on them, with these. `first_unmapped_product`
is the pair loop that `rowscans.first_unmapped_product` decides on views,
and `take_sparse_products` puts the oracle in the view's place in every
verifier; `count_views` records the views the verifiers read.
"""

from itertools import product

from equidouble import hopf as hopf_module
from equidouble import orbifold, rowscans
from equidouble.hopf import SparseTen, SparseVec, TableHopf, clean, sparse_eq
from equidouble.scalars import ZERO


class SparseProducts:
    """mul_vec and ten_mul of a TableHopf, by its sparse product table. It
    can stand in for the table's integer view: ones is False, so the checks
    built on it are the definitional predicates, and no check is reduced."""

    ones = False

    def __init__(self, hopf: TableHopf):
        self.hopf = hopf
        self.mul_basis = hopf.mul_basis

    def mul_vec(self, a: SparseVec, b: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for i, ca in a.items():
            if not ca:
                continue
            for j, cb in b.items():
                prod = self.mul_basis(i, j)
                if not prod:
                    continue
                c = ca * cb
                for k, ck in prod.items():
                    out[k] = out.get(k, ZERO) + c * ck
        return clean(out)

    def ten_mul(self, a: SparseTen, b: SparseTen) -> SparseTen:
        """Componentwise product on H (tensor) H."""
        out: SparseTen = {}
        for (i1, i2), ca in a.items():
            for (j1, j2), cb in b.items():
                p1 = self.mul_basis(i1, j1)
                if not p1:
                    continue
                p2 = self.mul_basis(i2, j2)
                if not p2:
                    continue
                c = ca * cb
                for k1, c1 in p1.items():
                    for k2, c2 in p2.items():
                        key = (k1, k2)
                        out[key] = out.get(key, ZERO) + c * c1 * c2
        return clean(out)


def first_unmapped_product(src: TableHopf, dst: TableHopf, perm) -> "tuple[int, int] | None":
    """The first basis pair (x, y) of src, in product order, whose product
    relabeled by perm differs from the product of (perm[x], perm[y]) in dst."""
    for x, y in product(range(src.dim), repeat=2):
        mapped = {perm[k]: c for k, c in src.mul_basis(x, y).items()}
        if not sparse_eq(mapped, dst.mul_basis(perm[x], perm[y])):
            return (x, y)
    return None


def take_sparse_products(monkeypatch) -> None:
    """Let every verifier read SparseProducts where it reads a table's
    integer view, and decide relabeled products by the pair loop: the path
    that the integer view replaced, for a test to compare reports with."""
    monkeypatch.setattr(hopf_module, "monomial_view", SparseProducts)
    monkeypatch.setattr(orbifold, "monomial_view", SparseProducts)
    monkeypatch.setattr(
        rowscans, "first_unmapped_product", lambda src, dst, perm: first_unmapped_product(src.hopf, dst.hopf, perm)
    )


def count_views(monkeypatch) -> list:
    """The tables whose integer view a verifier reads, one entry per read."""
    read = []
    real = hopf_module.monomial_view

    def counted(h):
        read.append(h)
        return real(h)

    monkeypatch.setattr(hopf_module, "monomial_view", counted)
    monkeypatch.setattr(orbifold, "monomial_view", counted)
    return read
