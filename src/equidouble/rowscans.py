"""Checks decided on the integer rows of a table (`hopf.TableHopf.rows`).

On a table whose coefficients are all 1 (`TableHopf.ones`), a full-mode
Hopf, quasitriangular or ribbon check is decided on a generating set of the
table (`generating_set`) once the checks its proof needs have held on every
tuple of the same table in the same run; `hopf.run_checks` keeps that
order, and `hopf.REDUCTION_PREMISES` names each check's premises.
Each reduced scan below proves in its docstring that it decides its check.
They all rest on one closure argument: the set of elements on which the
identity holds is a subspace closed under products, so if it contains the
generating set it contains every basis element, and the identity holds on
every tuple. When a reduced scan fails, the scan on every tuple runs and
returns the first failing tuple in itertools.product order: the reduced
tuples are some of those tuples, so that scan fails too, and the witness is
the one the predicate loop finds.

`first_unmapped_product` decides on the rows of two tables, of any
coefficients, whether a relabeling of the basis carries one table's
products to another's (`orbifold.psi_check` and the `phi-hopf-map` check of
`orbifold.verify_sector_double`).

Only checks that run on every tuple import this module, so a sampled run
loads none of it.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .hopf import first_failure
from .scalars import ONE

if TYPE_CHECKING:
    from .hopf import TableHopf

Rows = Sequence[Sequence[int]]


def _spread(rows: Rows, gens: Sequence[int], reached: set[int], stack: list[int]) -> None:
    """Add to reached every element found by multiplying the elements on
    the stack, and those found from them, on the right by gens."""
    times = itemgetter(*gens, -1)  # the trailing -1 keeps the result a tuple
    while stack:
        fresh = set(times(rows[stack.pop()])) - reached
        reached |= fresh
        stack.extend(fresh)


def _closure(rows: Rows, gens: Sequence[int]) -> set[int]:
    """The basis elements reached from gens by multiplying on the right by
    gens, any number of times, in the table rows; with -1, the zero."""
    reached = {-1, *gens}
    _spread(rows, gens, reached, list(gens))
    return reached


def _pick(rows: Rows, candidates: Iterable[int]) -> tuple[list[int], set[int]]:
    """The candidates, in order, that the ones picked before them do not
    reach, and the closure of those picks (as `_closure`). The closure grows
    with each pick: the elements reached so far are multiplied by the new
    pick, and each newly reached element by every pick."""
    gens: list[int] = []
    reached = {-1}
    for g in candidates:
        if g in reached:
            continue
        gens.append(g)
        stack = list({g, *(rows[c][g] for c in reached)} - reached)
        reached.update(stack)
        _spread(rows, gens, reached, stack)
    return gens, reached


def generating_set(rows: Rows) -> list[int]:
    """Basis indices S of the table rows such that every basis element is a
    product of elements of S: it is reached from S by multiplying on the
    right by elements of S, read in the rows themselves, which may be a
    corrupted table.

    S is picked greedily in basis order (`_pick`), so every element is
    reached. The greedy pass alone keeps every idempotent delta_h (x) 1 of a
    double, which it meets first, so the picks are picked again in reverse
    order, kept if they still reach every element; then each generator is
    dropped if the closure of the others (`_closure`) is still all of the
    basis.
    """
    gens, _ = _pick(rows, range(len(rows) - 1))
    again, reached = _pick(rows, reversed(gens))
    if len(reached) == len(rows):
        gens = again
    for g in list(gens):
        rest = [s for s in gens if s != g]
        if len(_closure(rows, rest)) == len(rows):
            gens = rest
    return gens


def associativity_scan(h: TableHopf) -> Optional[tuple]:
    """The first (x, s, y) with rows[rows[x][s]][y] != rows[x][rows[s][y]]
    in product order, or None: for each (x, s) it compares the row of e_x e_s
    with row x read at the entries of row s."""
    rows = h.rows
    read = [itemgetter(*row) for row in rows[:-1]]
    for x, row in enumerate(rows[:-1]):
        for s, xs in enumerate(row[:-1]):
            lhs, rhs = rows[xs], read[s](row)
            if lhs != rhs:
                return (x, s, next(y for y, (a, b) in enumerate(zip(lhs, rhs)) if a != b))
    return None


def associativity(h: TableHopf, gens: Sequence[int], holds: Callable[..., bool]) -> Optional[tuple]:
    """Light's test on the generating set gens; it needs no premise.

    Let N be the set of t with (x t) y = x (t y) for all x and y. N is a
    subspace. If t and u lie in N, so does tu: for all x and y,
        (x (tu)) y = ((x t) u) y = (x t) (u y) = x (t (u y)) = x ((tu) y),
    using t in N, then u in N with x t for x, then t in N with u y for y,
    then u in N with t for x. So N contains every product of generators,
    which is every basis element, and the table is associative. For t in
    gens the identity is one comparison per x: the row of e_x e_t against
    row x read at the entries of row t.
    """
    rows = h.rows
    for t in gens:
        read = itemgetter(*rows[t])
        if any(rows[row[t]] != read(row) for row in rows[:-1]):
            return associativity_scan(h)
    return None


def _decide(h: TableHopf, arity: int, holds: Callable[..., bool], reduced: Iterable[tuple]) -> Optional[tuple]:
    """None if holds(*t) for every t in reduced, else the first failing
    tuple of all tuples of that arity, in product order."""
    if first_failure(reduced, holds) is None:
        return None
    return first_failure(product(range(h.dim), repeat=arity), holds)


def comultiplication_multiplicative(
    h: TableHopf, gens: Sequence[int], holds: Callable[..., bool]
) -> Optional[tuple]:
    """Delta(ab) = Delta(a) Delta(b) for a in gens and every b; it needs
    associativity.

    Let M be the set of a with Delta(ab) = Delta(a) Delta(b) for all b. M is
    a subspace. If a and c lie in M, then for all b
        Delta((ac) b) = Delta(a (c b)) = Delta(a) Delta(c b)
                      = Delta(a) (Delta(c) Delta(b)) = (Delta(a) Delta(c)) Delta(b)
                      = Delta(ac) Delta(b),
    by associativity of H, a in M with cb for b, c in M, associativity of
    H (x) H (its product is componentwise), and a in M with c for b. So M
    contains every product of generators, which is every basis element.
    """
    return _decide(h, 2, holds, product(gens, range(h.dim)))


def coassociativity(h: TableHopf, gens: Sequence[int], holds: Callable[..., bool]) -> Optional[tuple]:
    """(Delta (x) id) Delta(a) = (id (x) Delta) Delta(a) for a in gens; it
    needs Delta to be multiplicative.

    Then Delta (x) id and id (x) Delta are algebra maps H (x) H -> H^(x)3:
    (Delta (x) id)((x (x) y)(x' (x) y')) = Delta(x x') (x) y y'
    = (Delta(x) (x) y)(Delta(x') (x) y'), and the same on the other leg. So
    if the identity holds at a and at b, then at ab both sides are the
    product of their values at a and at b:
        (Delta (x) id) Delta(ab) = (Delta (x) id)(Delta(a) Delta(b))
                                 = [(Delta (x) id) Delta(a)] [(Delta (x) id) Delta(b)],
    and the same for id (x) Delta. The set where it holds is a subspace
    closed under products that contains gens, so it is everything.
    """
    return _decide(h, 1, holds, product(gens))


def r_intertwines_coproducts(
    h: TableHopf, gens: Sequence[int], holds: Callable[..., bool]
) -> Optional[tuple]:
    """R Delta(a) = Delta^op(a) R for a in gens; it needs associativity and
    Delta to be multiplicative.

    Let I be the set of a where it holds, a subspace. For a and b in I,
        R Delta(ab) = (R Delta(a)) Delta(b) = (Delta^op(a) R) Delta(b)
                    = Delta^op(a) (R Delta(b)) = Delta^op(a) Delta^op(b) R
                    = Delta^op(ab) R,
    using that Delta is multiplicative, that H (x) H is associative, and
    that Delta^op, Delta followed by the flip, an algebra map of H (x) H, is
    multiplicative too. So I contains every product of generators.
    """
    return _decide(h, 1, holds, product(gens))


def ribbon_central(h: TableHopf, gens: Sequence[int], holds: Callable[..., bool]) -> Optional[tuple]:
    """nu a = a nu for a in gens; it needs associativity.

    If nu commutes with a and with b, then
        nu (ab) = (nu a) b = (a nu) b = a (nu b) = a (b nu) = (ab) nu,
    so the centraliser of nu, a subspace, is closed under products, and it
    contains every product of generators.
    """
    return _decide(h, 1, holds, product(gens))


# check name -> its reduced scan
REDUCED = {
    "associativity": associativity,
    "comultiplication_multiplicative": comultiplication_multiplicative,
    "coassociativity": coassociativity,
    "r_intertwines_coproducts": r_intertwines_coproducts,
    "ribbon_central": ribbon_central,
}


def first_unmapped_product(src: TableHopf, dst: TableHopf, perm: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first basis pair (x, y) of src, in product order, with
    perm(e_x e_y) != e_perm[x] e_perm[y] in dst, or None; perm maps c e_k to
    c e_perm[k], and zero to zero.

    src and dst are two tables, read by their rows, and perm sends basis
    indices of src to labels; a label off dst's basis has no product in dst,
    and is read at dst's zero row and column -1. Each side is c e_k or zero,
    so the sides agree exactly when their rows entries agree (-1, relabeled
    to -1, for zero) and so do their coefficients, which are 1 on a zero
    product. Row x of src relabeled by perm is the left side for every y at
    once, and row perm[x] of dst read at perm the right side, so each x
    costs one tuple comparison; when a table stores coefficients, each entry
    is paired with its coefficient, and the trailing -1 is dropped.
    """
    relabel = [*perm, -1]
    inside = [p if p < dst.dim else -1 for p in perm]
    read = itemgetter(*inside, -1)
    scaled = src.coefficients or dst.coefficients
    for x, row in enumerate(src.rows[:-1]):
        lhs, rhs = tuple(map(relabel.__getitem__, row)), read(dst.rows[inside[x]])
        if scaled:
            lhs = tuple(zip(lhs, (src.coefficients.get((x, y), ONE) for y in range(len(perm)))))
            rhs = tuple(zip(rhs, (dst.coefficients.get((perm[x], p), ONE) for p in perm)))
        if lhs != rhs:
            return (x, next(y for y, (a, b) in enumerate(zip(lhs, rhs)) if a != b))
    return None
