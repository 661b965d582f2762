"""Checks decided on the integer rows of a table (`hopf.TableHopf.rows`).

On a table whose coefficients are all 1 (`TableHopf.ones`), each check of
`hopf.REDUCTION_PREMISES` that runs on every tuple is decided by one
routine, `reduced_check`, once the checks its proof needs have held on
every tuple of the same table in the same run; `hopf.run_checks` keeps that
order. The routine runs the check on a generating set of the table
(`generating_set`, found once per table by `TableHopf.generators`), and on
every tuple only when that fails, so its witness is the predicate loop's;
its docstring holds the five closure proofs. Associativity is compared row
by row (`first_nonassociative`), on the generators for Light's test and on
every basis element when that fails.

`first_unmapped_product` decides on the rows of two tables, of any
coefficients, whether a relabeling of the basis carries one table's
products to another's (`orbifold.psi_check` and the `phi-hopf-map` check of
`orbifold.verify_sector_double`).

Only checks that run on every tuple import this module, so a sampled run
loads none of it.
"""

from __future__ import annotations

from functools import partial
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


def first_nonassociative(rows: Rows, middles: Iterable[int]) -> Optional[tuple]:
    """The first (x, s, y), with x and y in basis order and s in the order
    of middles, such that rows[rows[x][s]][y] != rows[x][rows[s][y]], or
    None. For each x and s one tuple comparison decides every y: the row of
    e_x e_s against row x read at the entries of row s."""
    reads = [(s, itemgetter(*rows[s])) for s in middles]
    for x, row in enumerate(rows[:-1]):
        for s, read in reads:
            lhs, rhs = rows[row[s]], read(row)
            if lhs != rhs:
                return (x, s, next(y for y, (a, b) in enumerate(zip(lhs, rhs)) if a != b))
    return None


def reduced_check(h: TableHopf, name: str, arity: int, holds: Callable[..., bool]) -> Optional[tuple]:
    """The first tuple of that arity, in product order, on which the check
    of that name fails on h, or None. The check is one of
    `hopf.REDUCTION_PREMISES`, and its premises there have held on every
    tuple of h.

    holds runs first on the tuples whose first slot lies in the generating
    set S of h (`TableHopf.generators`); associativity is compared row by
    row on the tuples whose middle slot lies in S (`first_nonassociative`,
    which reads the integer predicate of `hopf._monomial_checks` a row at a
    time).
    If none of those fails, the check holds on every tuple, by the proofs
    below. Otherwise it runs again on every tuple: the reduced tuples are
    some of those, so it fails there too, and it returns the witness of the
    predicate loop. Each proof shows that the elements a at which the
    identity holds form a subspace closed under products; it contains S,
    and every basis element is a product of elements of S.

    associativity (no premise; Light's test). Let N be the set of t with
    (x t) y = x (t y) for all x and y. If t and u lie in N, so does tu:
        (x (tu)) y = ((x t) u) y = (x t) (u y) = x (t (u y)) = x ((tu) y),
    using t in N, then u in N with x t for x, then t in N with u y for y,
    then u in N with t for x.

    comultiplication_multiplicative (needs associativity). Let M be the set
    of a with Delta(ab) = Delta(a) Delta(b) for all b. If a and c lie in M,
    then for all b
        Delta((ac) b) = Delta(a (c b)) = Delta(a) Delta(c b)
                      = Delta(a) (Delta(c) Delta(b)) = (Delta(a) Delta(c)) Delta(b)
                      = Delta(ac) Delta(b),
    by associativity of H, a in M with cb for b, c in M, associativity of
    H (x) H (its product is componentwise), and a in M with c for b.

    coassociativity (needs comultiplication_multiplicative). Then
    Delta (x) id and id (x) Delta are algebra maps H (x) H -> H^(x)3:
    (Delta (x) id)((x (x) y)(x' (x) y')) = Delta(x x') (x) y y'
    = (Delta(x) (x) y)(Delta(x') (x) y'), and the same on the other leg. So
    if (Delta (x) id) Delta(a) = (id (x) Delta) Delta(a) at a and at b,
    then at ab both sides are the product of their values at a and at b:
        (Delta (x) id) Delta(ab) = (Delta (x) id)(Delta(a) Delta(b))
                                 = [(Delta (x) id) Delta(a)] [(Delta (x) id) Delta(b)],
    and the same for id (x) Delta.

    r_intertwines_coproducts (needs associativity and
    comultiplication_multiplicative). If R Delta(a) = Delta^op(a) R at a
    and at b, then
        R Delta(ab) = (R Delta(a)) Delta(b) = (Delta^op(a) R) Delta(b)
                    = Delta^op(a) (R Delta(b)) = Delta^op(a) Delta^op(b) R
                    = Delta^op(ab) R,
    using that Delta is multiplicative, that H (x) H is associative, and
    that Delta^op, Delta followed by the flip, an algebra map of H (x) H, is
    multiplicative too.

    ribbon_central (needs associativity). If nu commutes with a and with b,
    then
        nu (ab) = (nu a) b = (a nu) b = a (nu b) = a (b nu) = (ab) nu.
    """
    basis = range(h.dim)
    if name == "associativity":
        scan = partial(first_nonassociative, h.rows)
    else:

        def scan(firsts: Iterable[int]) -> Optional[tuple]:
            return first_failure(product(firsts, *[basis] * (arity - 1)), holds)

    return None if scan(h.generators()) is None else scan(basis)


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
