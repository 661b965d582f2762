"""Finite-dimensional Hopf algebras with a distinguished basis, kept sparse.

Structure maps are tables over basis indices: the product is integer
rows, antipodes are sparse vectors and coproducts sparse 2-tensors. Every
axiom suite returns one report type, `VerifyReport`: `checks` maps each
named identity to its verdict, the `all_passed` property is their
conjunction, and `witnesses` holds the first tuple on which each failed
check fails. A suite is a table
of named predicates on basis tuples (`hopf_checks`, `quasitriangular_checks`,
`ribbon_checks`); `run_checks` runs each on every basis tuple, or, in
sampled mode, on a fixed number of random ones, and the report says which
mode ran. That number is written once, here: HOPF_SAMPLES per check of the
Hopf suite and RIBBON_SAMPLES per check of the quasitriangular and ribbon
suites, in every caller. The k-th check of a suite draws from Random(k), and
a check with no more basis tuples than samples runs on every tuple.

Every table here is monomial: a product of two basis elements is a scalar
multiple of one basis element, or zero, and a coproduct of one is a sum of
basis pairs with scalar coefficients. `TableHopf` derives its integer rows
once, when it is built, and takes every product from them: a row lookup
times the coefficient, which is 1 unless the table stores it (no table the
builders make has one stored). Building a table with a product of two or
more terms raises UsageError, and a built table is read-only. When every
coefficient is 1 (`TableHopf.ones`), associativity and
comultiplication_multiplicative are integer predicates, which hold on
exactly the tuples the definitional ones hold on, and a check that runs on
every tuple is decided on a generating set of the table (module
`rowscans`, loaded only then): associativity always (Light's test), and
comultiplication_multiplicative, coassociativity, r_intertwines_coproducts
and ribbon_central once the checks their proofs need (`REDUCTION_PREMISES`)
have held on every tuple of the same table in the same run (`Premises`). A
reduced check that fails runs on every tuple and reports that scan's first
failure, so verdicts and witnesses are those of the predicate loops, which
decide every other check.

The structure constants are Python ints, built from `scalars.ZERO` and
`scalars.ONE`. No operation here, in `doubles` or in `orbifold` divides a
scalar or inverts one: every inverse is a closed form, certified by
multiplication (`orbifold.orbifold_ribbon`), so a table built from ints holds
only ints. Why that stays exact, also when a caller or a corruption mixes in a
Fraction, is argued once, in the `scalars` docstring.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Sequence

from .errors import UsageError
from .scalars import ONE, ZERO, Scalar

SparseVec = dict[int, Scalar]
SparseTen = dict[tuple[int, int], Scalar]
SparseTen3 = dict[tuple[int, int, int], Scalar]

# tuples drawn per check of positive arity in sampled mode
HOPF_SAMPLES = 4000
RIBBON_SAMPLES = 400  # quasitriangular and ribbon suites


# -- sparse kernel: vectors and tensors are dicts from basis keys to scalars;
# a missing key is a zero coefficient, and the scalars' own bool() and ==
# decide zero and equality


def clean(a: dict) -> dict:
    """The same vector or tensor without stored zero coefficients: a itself
    when it stores none, else a copy."""
    return a if all(a.values()) else {k: c for k, c in a.items() if c}


def sparse_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, ZERO) + c
    return clean(out)


def sparse_eq(a: dict, b: dict) -> bool:
    return all(a.get(k, ZERO) == b.get(k, ZERO) for k in a.keys() | b.keys())


def outer(a: SparseVec, b: SparseVec) -> SparseTen:
    """The 2-tensor a (x) b."""
    return clean({(i, j): ci * cj for i, ci in a.items() for j, cj in b.items()})


def _frozen(a: dict) -> MappingProxyType:
    """A read-only view of a without stored zeros: of a itself when it
    stores none, not of a copy."""
    return MappingProxyType(clean(a))


_EMPTY: MappingProxyType = MappingProxyType({})


def inverts(mul: Callable[[dict, dict], dict], x: dict, y: dict, one: dict) -> bool:
    """Whether y is a two-sided inverse of x for the product mul with unit
    one: mul(x, y) == one and mul(y, x) == one."""
    return sparse_eq(mul(x, y), one) and sparse_eq(mul(y, x), one)


class TableHopf:
    """Hopf algebra defined by explicit structure tables, read-only once
    built, so that nothing derived from a table can go stale.

    The product is kept as integers: rows[i][j] is k when e_i e_j = c e_k
    with c nonzero, and -1 when e_i e_j = 0. Every row ends in -1 and the
    last row is all -1, so rows[rows[x][s]][y] and rows[x][rows[s][y]] read
    zero through a zero product without a branch. coefficients holds each c
    that is not exactly 1. A product of two or more terms, or one keyed off
    the basis, raises UsageError naming the pair; a stored zero is no term.
    The unit, counit, coproduct and antipode are a mapping, a tuple and
    mappings of mappings, all read-only. pairs[k] is the sorted tuple of
    pairs (x, y) with Delta(e_k) = sum of e_x (x) e_y, and pairs[-1] is
    empty, when every nonzero product and coproduct coefficient is exactly 1
    (`ones`); otherwise pairs is None. mul_vec and ten_mul are the products,
    extended bilinearly; a key that is not a basis index has no product.
    """

    def __init__(
        self,
        dim: int,
        unit: SparseVec,
        mul_table: dict[tuple[int, int], SparseVec],
        comul_table: dict[int, SparseTen],
        counit_table: Sequence[Scalar],
        antipode_table: dict[int, SparseVec],
        name: str = "",
    ):
        if len(counit_table) != dim:
            raise UsageError(f"a Hopf table of dimension {dim} needs {dim} counit values, got {len(counit_table)}")
        self.dim = dim
        self.name = name
        basis = range(dim)
        rows = [[-1] * (dim + 1) for _ in range(dim + 1)]
        coefficients: dict[tuple[int, int], Scalar] = {}
        for (i, j), vec in mul_table.items():
            terms = clean(vec)
            if not terms:
                continue
            ((k, c), *more) = terms.items()
            if more or i not in basis or j not in basis or k not in basis:
                raise UsageError(f"{self!r}: the product of the pair ({i}, {j}) is not a multiple of one basis element")
            rows[i][j] = k
            if c != 1:
                coefficients[(i, j)] = c
        self.rows = tuple(map(tuple, rows))
        self.coefficients = MappingProxyType(coefficients)
        self.unit = _frozen(unit)
        self._comul = MappingProxyType({i: _frozen(t) for i, t in comul_table.items()})
        self._counit = tuple(counit_table)
        self._antipode = MappingProxyType({i: _frozen(v) for i, v in antipode_table.items()})
        ones = not coefficients and all(
            c == 1 and i in basis and x in basis and y in basis
            for i, t in self._comul.items()
            for (x, y), c in t.items()
        )
        self.pairs = tuple(tuple(sorted(self.comul_basis(i))) for i in basis) + ((),) if ones else None

    @property
    def ones(self) -> bool:
        """Whether every nonzero product and coproduct coefficient is exactly 1."""
        return self.pairs is not None

    def mul_basis(self, i: int, j: int) -> SparseVec:
        k = self.rows[i][j] if i in range(self.dim) and j in range(self.dim) else -1
        return {k: self.coefficients.get((i, j), ONE)} if k >= 0 else {}

    def comul_basis(self, i: int) -> SparseTen:
        return self._comul.get(i, _EMPTY)

    def counit_basis(self, i: int) -> Scalar:
        return self._counit[i]

    def antipode_basis(self, i: int) -> SparseVec:
        return self._antipode.get(i, _EMPTY)

    # -- linear extensions -------------------------------------------

    def mul_vec(self, a: SparseVec, b: SparseVec) -> SparseVec:
        """ab is the sum over terms i of a and j of b of a_i b_j e_i e_j, and
        e_i e_j is c_ij e_k with k = rows[i][j] (c_ij is 1 unless stored), or
        zero when k is -1 or i or j is not a basis index. So each term adds
        (a_i b_j) c_ij to the coefficient of e_k, or nothing."""
        rows, coefficients, basis = self.rows, self.coefficients or None, range(self.dim)
        right = [(j, cb) for j, cb in b.items() if cb and j in basis]
        out: SparseVec = {}
        for i, ca in a.items():
            if not ca or i not in basis:
                continue
            row = rows[i]
            for j, cb in right:
                k = row[j]
                if k >= 0:
                    c = ca * cb
                    if coefficients:
                        c = c * coefficients.get((i, j), ONE)
                    out[k] = out.get(k, ZERO) + c
        return clean(out)

    def ten_mul(self, a: SparseTen, b: SparseTen) -> SparseTen:
        """Componentwise product on H (tensor) H: as in mul_vec, each pair of
        terms (i1, i2) of a and (j1, j2) of b adds (a_i b_j) c_i1j1 c_i2j2
        to the coefficient of (rows[i1][j1], rows[i2][j2]), or nothing. The
        terms are grouped by their first legs, so that a zero product of
        first legs skips every pair of terms in the two groups at once."""
        rows, coefficients = self.rows, self.coefficients or None
        out: SparseTen = {}
        right = self._by_first_leg(b)
        for i1, a_terms in self._by_first_leg(a).items():
            row1 = rows[i1]
            for j1, b_terms in right.items():
                k1 = row1[j1]
                if k1 < 0:
                    continue
                for i2, ca in a_terms:
                    row2 = rows[i2]
                    for j2, cb in b_terms:
                        k2 = row2[j2]
                        if k2 >= 0:
                            c = ca * cb
                            if coefficients:
                                c = c * coefficients.get((i1, j1), ONE) * coefficients.get((i2, j2), ONE)
                            key = (k1, k2)
                            out[key] = out.get(key, ZERO) + c
        return clean(out)

    def _by_first_leg(self, t: SparseTen) -> dict[int, list[tuple[int, Scalar]]]:
        """The nonzero terms of t on pairs of basis indices, as lists of
        (second leg, coefficient) keyed by first leg."""
        basis = range(self.dim)
        groups: dict[int, list[tuple[int, Scalar]]] = {}
        for (x, y), c in t.items():
            if c and x in basis and y in basis:
                groups.setdefault(x, []).append((y, c))
        return groups

    def comul_vec(self, a: SparseVec) -> SparseTen:
        out: SparseTen = {}
        for i, c in a.items():
            for (x, y), d in self.comul_basis(i).items():
                out[(x, y)] = out.get((x, y), ZERO) + c * d
        return clean(out)

    def counit_vec(self, a: SparseVec) -> Scalar:
        acc: Scalar = ZERO
        for i, c in a.items():
            acc = acc + c * self._counit[i]
        return acc

    def antipode_vec(self, a: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for i, c in a.items():
            for k, d in self.antipode_basis(i).items():
                out[k] = out.get(k, ZERO) + c * d
        return clean(out)

    def flip_ten(self, a: SparseTen) -> SparseTen:
        return {(j, i): c for (i, j), c in a.items()}

    def __repr__(self) -> str:
        return f"TableHopf({self.name or self.dim})"


class RibbonData:
    """Quasitriangular + ribbon structure attached to a TableHopf."""

    __slots__ = ("hopf", "r_matrix", "r_inverse", "ribbon", "ribbon_inverse")

    def __init__(
        self, hopf: TableHopf, r_matrix: SparseTen, r_inverse: SparseTen, ribbon: SparseVec, ribbon_inverse: SparseVec
    ):
        self.hopf = hopf
        self.r_matrix = r_matrix
        self.r_inverse = r_inverse
        self.ribbon = ribbon
        self.ribbon_inverse = ribbon_inverse


# -- verification -------------------------------------------------------------


def first_failure(tuples: Iterable[tuple], holds: Callable[..., bool]) -> Optional[tuple]:
    """The first tuple t of `tuples` with holds(*t) false, or None."""
    for t in tuples:
        if not holds(*t):
            return t
    return None


class Premises:
    """What a run has established about one table, for the checks after it
    to build on: `held`, the checks that held on every tuple of the table,
    and `generators`, a generating set of its rows once one was found
    (`rowscans.generating_set`). verify_all_axioms and verify_sector_double
    hand the Hopf suite's premises to the quasitriangular and ribbon suites
    of the same table."""

    __slots__ = ("held", "generators")

    def __init__(self, held: Optional[set[str]] = None, generators: Optional[list[int]] = None):
        self.held = set() if held is None else held
        self.generators = generators


class VerifyReport:
    """Outcome of an axiom suite.

    checks maps each check name to its verdict. witnesses maps each failed
    check to the first tuple it failed on: basis indices, sector indices, a
    failed sub-suite's check name followed by its witness, or the message of
    the error that stopped a construction under test. built is ribbon data
    a suite constructed, for its caller to reuse: verify_sector_double sets
    it to the crossed product once that has been built and checked.
    premises is what the run established about its table (`Premises`).
    """

    __slots__ = ("mode", "checks", "witnesses", "built", "premises")

    def __init__(self, mode: str, premises: Optional[Premises] = None):
        self.mode = mode
        self.checks: dict[str, bool] = {}
        self.witnesses: dict[str, tuple] = {}
        self.built: Optional[RibbonData] = None
        self.premises = Premises() if premises is None else premises

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def failing(self) -> list[str]:
        return [k for k, v in self.checks.items() if not v]

    def check(self, name: str, tuples: Iterable[tuple], holds: Callable[..., bool]) -> None:
        """Record whether holds(*t) for every t in tuples. A check may be
        recorded in parts, by several calls; once one part has failed the
        later parts are skipped."""
        if name not in self.witnesses:
            self.record(name, first_failure(tuples, holds))

    def record(self, name: str, witness: Optional[tuple]) -> None:
        """Record a check, or a part of one, decided elsewhere: failed on
        witness, or passed if None. A part after a failed one is skipped."""
        if name in self.witnesses:
            return
        self.checks[name] = witness is None
        if witness is not None:
            self.witnesses[name] = witness

    def include(self, name: str, suite: VerifyReport) -> None:
        """Record a whole suite as one check, witnessed by its first failure."""
        failed = suite.failing()
        self.checks[name] = not failed
        if failed:
            self.witnesses[name] = (failed[0],) + suite.witnesses[failed[0]]


# name -> (arity, predicate on a basis tuple of that arity); arity 0 is one identity
Checks = dict[str, tuple[int, Callable[..., bool]]]
# name -> (premises, scan): the names of the checks that must hold on every
# tuple of the same table before the scan may decide the check of that name,
# and a procedure that, given the run's Premises, returns the first basis
# tuple in itertools.product order on which that check fails, or None
Scans = dict[str, tuple[tuple[str, ...], Callable[[Premises], Optional[tuple]]]]


def run_checks(
    checks: Checks,
    dim: int,
    *,
    sampled: bool,
    samples: int,
    scans: Optional[Scans] = None,
    premises: Optional[Premises] = None,
) -> VerifyReport:
    """Run each check on every basis tuple of its arity in full mode. In
    sampled mode the k-th check of positive arity (k = 0, 1, ...) runs on
    `samples` tuples drawn from Random(k), unless that is at least
    dim ** arity, the number of tuples there are; then it runs on every
    tuple. Every drawn tuple lies in the full product, so any failure a draw
    could find is found there too: the full product can only make a verdict
    stricter, and it costs no more tuples.

    A check that runs on every tuple and has a scan in `scans` is decided by
    the scan once each of its premises holds on every tuple of the table:
    is in `premises`, the run's earlier findings about the same table, or is
    a check of this run that runs on every tuple, decided first if it comes
    later. The scan finds the same first failing tuple as the predicate
    loop, which decides the check when a premise does not hold. Each check
    that held on every tuple is added to the premises, which the report
    carries."""
    rep = VerifyReport("sampled" if sampled else "full", premises)
    scans = scans or {}
    everywhere = {name for name, (arity, _) in checks.items() if not (sampled and samples < dim**arity)}
    decided: dict[str, Optional[tuple]] = {}

    def held(name: str) -> bool:
        if name in everywhere and name not in decided:
            arity, holds = checks[name]
            needs, scan = scans.get(name, ((), None))
            if scan is not None and all(map(held, needs)):
                decided[name] = scan(rep.premises)
            else:
                decided[name] = first_failure(product(range(dim), repeat=arity), holds)
            if decided[name] is None:
                rep.premises.held.add(name)
        return name in rep.premises.held

    k = 0
    for name, (arity, holds) in checks.items():
        if name in everywhere:
            held(name)
            rep.record(name, decided[name])
        else:
            rng = random.Random(k)
            rep.check(name, (tuple(rng.randrange(dim) for _ in range(arity)) for _ in range(samples)), holds)
        k += arity > 0
    return rep


def _coproduct_on_leg(h: TableHopf, t: SparseTen, leg: int) -> SparseTen3:
    """(Delta (x) id)(t) for leg 0, (id (x) Delta)(t) for leg 1."""
    out: SparseTen3 = {}
    for (x, y), c in t.items():
        for (a, b), d in h.comul_basis(y if leg else x).items():
            key = (x, a, b) if leg else (a, b, y)
            out[key] = out.get(key, ZERO) + c * d
    return out


def hopf_checks(h: TableHopf, products: TableHopf) -> Checks:
    """Bialgebra + antipode axioms as predicates on basis tuples, taking
    their products from `products`: h itself, or anything with the same
    mul_vec and ten_mul and `ones` false. When products is a table whose
    coefficients are all 1, associativity and comultiplication_multiplicative
    are the integer predicates of `_monomial_checks`."""
    p = products

    def unit(i):
        e = {i: ONE}
        return sparse_eq(p.mul_vec(h.unit, e), e) and sparse_eq(p.mul_vec(e, h.unit), e)

    def associativity(i, j, k):
        ei, ej, ek = {i: ONE}, {j: ONE}, {k: ONE}
        return sparse_eq(p.mul_vec(p.mul_vec(ei, ej), ek), p.mul_vec(ei, p.mul_vec(ej, ek)))

    def coassociativity(i):
        delta = h.comul_basis(i)
        return sparse_eq(_coproduct_on_leg(h, delta, 0), _coproduct_on_leg(h, delta, 1))

    def counit(i):
        left: SparseVec = {}
        right: SparseVec = {}
        for (x, y), c in h.comul_basis(i).items():
            left[y] = left.get(y, ZERO) + c * h.counit_basis(x)
            right[x] = right.get(x, ZERO) + c * h.counit_basis(y)
        e = {i: ONE}
        return sparse_eq(left, e) and sparse_eq(right, e)

    def comultiplication_multiplicative(i, j):
        lhs = h.comul_vec(h.mul_basis(i, j))
        return sparse_eq(lhs, p.ten_mul(h.comul_basis(i), h.comul_basis(j)))

    def antipode(i):
        left: SparseVec = {}
        right: SparseVec = {}
        for (x, y), c in h.comul_basis(i).items():
            left = sparse_add(left, p.mul_vec(h.antipode_basis(x), {y: c}))
            right = sparse_add(right, p.mul_vec({x: c}, h.antipode_basis(y)))
        want = {k: h.counit_basis(i) * u for k, u in h.unit.items()}
        return sparse_eq(left, want) and sparse_eq(right, want)

    def unit_comultiplication():
        return h.counit_vec(h.unit) == 1 and sparse_eq(h.comul_vec(h.unit), outer(h.unit, h.unit))

    checks: Checks = {
        "unit": (1, unit),
        "associativity": (3, associativity),
        "coassociativity": (1, coassociativity),
        "counit": (1, counit),
        "comultiplication_multiplicative": (2, comultiplication_multiplicative),
        "antipode": (1, antipode),
        "unit_comultiplication": (0, unit_comultiplication),
    }
    if p.ones:
        checks.update(_monomial_checks(p))
    return checks


def _monomial_checks(h: TableHopf) -> Checks:
    """associativity and comultiplication_multiplicative on the rows of a
    table whose coefficients are all 1.

    Both sides of (e_x e_s) e_y = e_x (e_s e_y) are a basis element or zero,
    so they agree exactly when rows[rows[x][s]][y] == rows[x][rows[s][y]].

    In Delta(e_a e_b) = Delta(e_a) Delta(e_b) the left side is the tensor
    whose terms are pairs[rows[a][b]], each with coefficient 1. The right
    side is a sum of terms e_(xx') (x) e_(yy') with coefficient 1, one for
    each pair (x, y) of a and (x', y') of b whose two products are nonzero;
    its coefficient on a key is the number of times the key occurs. So the
    sides are equal exactly when those keys, sorted, are pairs[rows[a][b]].
    """
    rows, pairs = h.rows, h.pairs

    def associativity(x, s, y):
        return rows[rows[x][s]][y] == rows[x][rows[s][y]]

    def comultiplication_multiplicative(a, b):
        rhs = tuple(sorted(
            (p, q)
            for x, y in pairs[a]
            for x2, y2 in pairs[b]
            if (p := rows[x][x2]) >= 0 and (q := rows[y][y2]) >= 0
        ))
        return rhs == pairs[rows[a][b]]

    return {
        "associativity": (3, associativity),
        "comultiplication_multiplicative": (2, comultiplication_multiplicative),
    }


# the checks each reduced scan of module rowscans needs to have held on every
# tuple of the same table; each scan's docstring has the proof
REDUCTION_PREMISES = {
    "associativity": (),
    "comultiplication_multiplicative": ("associativity",),
    "coassociativity": ("comultiplication_multiplicative",),
    "r_intertwines_coproducts": ("associativity", "comultiplication_multiplicative"),
    "ribbon_central": ("associativity",),
}


def _reduced_scans(h: TableHopf, checks: Checks) -> Scans:
    """The scans of module rowscans for the checks it reduces, each on a
    generating set of h's rows. The module is loaded, and the set
    found, when the first of them runs: a run in which none runs loads
    neither."""

    def scan(name: str, premises: Premises) -> Optional[tuple]:
        from . import rowscans

        if premises.generators is None:
            premises.generators = rowscans.generating_set(h.rows)
        return rowscans.REDUCED[name](h, premises.generators, checks[name][1])

    return {name: (needs, partial(scan, name)) for name, needs in REDUCTION_PREMISES.items() if name in checks}


def _run_suite(
    h: TableHopf,
    checks_of: Callable[[TableHopf], Checks],
    samples: int,
    sampled: bool,
    premises: Optional[Premises] = None,
) -> VerifyReport:
    """The checks checks_of(h), which take their products from h. When its
    coefficients are all 1, the checks that run on every tuple have the
    reduced scans of `_reduced_scans`."""
    checks = checks_of(h)
    scans = _reduced_scans(h, checks) if h.ones else None
    return run_checks(checks, h.dim, sampled=sampled, samples=samples, scans=scans, premises=premises)


def verify_hopf(h: TableHopf, *, sampled: bool = False) -> VerifyReport:
    """Bialgebra + antipode axioms, on every basis tuple or, in sampled
    mode, on HOPF_SAMPLES drawn tuples per check (`_run_suite`)."""
    return _run_suite(h, partial(hopf_checks, h), HOPF_SAMPLES, sampled)


def _hexagon_rhs(p: TableHopf, unit: SparseVec, r: SparseTen, pair: str, out: SparseTen3) -> SparseTen3:
    """out minus R13 R23 (pair "23") or R13 R12 (pair "12"), with the
    products of p; out is changed in place. A hexagon check passes its left
    side as out, so one 3-tensor holds the difference, and the sides agree
    exactly when every coefficient of it is zero.

    Expanded over pairs of terms a (x) b, s and c (x) d, t of R, R13 R23 is
    the sum of st (a1) (x) (1c) (x) (bd) and R13 R12 that of
    st (ac) (x) (1d) (x) (b1). The products with the unit 1 are real products
    in the table, so this is the product of the unit-embedded tensors. Both
    sums run over pairs of left legs a, c of R. With R_a the sum of s b over
    the terms a (x) b, s of R, the terms of R13 R23 at (a, c) sum to
    (a1) (x) (1c) (x) R_a R_c, one vector product; those of R13 R12 are zero
    unless ac is."""
    right: dict = {}
    for (a, b), s in r.items():
        right.setdefault(a, {})[b] = s
    legs = {x for key in r for x in key}
    times_unit = {x: p.mul_vec({x: ONE}, unit) for x in legs}
    unit_times = {x: p.mul_vec(unit, {x: ONE}) for x in legs}

    def add(v1: SparseVec, v2: SparseVec, v3: SparseVec, c: Scalar) -> None:
        # out -= c v1 (x) v2 (x) v3
        for k1, c1 in v1.items():
            for k2, c2 in v2.items():
                cc = c * c1 * c2
                for k3, c3 in v3.items():
                    key = (k1, k2, k3)
                    out[key] = out.get(key, ZERO) - cc * c3

    for a, ra in right.items():
        for c, rc in right.items():
            if pair == "23":
                add(times_unit[a], unit_times[c], p.mul_vec(ra, rc), ONE)
                continue
            ac = p.mul_vec({a: ONE}, {c: ONE})
            if ac:
                for b, s in ra.items():
                    for d, t in rc.items():
                        add(ac, unit_times[d], times_unit[b], s * t)
    return out


def quasitriangular_checks(rd: RibbonData, products: TableHopf) -> Checks:
    """R-matrix axioms; only the intertwining is checked per basis element.
    Products are taken from `products`, as in hopf_checks."""
    h, p = rd.hopf, products
    r, rinv = rd.r_matrix, rd.r_inverse

    def r_intertwines_coproducts(i):
        delta = h.comul_basis(i)
        return sparse_eq(p.ten_mul(r, delta), p.ten_mul(h.flip_ten(delta), r))

    def hexagon(leg, pair):
        # (Delta (x) id)(R) = R13 R23 for leg 0, (id (x) Delta)(R) = R13 R12 for leg 1
        return not any(_hexagon_rhs(p, h.unit, r, pair, _coproduct_on_leg(h, r, leg)).values())

    return {
        "r_invertible": (0, lambda: inverts(p.ten_mul, r, rinv, outer(h.unit, h.unit))),
        "r_intertwines_coproducts": (1, r_intertwines_coproducts),
        "hexagon_coproduct_left": (0, partial(hexagon, 0, "23")),
        "hexagon_coproduct_right": (0, partial(hexagon, 1, "12")),
    }


def verify_quasitriangular(
    rd: RibbonData, *, sampled: bool = False, premises: Optional[Premises] = None
) -> VerifyReport:
    """The R-matrix axioms. premises are what the same run established about
    rd.hopf, the report of verify_hopf(rd.hopf) included."""
    return _run_suite(rd.hopf, partial(quasitriangular_checks, rd), RIBBON_SAMPLES, sampled, premises)


def ribbon_checks(rd: RibbonData, products: TableHopf) -> Checks:
    """Ribbon element axioms; only centrality is checked per basis element.
    Products are taken from `products`, as in hopf_checks."""
    h, p = rd.hopf, products
    nu, nu_inv = rd.ribbon, rd.ribbon_inverse

    def ribbon_central(i):
        e = {i: ONE}
        return sparse_eq(p.mul_vec(nu, e), p.mul_vec(e, nu))

    def ribbon_coproduct():
        # Delta(nu) * (R21 R) = nu (tensor) nu
        r21r = p.ten_mul(h.flip_ten(rd.r_matrix), rd.r_matrix)
        return sparse_eq(p.ten_mul(h.comul_vec(nu), r21r), outer(nu, nu))

    return {
        "ribbon_invertible": (0, lambda: inverts(p.mul_vec, nu, nu_inv, h.unit)),
        "ribbon_central": (1, ribbon_central),
        "ribbon_antipode_fixed": (0, lambda: sparse_eq(h.antipode_vec(nu), nu)),
        "ribbon_counit_one": (0, lambda: h.counit_vec(nu) == 1),
        "ribbon_coproduct": (0, ribbon_coproduct),
    }


def verify_ribbon(rd: RibbonData, *, sampled: bool = False, premises: Optional[Premises] = None) -> VerifyReport:
    """The ribbon axioms. premises are as for verify_quasitriangular."""
    return _run_suite(rd.hopf, partial(ribbon_checks, rd), RIBBON_SAMPLES, sampled, premises)


def verify_all_axioms(rd: RibbonData, *, sampled: bool = False) -> VerifyReport:
    """Union of the Hopf, quasitriangular and ribbon suites; the last two
    build on what the first established about rd.hopf."""
    out = VerifyReport(mode="sampled" if sampled else "full")
    hopf = verify_hopf(rd.hopf, sampled=sampled)
    for part in (
        hopf,
        verify_quasitriangular(rd, sampled=sampled, premises=hopf.premises),
        verify_ribbon(rd, sampled=sampled, premises=hopf.premises),
    ):
        out.checks.update(part.checks)
        out.witnesses.update(part.witnesses)
    return out
