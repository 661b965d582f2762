"""Crossed products A x| K[J] built from sector data, with the comparison
map onto the double of the big group.

Given the graded double of an extension 1 -> G -> H -> J -> 1 (with its
sector action, coherence elements, braiding and twist pieces), the crossed
product A (x) K[J] is again a Hopf algebra. Its unit, braiding and ribbon
elements are assembled from the sector pieces, and the label permutation

    (delta_m (x) g) (x) j  |->  delta_m (x) (incl(g) * s(j))

identifies the whole package with the ordinary double of H. The inverses
that assembly needs have closed forms, proved in `orbifold_ribbon`'s
docstring, so no linear system is solved; each is certified on both sides
with `hopf.inverts`. `psi_check` verifies that identification exhaustively
and `verify_sector_double` runs the axiom suite of a graded double; both
return a `hopf.VerifyReport` (checks, the `all_passed` property, and the
first failing tuple of each failed check in `witnesses`).

Every product here, in the builds, the certificates and the sector checks,
is taken from the integer rows of its table (`hopf.TableHopf`), which each
table derives once, when it is built; psi_check's `product` and
phi-hopf-map compare rows (`rowscans.first_unmapped_product`).
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Optional, Sequence

from .doubles import SectorDouble
from .errors import NonInvertibleError, UsageError
from .hopf import (
    RibbonData,
    SparseTen,
    SparseVec,
    TableHopf,
    VerifyReport,
    clean,
    inverts,
    outer,
    sparse_add,
    sparse_eq,
    verify_hopf,
    verify_quasitriangular,
    verify_ribbon,
)
from .scalars import ONE, ZERO, Scalar


def _shift(vec: SparseVec, j: int, n_j: int) -> SparseVec:
    """Embed an A-vector into the crossed product at K[J]-degree j."""
    return {a * n_j + j: c for a, c in vec.items()}


def orbifold_algebra(sd: SectorDouble) -> TableHopf:
    """The crossed product A (x) K[J] of a graded double.

    Basis a (x) j with product (a (x) i)(b (x) j) = a phi_i(b) c_{ij} (x) ij,
    componentwise coproduct, and antipode
    S(a (x) j) = c_{j^{-1},j}^{-1} phi_{j^{-1}}(S_A(a)) (x) j^{-1}.
    A product a phi_i(b) that is zero in A is read off A's rows and skipped.
    """
    A = sd.hopf
    J = sd.ext.J
    n_a, n_j = A.dim, J.order
    dim = n_a * n_j

    def idx(a: int, j: int) -> int:
        return a * n_j + j

    mul_table: dict[tuple[int, int], SparseVec] = {}
    for i in range(n_j):
        phi_i = sd.phi[i]
        for j in range(n_j):
            ij = J.mul(i, j)
            coh = sd.coherence[(i, j)]
            for a in range(n_a):
                row = A.rows[a]
                for b in range(n_a):
                    if row[phi_i[b]] >= 0:
                        vec = A.mul_vec(A.mul_basis(a, phi_i[b]), coh)
                        if vec:
                            mul_table[(idx(a, i), idx(b, j))] = _shift(vec, ij, n_j)

    comul_table: dict[int, SparseTen] = {}
    counit_table: list[Scalar] = [ZERO] * dim
    antipode_table: dict[int, SparseVec] = {}
    for a in range(n_a):
        for j in range(n_j):
            comul_table[idx(a, j)] = {
                (idx(x, j), idx(y, j)): c for (x, y), c in A.comul_basis(a).items()
            }
            counit_table[idx(a, j)] = A.counit_basis(a)
            jinv = J.inv[j]
            svec = A.mul_vec(sd.coherence_inv[(jinv, j)], _permute(A.antipode_basis(a), sd.phi[jinv]))
            antipode_table[idx(a, j)] = _shift(svec, jinv, n_j)

    unit = _shift(A.unit, 0, n_j)
    name = f"Orb({sd.hopf.name})" if sd.hopf.name else "Orb"
    return TableHopf(dim, unit, mul_table, comul_table, counit_table, antipode_table, name=name)


def _permute(vec: SparseVec, perm: Sequence[int]) -> SparseVec:
    return {perm[a]: c for a, c in vec.items()}


def _grouplike(sd: SectorDouble, j: int) -> SparseVec:
    """1_A (x) j inside the crossed product."""
    return _shift(sd.hopf.unit, j, sd.ext.J.order)


def _grouplike_inverse(sd: SectorDouble, ohat: TableHopf, j: int) -> SparseVec:
    """(1_A (x) j)^{-1}, which is the antipode of the grouplike 1_A (x) j
    (orbifold_ribbon has the proof); certified by multiplication in ohat."""
    g = _grouplike(sd, j)
    inv = ohat.antipode_vec(g)
    if not inverts(ohat.mul_vec, g, inv, ohat.unit):
        raise NonInvertibleError(f"the antipode of the grouplike 1 (x) {sd.ext.J.labels[j]} does not invert it")
    return inv


def orbifold_ribbon(sd: SectorDouble, ohat: Optional[TableHopf] = None) -> RibbonData:
    """Braiding and ribbon elements of the crossed product.

    R-hat collects every sector piece R_{i,j}, with the second leg pushed
    through (1_A (x) i^{-1})^{-1}; the inverse twist collects the sector
    inverse twists the same way,

        nu^{-1} = sum_j (1_A (x) j^{-1})^{-1} (theta_j^{-1} (x) 1).

    The carrier index always matches the index inside s(.^{-1}) of the
    sector piece. Every inverse this needs has a closed form:

    - Grouplikes. For g = 1_A (x) j, Delta(g) = g (x) g and eps(g) = 1, so
      the antipode axiom reads S(g) g = g S(g) = eps(g) 1 = 1: the inverse
      of g is S(g).
    - The ribbon element is nu = sum_j (theta_j (x) 1) g_j with
      g_j = 1_A (x) j^{-1}. Write u_j for the unit of sector j, embedded as
      u_j (x) 1. The sectors are orthogonal ideals, so
      theta_j^{-1} theta_k = delta_jk u_j and u_j u_k = delta_jk u_j;
      conjugation by 1_A (x) i acts as phi_i, which maps sector k to sector
      i k i^{-1}, so g_j commutes with u_j; and sum_j u_j = 1. Hence
          nu^{-1} nu = sum_{j,k} g_j^{-1} theta_j^{-1} theta_k g_k
                     = sum_j g_j^{-1} u_j g_j = sum_j u_j = 1,
      and, writing theta_j = theta_j u_j and theta_k^{-1} = u_k theta_k^{-1},
          nu nu^{-1} = sum_{j,k} theta_j g_j u_j u_k g_k^{-1} theta_k^{-1}
                     = sum_j theta_j theta_j^{-1} = sum_j u_j = 1.

    The proof uses the sector axioms that verify_sector_double checks, so
    every closed form, and R-hat against the inverse braiding of the double,
    is still certified on both sides by multiplication; NonInvertibleError
    names the element that failed.
    """
    if ohat is None:
        ohat = orbifold_algebra(sd)
    ext = sd.ext
    J = ext.J
    n_j = J.order
    inv_of_grouplike = {j: _grouplike_inverse(sd, ohat, J.inv[j]) for j in range(n_j)}

    rhat: SparseTen = {}
    for (i, j), ten in sd.r_sector.items():
        carrier = inv_of_grouplike[i]
        for (k, l), c in ten.items():
            left = k * n_j + 0
            right = ohat.mul_vec(carrier, {l * n_j + 0: ONE})
            for r, cr in right.items():
                key = (left, r)
                rhat[key] = rhat.get(key, ZERO) + c * cr
    rhat = clean(rhat)

    # the inverse braiding of the big double, written in crossed-product
    # labels: (delta_a (x) 1) (x) (delta_b (x) g_of(a^{-1} s(j)^{-1}) (x) j)
    # with j the grade of a^{-1}; a^{-1} s(j)^{-1} = (s(j) a)^{-1}, so the
    # G-part is the inverse of untwist[a]; certified below by multiplication
    H = ext.H
    rhat_inv: SparseTen = {}
    for a in range(H.order):
        j = ext.proj(H.inv[a])
        g = ext.G.inv[ext.untwist[a]]
        left = sd.index(a, 0) * n_j + 0
        for b in range(H.order):
            right = sd.index(b, g) * n_j + j
            rhat_inv[(left, right)] = ONE
    if not inverts(ohat.ten_mul, rhat, rhat_inv, outer(ohat.unit, ohat.unit)):
        raise NonInvertibleError("the assembled R-matrix is not inverted by the inverse braiding of the double")

    js = range(n_j)
    twist_pieces = (ohat.mul_vec(inv_of_grouplike[j], _shift(sd.theta_inv[j], 0, n_j)) for j in js)
    twist: SparseVec = reduce(sparse_add, twist_pieces, {})
    ribbon_pieces = (ohat.mul_vec(_shift(sd.theta[j], 0, n_j), _grouplike(sd, J.inv[j])) for j in js)
    ribbon: SparseVec = reduce(sparse_add, ribbon_pieces, {})
    if not inverts(ohat.mul_vec, ribbon, twist, ohat.unit):
        raise NonInvertibleError(
            "the ribbon element sum_j (theta_j (x) 1)(1 (x) j^{-1}) does not invert the assembled twist"
        )
    return RibbonData(hopf=ohat, r_matrix=rhat, r_inverse=rhat_inv, ribbon=ribbon, ribbon_inverse=twist)


def psi_permutation(sd: SectorDouble) -> list[int]:
    """Basis relabeling (delta_m (x) g) (x) j |-> delta_m (x) incl(g)s(j),
    from the crossed product onto the double of H."""
    ext = sd.ext
    H, J = ext.H, ext.J
    s = ext.section
    n_j = J.order
    perm = [0] * (sd.hopf.dim * n_j)
    for m in range(H.order):
        for g in range(ext.G.order):
            for j in range(n_j):
                src = sd.index(m, g) * n_j + j
                perm[src] = m * H.order + H.mul(ext.incl(g), s[j])
    return perm


def psi_check(sd: SectorDouble, rib: RibbonData, dh: SectorDouble) -> VerifyReport:
    """Exhaustive comparison of the crossed product of the graded double sd,
    with its braiding and ribbon elements rib (from orbifold_ribbon), and the
    ordinary double dh of H (from double_algebra) under the basis relabeling.

    The report's checks are `bijective` (witness: the two dimensions),
    `product` on every basis pair (witness: the first pair (x, y) whose
    relabeled product differs; decided on the rows of the two tables by
    `rowscans.first_unmapped_product`),
    `coproduct` with the counit on every basis element (witness: (x,)), and
    `rmatrix` and `twist`, which compare the assembled braiding and inverse
    twist with their counterparts in the double of H (witness: ()).
    """
    big = dh.hopf
    ohat = rib.hopf
    perm = psi_permutation(sd)
    basis = range(ohat.dim)

    def map_vec(vec: SparseVec) -> SparseVec:
        return {perm[k]: c for k, c in vec.items()}

    def map_ten(ten: SparseTen) -> SparseTen:
        return {(perm[x], perm[y]): c for (x, y), c in ten.items()}

    def coproduct(x: int) -> bool:
        return (
            sparse_eq(map_ten(ohat.comul_basis(x)), big.comul_basis(perm[x]))
            and ohat.counit_basis(x) == big.counit_basis(perm[x])
        )

    rep = VerifyReport(mode="full")
    rep.check("bijective", [(ohat.dim, big.dim)], lambda n, m: n == m and sorted(perm) == list(range(m)))
    from .rowscans import first_unmapped_product

    rep.record("product", first_unmapped_product(ohat, big, perm))
    rep.check("coproduct", product(basis), coproduct)
    rep.check("rmatrix", [()], lambda: sparse_eq(map_ten(rib.r_matrix), dh.r_sector[(0, 0)]))
    rep.check("twist", [()], lambda: sparse_eq(map_vec(rib.ribbon_inverse), dh.theta_inv[0]))
    return rep


def verify_sector_double(sd: SectorDouble, *, sampled: bool = False) -> VerifyReport:
    """Axiom suite for a graded double: underlying Hopf axioms, sector
    grading of all structure maps, the twisted action (automorphisms,
    composition through coherence elements, cocycle law), support and
    invertibility of the sector braiding and twist, and the quasitriangular
    plus ribbon axioms of the crossed product they assemble into.

    Each check runs over basis or sector index tuples and is witnessed by the
    first tuple it fails on; a check made of several identities runs them in
    turn and stops at the first failing one. A failure that aborts the
    crossed product construction (UsageError, NonInvertibleError, KeyError)
    fails each `orbifold-*` check not yet decided, with the error message as
    its witness, instead of raising.

    sampled applies to the four Hopf, quasitriangular and ribbon sub-suites,
    which draw the samples their suites fix; the grading, twisted-action and
    sector checks run on every tuple in either mode. The crossed product's
    quasitriangular and ribbon suites build on the checks its Hopf suite
    found to hold on every tuple (`hopf.VerifyReport.held`).
    """
    hopf = sd.hopf
    J = sd.ext.J
    basis = range(hopf.dim)
    js = range(J.order)
    sector = sd.sector_of
    phi = sd.phi
    units = [sd.sector_unit(j) for j in js]
    rep = VerifyReport(mode="sampled" if sampled else "full")

    axioms = verify_hopf(hopf, sampled=sampled)
    rep.include("hopf-axioms", axioms)
    rows = hopf.rows

    def ideal_pair(a: int, b: int) -> bool:
        k = rows[a][b]
        return k < 0 or sector(a) == sector(b) == sector(k)

    rep.check("sector-ideals", product(basis, basis), ideal_pair)
    rep.check("sector-ideals", [()], lambda: sparse_eq(hopf.unit, reduce(sparse_add, units, {})))
    rep.check(
        "sector-ideals",
        product(js, js),
        lambda i, j: sparse_eq(hopf.mul_vec(units[i], units[j]), units[i] if i == j else {}),
    )

    rep.check(
        "coproduct-grading",
        ((a, x, y) for a in basis for (x, y) in hopf.comul_basis(a)),
        lambda a, x, y: J.mul(sector(x), sector(y)) == sector(a),
    )
    rep.check("counit-sector", product(basis), lambda a: sector(a) == 0 or not hopf.counit_basis(a))
    rep.check(
        "antipode-grading",
        ((a, k) for a in basis for k in hopf.antipode_basis(a)),
        lambda a, k: sector(k) == J.inv[sector(a)],
    )

    rep.check("phi-identity", [()], lambda: phi[0] == tuple(basis))
    rep.check("phi-grading", product(js, basis), lambda j, a: sector(phi[j][a]) == J.conj(j, sector(a)))

    def phi_on_element(j: int, a: int) -> bool:
        perm = phi[j]
        moved = {(perm[x], perm[y]): c for (x, y), c in hopf.comul_basis(a).items()}
        return (
            hopf.counit_basis(perm[a]) == hopf.counit_basis(a)
            and sparse_eq(_permute(hopf.antipode_basis(a), perm), hopf.antipode_basis(perm[a]))
            and sparse_eq(moved, hopf.comul_basis(perm[a]))
        )

    rep.check("phi-hopf-map", product(js), lambda j: sparse_eq(_permute(hopf.unit, phi[j]), hopf.unit))
    rep.check("phi-hopf-map", product(js, basis), phi_on_element)
    from .rowscans import first_unmapped_product

    unmapped = ((j, *w) for j in js if (w := first_unmapped_product(hopf, hopf, phi[j])) is not None)
    rep.record("phi-hopf-map", next(unmapped, None))

    def coherence_inverse(i: int, j: int) -> bool:
        return inverts(hopf.mul_vec, sd.coherence[(i, j)], sd.coherence_inv[(i, j)], hopf.unit)

    def composition(i: int, j: int, a: int) -> bool:
        twisted = hopf.mul_vec(sd.coherence[(i, j)], {phi[J.mul(i, j)][a]: ONE})
        return sparse_eq({phi[i][phi[j][a]]: ONE}, hopf.mul_vec(twisted, sd.coherence_inv[(i, j)]))

    rep.check("phi-composition", product(js, js), coherence_inverse)
    rep.check("phi-composition", product(js, js, basis), composition)

    rep.check(
        "coherence-normalized",
        product(js),
        lambda j: sparse_eq(sd.coherence[(0, j)], hopf.unit) and sparse_eq(sd.coherence[(j, 0)], hopf.unit),
    )
    rep.check(
        "coherence-cocycle",
        product(js, js, js),
        lambda i, j, k: sparse_eq(
            hopf.mul_vec(sd.coherence[(i, j)], sd.coherence[(J.mul(i, j), k)]),
            hopf.mul_vec(_permute(sd.coherence[(j, k)], phi[i]), sd.coherence[(i, J.mul(j, k))]),
        ),
    )

    def r_sector(i: int, j: int) -> bool:
        r, r_inv = sd.r_sector[(i, j)], sd.r_sector_inv[(i, j)]
        return all(sector(a) == i and sector(b) == j for t in (r, r_inv) for (a, b) in t) and inverts(
            hopf.ten_mul, r, r_inv, outer(units[i], units[j])
        )

    def twist_sector(j: int) -> bool:
        t, t_inv = sd.theta[j], sd.theta_inv[j]
        return all(sector(a) == j for v in (t, t_inv) for a in v) and inverts(hopf.mul_vec, t, t_inv, units[j])

    rep.check("rmatrix-sectors", product(js, js), r_sector)
    rep.check("twist-sectors", product(js), twist_sector)

    try:
        ohat = orbifold_algebra(sd)
        crossed = verify_hopf(ohat, sampled=sampled)
        rep.include("orbifold-hopf", crossed)
        rib = orbifold_ribbon(sd, ohat)
        rep.include("orbifold-quasitriangular", verify_quasitriangular(rib, sampled=sampled, held=crossed.held))
        rep.include("orbifold-ribbon", verify_ribbon(rib, sampled=sampled, held=crossed.held))
        rep.built = rib
    except (UsageError, NonInvertibleError, KeyError) as exc:
        for name in ("orbifold-hopf", "orbifold-quasitriangular", "orbifold-ribbon"):
            if name not in rep.checks:
                rep.checks[name] = False
                rep.witnesses[name] = (str(exc),)
    return rep
