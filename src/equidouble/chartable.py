"""Exact character tables by the modular (Dixon) method, plus explicit
matrices for each irreducible representation.

The table is computed as common eigenvectors of class-sum matrices over a
prime field F_p with p = 1 mod exponent(G), then lifted to Q(zeta_e) by a
discrete Fourier transform over the cyclic group generated by each class
representative. Matrices for an irreducible come from a left ideal of the
group algebra cut out by a rank-compatible pair (subgroup, linear character).

Every elimination goes through linalg.row_reduce. Over F_p it finds the
eigenvalues of a class matrix on a multi-dimensional eigenspace (lam is one
exactly when the shifted restriction loses rank), each eigenspace (the kernel
of that same reduction) and the coordinates of class-matrix images in an
eigenspace basis. Over Q(zeta_e) it finds the basis of the left ideal (its
pivot columns among the translates) and the coordinates of the translated
basis (one solve whose consistency check certifies that the ideal is stable).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional, Sequence

from .errors import NonInvertibleError, ResourceError, UsageError
from .groups import ConjugacyData, FiniteGroup
from .linalg import ExactMatrix, echelon_kernel, row_reduce, solve, solve_rows
from .scalars import ONE, ZERO, Cyclotomic, Scalar, cyclotomic_conjugate, is_prime, sort_key

# -- prime-field helpers -------------------------------------------------------


def _find_dixon_prime(group_order: int, exponent: int) -> int:
    """Smallest p = 1 mod e with p prime, p not dividing |G|, p > 2 sqrt|G|."""
    bound = isqrt(4 * group_order)
    p = exponent + 1
    while True:
        if p > bound and is_prime(p) and group_order % p != 0:
            return p
        p += exponent
        if p >= 10 ** 9:
            raise ResourceError(f"no Dixon prime below 10^9 for |G| = {group_order}, exponent {exponent}")


def _root_of_unity_fp(p: int, e: int) -> int:
    """An element of exact multiplicative order e in F_p (requires e | p-1)."""
    if (p - 1) % e:
        raise NonInvertibleError(f"exponent {e} does not divide p - 1 for the prime p = {p}")
    n = p - 1
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, n // q, p) != 1 for q in factors):
            return pow(g, n // e, p)
    raise NonInvertibleError(f"no generator of F_{p}* found")


# -- the table ---------------------------------------------------------------


class CharacterTable(NamedTuple):
    """Irreducible characters as rows over conjugacy classes.

    rows[r][l] is the value on the class with representative
    conjugacy.representatives[l]; rows are sorted by (degree, entries) with
    the trivial character first.
    """

    group: FiniteGroup
    conjugacy: ConjugacyData
    rows: tuple[tuple[Scalar, ...], ...]
    degrees: tuple[int, ...]

    def value(self, r: int, element: int) -> Scalar:
        return self.rows[r][self.conjugacy.class_of[element]]


_TABLE_CACHE: dict[tuple, CharacterTable] = {}


def character_table(g: FiniteGroup) -> CharacterTable:
    """The character table of g, bound to g. Groups with equal multiplication
    tables share one cached computation, bound to the last group asked for."""
    table = _TABLE_CACHE.get(g.table)
    if table is None:
        table = _character_table_uncached(g)
    elif table.group is not g:
        table = table._replace(group=g)
    _TABLE_CACHE[g.table] = table
    return table


def _character_table_uncached(g: FiniteGroup) -> CharacterTable:
    cd = g.conjugacy()
    k = len(cd.classes)
    n = g.order
    e = g.exponent()
    if k == 1:
        return CharacterTable(g, cd, ((ONE,),), (1,))

    p = _find_dixon_prime(n, e)
    omega = _root_of_unity_fp(p, e)

    # class-sum matrices: M_i[j][l] = #{x in C_i : x^{-1} z_l in C_j}
    class_mats = []
    for i in range(k):
        m = [[0] * k for _ in range(k)]
        for l in range(k):
            z = cd.representatives[l]
            for x in cd.classes[i]:
                j = cd.class_of[g.mul(g.inv[x], z)]
                m[j][l] += 1
        class_mats.append(m)

    # split F_p^k into common eigenlines of the class-sum matrices; an
    # eigenspace that is still multi-dimensional is kept whole and refined
    # by the next class matrix
    spaces: list[list[list[int]]] = [[[1 if r == c else 0 for c in range(k)] for r in range(k)]]
    for mat in class_mats[1:]:
        if all(len(b) == 1 for b in spaces):
            break
        next_spaces: list[list[list[int]]] = []
        for basis in spaces:
            if len(basis) == 1:
                next_spaces.append(basis)
                continue
            images = []
            for v in basis:
                images.append([sum(mat[j][l] * v[l] for l in range(k)) % p for j in range(k)])
            # restricted[i][j] = coefficient of basis[i] in images[j]
            m = len(basis)
            restricted = solve_rows(
                [[b[r] for b in basis] + [im[r] for im in images] for r in range(k)], m, p
            )
            # lam is an eigenvalue exactly when restricted - lam*I is singular
            for lam in range(p):
                shifted = [
                    [restricted[i][j] - (lam if i == j else 0) for j in range(m)]
                    for i in range(m)
                ]
                pivots, _ = row_reduce(shifted, modulus=p)
                if len(pivots) == m:
                    continue
                next_spaces.append([
                    [sum(kv[i] * basis[i][r] for i in range(m)) % p for r in range(k)]
                    for kv in echelon_kernel(shifted, pivots, m, p)
                ])
        spaces = next_spaces
    if any(len(b) != 1 for b in spaces):
        raise NonInvertibleError("class matrices failed to split into eigenlines")
    if len(spaces) != k:
        raise NonInvertibleError(f"expected {k} eigenlines, got {len(spaces)}")

    h_sizes = [len(c) for c in cd.classes]
    inv_class = [cd.class_of[g.inv[cd.representatives[l]]] for l in range(k)]

    rows: list[tuple[Scalar, ...]] = []
    degrees: list[int] = []
    seen_lines = set()
    for (v,) in spaces:
        if v[0] % p == 0:
            raise NonInvertibleError("eigenvector vanishes on the identity class")
        scale = pow(v[0], p - 2, p)
        v = [x * scale % p for x in v]
        line = tuple(v)
        if line in seen_lines:
            raise NonInvertibleError("duplicate eigenline")
        seen_lines.add(line)
        s = 0
        for l in range(k):
            s = (s + v[l] * v[inv_class[l]] * pow(h_sizes[l], p - 2, p)) % p
        d_sq = n * pow(s, p - 2, p) % p
        degree = next(
            (d for d in range(1, isqrt(n) + 1) if d * d % p == d_sq), None
        )
        if degree is None:
            raise NonInvertibleError(f"no integer degree has square {d_sq} mod {p}")
        chi_fp = [degree * v[l] * pow(h_sizes[l], p - 2, p) % p for l in range(k)]

        row: list[Scalar] = []
        e_inv = pow(e, p - 2, p)
        omega_inv = pow(omega, p - 2, p)
        for l in range(k):
            z = cd.representatives[l]
            # chi values along the cyclic group generated by z
            powers = []
            y = 0
            for _s in range(e):
                powers.append(chi_fp[cd.class_of[y]])
                y = g.mul(y, z)
            mults = []
            for t in range(e):
                acc = 0
                step = pow(omega_inv, t, p)
                ws = 1
                for s_idx in range(e):
                    acc = (acc + powers[s_idx] * ws) % p
                    ws = ws * step % p
                mults.append(acc * e_inv % p)
            # each multiplicity is a residue in [0, p), so an exact sum of
            # degree also bounds every one of them by the degree
            if sum(mults) != degree:
                raise NonInvertibleError(
                    f"eigenvalue multiplicities {mults} at class {l} do not sum to the degree {degree}"
                )
            val: Scalar = ZERO
            for t, m_t in enumerate(mults):
                if m_t:
                    val = val + m_t * Cyclotomic.zeta(e, t)
            row.append(val)
        rows.append(tuple(row))
        degrees.append(degree)

    order_key = []
    for r, row in enumerate(rows):
        not_trivial = 0 if all(x == 1 for x in row) else 1
        entry_keys = tuple(sort_key(x) for x in row)
        order_key.append((degrees[r], not_trivial, entry_keys, r))
    order_key.sort(key=lambda t: (t[0], t[1], t[2]))
    perm = [t[3] for t in order_key]
    rows = [rows[i] for i in perm]
    degrees = [degrees[i] for i in perm]

    if sum(d * d for d in degrees) != n:
        raise NonInvertibleError("degrees fail sum-of-squares")
    for r in range(k):
        for s in range(r, k):
            acc: Scalar = ZERO
            for l in range(k):
                acc = acc + h_sizes[l] * rows[r][l] * cyclotomic_conjugate(rows[s][l])
            want = n if r == s else ZERO
            if acc != want:
                raise NonInvertibleError(f"row orthogonality fails at ({r},{s})")
    if not all(x == 1 for x in rows[0]):
        raise NonInvertibleError("first row is not the trivial character")

    return CharacterTable(g, cd, tuple(rows), tuple(degrees))


# -- explicit matrices -------------------------------------------------------


class IrreducibleRep(NamedTuple):
    """Matrices of one irreducible representation, indexed by group element."""

    group: FiniteGroup
    degree: int
    mats: tuple[ExactMatrix, ...]

    def matrix(self, element: int) -> ExactMatrix:
        return self.mats[element]

    def character(self) -> tuple[Scalar, ...]:
        cd = self.group.conjugacy()
        return tuple(self.mats[r].trace() for r in cd.representatives)


def _algebra_mul(
    g: FiniteGroup, a: list[Scalar], b_support: Sequence[tuple[int, Scalar]]
) -> list[Scalar]:
    """Group algebra product a * b where b is given by its sparse support."""
    out: list[Scalar] = [ZERO] * g.order
    for x, ax in enumerate(a):
        if not ax:
            continue
        for y, by in b_support:
            z = g.mul(x, y)
            out[z] = out[z] + ax * by
    return out


def _left_translate(g: FiniteGroup, s: int, vec: list[Scalar]) -> list[Scalar]:
    out: list[Scalar] = [ZERO] * g.order
    for x, cx in enumerate(vec):
        if cx:
            out[g.mul(s, x)] = cx
    return out


def irrep_matrices(g: FiniteGroup, table: CharacterTable, row: int) -> IrreducibleRep:
    """Exact matrices for the row-th irreducible of g.

    Realizes the representation on a left ideal K[G] e f where e is the
    central idempotent of the character and f averages a linear character of
    a subgroup that restricts with multiplicity exactly one.
    """
    if table.group is not g and table.group.table != g.table:
        raise UsageError("the character table is of a group with another multiplication table")
    cd = table.conjugacy
    chi = table.rows[row]
    d = table.degrees[row]
    n = g.order

    def chi_at(x: int) -> Scalar:
        return chi[cd.class_of[x]]

    if d == 1:
        mats = tuple(ExactMatrix(1, 1, [chi_at(x)]) for x in range(n))
        return IrreducibleRep(g, 1, mats)

    pair = _multiplicity_one_pair(g, table, row)
    if pair is None:
        raise ResourceError(
            f"no subgroup with a multiplicity-one linear character found for row {row}"
        )
    elems, embed_sub, psi_vals = pair

    # f = e_chi * f_psi
    e_coeffs: list[Scalar] = [Fraction(d, n) * chi_at(g.inv[x]) for x in range(n)]
    support = [
        (t, Fraction(1, len(elems)) * psi_vals[i]) for i, t in enumerate(elems)
    ]
    f = _algebra_mul(g, e_coeffs, support)

    # the translates x*f span the left ideal; the pivot columns of the matrix
    # whose columns are the translates pick the greedy basis among them
    translates = [_left_translate(g, x, f) for x in range(n)]
    pivots, _ = row_reduce([[t[r] for t in translates] for r in range(n)])
    if len(pivots) != d:
        raise NonInvertibleError(f"left ideal has rank {len(pivots)}, expected {d}")
    # s * (x*f) is the translate (s x)*f; solving on all n coordinates makes
    # solve's consistency check certify that every one stays in the ideal
    bmat = ExactMatrix.from_rows([[translates[x][r] for x in pivots] for r in range(n)])
    targets = ExactMatrix.from_rows(
        [[translates[g.mul(s, x)][r] for s in range(n) for x in pivots] for r in range(n)]
    )
    coords = solve(bmat, targets)
    mats = [
        ExactMatrix(d, d, [coords[i, s * d + j] for i in range(d) for j in range(d)])
        for s in range(n)
    ]

    for z in range(n):
        if mats[z].trace() != chi_at(z):
            raise NonInvertibleError(f"trace mismatch at element {z}")
    for a in g.generating_set():
        for b in range(n):
            if mats[a] @ mats[b] != mats[g.mul(a, b)]:
                raise NonInvertibleError(f"not multiplicative at ({a},{b})")
    return IrreducibleRep(g, d, tuple(mats))


def _multiplicity_one_pair(
    g: FiniteGroup, table: CharacterTable, row: int
) -> Optional[tuple[tuple[int, ...], FiniteGroup, list[Scalar]]]:
    """Find (subgroup elements, subgroup, linear character values) with
    <Res chi, psi> = 1; cyclic subgroups first, then two-generated ones."""
    cd = table.conjugacy
    chi = table.rows[row]
    seen: set[tuple[int, ...]] = set()
    candidates: list[tuple[int, ...]] = []
    for a in range(g.order):
        t = g.closure([a])
        if t not in seen:
            seen.add(t)
            candidates.append(t)
    for a in range(g.order):
        for b in range(a + 1, g.order):
            t = g.closure([a, b])
            if len(t) < g.order and t not in seen:
                seen.add(t)
                candidates.append(t)
    candidates.sort(key=lambda t: (-len(t), t))
    for elems in candidates:
        if len(elems) == g.order:
            continue
        sub, embed = g.subgroup(elems)
        sub_table = character_table(sub)
        sub_cd = sub_table.conjugacy
        for r, deg in enumerate(sub_table.degrees):
            if deg != 1:
                continue
            acc: Scalar = ZERO
            for i, t_elem in enumerate(embed):
                # psi(t^{-1}) read off the subgroup table exactly
                psi_inv = sub_table.rows[r][sub_cd.class_of[sub.inv[i]]]
                acc = acc + chi[cd.class_of[t_elem]] * psi_inv
            if acc == len(elems):
                psi_vals = [
                    sub_table.rows[r][sub_cd.class_of[sub.inv[i]]] for i in range(sub.order)
                ]
                return embed, sub, psi_vals
    return None
