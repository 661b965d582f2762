"""Finite groups by multiplication table, their actions on finite sets,
extensions 1->G->H->J->1, weak actions.

Elements are indices 0..order-1 with identity at index 0. The weak-action /
extension round trip realizes the classification of extensions by
automorphisms-up-to-inner with coherence elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from typing import NamedTuple, Optional, Sequence

from .errors import NonInvertibleError, UsageError
from .scalars import ZERO


def _is_index(x: object, n: int) -> bool:
    # type(x) is int, not isinstance: JSON's true and false parse to bools
    return type(x) is int and 0 <= x < n


class FiniteGroup:
    """Group law as a full order x order table; verified at construction."""

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: str = "",
    ):
        n = len(table)
        if n < 1:
            raise UsageError("group table is empty")
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        self.name = name
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise UsageError(f"group table is not square: row {i} has {len(row)} entries, not {n}")
            if not all(_is_index(x, n) for x in row):
                raise UsageError(f"group table row {i} has an entry that is not an element index 0..{n - 1}")
        # identity at index 0
        for x in range(n):
            if self.table[0][x] != x or self.table[x][0] != x:
                raise UsageError("index 0 is not an identity for the table")
        # latin square (forced by group law, cheap sanity before associativity)
        for i in range(n):
            if sorted(self.table[i]) != list(range(n)) or sorted(
                self.table[j][i] for j in range(n)
            ) != list(range(n)):
                raise UsageError(f"table row/column {i} is not a permutation")
        # associativity
        t = self.table
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise UsageError(f"associativity fails at ({a},{b},{c})")
        inv = [0] * n
        for a in range(n):
            for b in range(n):
                if t[a][b] == 0:
                    inv[a] = b
                    break
        self.inv = tuple(inv)
        self.labels = tuple(labels) if labels else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise UsageError(f"{len(self.labels)} labels for a group of order {n}")
        # labels name the elements, and the modules built on them, in reports
        if not all(type(x) is str for x in self.labels) or len(set(self.labels)) != n:
            raise UsageError("group labels must be distinct strings")
        self._conjugacy: Optional[ConjugacyData] = None

    # -- element arithmetic -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, a: int, b: int) -> int:
        """a b a^-1."""
        return self.table[self.table[a][b]][self.inv[a]]

    def element_order(self, a: int) -> int:
        r, k = a, 1
        while r != 0:
            r = self.table[r][a]
            k += 1
        return k

    def exponent(self) -> int:
        def lcm(a: int, b: int) -> int:
            from math import gcd

            return a * b // gcd(a, b)

        return reduce(lcm, (self.element_order(a) for a in range(self.order)), 1)

    # -- subgroup machinery -------------------------------------------

    def closure(self, gens: Sequence[int]) -> tuple[int, ...]:
        """Subgroup generated by gens, as a sorted element tuple."""
        seen = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))

    def generating_set(self) -> tuple[int, ...]:
        """Greedy small generating set: repeatedly add the smallest new element."""
        gens: list[int] = []
        current = (0,)
        while len(current) < self.order:
            nxt = next(x for x in range(self.order) if x not in current)
            gens.append(nxt)
            current = self.closure(gens)
        return tuple(gens)

    def subgroup(self, elements: Sequence[int]) -> tuple["FiniteGroup", tuple[int, ...]]:
        """Subgroup on the given (closed) elements; returns (group, embedding)."""
        elems = tuple(sorted(set(elements)))
        if not elems or elems[0] != 0:
            raise UsageError("a subgroup must contain the identity 0")
        if not all(_is_index(e, self.order) for e in elems):
            raise UsageError(f"subgroup elements must be element indices 0..{self.order - 1}")
        pos = {e: i for i, e in enumerate(elems)}
        table = []
        for a in elems:
            row = []
            for b in elems:
                ab = self.table[a][b]
                if ab not in pos:
                    raise UsageError(f"element set not closed under product ({a},{b})")
                row.append(pos[ab])
            table.append(row)
        sub = FiniteGroup(table, labels=[self.labels[e] for e in elems])
        return sub, elems

    def is_normal(self, elements: Sequence[int]) -> bool:
        elems = set(elements)
        return all(self.conj(g, k) in elems for g in range(self.order) for k in elems)

    def centralizer(self, a: int) -> tuple[int, ...]:
        t = self.table
        return tuple(g for g in range(self.order) if t[g][a] == t[a][g])

    def conjugacy(self) -> "ConjugacyData":
        if self._conjugacy is None:
            self._conjugacy = conjugacy_data(self)
        return self._conjugacy

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or self.order})"


class ConjugacyData(NamedTuple):
    """Conjugacy classes (identity's class first, then by smallest member)."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    centralizers: tuple[tuple[int, ...], ...]


def conjugacy_data(g: FiniteGroup) -> ConjugacyData:
    """Classes and per-representative centralizers by brute force."""
    seen = [False] * g.order
    classes: list[tuple[int, ...]] = []
    for a in range(g.order):
        if seen[a]:
            continue
        cls = sorted({g.conj(x, a) for x in range(g.order)})
        for y in cls:
            seen[y] = True
        classes.append(tuple(cls))
    classes.sort(key=lambda c: c[0])
    class_of = [0] * g.order
    for i, cls in enumerate(classes):
        for y in cls:
            class_of[y] = i
    reps = tuple(cls[0] for cls in classes)
    cents = tuple(g.centralizer(r) for r in reps)
    for cls, cent in zip(classes, cents):
        if len(cls) * len(cent) != g.order:
            raise NonInvertibleError(f"class equation fails at {cls[0]}: {len(cls)} * {len(cent)} != {g.order}")
    return ConjugacyData(tuple(classes), tuple(class_of), reps, cents)


class GroupHom:
    """Homomorphism as an image list; verified at construction."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images: Sequence[int]):
        if len(images) != source.order:
            raise UsageError(f"a homomorphism from a group of order {source.order} needs {source.order} images")
        self.source = source
        self.target = target
        self.images = tuple(images)
        if self.images[0] != 0:
            raise UsageError("homomorphism must send identity to identity")
        for a in range(source.order):
            for b in range(source.order):
                if self.images[source.table[a][b]] != target.table[self.images[a]][self.images[b]]:
                    raise UsageError(f"not a homomorphism at ({a},{b})")

    def __call__(self, a: int) -> int:
        return self.images[a]

    def kernel(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.source.order) if self.images[a] == 0)

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupHom) and self.images == other.images

    __hash__ = None


class GroupExtension:
    """1 -> G -> H -> J -> 1 with a normalized set-theoretic section s: J -> H.

    The extension carries its weak action, computed once from the section
    and read back into G (the one place where g_of is applied to s):

    - rho[j][g] = g_of(s_j incl(g) s_j^-1), the automorphisms rho_j;
    - c[i][j] = g_of(s_i s_j s_ij^-1), the coherence elements;
    - untwist[h] = g_of(s(proj(h)^-1) h), which the sector braiding and twist act by.

    Every layer reads these tables (g_of(x^-1) = g_of(x)^-1 throughout):

    - extension_to_weak_action is WeakAction(J, G, [GroupHom(G, G, r) for r in rho], c);
    - sector_double: phi_j(delta_h (x) g) = delta_{s_j h s_j^-1} (x) rho[j][g], and c_{i,j} is c[i][j];
    - sector_double: R_{i,j} acts at left grade h1 by untwist[h1] on the right leg, R^-1 by G.inv[untwist[h1]];
    - sector_double: theta_j at grade h is keyed at G.inv[u], theta_j^-1 at (incl(u) h incl(u)^-1, u), u = untwist[h];
    - modular.j_act(x) acts by rho[x^-1], braid and twist by untwist[grade];
    - modular.compositor(i, j) acts by G.inv[c[j^-1][i^-1]];
    - orbifold_ribbon's inverse braiding at a is G.inv[untwist[a]], as a^-1 s(j)^-1 = (s(j) a)^-1 with j = proj(a^-1).

    The H-parts that conjugate grades (phi's and j_act's) and
    orbifold.psi_permutation still read the section itself.
    """

    def __init__(
        self,
        G: FiniteGroup,
        H: FiniteGroup,
        J: FiniteGroup,
        incl: GroupHom,
        proj: GroupHom,
        section: Sequence[int],
        name: str = "",
    ):
        if not (incl.source is G and incl.target is H):
            raise UsageError("the inclusion must be a homomorphism from G to H")
        if not (proj.source is H and proj.target is J):
            raise UsageError("the projection must be a homomorphism from H to J")
        if not incl.is_injective():
            raise UsageError("inclusion not injective")
        if not proj.is_surjective():
            raise UsageError("projection not surjective")
        if tuple(sorted(incl.images)) != proj.kernel():
            raise UsageError("image of inclusion differs from kernel of projection")
        self.G, self.H, self.J = G, H, J
        self.incl, self.proj = incl, proj
        self.section = tuple(section)
        self.name = name
        if len(self.section) != J.order:
            raise UsageError(f"section has {len(self.section)} values for {J.order} cosets")
        if not all(_is_index(h, H.order) for h in self.section):
            raise UsageError(f"section values must be element indices 0..{H.order - 1}")
        if self.section[0] != 0:
            raise UsageError("section not normalized (s(1) != 1)")
        for j in range(J.order):
            if proj(self.section[j]) != j:
                raise UsageError(f"section value s({j}) does not project to {j}")
        self._g_of_h = {incl(g): g for g in range(G.order)}
        s, g_of = self.section, self.g_of
        self.rho = tuple(tuple(g_of(H.conj(s[j], incl(g))) for g in range(G.order)) for j in range(J.order))
        self.c = tuple(
            tuple(g_of(H.mul(H.mul(s[i], s[j]), H.inv[s[J.mul(i, j)]])) for j in range(J.order))
            for i in range(J.order)
        )
        self.untwist = tuple(g_of(H.mul(s[J.inv[proj(h)]], h)) for h in range(H.order))

    def g_of(self, h: int) -> int:
        """Preimage in G of an H-element lying in the kernel fiber."""
        try:
            return self._g_of_h[h]
        except KeyError:
            raise UsageError(f"H-element {h} not in the image of G") from None

    def fiber(self, j: int) -> tuple[int, ...]:
        """H_j = all H-elements projecting to j, ascending."""
        return tuple(h for h in range(self.H.order) if self.proj(h) == j)

    def __repr__(self) -> str:
        return f"GroupExtension({self.name or (self.G.order, self.H.order, self.J.order)})"


def extension_from_subgroup(
    H: FiniteGroup,
    kernel_elements: Sequence[int],
    section: Optional[Sequence[int]] = None,
    name: str = "",
) -> GroupExtension:
    """Build the extension determined by a normal subgroup of H.

    J is the quotient (cosets ordered by smallest member); the default section
    picks the smallest element of each coset, which is automatically normalized.
    """
    kernel_elements = tuple(kernel_elements)
    if not all(_is_index(k, H.order) for k in kernel_elements):
        raise UsageError(f"kernel elements must be element indices 0..{H.order - 1}")
    kernel_set = tuple(sorted(set(kernel_elements)))
    if not H.is_normal(kernel_set):
        raise UsageError("kernel is not a normal subgroup")
    G, embed = H.subgroup(kernel_set)
    incl = GroupHom(G, H, embed)
    cosets_seen: dict[frozenset[int], int] = {}
    coset_list: list[tuple[int, ...]] = []
    for h in range(H.order):
        cs = frozenset(H.table[h][k] for k in kernel_set)
        if cs not in cosets_seen:
            cosets_seen[cs] = 0
            coset_list.append(tuple(sorted(cs)))
    coset_list.sort(key=lambda c: c[0])
    coset_index: dict[int, int] = {}
    for i, cs in enumerate(coset_list):
        for h in cs:
            coset_index[h] = i
    jn = len(coset_list)
    jtable = [
        [coset_index[H.table[coset_list[i][0]][coset_list[j][0]]] for j in range(jn)]
        for i in range(jn)
    ]
    J = FiniteGroup(jtable, labels=[H.labels[c[0]] for c in coset_list])
    proj = GroupHom(H, J, [coset_index[h] for h in range(H.order)])
    sec = tuple(section) if section is not None else tuple(c[0] for c in coset_list)
    return GroupExtension(G, H, J, incl, proj, sec, name=name)


class WeakAction:
    """Automorphisms rho_j of G with coherence elements c[i][j] in G."""

    def __init__(
        self,
        J: FiniteGroup,
        G: FiniteGroup,
        rho: Sequence[GroupHom],
        c: Sequence[Sequence[int]],
    ):
        self.J, self.G = J, G
        self.rho = tuple(rho)
        self.c = tuple(tuple(row) for row in c)
        if len(self.rho) != J.order or len(self.c) != J.order:
            raise UsageError(f"a weak action of J needs {J.order} automorphisms and coherence rows")
        for r in self.rho:
            if not (r.source is G and r.target is G and r.is_injective()):
                raise UsageError("rho_j is not an automorphism of G")
        if self.c[0][0] != 0:
            raise UsageError("c_{1,1} != 1")
        t = G.table
        for i in range(J.order):
            for j in range(J.order):
                ij = J.table[i][j]
                cij = self.c[i][j]
                for g in range(G.order):
                    lhs = self.rho[i](self.rho[j](g))
                    rhs = G.conj(cij, self.rho[ij](g))
                    if lhs != rhs:
                        raise UsageError(f"rho_i rho_j != Inn_c rho_ij at (i,j,g)=({i},{j},{g})")
        for i in range(J.order):
            for j in range(J.order):
                for k in range(J.order):
                    lhs = t[self.rho[i](self.c[j][k])][self.c[i][self.J.table[j][k]]]
                    rhs = t[self.c[i][j]][self.c[self.J.table[i][j]][k]]
                    if lhs != rhs:
                        raise UsageError(f"coherence cocycle fails at ({i},{j},{k})")

    def __repr__(self) -> str:
        return f"WeakAction(J={self.J.order}, G={self.G.order})"


class WeakActionIso(NamedTuple):
    """Witness h: J -> G transforming one weak action into another."""

    h: tuple[int, ...]

    def verify(self, wa: WeakAction, wa_prime: WeakAction) -> bool:
        G, J = wa.G, wa.J
        for j in range(J.order):
            for g in range(G.order):
                if wa_prime.rho[j](g) != G.conj(self.h[j], wa.rho[j](g)):
                    return False
        for i in range(J.order):
            for j in range(J.order):
                ij = J.table[i][j]
                lhs = G.table[wa_prime.c[i][j]][self.h[ij]]
                rhs = G.table[G.table[self.h[i]][wa.rho[i](self.h[j])]][wa.c[i][j]]
                if lhs != rhs:
                    return False
        return True


def extension_to_weak_action(ext: GroupExtension) -> WeakAction:
    """The weak action the extension carries: rho_j(g) = s(j) g s(j)^-1 and
    c_{i,j} = s(i)s(j)s(ij)^-1, read back into G."""
    return WeakAction(ext.J, ext.G, [GroupHom(ext.G, ext.G, r) for r in ext.rho], ext.c)


def weak_action_to_extension(wa: WeakAction) -> GroupExtension:
    """H = G x J with (g,i)(g',j) = (g rho_i(g') c_{i,j}, ij); tautological section."""
    G, J = wa.G, wa.J
    nG, nJ = G.order, J.order

    def idx(g: int, j: int) -> int:
        return g * nJ + j

    table = [[0] * (nG * nJ) for _ in range(nG * nJ)]
    for g in range(nG):
        for i in range(nJ):
            for g2 in range(nG):
                for j in range(nJ):
                    gg = G.table[G.table[g][wa.rho[i](g2)]][wa.c[i][j]]
                    table[idx(g, i)][idx(g2, j)] = idx(gg, J.table[i][j])
    labels = [f"({G.labels[g]},{J.labels[j]})" for g in range(nG) for j in range(nJ)]
    H = FiniteGroup(table, labels=labels)
    incl = GroupHom(G, H, [idx(g, 0) for g in range(nG)])
    proj = GroupHom(H, J, [j for g in range(nG) for j in range(nJ)])
    section = [idx(0, j) for j in range(nJ)]
    return GroupExtension(G, H, J, incl, proj, section)


def weak_actions_isomorphic(wa1: WeakAction, wa2: WeakAction) -> Optional[WeakActionIso]:
    """Exhaustive search (with per-index prefilter) for a witness wa1 -> wa2."""
    if wa1.G is not wa2.G and wa1.G.table != wa2.G.table:
        raise UsageError("weak actions must share G")
    if wa1.J is not wa2.J and wa1.J.table != wa2.J.table:
        raise UsageError("weak actions must share J")
    G, J = wa1.G, wa1.J
    candidates: list[list[int]] = []
    for j in range(J.order):
        ok = []
        for h in range(G.order):
            if all(wa2.rho[j](g) == G.conj(h, wa1.rho[j](g)) for g in range(G.order)):
                ok.append(h)
        if not ok:
            return None
        candidates.append(ok)
    for combo in iproduct(*candidates):
        witness = WeakActionIso(tuple(combo))
        if witness.verify(wa1, wa2):
            return witness
    return None


# -- actions on finite sets -----------------------------------------------


class GroupAction:
    """Left action of a finite group on points {0..num_points-1}."""

    def __init__(self, group: FiniteGroup, num_points: int, act: Sequence[Sequence[int]]):
        self.group = group
        self.num_points = num_points
        self.act = tuple(tuple(row) for row in act)
        if len(self.act) != group.order:
            raise UsageError("action table must have one row per group element")
        for g in range(group.order):
            row = self.act[g]
            if len(row) != num_points or sorted(row) != list(range(num_points)):
                raise UsageError(f"action row {g} is not a permutation of the points")
        for m in range(num_points):
            if self.act[0][m] != m:
                raise UsageError("identity must act trivially")
        for g in range(group.order):
            for h in range(group.order):
                gh = group.mul(g, h)
                for m in range(num_points):
                    if self.act[g][self.act[h][m]] != self.act[gh][m]:
                        raise UsageError(f"action not compatible at (g,h,m)=({g},{h},{m})")

    def orbits(self) -> list[tuple[int, ...]]:
        seen = [False] * self.num_points
        out = []
        for m in range(self.num_points):
            if seen[m]:
                continue
            orb = sorted({self.act[g][m] for g in range(self.group.order)})
            for x in orb:
                seen[x] = True
            out.append(tuple(orb))
        return out

    def stabilizer(self, m: int) -> tuple[int, ...]:
        return tuple(g for g in range(self.group.order) if self.act[g][m] == m)

    def transversal(self, orbit: Sequence[int]) -> dict[int, int]:
        """For each point of the orbit, the smallest group element moving the
        orbit representative (its smallest point) there."""
        rep = min(orbit)
        out = {}
        for m in orbit:
            out[m] = next(g for g in range(self.group.order) if self.act[g][rep] == m)
        return out

    def __repr__(self) -> str:
        return f"GroupAction({self.num_points} points, |G|={self.group.order})"


def conjugation_action(group: FiniteGroup) -> GroupAction:
    return action_via_hom(group, group, range(group.order))


def action_via_hom(
    points_group: FiniteGroup, acting: FiniteGroup, images: Sequence[int]
) -> GroupAction:
    """acting acts on the elements of points_group by conjugation through the
    given homomorphism images (acting element g conjugates by images[g])."""
    act = [
        [points_group.conj(images[g], m) for m in range(points_group.order)]
        for g in range(acting.order)
    ]
    return GroupAction(acting, points_group.order, act)


def groupoid_cardinality(action: GroupAction) -> Fraction:
    """Sum of 1/|stabilizer| over orbit representatives; equals |M|/|G|."""
    total = sum((Fraction(1, len(action.stabilizer(orb[0]))) for orb in action.orbits()), ZERO)
    if total != Fraction(action.num_points, action.group.order):
        raise NonInvertibleError(f"groupoid cardinality {total} != |M|/|G|")
    return total


# -- standard constructions -----------------------------------------------


def cyclic_group(n: int, name: str = "") -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, labels=[str(a) for a in range(n)], name=name or f"Z{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str = "") -> FiniteGroup:
    n = a.order * b.order

    def idx(x: int, y: int) -> int:
        return x * b.order + y

    table = [[0] * n for _ in range(n)]
    for x1 in range(a.order):
        for y1 in range(b.order):
            for x2 in range(a.order):
                for y2 in range(b.order):
                    table[idx(x1, y1)][idx(x2, y2)] = idx(a.table[x1][x2], b.table[y1][y2])
    labels = [f"({a.labels[x]},{b.labels[y]})" for x in range(a.order) for y in range(b.order)]
    return FiniteGroup(table, labels=labels, name=name or f"{a.name}x{b.name}")


def group_from_permutations(perms: Sequence[tuple[int, ...]], name: str = "") -> FiniteGroup:
    """Group generated by permutations (tuples mapping i -> p[i]); identity first.

    Elements are ordered by first discovery along BFS from the identity with
    generators applied in order, then sorted lexicographically as permutations
    with the identity forced to index 0.
    """
    if not perms:
        raise UsageError("a group generated by permutations needs at least one permutation")
    deg = len(perms[0])
    ident = tuple(range(deg))

    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(p[q[i]] for i in range(deg))

    elems = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in perms:
            y = compose(g, x)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    ordered = [ident] + sorted(e for e in elems if e != ident)
    pos = {e: i for i, e in enumerate(ordered)}
    table = [[pos[compose(p, q)] for q in ordered] for p in ordered]
    # digits run together while each point is one digit; past that a comma keeps labels distinct
    sep = "" if deg <= 10 else ","
    labels = [sep.join(map(str, e)) for e in ordered]
    return FiniteGroup(table, labels=labels, name=name)


def symmetric_group(n: int, name: str = "") -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UsageError(f"symmetric groups are built for degrees 1..5, not {n}")
    gens: list[tuple[int, ...]] = []
    if n >= 2:
        gens.append(tuple([1, 0] + list(range(2, n))))
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))
    if not gens:
        gens = [tuple(range(n))]
    return group_from_permutations(gens, name=name or f"S{n}")


def alternating_group(n: int, name: str = "") -> FiniteGroup:
    if not 3 <= n <= 5:
        raise UsageError(f"alternating groups are built for degrees 3..5, not {n}")
    three_cycles = []
    for i in range(n - 2):
        p = list(range(n))
        p[i], p[i + 1], p[i + 2] = p[i + 1], p[i + 2], p[i]
        three_cycles.append(tuple(p))
    return group_from_permutations(three_cycles, name=name or f"A{n}")


def dihedral_group(n: int, name: str = "") -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n, as vertex permutations."""
    if n < 2:
        raise UsageError(f"dihedral groups are built for n >= 2, not {n}")
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((n - i) % n for i in range(n))
    return group_from_permutations([rot, flip], name=name or f"D{n}")


def quaternion_group(name: str = "Q8") -> FiniteGroup:
    """Q8 = {1,-1,i,-i,j,-j,k,-k} via its left regular multiplication."""
    # encode elements 0..7 as (+1,-1,+i,-i,+j,-j,+k,-k)
    def mul(a: int, b: int) -> int:
        sa, ua = a % 2, a // 2  # sign bit, unit index in (1,i,j,k)
        sb, ub = b % 2, b // 2
        unit_table = [
            [(0, 0), (0, 1), (0, 2), (0, 3)],
            [(0, 1), (1, 0), (0, 3), (1, 2)],
            [(0, 2), (1, 3), (1, 0), (0, 1)],
            [(0, 3), (0, 2), (1, 1), (1, 0)],
        ]
        s, u = unit_table[ua][ub]
        return u * 2 + (s ^ sa ^ sb)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, labels=labels, name=name)


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> Optional[list[int]]:
    """Image list of an isomorphism g1 -> g2, or None; exhaustive with pruning."""
    if g1.order != g2.order:
        return None
    if sorted(g1.element_order(a) for a in range(g1.order)) != sorted(
        g2.element_order(a) for a in range(g2.order)
    ):
        return None
    gens = g1.generating_set()
    if not gens:  # trivial group
        return [0]
    # express every g1-element as a word: BFS products of generators
    word_parent: dict[int, tuple[int, int]] = {}  # elem -> (prev elem, gen index)
    order_seen = [0]
    frontier = [0]
    seen = {0}
    while frontier:
        x = frontier.pop(0)
        for gi, g in enumerate(gens):
            y = g1.table[x][g]
            if y not in seen:
                seen.add(y)
                word_parent[y] = (x, gi)
                order_seen.append(y)
                frontier.append(y)

    gen_orders = [g1.element_order(g) for g in gens]
    pools = [
        [b for b in range(g2.order) if g2.element_order(b) == o] for o in gen_orders
    ]
    for images in iproduct(*pools):
        phi = {0: 0}
        ok = True
        for y in order_seen[1:]:
            x, gi = word_parent[y]
            phi[y] = g2.table[phi[x]][images[gi]]
        if len(set(phi.values())) != g1.order:
            continue
        for a in range(g1.order):
            row = g1.table[a]
            pa = phi[a]
            for b in range(g1.order):
                if phi[row[b]] != g2.table[pa][phi[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return [phi[a] for a in range(g1.order)]
    return None
