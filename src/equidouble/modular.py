"""Graded modules over the double of an extension, and the categorical layer:
fusion, sector action, braiding, twist, diagram checkers, S-matrix.

A module carries an H-grading (one H-element per basis vector) and one exact
matrix per G-element; the compatibility g.V_h <= V_{g h g^{-1}} (through the
inclusion of G into H) is the defining block condition. Simple modules come
from the conjugation groupoid H//G: one for each G-orbit in H and each
irreducible of the orbit's stabilizer.

A fused module keeps only its factors, the modules given by matrices that it
is the fusion of, and its dimension. Its grades, degree and name are formed
from the factors when first read, and its action at g is the Kronecker
product of the factors' actions at g, formed the first time a check reads
it; two fusions with equal factors are equal. Fusion and the sector action
are strict on bases: fuse(fuse(u, v), w) and fuse(u, fuse(v, w)) have the
same factors, j.(V (x) W) is (j.V) (x) (j.W), and duals of shifted modules
are shifted duals. So diagrams are compared as plain matrix
composites, and the S-matrix and the diagram suite take their braidings from
the one function braid.

Checking happens once, at GradedModule(...), where the simples' and callers'
grades and matrices come in; a matrix is read-only once built, so nothing
derived from a checked one and cached can go stale. Fusions, shifts and
duals are built unchecked, and each builder's docstring proves that the
block condition carries over. Maps are judged by the diagrams of
check_equivariant_diagrams, which name the modules; it builds each of its
seven diagram families once per tuple of fixed slots, on a direct sum in the
last slot: the sum of the sample, or of its modules of one sector where the
slot must be homogeneous.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import ResourceError, UsageError
from .groupoids import GroupoidSimple, simple_objects
from .groups import FiniteGroup, GroupExtension, action_via_hom, extension_from_subgroup
from .linalg import ExactMatrix, mat_rank_det_kernel
from .scalars import ZERO, Cyclotomic, Scalar, narrowed

if TYPE_CHECKING:
    from .doubles import SectorDouble


_UNREAD = object()  # a module's degree before it is first read
_EXACT = (int, Fraction, Cyclotomic)  # the classes of the exact scalars


class GradedModule:
    """An H-graded G-module attached to an extension 1 -> G -> H -> J -> 1.

    A module given by matrices is its own one factor; fuse builds modules
    whose factors are several such modules. A fusion, and the shift of one,
    keeps only its factors and its dimension: its grades, degree, name and
    action matrices are formed from the factors when first read."""

    __slots__ = ("ext", "dim", "factors", "_grades", "_name", "_degree", "_acts", "_shifted")

    def __init__(
        self,
        ext: GroupExtension,
        grades: Sequence[int],
        matrices: Sequence[ExactMatrix],
        name: str = "",
    ):
        grades = tuple(grades)
        self._attach(ext, len(grades), (self,), grades, name, list(matrices))
        for h in grades:
            # type(h) is int, not isinstance: a bool is no element index
            if type(h) is not int or not 0 <= h < ext.H.order:
                raise UsageError(f"grade {h!r} is not an element index 0..{ext.H.order - 1} of H")
        if len(self._acts) != ext.G.order:
            raise UsageError("one matrix per G-element required")
        if self._acts[0] != ExactMatrix.identity(self.dim):
            raise UsageError("identity of G must act as the identity matrix")
        H = ext.H
        for g, mat in enumerate(self._acts):
            if not isinstance(mat, ExactMatrix):
                raise UsageError(f"action of g={g} is not an ExactMatrix")
            if mat.rows != self.dim or mat.cols != self.dim:
                raise UsageError("action matrices must be square of the module dimension")
            hg = ext.incl(g)
            for r, c, x in mat.nonzeros():
                # the class, not isinstance: a bool is no exact scalar
                if x.__class__ not in _EXACT:
                    raise UsageError(f"action of g={g} has the inexact entry {x!r}")
                if grades[r] != H.conj(hg, grades[c]):
                    raise UsageError(f"action of g={g} violates the grade-conjugation block condition")

    def _attach(
        self, ext: GroupExtension, dim: int, factors: tuple, grades: Optional[tuple], name: Optional[str], acts: list
    ) -> None:
        self.ext = ext
        self.dim = dim
        self.factors: tuple[GradedModule, ...] = factors
        self._grades = grades
        self._name = name
        self._degree = _UNREAD
        self._acts: list[Optional[ExactMatrix]] = acts
        self._shifted: dict[int, GradedModule] = {}

    @classmethod
    def _fusion(cls, ext: GroupExtension, dim: int, factors: tuple) -> "GradedModule":
        """The fusion of the factors, built unchecked (fuse has the proof),
        with no grade, name or action matrix formed yet."""
        mod = cls.__new__(cls)
        mod._attach(ext, dim, factors, None, None, [None] * ext.G.order)
        return mod

    @classmethod
    def _derived(cls, ext: GroupExtension, grades: tuple, name: str, acts: Sequence[ExactMatrix]) -> "GradedModule":
        """The module given by the action matrices, built unchecked: its
        builder proves the block condition."""
        mod = cls.__new__(cls)
        mod._attach(ext, len(grades), (mod,), grades, name, list(acts))
        return mod

    @property
    def grades(self) -> tuple[int, ...]:
        """One H-element per basis vector. A fusion's are the products of its
        factors' grades, basis vectors in the order of the Kronecker product."""
        if self._grades is None:
            H = self.ext.H
            grades = self.factors[0].grades
            for f in self.factors[1:]:
                grades = tuple(H.mul(a, b) for a in grades for b in f.grades)
            self._grades = grades
        return self._grades

    @property
    def name(self) -> str:
        if self._name is None:
            self._name = "*".join(f"({f.name})" for f in self.factors)
        return self._name

    def act(self, g: int) -> ExactMatrix:
        mat = self._acts[g]
        if mat is None:
            mat = self.factors[0].act(g)
            for f in self.factors[1:]:
                mat = mat.kron(f.act(g))
            self._acts[g] = mat
        return mat

    @property
    def matrices(self) -> tuple[ExactMatrix, ...]:
        return tuple(self.act(g) for g in range(self.ext.G.order))

    def degree(self) -> Optional[int]:
        """The common sector of all grades, or None when mixed; read once.

        A nonzero fusion's degree is the product of its factors' degrees, and
        None when one of them is: proj is a homomorphism, so a grade a b of
        the fusion lies in sector proj(a) proj(b), and a factor with grades
        in two sectors gives, against any grades of the other factors, two
        products in two sectors."""
        if self._degree is _UNREAD:
            ext = self.ext
            if self.dim == 0:
                self._degree = 0
            elif len(self.factors) > 1:
                degrees = [f.degree() for f in self.factors]
                self._degree = None if None in degrees else reduce(ext.J.mul, degrees)
            else:
                j = ext.proj(self.grades[0])
                self._degree = j if all(ext.proj(h) == j for h in self.grades) else None
        return self._degree

    def __eq__(self, other: object) -> bool:
        """Same extension and dimension, then equal factors, or else equal
        grades and action matrices (so fuse(unit, v) == v).

        Equal factors suffice for fusions: the actions are the Kronecker
        products of the factors' actions, and the grades a function of the
        factors. The grade of the basis vector (i_1, ..., i_n) of a fusion
        is the product of the factors' grades at i_1, ..., i_n, in every
        bracketing, since H is associative; a shift conjugates each grade by
        one element of H, an automorphism, so the shift of a fusion has the
        grades of the fusion of the shifted factors, which are its factors."""
        if not isinstance(other, GradedModule):
            return NotImplemented
        if self is other:
            return True
        if self.ext is not other.ext or self.dim != other.dim:
            return False
        if len(self.factors) > 1 and self.factors == other.factors:
            return True
        return self.grades == other.grades and self.matrices == other.matrices

    def __repr__(self) -> str:
        return f"GradedModule({self.name or self.dim}, grades={self.grades})"


class ModuleMap:
    """A linear map between graded modules; only its shape and extension are
    checked here, the rest by the diagrams that compare it."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GradedModule, target: GradedModule, matrix: ExactMatrix):
        if source.ext is not target.ext:
            raise UsageError("module map requires a common extension")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise UsageError("module map matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """Composite source -> self.target = other.source -> other.target."""
        if not (self.target == other.source):
            raise UsageError("composition mismatch: target differs from next source")
        return ModuleMap(self.source, other.target, other.matrix @ self.matrix)

    def is_invertible(self) -> bool:
        if self.matrix.rows != self.matrix.cols:
            return False
        return bool(mat_rank_det_kernel(self.matrix).det)

    def equals(self, other: "ModuleMap") -> bool:
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )


def identity_map(v: GradedModule) -> ModuleMap:
    return ModuleMap(v, v, ExactMatrix.identity(v.dim))


def tensor_map(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    return ModuleMap(fuse(f.source, g.source), fuse(f.target, g.target), f.matrix.kron(g.matrix))


def fuse(v: GradedModule, w: GradedModule) -> GradedModule:
    """Tensor product: grades multiply in H, G acts diagonally. The factors
    are those of v followed by those of w, so nested fusions flatten, and
    the grades and each action matrix are formed when first read.

    No block condition is checked: it follows from the factors'. The vector
    (i, k) has grade ab (a = v.grades[i], b = w.grades[k]), and the entry
    ((i, k), (i', k')) of the Kronecker product of the actions of g is
    v.act(g)[i, i'] * w.act(g)[k, k'], nonzero exactly when both factors are
    (the scalars form a field). There a = g a' g^-1 and b = g b' g^-1
    (a' = v.grades[i'], b' = w.grades[k']) by the factors' conditions, so
    ab = g(a'b')g^-1. Identity at the identity of G, and shape, follow from
    the factors' as well."""
    if v.ext is not w.ext:
        raise UsageError("fusion requires a common extension")
    return GradedModule._fusion(v.ext, v.dim * w.dim, v.factors + w.factors)


def j_act(x: int, v: GradedModule) -> GradedModule:
    """Sector shift: with y = x^{-1}, grades conjugate by s_y^{-1} and g acts
    as rho_y(g) acts on v. The shift of a fused module is the fusion of its
    shifted factors, an identity on bases. Built once per sector, kept by v.
    No block condition is checked: incl(rho_y(g)) = s_y incl(g) s_y^{-1}, so
    the grades s_y^{-1} h s_y satisfy the condition at g."""
    if x not in v._shifted:
        ext = v.ext
        H, J = ext.H, ext.J
        if len(v.factors) > 1:
            shifted = GradedModule._fusion(ext, v.dim, tuple(j_act(x, f) for f in v.factors))
        else:
            s_inv = H.inv[ext.section[J.inv[x]]]
            grades = tuple(H.conj(s_inv, h) for h in v.grades)
            acts = [v.act(g) for g in ext.rho[J.inv[x]]]
            shifted = GradedModule._derived(ext, grades, f"{J.labels[x]}.({v.name})", acts)
        v._shifted[x] = shifted
    return v._shifted[x]


def j_act_map(x: int, f: ModuleMap) -> ModuleMap:
    """Sector shift of a morphism (same matrix, shifted modules)."""
    return ModuleMap(j_act(x, f.source), j_act(x, f.target), f.matrix)


def dual_module(v: GradedModule) -> GradedModule:
    """Dual space: grades invert, G acts by inverse transpose. No block
    condition is checked: an entry (r, c) of v.act(g^{-1})^T is nonzero only
    if grade_c = g^{-1} grade_r g, so grade_r^{-1} = g grade_c^{-1} g^{-1}."""
    ext = v.ext
    grades = tuple(ext.H.inv[h] for h in v.grades)
    mats = [v.act(ext.G.inv[g]).transpose() for g in range(ext.G.order)]
    return GradedModule._derived(ext, grades, f"({v.name})^", mats)


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual_module(f.target), dual_module(f.source), f.matrix.transpose())


def _require_homogeneous(v: GradedModule, what: str) -> int:
    j = v.degree()
    if j is None:
        raise UsageError(f"{what} requires a homogeneous module")
    return j


def braid(v: GradedModule, w: GradedModule) -> ModuleMap:
    """Braiding V (x) W -> (j.W) (x) V for V homogeneous of sector j:
    v (x) w maps to untwist[h].w (x) v on v of grade h, untwist[h] being
    s(j^{-1})h in G."""
    j = _require_homogeneous(v, "braiding")
    untwist = v.ext.untwist
    vd, wd = v.dim, w.dim
    width = vd * wd
    entries: dict[int, Scalar] = {}
    for r, h in enumerate(v.grades):
        col = r * wd
        for s_out, s_in, c in w.act(untwist[h]).nonzeros():
            entries[(s_out * vd + r) * width + col + s_in] = c
    return ModuleMap(fuse(v, w), fuse(j_act(j, w), v), ExactMatrix.from_positions(width, width, entries))


def twist(v: GradedModule) -> ModuleMap:
    """Twist V -> j.V for V homogeneous of sector j: v of grade h maps to
    untwist[h].v, untwist[h] being s(j^{-1})h in G."""
    j = _require_homogeneous(v, "twist")
    target = j_act(j, v)
    n = v.dim
    acting = [v.ext.untwist[h] for h in v.grades]
    entries: dict[int, Scalar] = {}
    for u in sorted(set(acting)):
        for r, c, x in v.act(u).nonzeros():
            if acting[c] == u:
                entries[r * n + c] = x
    return ModuleMap(v, target, ExactMatrix.from_positions(n, n, entries))


def compositor(i: int, j: int, v: GradedModule) -> ModuleMap:
    """The canonical map i.(j.V) -> (ij).V, acting by the inverse of the
    coherence element c[j^{-1}][i^{-1}] = s(j^{-1})s(i^{-1})s(j^{-1}i^{-1})^{-1}."""
    ext = v.ext
    G, J = ext.G, ext.J
    g = G.inv[ext.c[J.inv[j]][J.inv[i]]]
    source = j_act(i, j_act(j, v))
    target = j_act(J.mul(i, j), v)
    return ModuleMap(source, target, v.act(g))


def r_action_map(sd: SectorDouble, v: GradedModule, w: GradedModule) -> ModuleMap:
    """Flip composed with the action of the graded R-matrix on V (x) W; by
    construction a map V (x) W -> (j.W) (x) V for V homogeneous of sector j.

    The double's basis element delta_h (x) g acts on a module by g followed
    by the projection onto the rows graded by h, so each leg of a term walks
    the nonzero entries of the action of g whose row grade is h. The action
    of each g on each module is walked once per call, its entries split by
    row grade, and every leg with that g reads its grade's part. Terms add
    into each entry in the order of sd.r_sector; an entry whose sum is the
    int zero is not stored."""
    j = _require_homogeneous(v, "R-matrix action")
    split: dict[tuple[int, int], dict[int, list[tuple[int, int, Scalar]]]] = {}

    def leg(mod: GradedModule, idx: int) -> list[tuple[int, int, Scalar]]:
        h, g = sd.label_of(idx)
        key = (id(mod), g)
        if key not in split:
            by_grade: dict[int, list[tuple[int, int, Scalar]]] = {}
            for r, c, x in mod.act(g).nonzeros():
                by_grade.setdefault(mod.grades[r], []).append((r, c, x))
            split[key] = by_grade
        return split[key].get(h, [])

    vd, wd = v.dim, w.dim
    width = vd * wd
    sums: dict[int, Scalar] = {}
    for ten in sd.r_sector.values():
        for (a1, a2), coef in ten.items():
            right = leg(w, a2)
            for r_out, r_in, c1 in leg(v, a1):
                for s_out, s_in, c2 in right:
                    q = (s_out * vd + r_out) * width + r_in * wd + s_in
                    sums[q] = sums.get(q, ZERO) + coef * c1 * c2
    entries = {q: x for q, x in sums.items() if x.__class__ is not int or x}
    return ModuleMap(fuse(v, w), fuse(j_act(j, w), v), ExactMatrix.from_positions(width, width, entries))


def simples_of_double(ext: GroupExtension) -> list[GradedModule]:
    """Complete list of simple graded modules: one per G-orbit in H and
    stabilizer irreducible, ordered by smallest orbit element then character
    row. Basis: orbit points ascending, each carrying the irreducible's slots."""
    return [_module_from_groupoid_simple(ext, s) for s in simple_objects(action_via_hom(ext.H, ext.G, ext.incl.images))]


def _module_from_groupoid_simple(ext: GroupExtension, s: GroupoidSimple) -> GradedModule:
    """The simple of the groupoid simple s, its action matrices read from
    s.total_matrix and normalized once, here: a rational entry becomes an int,
    or a Fraction if it is not an integer, and an irrational one keeps the
    conductor chartable gave it, exponent(stabilizer). No zero is stored.
    So every map the suite builds from the simples multiplies ints wherever
    the value is rational; the `scalars` docstring has why that is exact."""
    d = s.stab_degree
    grades = tuple(m for m in s.orbit for _ in range(d))
    n = s.total_dim
    mats = [
        ExactMatrix.from_positions(n, n, {r * n + c: narrowed(x) for r, c, x in s.total_matrix(g).nonzeros()})
        for g in range(ext.G.order)
    ]
    name = f"[{s.orbit[0]}]x{s.row}"
    return GradedModule(ext, grades, mats, name=name)


# -- S-matrix -----------------------------------------------------------------


class SMatrix(NamedTuple):
    """Unnormalized matrix of double-braiding traces between the simples of
    the double of a single group (orbit label, character row)."""

    labels: tuple[tuple[int, int], ...]
    matrix: ExactMatrix
    group_order: int

    def is_invertible(self) -> bool:
        return bool(mat_rank_det_kernel(self.matrix).det)

    def is_symmetric(self) -> bool:
        return self.matrix == self.matrix.transpose()


S_MATRIX_ORDER_BOUND = 24


def trivial_extension(h_group: FiniteGroup) -> GroupExtension:
    return extension_from_subgroup(h_group, list(range(h_group.order)), name=f"{h_group.order}-triv")


def _trivial_double_simples(h_group: FiniteGroup) -> tuple[GroupExtension, list[GroupoidSimple], tuple]:
    """The trivial extension of the group, the simples of its conjugation
    groupoid and their (orbit label, character row) labels."""
    if h_group.order > S_MATRIX_ORDER_BOUND:
        raise ResourceError(f"group order {h_group.order} exceeds the S-matrix bound {S_MATRIX_ORDER_BOUND}")
    ext = trivial_extension(h_group)
    gsimples = simple_objects(action_via_hom(ext.H, ext.G, ext.incl.images))
    return ext, gsimples, tuple((s.orbit[0], s.row) for s in gsimples)


def _table_conductor(s: GroupoidSimple) -> Optional[int]:
    """The conductor chartable writes the values of s's stabilizer at,
    exponent(stabilizer); None for the trivial group, whose one value it
    writes as the int 1."""
    x = s.stab_table.rows[s.row][0]
    return x.n if isinstance(x, Cyclotomic) else None


def s_matrix(h_group: FiniteGroup) -> SMatrix:
    """Traces of double braidings between all simples of the double of the
    group, computed from the explicit braiding matrices: tr(B F) is the sum
    of B[i, j] F[j, i] over the pairs where both entries are nonzero, without
    forming B F. Each braiding is built once: the backward braiding of
    (a, b) is the forward one of (b, a).

    Entry (a, b) is the int 0 when no product term exists. Otherwise it is
    written at the conductor n = lcm(n_a, n_b) of the two simples' tables
    (`_table_conductor`): promoted to n if irrational, Cyclotomic.from_rational
    at n if rational. That is the form the trace takes when every entry of the
    simples is a Cyclotomic at its table's conductor, and each term's product
    then lies at n, so the printed entries do not depend on the simples
    carrying their rational entries as ints and Fractions. The trivial
    group's table holds the int 1, so its one entry stays an int."""
    ext, gsimples, labels = _trivial_double_simples(h_group)
    modules = [_module_from_groupoid_simple(ext, s) for s in gsimples]
    conductors = [_table_conductor(s) for s in gsimples]
    n = len(modules)
    entries: dict[int, Scalar] = {}

    def trace(backward: ExactMatrix, forward: ExactMatrix, a: int, b: int) -> Scalar:
        terms = [x * y for i, j, x in backward.nonzeros() if (y := forward[j, i])]
        t = sum(terms, ZERO)
        if not terms or conductors[a] is None or conductors[b] is None:
            return t
        m = lcm(conductors[a], conductors[b])
        return t.promote(m) if isinstance(t, Cyclotomic) else Cyclotomic.from_rational(t, m)

    for a, v in enumerate(modules):
        for b, w in enumerate(modules[a:], start=a):
            forward = braid(v, w).matrix
            backward = braid(w, v).matrix if b > a else forward
            entries[a * n + b] = trace(backward, forward, a, b)
            entries[b * n + a] = trace(forward, backward, b, a)
    entries = {p: x for p, x in entries.items() if x.__class__ is not int or x}
    return SMatrix(labels, ExactMatrix.from_positions(n, n, entries), h_group.order)


def s_matrix_character_formula(h_group: FiniteGroup) -> SMatrix:
    """Independent S-matrix from conjugacy data alone: sum the two groupoid
    characters over commuting pairs drawn from the two orbits."""
    ext, gsimples, labels = _trivial_double_simples(h_group)
    n = len(gsimples)
    entries: dict[int, Scalar] = {}
    for a in range(n):
        for b in range(n):
            acc: Scalar = ZERO
            for x in gsimples[a].orbit:
                for y in gsimples[b].orbit:
                    if h_group.mul(x, y) != h_group.mul(y, x):
                        continue
                    acc = acc + gsimples[a].character_at(x, ext.g_of(y)) * gsimples[b].character_at(y, ext.g_of(x))
            if acc.__class__ is not int or acc:
                entries[a * n + b] = acc
    return SMatrix(labels, ExactMatrix.from_positions(n, n, entries), h_group.order)


# -- diagram checks -----------------------------------------------------------


class DiagramReport:
    """Outcome of the categorical coherence checks on a sample of modules."""

    __slots__ = ("counts", "failures")

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.failures: list[tuple[str, tuple[str, ...]]] = []

    def record(self, diagram: str, labels: tuple[str, ...], ok: bool) -> None:
        self.counts[diagram] = self.counts.get(diagram, 0) + 1
        if not ok:
            self.failures.append((diagram, labels))

    @property
    def all_passed(self) -> bool:
        return not self.failures


def _hexagon_one_sides(u: GradedModule, v: GradedModule, w: GradedModule) -> tuple[ModuleMap, ModuleMap]:
    """The two sides of the first hexagon: c_{U,V(x)W}, and (id (x) c_{U,W})
    after (c_{U,V} (x) id); w may be any module."""
    i = _require_homogeneous(u, "hexagon")
    lhs = braid(u, fuse(v, w))
    rhs = tensor_map(braid(u, v), identity_map(w)).then(
        tensor_map(identity_map(j_act(i, v)), braid(u, w))
    )
    return lhs, rhs


def _hexagon_two_sides(u: GradedModule, v: GradedModule, w: GradedModule) -> tuple[ModuleMap, ModuleMap]:
    """The two sides of the second hexagon: c_{U(x)V,W}, and the
    compositor-corrected two-step braiding; w may be any module."""
    i = _require_homogeneous(u, "hexagon")
    j = _require_homogeneous(v, "hexagon")
    lhs = braid(fuse(u, v), w)
    rhs = (
        tensor_map(identity_map(u), braid(v, w))
        .then(tensor_map(braid(u, j_act(j, w)), identity_map(v)))
        .then(tensor_map(compositor(i, j, w), identity_map(fuse(u, v))))
    )
    return lhs, rhs


def _action_braiding_sides(i: int, u: GradedModule, v: GradedModule) -> tuple[ModuleMap, ModuleMap]:
    """The two sides of the action-braiding square: the sector shift of the
    braiding, and the braiding of the shifted modules, each followed by a
    compositor; v may be any module."""
    j = _require_homogeneous(u, "action-braiding")
    J = u.ext.J
    lhs = j_act_map(i, braid(u, v)).then(
        tensor_map(compositor(i, j, v), identity_map(j_act(i, u)))
    )
    iji = J.mul(J.mul(i, j), J.inv[i])
    rhs = braid(j_act(i, u), j_act(i, v)).then(
        tensor_map(compositor(iji, i, v), identity_map(j_act(i, u)))
    )
    return lhs, rhs


def _twist_product_sides(u: GradedModule, v: GradedModule) -> tuple[ModuleMap, ModuleMap]:
    """The two sides of the twist-product diagram: the twist of U (x) V, and
    the two twists followed by two braidings and two compositors; v must be
    homogeneous, but may be a sum of modules of one sector."""
    i = _require_homogeneous(u, "twist diagram")
    j = _require_homogeneous(v, "twist diagram")
    J = u.ext.J
    ij = J.mul(i, j)
    iji = J.mul(ij, J.inv[i])
    lhs = twist(fuse(u, v))
    rhs = (
        tensor_map(twist(u), twist(v))
        .then(braid(j_act(i, u), j_act(j, v)))
        .then(tensor_map(compositor(i, j, v), identity_map(j_act(i, u))))
        .then(braid(j_act(ij, v), j_act(i, u)))
        .then(tensor_map(compositor(iji, i, u), identity_map(j_act(ij, v))))
    )
    return lhs, rhs


def _twist_duality_sides(v: GradedModule) -> tuple[ModuleMap, ModuleMap]:
    """The two sides of the twist-duality diagram: the dual of the twist, and
    the twist of the shifted dual followed by the compositor down to the
    plain dual."""
    j = _require_homogeneous(v, "twist diagram")
    J = v.ext.J
    dv = dual_module(v)
    lhs = dual_map(twist(v))
    rhs = twist(j_act(j, dv)).then(compositor(J.inv[j], j, dv))
    return lhs, rhs


def _twist_action_sides(i: int, v: GradedModule) -> tuple[ModuleMap, ModuleMap]:
    """The two sides of the twist-action diagram: the shift of the twist and
    the twist of the shift, each followed by a compositor."""
    j = _require_homogeneous(v, "twist diagram")
    J = v.ext.J
    iji = J.mul(J.mul(i, j), J.inv[i])
    lhs = j_act_map(i, twist(v)).then(compositor(i, j, v))
    rhs = twist(j_act(i, v)).then(compositor(iji, i, v))
    return lhs, rhs


def _direct_sum(ext: GroupExtension, mods: Sequence[GradedModule]) -> tuple[GradedModule, list[int]]:
    """The direct sum of mods, built unchecked, and the position in mods of
    the module each basis vector comes from. Its grades are those of the
    modules in turn, and g acts block-diagonally, block c by mods[c].act(g):
    each nonzero entry meets the block condition of its block's module."""
    block_of = [c for c, m in enumerate(mods) for _ in range(m.dim)]
    dim = len(block_of)
    acts = []
    for g in range(ext.G.order):
        entries: dict[int, Scalar] = {}
        start = 0
        for m in mods:
            corner = start * dim + start
            for r, c, x in m.act(g).nonzeros():
                entries[corner + r * dim + c] = x
            start += m.dim
        acts.append(ExactMatrix.from_positions(dim, dim, entries))
    grades = tuple(h for m in mods for h in m.grades)
    return GradedModule._derived(ext, grades, "sum", acts), block_of


def _failing_blocks(lhs: ModuleMap, rhs: ModuleMap, block_of: list[int]) -> set[int]:
    """The blocks of the direct sum in the last source leg whose columns
    differ between the two sides, all of them if the modules differ; block
    labels are read from block_of, one per vector of the sum."""
    if not (lhs.source == rhs.source and lhs.target == rhs.target):
        return set(block_of)
    if lhs.matrix == rhs.matrix:
        return set()
    left = {(r, c): x for r, c, x in lhs.matrix.nonzeros()}
    right = {(r, c): x for r, c, x in rhs.matrix.nonzeros()}
    return {block_of[c % len(block_of)] for r, c in left.keys() | right.keys() if left.get((r, c)) != right.get((r, c))}


def check_equivariant_diagrams(
    ext: GroupExtension,
    sample: Optional[Sequence[GradedModule]] = None,
    sd: Optional[SectorDouble] = None,
) -> DiagramReport:
    """Run every categorical coherence check on all (ordered) tuples drawn
    from the sample (default: all simples): the two braiding hexagons, the
    action-braiding square, the twist-product diagram, the twist-duality and
    twist-action diagrams, and agreement of the braiding with the R-matrix
    action. The R-matrix comes from sd, the sector double of ext, which is
    built here unless the caller passes the one it has. Verdicts are
    recorded per tuple, in the order of nested loops.

    Each diagram is built once per tuple of its fixed slots, with a direct
    sum in its last slot, the last leg of the source. The hexagons, the
    action-braiding square and the braid-R comparison take S, the direct sum
    of the sample, once per (u, v), (i, u) or u. The twist diagrams need
    that slot homogeneous, so they take S_j, the direct sum of the sample
    modules of sector j in sample order, once per (u, j), (i, j) or j.

    Their maps are sums (the R-matrix) and composites of maps of four
    kinds: maps that permute legs and act on each leg by an action matrix,
    its rows of one grade, or the identity; the twist, whose column at a
    vector of grade h is that of the action matrix of untwist[h]; the dual
    of a map, its transpose; and the compositors, one action matrix each.
    On a sum T of modules mods[c] (S or S_j), on each shift and the dual of
    T, and on fusions with one of them last, every action matrix is
    block-diagonal in the last leg, block c being the matrix for mods[c]:
    shifts and duals act block by block, and a vector's grade is its grade
    in the module with mods[c] in place of T. So all four kinds, and their
    sums and composites, are block-diagonal too: the column at a source
    vector whose T coordinate lies in block c is the composite's for
    mods[c], that coordinate renumbered, and zero outside the block. Both
    sides' sources and targets are the same modules: fusions of the same
    factors, equal shifts (the shift by the unit of J changes nothing), or
    dual(j.T) and j.(dual T), equal because rho_y(g^-1) = rho_y(g)^-1. So the tuple with mods[c] last fails exactly
    when the sides differ in a column of block c."""
    mods = list(sample) if sample is not None else simples_of_double(ext)
    for v in mods:
        if v.degree() is None:
            raise UsageError("diagram checks need homogeneous sample modules")
    if sd is None:
        from .doubles import sector_double

        sd = sector_double(ext)
    elif sd.ext is not ext:
        raise UsageError("the sector double is of another extension")
    report = DiagramReport()
    names = [m.name for m in mods]
    J = ext.J
    total, block_of = _direct_sum(ext, mods)
    sector_sums = []
    for j in dict.fromkeys(m.degree() for m in mods):
        members = [a for a, m in enumerate(mods) if m.degree() == j]
        part, blocks = _direct_sum(ext, [mods[a] for a in members])
        sector_sums.append((part, [members[c] for c in blocks]))

    def failing_in_sectors(sides) -> set[int]:
        """The sample positions at which the diagram with sides(S_j) fails."""
        return set().union(*(_failing_blocks(*sides(part), blocks) for part, blocks in sector_sums))

    for a, u in enumerate(mods):
        for b, v in enumerate(mods):
            one = _failing_blocks(*_hexagon_one_sides(u, v, total), block_of)
            two = _failing_blocks(*_hexagon_two_sides(u, v, total), block_of)
            for c, name in enumerate(names):
                labels = (names[a], names[b], name)
                report.record("hexagon-one", labels, c not in one)
                report.record("hexagon-two", labels, c not in two)
    for i in range(J.order):
        for a, u in enumerate(mods):
            failing = _failing_blocks(*_action_braiding_sides(i, u, total), block_of)
            for b, name in enumerate(names):
                report.record("action-braiding", (J.labels[i], names[a], name), b not in failing)
    for a, u in enumerate(mods):
        product = failing_in_sectors(lambda part: _twist_product_sides(u, part))
        failing = _failing_blocks(braid(u, total), r_action_map(sd, u, total), block_of)
        for b, name in enumerate(names):
            labels = (names[a], name)
            report.record("twist-product", labels, b not in product)
            report.record("braid-equals-r-action", labels, b not in failing)
    for i in range(J.order):
        failing = failing_in_sectors(lambda part: _twist_action_sides(i, part))
        for a, name in enumerate(names):
            report.record("twist-action", (J.labels[i], name), a not in failing)
    failing = failing_in_sectors(_twist_duality_sides)
    for a, name in enumerate(names):
        report.record("twist-duality", (name,), a not in failing)
    return report
