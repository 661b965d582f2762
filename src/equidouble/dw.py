"""Counting invariants of flat bundles over presented spaces.

A space enters through a presentation of its fundamental group (generators
and relator words). Bundles with finite structure group G are then the
group homomorphisms from that presentation into G, the gauge groupoid is
the conjugation action on the homomorphism set, and the partition-function
invariant is the homomorphism count divided by |G|.

The twisted variants fix a homomorphism to the quotient J of an extension
1 -> G -> H -> J -> 1 and count lifts to H (bundle picture) or nonabelian
1-cocycles on a cover nerve (local-data picture).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, NonInvertibleError, ResourceError, UsageError
from .groups import FiniteGroup, GroupAction, GroupExtension, WeakAction


class Presentation:
    """A finite presentation: generator count plus relator words.

    Relator letters are signed 1-based generator indices, so the word
    (1, 2, -1, -2) is the commutator of the first two generators.
    """

    __slots__ = ("generators", "relations")

    def __init__(self, generators: int, relations: tuple[tuple[int, ...], ...] = ()):
        if type(generators) is not int or generators < 0:
            raise UsageError("generator count must be a nonnegative integer")
        for rel in relations:
            for letter in rel:
                if type(letter) is not int or letter == 0 or abs(letter) > generators:
                    raise UsageError(f"relator letter {letter} out of range for {generators} generators")
        self.generators = generators
        self.relations = relations

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Presentation) and self.generators == other.generators
        return same and self.relations == other.relations


def evaluate_word(group: FiniteGroup, images: Sequence[int], word: Iterable[int]) -> int:
    """Image of a relator word under the given generator assignments."""
    out = 0
    for letter in word:
        x = images[abs(letter) - 1]
        out = group.mul(out, x if letter > 0 else group.inv[x])
    return out


def _relations_by_depth(pres: Presentation) -> list[list[tuple[int, ...]]]:
    """Bucket relators by the largest generator they mention, so each can be
    checked as soon as that generator receives an image."""
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(pres.generators + 1)]
    for rel in pres.relations:
        depth = max((abs(letter) for letter in rel), default=0)
        buckets[depth].append(rel)
    return buckets


def _over_budget(terms: Counter, budget: int) -> str | None:
    """None if the sum of count x base^exponent over the terms, keyed by
    (label, base, exponent), fits the budget; else that sum written out for
    the message. A power whose lower bound 2^((bits(base) - 1) * exponent)
    exceeds the budget 2^64 times over is never formed, and the sum's value
    is then left out of the text."""
    text = " + ".join(
        (f"{label} {count} x " if label else "") + (f"{base}^{exponent}" if exponent != 1 else f"{base}")
        for (label, base, exponent), count in terms.items()
    )
    if any((base.bit_length() - 1) * exponent > budget.bit_length() + 64 for (_, base, exponent) in terms):
        return text
    total = sum(count * base**exponent for (_, base, exponent), count in terms.items())
    return f"{text} = {total}" if total > budget else None


def _require_budget(pres: Presentation, fiber_size: int, budget: int) -> None:
    over = _over_budget(Counter({("", fiber_size, pres.generators): 1}), budget)
    if over is not None:
        raise ResourceError(f"homomorphism search space {over} exceeds budget {budget}")


def _iter_assignments(
    group: FiniteGroup,
    candidates: Sequence[Sequence[int]],
    buckets: Sequence[Sequence[tuple[int, ...]]],
) -> Iterator[tuple[int, ...]]:
    """Depth-first search over per-generator candidate images. A relator is
    checked at the first depth where all its letters have images, pruning
    failed branches before deeper generators are assigned."""
    n = len(candidates)
    images: list[int] = []

    def extend() -> Iterator[tuple[int, ...]]:
        depth = len(images)
        if depth == n:
            yield tuple(images)
            return
        for x in candidates[depth]:
            images.append(x)
            if all(evaluate_word(group, images, rel) == 0 for rel in buckets[depth + 1]):
                yield from extend()
            images.pop()

    if all(evaluate_word(group, (), rel) == 0 for rel in buckets[0]):
        yield from extend()


def _iter_homs(pres: Presentation, group: FiniteGroup, budget: int) -> Iterator[tuple[int, ...]]:
    _require_budget(pres, group.order, budget)
    candidates = [range(group.order)] * pres.generators
    return _iter_assignments(group, candidates, _relations_by_depth(pres))


def _blocks(word: Sequence[int]) -> list[tuple[int, ...]]:
    """Cut a word at every position that no generator's span (its first to
    its last letter) crosses: the contiguous blocks share no generator."""
    last = {abs(letter): pos for pos, letter in enumerate(word)}
    blocks: list[tuple[int, ...]] = []
    start = reach = 0
    for pos, letter in enumerate(word):
        reach = max(reach, last[abs(letter)])
        if reach == pos:
            blocks.append(tuple(word[start : pos + 1]))
            start = pos + 1
    return blocks


def _block_steps(blocks: Sequence[tuple[int, ...]], size: int, free: int) -> Counter:
    """Steps of `_block_count` over `size` candidate images: size^m for a block
    of m generators, size^2 per fold and size per free generator."""
    steps = Counter(("blocks", size, len({abs(letter) for letter in block})) for block in blocks)
    steps["folds", size, 2] += max(len(blocks) - 1, 0)
    steps["free generators", size, 1] += free
    return +steps


def _block_distribution(group: FiniteGroup, elements: Sequence[int], block: tuple[int, ...]) -> Counter:
    """D(x) = #{images in `elements` of the block's generators : block = x}."""
    gens = sorted({abs(letter) for letter in block})
    local = {g: i + 1 for i, g in enumerate(gens)}
    word = tuple(local[letter] if letter > 0 else -local[-letter] for letter in block)
    return Counter(evaluate_word(group, images, word) for images in itertools.product(elements, repeat=len(gens)))


def _convolve(group: FiniteGroup, left: Counter, right: Counter) -> Counter:
    """(L * R)(z) = sum over xy = z of L(x) R(y); the order of the factors
    matters when the group is not abelian."""
    out: Counter = Counter()
    for x, a in left.items():
        row = group.table[x]
        for y, b in right.items():
            out[row[y]] += a * b
    return out


def _block_count(group: FiniteGroup, elements: Sequence[int], blocks: Sequence[tuple[int, ...]]) -> int:
    """Assignments of the blocks' generators in `elements` under which the
    product of the blocks, in word order, is 1. The blocks share no generator,
    so the assignments of different blocks are independent and the product's
    distribution is the convolution of the blocks' distributions."""
    if not blocks:
        return 1
    distributions = (_block_distribution(group, elements, block) for block in blocks)
    return reduce(partial(_convolve, group), distributions)[0]


def count_homs(pres: Presentation, group: FiniteGroup, budget: int = DEFAULT_BUDGET) -> int:
    """Number of homomorphisms from the presented group into `group`.

    A single relator that splits into two or more blocks over disjoint
    generators (a surface relator [a1,b1]...[ag,bg] splits into its g
    commutators, whatever the order and signs of its generators) is counted
    by `_block_count`, times |G| per generator the relator does not mention;
    the budget bounds its steps. Every other presentation is counted by the
    leaf search, whose budget bounds its |G|^generators leaves."""
    if len(pres.relations) == 1:
        blocks = _blocks(pres.relations[0])
        if len(blocks) > 1:
            free = pres.generators - len({abs(letter) for letter in pres.relations[0]})
            over = _over_budget(_block_steps(blocks, group.order, free), budget)
            if over is not None:
                raise ResourceError(f"block convolution steps {over} exceed budget {budget}")
            return _block_count(group, range(group.order), blocks) * group.order**free
    return sum(1 for _ in _iter_homs(pres, group, budget))


def homomorphisms(pres: Presentation, group: FiniteGroup, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All homomorphisms as generator-image tuples, in lexicographic order."""
    return list(_iter_homs(pres, group, budget))


def dw_invariant(pres: Presentation, group: FiniteGroup, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Partition function: homomorphism count weighted by 1/|G|.

    Equals the cardinality of the gauge groupoid Hom//G.
    """
    return Fraction(count_homs(pres, group, budget), group.order)


def _conjugation_on_tuples(
    group: FiniteGroup,
    points: Sequence[tuple[int, ...]],
    conjugate: Callable[[int, int], int],
) -> GroupAction:
    index = {pt: i for i, pt in enumerate(points)}
    act = []
    for g in range(group.order):
        row = []
        for pt in points:
            moved = tuple(conjugate(g, x) for x in pt)
            row.append(index[moved])
        act.append(row)
    return GroupAction(group, len(points), act)


def hom_groupoid(
    pres: Presentation, group: FiniteGroup, budget: int = DEFAULT_BUDGET
) -> tuple[GroupAction, tuple[tuple[int, ...], ...]]:
    """Gauge groupoid Hom(pres, group)//group: the conjugation action on the
    homomorphism set. Returns the action and the homomorphism tuples its
    points stand for."""
    points = tuple(_iter_homs(pres, group, budget))
    action = _conjugation_on_tuples(group, points, group.conj)
    return action, points


def surface_presentation(genus: int) -> Presentation:
    """Fundamental group of the closed orientable surface of the given genus:
    2g generators with the single product-of-commutators relator."""
    if genus < 0:
        raise UsageError("genus must be nonnegative")
    if genus == 0:
        return Presentation(0, ())
    word: list[int] = []
    for i in range(genus):
        a = 2 * i + 1
        b = 2 * i + 2
        word.extend([a, b, -a, -b])
    return Presentation(2 * genus, (tuple(word),))


def surface_state_dim(genus: int, group: FiniteGroup, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the state space the theory assigns to a closed surface:
    the number of gauge orbits of surface-group homomorphisms.

    By Burnside the orbits number (1/|G|) sum_z |Fix(z)|. Conjugation by z
    fixes a homomorphism exactly when every image commutes with z, so Fix(z)
    is Hom(pi_1, C_G(z)), counted by `_block_count` over the centraliser's
    elements. Conjugate elements have conjugate centralisers and so equal
    counts: the sum runs over classes. The budget bounds the steps of all
    the counts together, and a sum that |G| does not divide raises. Each
    class's count takes at least 2g - 1 steps, so that floor applies before
    the relator is built."""
    _require_surface_floor(genus, budget)
    blocks = [block for word in surface_presentation(genus).relations for block in _blocks(word)]
    conjugacy = group.conjugacy()
    steps = sum((_block_steps(blocks, len(cent), 0) for cent in conjugacy.centralizers), Counter())
    over = _over_budget(steps, budget)
    if over is not None:
        raise ResourceError(f"Burnside block convolution steps {over} exceed budget {budget}")
    fixed = sum(
        len(cls) * _block_count(group, cent, blocks) for cls, cent in zip(conjugacy.classes, conjugacy.centralizers)
    )
    orbits, rest = divmod(fixed, group.order)
    if rest:
        raise NonInvertibleError(f"Burnside sum {fixed} over genus {genus} is not divisible by |G| = {group.order}")
    return orbits


class TwistHom:
    """A homomorphism from a presented group to the quotient group J,
    recorded by generator images and validated on every relator."""

    __slots__ = ("presentation", "j_group", "images")

    def __init__(self, presentation: Presentation, j_group: FiniteGroup, images: tuple[int, ...]):
        if len(images) != presentation.generators:
            raise UsageError("one J-image per generator required")
        for j in images:
            if not 0 <= j < j_group.order:
                raise UsageError(f"J-image {j} out of range")
        for rel in presentation.relations:
            if evaluate_word(j_group, images, rel) != 0:
                raise UsageError(f"relator {rel} does not map to the identity in J")
        self.presentation = presentation
        self.j_group = j_group
        self.images = images


def twisted_bundle_groupoid(
    twist: TwistHom, ext: GroupExtension, budget: int = DEFAULT_BUDGET
) -> tuple[GroupAction, tuple[tuple[int, ...], ...]]:
    """Groupoid of H-lifts of the fixed J-holonomy: generator images in H
    projecting to the prescribed J-images and killing every relator, with
    the kernel G acting by conjugation through its inclusion.

    For the circle presentation with image j this is the sector groupoid
    H_j//G on the fiber over j.
    """
    if twist.j_group is not ext.J and twist.j_group.table != ext.J.table:
        raise UsageError("twist homomorphism must land in the extension quotient")
    pres = twist.presentation
    h_group = ext.H
    _require_budget(pres, ext.G.order, budget)
    candidates = [ext.fiber(j) for j in twist.images]
    points = tuple(_iter_assignments(h_group, candidates, _relations_by_depth(pres)))

    def conj_through_incl(g: int, h: int) -> int:
        return h_group.conj(ext.incl(g), h)

    action = _conjugation_on_tuples(ext.G, points, conj_through_incl)
    return action, points


class CoverNerve:
    """Combinatorial nerve of an open cover carrying a J-valued 1-cocycle.

    Edges are ordered pairs (a, b) with a < b of overlapping patches, each
    labeled by a J-element j_ab; triangles (a, b, c) with a < b < c record
    triple overlaps, on which the labels must compose: j_ab * j_bc = j_ac.
    """

    __slots__ = ("j_group", "vertices", "edges", "jlabels", "triangles")

    def __init__(
        self,
        j_group: FiniteGroup,
        vertices: int,
        edges: tuple[tuple[int, int], ...],
        jlabels: tuple[int, ...],
        triangles: tuple[tuple[int, int, int], ...] = (),
    ):
        self.j_group = j_group
        self.vertices = vertices
        self.edges = edges
        self.jlabels = jlabels
        self.triangles = triangles
        if len(self.jlabels) != len(self.edges):
            raise UsageError("one J-label per edge required")
        seen = set()
        for (a, b) in self.edges:
            if not (0 <= a < b < self.vertices):
                raise UsageError(f"edge ({a},{b}) must satisfy 0 <= a < b < vertices")
            if (a, b) in seen:
                raise UsageError(f"duplicate edge ({a},{b})")
            seen.add((a, b))
        for j in self.jlabels:
            if not 0 <= j < self.j_group.order:
                raise UsageError(f"J-label {j} out of range")
        for (a, b, c) in self.triangles:
            if not (a < b < c):
                raise UsageError("triangle vertices must be strictly increasing")
            jab = self.jlabel(a, b)
            jbc = self.jlabel(b, c)
            jac = self.jlabel(a, c)
            if self.j_group.mul(jab, jbc) != jac:
                raise UsageError(f"J-labels do not compose on triangle ({a},{b},{c})")

    def edge_index(self, a: int, b: int) -> int:
        if (a, b) not in self.edges:
            raise UsageError(f"({a},{b}) is not an edge of the nerve")
        return self.edges.index((a, b))

    def jlabel(self, a: int, b: int) -> int:
        idx = self.edge_index(a, b)
        return self.jlabels[idx]


def circle_nerve(j_group: FiniteGroup, monodromy: int) -> CoverNerve:
    """Three arcs covering the circle: pairwise overlaps but no triple ones.
    The labels are arranged so the holonomy around the circle is the given
    J-element."""
    inv = j_group.inv[monodromy]
    return CoverNerve(j_group, 3, ((0, 1), (1, 2), (0, 2)), (0, 0, inv), ())


class CechClasses(NamedTuple):
    """Twisted nonabelian 1-cocycles on a nerve, up to coboundary."""

    count: int
    representatives: tuple[tuple[int, ...], ...]


def twisted_cech_h1(nerve: CoverNerve, wa: WeakAction, budget: int = DEFAULT_BUDGET) -> CechClasses:
    """Enumerate G-valued 1-cochains g_ab on the nerve edges satisfying the
    twisted cocycle relation on every triangle,

        g_ab * rho_{j_ab}(g_bc) * c[j_ab][j_bc] = g_ac,

    and quotient by the twisted coboundary action of G-valued 0-cochains k,

        g_ab  ->  k_a * g_ab * rho_{j_ab}(k_b)^{-1}.

    This is an action of G^vertices, as each rho_j is a homomorphism (GroupHom
    certifies it): (k.(k'.z))_ab = k_a k'_a z_ab rho_j(k'_b)^{-1} rho_j(k_b)^{-1}
    = ((kk').z)_ab. So one sweep of the |G|^vertices gauges from a class's first
    cocycle in product order reaches the whole class and, as k.(k'.z) = (kk').z,
    checks its closure. The budget bounds |G|^edges and the gauge moves made.
    """
    if wa.J.table != nerve.j_group.table:
        raise UsageError("nerve J-labels must live in the weak action's J")
    group = wa.G
    n_edges = len(nerve.edges)
    over = _over_budget(Counter({("", group.order, n_edges): 1}), budget)
    if over is not None:
        raise ResourceError(f"cocycle search space {over} exceeds budget {budget}")

    tri_edges = [
        (nerve.edge_index(a, b), nerve.edge_index(b, c), nerve.edge_index(a, c))
        for (a, b, c) in nerve.triangles
    ]
    tri_labels = [(nerve.jlabel(a, b), nerve.jlabel(b, c)) for (a, b, c) in nerve.triangles]

    def is_cocycle(cochain: tuple[int, ...]) -> bool:
        for (eab, ebc, eac), (jab, jbc) in zip(tri_edges, tri_labels):
            lhs = group.mul(cochain[eab], wa.rho[jab](cochain[ebc]))
            lhs = group.mul(lhs, wa.c[jab][jbc])
            if lhs != cochain[eac]:
                return False
        return True

    cocycles = [z for z in itertools.product(range(group.order), repeat=n_edges) if is_cocycle(z)]
    cocycle_set = set(cocycles)

    def coboundary(k: tuple[int, ...], cochain: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for idx, (a, b) in enumerate(nerve.edges):
            jab = nerve.jlabels[idx]
            moved = group.mul(k[a], cochain[idx])
            moved = group.mul(moved, group.inv[wa.rho[jab](k[b])])
            out.append(moved)
        return tuple(out)

    reps: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for z in cocycles:
        if z in seen:
            continue
        reps.append(z)
        over = _over_budget(Counter({("gauge sweeps", group.order, nerve.vertices): len(reps)}), budget)
        if over is not None:
            raise ResourceError(f"{over} exceed budget {budget}")
        for k in itertools.product(range(group.order), repeat=nerve.vertices):
            moved = coboundary(k, z)
            if moved not in cocycle_set:
                raise UsageError(f"the coboundary of {k} moves the cocycle {z} off the cocycles")
            seen.add(moved)
    return CechClasses(len(reps), tuple(reps))


_NAMED_PRESENTATIONS = {
    "S3sphere": Presentation(0, ()),
    "S2xS1": Presentation(1, ()),
    "circle": Presentation(1, ()),
    "T2": Presentation(2, ((1, 2, -1, -2),)),
    "T3": Presentation(3, ((1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3))),
}


def presentation_names() -> list[str]:
    return sorted(_NAMED_PRESENTATIONS) + ["Sigma_g"]


def _surface_genus(name: str) -> int | None:
    """g when the name is "Sigma_<g>", else None. Canonical ASCII decimals
    only, decided on the string: "Sigma_01" and non-ASCII digits name
    nothing. A genus with more digits than the interpreter converts to an int
    raises ResourceError."""
    suffix = name[len("Sigma_"):]
    canonical = suffix.isascii() and suffix.isdigit() and (suffix == "0" or not suffix.startswith("0"))
    if not (name.startswith("Sigma_") and canonical):
        return None
    try:
        return int(suffix)
    except ValueError:
        raise ResourceError(f"a genus of {len(suffix)} digits is past the interpreter's int conversion limit") from None


def presentation_by_name(name: str) -> Presentation:
    """Builtin presentations; "Sigma_<g>" gives the genus-g surface group."""
    if name in _NAMED_PRESENTATIONS:
        return _NAMED_PRESENTATIONS[name]
    genus = _surface_genus(name)
    if genus is None:
        raise UsageError(f"unknown presentation {name!r}")
    return surface_presentation(genus)


def require_surface_budget(name: str, budget: int) -> None:
    """Raise a ResourceError where count_homs is bound to raise one on the
    surface group "Sigma_<g>", whatever the group, before the relator's 4g
    letters are built."""
    genus = _surface_genus(name)
    if genus is not None:
        _require_surface_floor(genus, budget)


def _require_surface_floor(genus: int, budget: int) -> None:
    """count_homs takes at least 2g - 1 steps for g >= 1, whatever the group:
    the relator [a1,b1]...[ag,bg] splits into g blocks of two generators, so
    for g >= 2 the fold takes g x |G|^2 block steps and (g - 1) x |G|^2 fold
    steps, and for g = 1 the leaf search takes |G|^2 leaves; |G| >= 1."""
    steps = 2 * genus - 1
    if steps > budget:
        raise ResourceError(f"Sigma_{genus} needs at least 2g - 1 = {steps} counting steps, over budget {budget}")
