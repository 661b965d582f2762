"""Action groupoids M//G of a `groups.GroupAction`: inertia, simple
representations. Their cardinality is `groups.groupoid_cardinality`.

A representation of M//G assigns a vector space to each point and a linear
map to each morphism (m, g): m -> g.m. Simples are induced from irreducibles
of orbit stabilizers; characters live on the inertia pairs (m, g) with
g.m = m and are orthonormal under the groupoid pairing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .chartable import CharacterTable, IrreducibleRep, character_table, irrep_matrices
from .errors import NonInvertibleError, UsageError
from .groups import FiniteGroup, GroupAction
from .linalg import ExactMatrix
from .scalars import ZERO, Scalar


class InertiaData(NamedTuple):
    """Pairs (m, g) with g.m = m, plus the conjugation-style action on them."""

    base: GroupAction
    pairs: tuple[tuple[int, int], ...]
    pair_index: dict[tuple[int, int], int]
    action: GroupAction


def inertia(action: GroupAction) -> InertiaData:
    g = action.group
    pairs = [
        (m, x) for m in range(action.num_points) for x in range(g.order)
        if action.act[x][m] == m
    ]
    pairs.sort()
    index = {p: i for i, p in enumerate(pairs)}
    act_rows = []
    for h in range(g.order):
        row = []
        for (m, x) in pairs:
            row.append(index[(action.act[h][m], g.conj(h, x))])
        act_rows.append(row)
    return InertiaData(action, tuple(pairs), index, GroupAction(g, len(pairs), act_rows))


class GroupoidSimple:
    """A simple representation of M//G: an orbit plus a stabilizer irreducible,
    realized with explicit matrices via a fixed transversal."""

    def __init__(
        self,
        action: GroupAction,
        orbit: tuple[int, ...],
        stab_group: FiniteGroup,
        stab_embed: tuple[int, ...],
        stab_table: CharacterTable,
        row: int,
    ):
        self.action = action
        self.orbit = orbit
        self.stab_group = stab_group
        self.stab_embed = stab_embed
        self._stab_index = {e: i for i, e in enumerate(stab_embed)}
        self.stab_table = stab_table
        self.row = row
        self.stab_degree = stab_table.degrees[row]
        self.total_dim = len(orbit) * self.stab_degree
        self.transversal = action.transversal(orbit)
        self._rep: Optional[IrreducibleRep] = None

    def rep(self) -> IrreducibleRep:
        if self._rep is None:
            self._rep = irrep_matrices(self.stab_group, self.stab_table, self.row)
        return self._rep

    def _stab_conj(self, m: int, g: int) -> int:
        """Index in the stabilizer group of t_{g.m}^{-1} g t_m."""
        grp = self.action.group
        m2 = self.action.act[g][m]
        s = grp.mul(grp.inv[self.transversal[m2]], grp.mul(g, self.transversal[m]))
        if s not in self._stab_index:
            raise NonInvertibleError(f"transversal conjugate left the stabilizer at (m, g) = ({m}, {g})")
        return self._stab_index[s]

    def character_at(self, m: int, g: int) -> Scalar:
        """Trace of the morphism (m, g) on its block; requires g.m = m."""
        if self.action.act[g][m] != m:
            raise UsageError(f"character only defined on inertia pairs, not ({m}, {g})")
        if m not in self.transversal:
            return ZERO
        return self.stab_table.rows[self.row][
            self.stab_table.conjugacy.class_of[self._stab_conj(m, g)]
        ]

    def character_vector(self, inert: InertiaData) -> list[Scalar]:
        return [self.character_at(m, g) for (m, g) in inert.pairs]

    def total_matrix(self, g: int) -> ExactMatrix:
        """Matrix of g on the sum of the orbit blocks (points ascending)."""
        d, n = self.stab_degree, self.total_dim
        rep = self.rep()
        pos = {m: i for i, m in enumerate(self.orbit)}
        entries: dict[int, Scalar] = {}
        for m in self.orbit:
            corner = pos[self.action.act[g][m]] * d * n + pos[m] * d
            for p, x in enumerate(rep.matrix(self._stab_conj(m, g)).data):
                if x.__class__ is not int or x:
                    entries[corner + p // d * n + p % d] = x
        return ExactMatrix.from_positions(n, n, entries)

    def __repr__(self) -> str:
        return (
            f"GroupoidSimple(orbit={self.orbit}, stab_degree={self.stab_degree}, "
            f"total_dim={self.total_dim})"
        )


def simple_objects(action: GroupAction) -> list[GroupoidSimple]:
    """All simples: orbits by smallest point, stabilizer irreducibles in table
    order. Their number equals the number of inertia orbits (checked)."""
    out: list[GroupoidSimple] = []
    for orbit in action.orbits():
        stab_elems = action.stabilizer(orbit[0])
        stab_group, embed = action.group.subgroup(stab_elems)
        table = character_table(stab_group)
        for row in range(len(table.rows)):
            out.append(GroupoidSimple(action, orbit, stab_group, embed, table, row))
    if len(out) != len(inertia(action).action.orbits()):
        raise NonInvertibleError("simple count != inertia orbit count")
    if sum(s.total_dim ** 2 for s in out) != action.num_points * action.group.order:
        raise NonInvertibleError("sum of squared dims != |M| |G|")
    return out


def character_pairing(
    inert: InertiaData, f: Sequence[Scalar], f2: Sequence[Scalar]
) -> Scalar:
    """(1/|G|) sum over inertia pairs of f(m, g^{-1}) f2(m, g)."""
    grp = inert.base.group
    acc: Scalar = ZERO
    for i, (m, g) in enumerate(inert.pairs):
        j = inert.pair_index[(m, grp.inv[g])]
        acc = acc + f[j] * f2[i]
    return acc * Fraction(1, grp.order)


def decompose_character(
    action: GroupAction, values: Sequence[Scalar]
) -> list[tuple[GroupoidSimple, Scalar]]:
    """Multiplicities of each simple in a character given on inertia pairs."""
    inert = inertia(action)
    out = []
    for s in simple_objects(action):
        mult = character_pairing(inert, list(values), s.character_vector(inert))
        out.append((s, mult))
    # the pairing with the input reproduced from multiplicities must match
    recon = [ZERO] * len(inert.pairs)
    for s, mult in out:
        vec = s.character_vector(inert)
        recon = [r + mult * v for r, v in zip(recon, vec)]
    if not all(a == b for a, b in zip(recon, values)):
        raise NonInvertibleError("decomposition mismatch")
    return out
