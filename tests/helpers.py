"""Small test-only helpers: group predicates, actions and characters no
program path needs, a matrix inverse, and changed copies of a record and of
a matrix."""

import copy

from equidouble.errors import UsageError
from equidouble.groupoids import InertiaData
from equidouble.groups import FiniteGroup, GroupAction
from equidouble.linalg import ExactMatrix, solve


def is_abelian(group: FiniteGroup) -> bool:
    t = group.table
    return all(t[a][b] == t[b][a] for a in range(group.order) for b in range(a))


def trivial_action(group: FiniteGroup, num_points: int = 1) -> GroupAction:
    return GroupAction(group, num_points, [list(range(num_points))] * group.order)


def regular_character(inert: InertiaData) -> list[int]:
    """chi(m, g) = |G| when g = 1 and 0 otherwise."""
    n = inert.base.group.order
    return [n if g == 0 else 0 for (_m, g) in inert.pairs]


def replaced(record, **changes):
    """A shallow copy of record with the given attributes set."""
    out = copy.copy(record)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


def with_entries(m: ExactMatrix, entries: dict) -> ExactMatrix:
    """A new matrix with m's entries and entries[i, j] at each (i, j) given;
    m itself is unchanged. As in every built matrix, an int zero is not
    stored and a zero of another type is."""
    data = m.data
    for (i, j), x in entries.items():
        if not (0 <= i < m.rows and 0 <= j < m.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {m.rows}x{m.cols} matrix")
        data[i * m.cols + j] = x
    return ExactMatrix(m.rows, m.cols, data)


def inverse(a: ExactMatrix) -> ExactMatrix:
    """The inverse of a square matrix, by an exact solve against the
    identity; NonInvertibleError when a is singular."""
    if a.rows != a.cols:
        raise UsageError(f"inverse of a non-square {a.rows}x{a.cols} matrix")
    return solve(a, ExactMatrix.identity(a.rows))
