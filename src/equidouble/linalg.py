"""Sparse exact matrices over int/Fraction/Cyclotomic scalars, and the one
row-reduction kernel behind every rank, determinant, kernel and solve.

ExactMatrix is the one place that multiplies, tensors (Kronecker product),
walks (nonzero entries) and compares exact matrices. A matrix is read-only
once built: the constructor, from_rows, from_positions, identity, zeros or
an operation builds it whole, and assigning an entry raises TypeError, so a
matrix a check has judged, and whatever is derived from it and cached, stays
as judged. It stores every entry given as something other than the int
zero, keyed by its row-major position; an entry not given reads as the int
zero. So zeros, identity, kron, @, ==, transpose, nonzeros, is_zero and
trace cost the stored entries, not rows * cols. A stored zero of another
type (Fraction(0), a Cyclotomic zero) is kept as it was given, so `data`,
the dense view, reproduces every entry a dense list would hold, with its
type. Zero tests and equality use the scalars' own bool() and ==; products
and Kronecker products multiply only pairs of nonzero entries, so an entry
no nonzero pair reaches stays the int zero whatever the field of the others. A product with the int 1 as one
factor is the other factor itself, and a product written into an entry still
unset is written, not added to the int zero: both give the value, type and
conductor that the arithmetic gives.

The store is one dict per matrix, not one per row: on CPython a dict costs
224 bytes once it holds an entry, so per-row dicts made the small action
matrices of the simple modules several times larger than dense lists.

row_reduce is Gauss-Jordan elimination on plain row lists over a field given
as a parameter: exact rationals and cyclotomics, or F_p for a prime modulus.
Each pivot costs one field inverse (`scalars.reciprocal`, or pow mod p);
every other step is a multiply and a subtract. The rank, the pivot columns,
the kernel basis normalized by v[free] = 1, det = +-(product of pivots) and
a unique solution do not depend on the elimination order, so every
elimination in the package goes through it: over Q, Q(zeta_n) and F_p alike
(the eigenvalues, eigenspaces and span coordinates of the character tables,
the irreducible representations, S-matrix invertibility and algebra
inverses).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .errors import NonInvertibleError, UsageError
from .scalars import ONE, ZERO, Scalar, reciprocal


class ExactMatrix:
    """Read-only matrix of exact scalars, kept as one dict from row-major
    position i * cols + j to every entry given as something other than the
    int zero. nonzeros() walks it in row-major order; no other result
    depends on the order of the dict, since exact sums do not."""

    __slots__ = ("rows", "cols", "_store")

    def __init__(self, rows: int, cols: int, data: Sequence[Scalar]):
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise UsageError(f"a {rows}x{cols} matrix needs rows*cols entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._store = {p: x for p, x in enumerate(data) if x.__class__ is not int or x}

    @staticmethod
    def _of(rows: int, cols: int, store: dict[int, Scalar]) -> "ExactMatrix":
        m = object.__new__(ExactMatrix)
        m.rows = rows
        m.cols = cols
        m._store = store
        return m

    @staticmethod
    def from_positions(rows: int, cols: int, entries: dict[int, Scalar]) -> "ExactMatrix":
        """The matrix with entries[p] at row-major position p = i * cols + j
        and the int zero elsewhere, built in one pass: the dict, which holds
        no int zero, becomes the store, so the caller hands it over and keeps
        no reference to change."""
        if entries and not (0 <= min(entries) and max(entries) < rows * cols):
            raise UsageError(f"an entry position lies outside a {rows}x{cols} matrix")
        return ExactMatrix._of(rows, cols, entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise UsageError(f"ragged rows: expected {c} entries in each")
        return ExactMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(n, n, {i * (n + 1): ONE for i in range(n)})

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._of(rows, cols, {})

    @property
    def data(self) -> list[Scalar]:
        """The entries in row-major order, as a new list: each stored entry
        as it was given, the int zero everywhere else."""
        out: list[Scalar] = [ZERO] * (self.rows * self.cols)
        for p, x in self._store.items():
            out[p] = x
        return out

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return self._store.get(i * self.cols + j, ZERO)

    def transpose(self) -> "ExactMatrix":
        rows, cols = self.rows, self.cols
        return ExactMatrix._of(cols, rows, {p % cols * rows + p // cols: x for p, x in self._store.items()})

    def nonzeros(self) -> Iterator[tuple[int, int, Scalar]]:
        """(row, column, entry) for every nonzero entry, in row-major order."""
        cols = self.cols
        for p, x in sorted(self._store.items()):
            if x:
                yield p // cols, p % cols, x

    def _nonzero_rows(self) -> list[list[tuple[int, Scalar]]]:
        """Each row's nonzero entries as (column, entry)."""
        rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.rows)]
        cols = self.cols
        for p, x in self._store.items():
            if x:
                rows[p // cols].append((p % cols, x))
        return rows

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise UsageError(
                f"matmul dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        right = other._nonzero_rows()
        cols, oc = self.cols, other.cols
        out: dict[int, Scalar] = {}
        for p, a in self._store.items():
            if not a:
                continue
            base = p // cols * oc
            one = a.__class__ is int and a == 1
            for j, b in right[p % cols]:
                x = b if one else a if b.__class__ is int and b == 1 else a * b
                q = base + j
                out[q] = out[q] + x if q in out else x
        return ExactMatrix._of(self.rows, oc, out)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product: entry (i*other.rows + k, j*other.cols + l) is
        self[i, j] * other[k, l]. Only pairs of nonzero entries are multiplied;
        every other entry is the int zero."""
        cols, orows, oc = self.cols, other.rows, other.cols
        width = cols * oc
        right = [(p // oc * width + p % oc, b) for p, b in other._store.items() if b]
        out: dict[int, Scalar] = {}
        for p, a in self._store.items():
            if not a:
                continue
            base = p // cols * orows * width + p % cols * oc
            if a.__class__ is int and a == 1:
                for q, b in right:
                    out[base + q] = b
            else:
                for q, b in right:
                    out[base + q] = a if b.__class__ is int and b == 1 else a * b
        return ExactMatrix._of(self.rows * orows, width, out)

    def __eq__(self, other: object) -> bool:
        """Entrywise ==, an unset entry being the int zero: equal as dicts, or
        else equal at every position either of them stores."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, b = self._store, other._store
        return a == b or all(a.get(p, ZERO) == b.get(p, ZERO) for p in a.keys() | b.keys())

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self._store.values())

    def trace(self) -> Scalar:
        """The sum of the stored diagonal entries from the int zero; an unset
        entry would add the int zero, which changes no sum, and the value,
        type and conductor of a sum do not depend on its order."""
        if self.rows != self.cols:
            raise UsageError(f"trace of a non-square {self.rows}x{self.cols} matrix")
        t: Scalar = ZERO
        step = self.cols + 1
        for p, x in self._store.items():
            if p % step == 0:
                t = t + x
        return t

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


class RankDetKernel:
    """Result record of mat_rank_det_kernel; det only exists for square input.

    kernel_basis is a list of length-cols coordinate lists spanning the
    right kernel.
    """

    def __init__(self, rank: int, det_value: Scalar | None, kernel_basis: list[list[Scalar]]):
        self.rank = rank
        self._det = det_value
        self.kernel_basis = kernel_basis

    @property
    def det(self) -> Scalar:
        if self._det is None:
            raise UsageError("determinant requested on non-square matrix")
        return self._det


def row_reduce(
    rows: list[list], ncols: Optional[int] = None, modulus: Optional[int] = None
) -> tuple[list[int], Scalar]:
    """Reduce rows in place to reduced row echelon form (Gauss-Jordan).

    Pivots are taken left to right among the first ncols columns (all of them
    by default); row operations act on whole rows, so trailing columns carry
    right-hand sides along. Entries are exact scalars, or integers taken
    modulo the prime modulus when one is given.

    Returns (pivot columns, det factor). Afterwards row k < len(pivots) is 1
    at pivots[k] and 0 at every other pivot column, and the rows from
    len(pivots) on vanish in the first ncols columns. The det factor is the
    product of the pivots, negated once per row swap: the determinant when
    the matrix is square and of full rank.
    """
    if modulus is not None:
        rows[:] = [[x % modulus for x in row] for row in rows]
    ncols = (len(rows[0]) if rows else 0) if ncols is None else ncols
    det: Scalar = ONE
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), -1)
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = -det
        piv = rows[r]
        p = piv[col]
        if modulus is None:
            inv = reciprocal(p)
            piv[col:] = [x * inv for x in piv[col:]]
            det = det * p
        else:
            inv = pow(p, -1, modulus)
            piv[col:] = [x * inv % modulus for x in piv[col:]]
            det = det * p % modulus
        tail = piv[col:]
        for i, row in enumerate(rows):
            f = row[col]
            if i == r or not f:
                continue
            if modulus is None:
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
            else:
                row[col:] = [(x - f * y) % modulus for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return pivots, det


def echelon_kernel(
    rows: list[list], pivots: Sequence[int], ncols: int, modulus: Optional[int] = None
) -> list[list]:
    """Right-kernel basis of a matrix that row_reduce has brought to reduced
    echelon form: one vector per free column f, 1 at f and 0 at the other
    free columns."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for k, col in enumerate(pivots):
            v[col] = -rows[k][free] if modulus is None else -rows[k][free] % modulus
        basis.append(v)
    return basis


def solve_rows(aug: list[list], ncols: int, modulus: Optional[int] = None) -> list[list]:
    """Solve A x = B from the augmented rows [A | B], A having ncols columns;
    aug is reduced in place and the rows of x are returned.

    Raises NonInvertibleError when the system is inconsistent (witness: the
    first row whose right-hand side survives) or singular (witness: the
    columns without a pivot).
    """
    pivots, _ = row_reduce(aug, ncols, modulus)
    for i in range(len(pivots), len(aug)):
        if any(aug[i][ncols:]):
            raise NonInvertibleError(f"inconsistent system at row {i}")
    if len(pivots) < ncols:
        missing = [c for c in range(ncols) if c not in pivots]
        raise NonInvertibleError(f"singular system: no pivot in columns {missing}")
    return [row[ncols:] for row in aug[:ncols]]


def _row_lists(m: ExactMatrix) -> list[list[Scalar]]:
    """The dense rows of m, built from its stored entries."""
    out: list[list[Scalar]] = [[ZERO] * m.cols for _ in range(m.rows)]
    for p, x in m._store.items():
        out[p // m.cols][p % m.cols] = x
    return out


def mat_rank_det_kernel(m: ExactMatrix) -> RankDetKernel:
    """Exact rank, determinant (square case), and kernel basis of m."""
    rows = _row_lists(m)
    pivots, factor = row_reduce(rows)
    rank = len(pivots)
    det_value: Scalar | None = None
    if m.rows == m.cols:
        det_value = factor if rank == m.rows else ZERO
    return RankDetKernel(rank, det_value, echelon_kernel(rows, pivots, m.cols))


def solve(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve a @ x = b exactly (b may have several columns).

    Raises NonInvertibleError when the system is singular/inconsistent,
    with the failing row or pivot columns as witness.
    """
    if a.rows != b.rows:
        raise UsageError(f"solve dimension mismatch: {a.rows} vs {b.rows}")
    aug = [ra + rb for ra, rb in zip(_row_lists(a), _row_lists(b))]
    x = solve_rows(aug, a.cols)
    return ExactMatrix(a.cols, b.cols, [v for row in x for v in row])


def inverse(a: ExactMatrix) -> ExactMatrix:
    if a.rows != a.cols:
        raise UsageError(f"inverse of a non-square {a.rows}x{a.cols} matrix")
    return solve(a, ExactMatrix.identity(a.rows))
