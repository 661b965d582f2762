"""Known answers, computed by brute force over the benchmark's own group
tables, and the check that compares one CLI report against them.

Every answer is an isomorphism invariant, so it holds both for the catalogue
names (seed 0) and for the relabeled JSON inputs of any other seed.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

from inputs import Call, Inputs, Table

# Exit code every benchmark invocation must return: all checks pass.
EXPECTED_EXIT = 0


def _inverse(table: Table) -> list[int]:
    return [row.index(0) for row in table]


def _conj_orbits(table: Table, actors: list[int], points: list[int]) -> list[list[int]]:
    """Orbits of `points` under conjugation x -> g x g^-1 by `actors`."""
    inv = _inverse(table)
    left = set(points)
    orbits = []
    while left:
        x = min(left)
        orbit = sorted({table[table[g][x]][inv[g]] for g in actors})
        orbits.append(orbit)
        left -= set(orbit)
    return orbits


def class_number(table: Table, elements: list[int]) -> int:
    """Number of conjugacy classes of the subgroup `elements`."""
    return len(_conj_orbits(table, elements, elements))


def _stabilizer(table: Table, actors: list[int], x: int) -> list[int]:
    return [g for g in actors if table[g][x] == table[x][g]]


def category_simples(table: Table, kernel: list[int]) -> int:
    """Simples of the graded double: sum over kernel-conjugation orbits in H of
    the stabilizer's class number."""
    orbits = _conj_orbits(table, kernel, list(range(len(table))))
    return sum(class_number(table, _stabilizer(table, kernel, orbit[0])) for orbit in orbits)


def smatrix_blocks(table: Table) -> Counter:
    """Multiset of k(C(x)) over the conjugacy classes: the S-matrix label blocks."""
    everything = list(range(len(table)))
    return Counter(
        class_number(table, _stabilizer(table, everything, orbit[0]))
        for orbit in _conj_orbits(table, everything, everything)
    )


def _cosets(table: Table, kernel: list[int]) -> list[list[int]]:
    """Cosets of the kernel, ordered by smallest member (the program's J order)."""
    seen: dict[frozenset, None] = {}
    for h in range(len(table)):
        seen.setdefault(frozenset(table[h][k] for k in kernel))
    return sorted((sorted(c) for c in seen), key=lambda c: c[0])


def fiber_orbits(table: Table, kernel: list[int], monodromy: int) -> tuple[int, list[int]]:
    """(fiber size, orbit sizes) of kernel conjugation on the fiber over `monodromy`."""
    fiber = _cosets(table, kernel)[monodromy]
    return len(fiber), sorted(len(o) for o in _conj_orbits(table, kernel, fiber))


def genus2_hom_count(table: Table) -> int:
    """#{(a1,b1,a2,b2) : [a1,b1][a2,b2] = 1} = sum_x N(x) N(x^-1)."""
    inv = _inverse(table)
    n = len(table)
    commutators = Counter(table[table[table[a][b]][inv[a]]][inv[b]] for a in range(n) for b in range(n))
    return sum(commutators[x] * commutators[inv[x]] for x in range(n))


def _rational(encoded: object) -> Fraction:
    if isinstance(encoded, dict):
        coeffs = [Fraction(c) for c in encoded["coeffs"]]
        if any(coeffs[1:]):
            raise ValueError(f"expected a rational entry, got {encoded}")
        return coeffs[0]
    return Fraction(encoded)


def _expect(problems: list[str], what: str, got: object, want: object) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_verifier(call: Call, inputs: Inputs, report: dict, problems: list[str]) -> None:
    if call.command == "double":
        _, table = inputs.group(call.group)
        dimension = len(table) ** 2
    else:
        _, table, kernel = inputs.extension(call.extension)
        dimension = len(table) * len(kernel)
        if call.command == "orbifold":
            dimension *= len(table) // len(kernel)
    _expect(problems, "dimension", report.get("dimension"), dimension)
    _expect(problems, "mode", report.get("mode"), "sampled" if "--sampled" in call.flags else "full")
    _expect(problems, "all_passed", report.get("all_passed"), True)
    checks = report.get("checks") or {}
    failing = sorted(name for name, ok in checks.items() if ok is not True)
    _expect(problems, "failing checks", failing if checks else None, [])
    if "--check-psi" in call.flags:
        psi = report.get("psi") or {}
        _expect(problems, "psi", psi, {k: True for k in ("bijective", "product", "coproduct", "rmatrix", "twist")})


def _check_category(call: Call, inputs: Inputs, report: dict, problems: list[str]) -> None:
    _, table, kernel = inputs.extension(call.extension)
    n, j = category_simples(table, kernel), len(table) // len(kernel)
    want = {
        "hexagon-one": n ** 3,
        "hexagon-two": n ** 3,
        "action-braiding": j * n * n,
        "braid-equals-r-action": n * n,
        "twist-product": n * n,
        "twist-action": j * n,
        "twist-duality": n,
    }
    _expect(problems, "sample_size", report.get("sample_size"), n)
    _expect(problems, "diagram_counts", report.get("diagram_counts"), want)
    _expect(problems, "failures", report.get("failures"), [])
    _expect(problems, "all_passed", report.get("all_passed"), True)


def _check_smatrix(call: Call, inputs: Inputs, report: dict, problems: list[str]) -> None:
    _, table = inputs.group(call.group)
    blocks = smatrix_blocks(table)
    size = sum(k * count for k, count in blocks.items())
    _expect(problems, "size", report.get("size"), size)
    for flag in ("invertible", "symmetric", "character_formula_agrees", "all_passed"):
        _expect(problems, flag, report.get(flag), True)
    labels = report.get("labels") or []
    matrix = report.get("matrix") or []
    _expect(problems, "shape", (len(labels), len(matrix), {len(row) for row in matrix}), (size, size, {size}))
    if problems:
        return
    # Row 0 is the unit object: entries are the simples' dimensions, so their
    # squares sum to dim D(H) = |H|^2, in blocks of k(C(x)) per class.
    _expect(problems, "sum of squared row-0 entries", sum(_rational(e) ** 2 for e in matrix[0]), len(table) ** 2)
    per_class = Counter(label.split("x")[0] for label in labels)
    _expect(problems, "label blocks", Counter(per_class.values()), blocks)


def _check_cech(call: Call, inputs: Inputs, report: dict, problems: list[str]) -> None:
    _, table, kernel = inputs.extension(call.extension)
    _, orbits = fiber_orbits(table, kernel, call.monodromy)
    _expect(problems, "class_count", report.get("class_count"), len(orbits))
    _expect(problems, "representatives", len(report.get("representatives") or []), len(orbits))
    _expect(problems, "sector_groupoid_orbits", report.get("sector_groupoid_orbits"), len(orbits))
    _expect(problems, "matches_sector_groupoid", report.get("matches_sector_groupoid"), True)


def _check_sectors(call: Call, inputs: Inputs, report: dict, problems: list[str]) -> None:
    _, table, kernel = inputs.extension(call.extension)
    points, orbits = fiber_orbits(table, kernel, call.monodromy)
    entries = report.get("orbits") or []
    _expect(problems, "point_count", report.get("point_count"), points)
    _expect(problems, "orbit_count", report.get("orbit_count"), len(orbits))
    _expect(problems, "orbit sizes", sorted(e.get("size") for e in entries), orbits)
    _expect(problems, "stabilizer orders", [e.get("stabilizer_order") for e in entries],
            [len(kernel) // e.get("size", 1) for e in entries])
    card = sum(Fraction(size, len(kernel)) for size in orbits)
    _expect(problems, "cardinality", report.get("cardinality"), f"{card.numerator}/{card.denominator}")


def _check_dw(call: Call, inputs: Inputs, report: dict, problems: list[str]) -> None:
    _, table = inputs.group(call.group)
    _, generators, _ = inputs.presentation(call.presentation)
    count = genus2_hom_count(table)
    invariant = Fraction(count, len(table))
    _expect(problems, "generators", report.get("generators"), generators)
    _expect(problems, "hom_count", report.get("hom_count"), count)
    _expect(problems, "invariant", report.get("invariant"), f"{invariant.numerator}/{invariant.denominator}")


_CHECKS = {
    "double": _check_verifier,
    "jdouble": _check_verifier,
    "orbifold": _check_verifier,
    "verify-category": _check_category,
    "smatrix": _check_smatrix,
    "cech": _check_cech,
    "sectors": _check_sectors,
    "dw": _check_dw,
}


def check(call: Call, inputs: Inputs, exit_code: int, stdout: str) -> list[str]:
    """Every way the invocation's exit code or report disagrees with the known
    answers; an empty list means the invocation is correct."""
    problems: list[str] = []
    _expect(problems, "exit code", exit_code, EXPECTED_EXIT)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return problems + ["report is not a JSON object"]
    _expect(problems, "command", report.get("command"), call.command)
    try:
        _CHECKS[call.command](call, inputs, report, problems)
    except (TypeError, ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
