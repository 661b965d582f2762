"""Seeded benchmark inputs: the groups, extensions and presentation the
workloads name, built here from permutations and quaternion units so that the
oracle never depends on the program's own catalogue.

Seed 0 hands the program the catalogue names unchanged. Any other seed picks,
for every input group, a random relabeling that keeps the identity at index 0,
and writes the relabeled group, extension and presentation as JSON files; the
program then receives only those paths. Every verdict and every known answer
is invariant under relabeling, so a claim can be re-checked on an unseen seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


Table = list[list[int]]


def _table_from_elements(elements: list, mul) -> Table:
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def _perm_group(perms) -> tuple[Table, list[tuple[int, ...]]]:
    """Closure of permutations of {0..n-1}; identity first, then sorted."""
    n = len(perms[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(p[g[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    elements = [identity] + sorted(seen - {identity})
    return _table_from_elements(elements, lambda p, q: tuple(p[q[i]] for i in range(n))), elements


def _parity(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]) % 2


def _quaternions() -> Table:
    # unit (sign, axis) with axis 0 = 1, 1 = i, 2 = j, 3 = k
    prod = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}

    def mul(a, b):
        s, axis = prod[(a[1], b[1])]
        return (a[0] * b[0] * s, axis)

    elements = [(1, 0), (-1, 0)] + [(s, axis) for axis in (1, 2, 3) for s in (1, -1)]
    return _table_from_elements(elements, mul)


def _s4() -> tuple[Table, list[tuple[int, ...]]]:
    return _perm_group([(1, 0, 2, 3), (1, 2, 3, 0)])


def _a4() -> tuple[Table, list[tuple[int, ...]]]:
    return _perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])


def _d4() -> tuple[Table, list[tuple[int, ...]]]:
    return _perm_group([(1, 2, 3, 0), (0, 3, 2, 1)])


def _s3() -> tuple[Table, list[tuple[int, ...]]]:
    return _perm_group([(1, 0, 2), (1, 2, 0)])


def base_group(name: str) -> Table:
    if name == "Q8":
        return _quaternions()
    return {"S4": _s4, "A4": _a4, "D4": _d4}[name]()[0]


def base_extension(name: str) -> tuple[Table, list[int]]:
    """(ambient table, kernel elements) for the catalogue extension `name`."""
    if name == "Z2-Q8":
        return _quaternions(), [0, 1]
    if name == "Z4-D4":
        table, elements = _d4()
        rotation = elements.index((1, 2, 3, 0))
        kernel, x = [0], rotation
        while x != 0:
            kernel.append(x)
            x = table[x][rotation]
        return table, sorted(kernel)
    if name == "V4-A4":
        table, elements = _a4()
        return table, [i for i, p in enumerate(elements) if all(p[p[k]] == k for k in range(4))]
    if name in ("A4-S4", "A3-S3"):
        table, elements = _s4() if name == "A4-S4" else _s3()
        return table, [i for i, p in enumerate(elements) if _parity(p) == 0]
    raise KeyError(name)


SURFACE_GENUS_2 = [[1, 2, -1, -2, 3, 4, -3, -4]]


def relabel(table: Table, rng: random.Random) -> tuple[Table, list[int]]:
    """Random relabeling fixing the identity: returns (new table, old -> new)."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[perm[a]][perm[b]] = perm[table[a][b]]
    return new, perm


def _scramble_generators(relations: list[list[int]], generators: int, rng: random.Random) -> list[list[int]]:
    """Permute generators and invert some of them: an automorphism of the free
    group, so the homomorphism count into any group is unchanged."""
    order = list(range(1, generators + 1))
    rng.shuffle(order)
    sign = [rng.choice((1, -1)) for _ in range(generators)]
    return [[order[abs(x) - 1] * sign[abs(x) - 1] * (1 if x > 0 else -1) for x in rel] for rel in relations]


@dataclass
class Inputs:
    """Program references (names or JSON paths) plus the tables the oracle uses."""

    seed: int
    directory: str

    def __post_init__(self):
        self.rng = random.Random(self.seed)
        self._groups: dict[str, tuple[str, Table]] = {}
        self._extensions: dict[str, tuple[str, Table, list[int]]] = {}
        self._presentations: dict[str, tuple[str, int, list[list[int]]]] = {}

    def _write(self, filename: str, obj: object) -> str:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def group(self, name: str) -> tuple[str, Table]:
        if name not in self._groups:
            table = base_group(name)
            ref = name
            if self.seed != 0:
                table, _ = relabel(table, self.rng)
                ref = self._write(f"group-{name}.json", {"order": len(table), "table": table})
            self._groups[name] = (ref, table)
        return self._groups[name]

    def extension(self, name: str) -> tuple[str, Table, list[int]]:
        if name not in self._extensions:
            table, kernel = base_extension(name)
            ref = name
            if self.seed != 0:
                table, perm = relabel(table, self.rng)
                kernel = sorted(perm[k] for k in kernel)
                ref = self._write(
                    f"extension-{name}.json",
                    {"h": {"order": len(table), "table": table}, "kernel": kernel},
                )
            self._extensions[name] = (ref, table, kernel)
        return self._extensions[name]

    def presentation(self, name: str) -> tuple[str, int, list[list[int]]]:
        if name != "Sigma_2":
            raise KeyError(name)
        if name not in self._presentations:
            generators, relations = 4, SURFACE_GENUS_2
            ref = name
            if self.seed != 0:
                relations = _scramble_generators(relations, generators, self.rng)
                ref = self._write(
                    f"presentation-{name}.json", {"generators": generators, "relations": relations}
                )
            self._presentations[name] = (ref, generators, relations)
        return self._presentations[name]


@dataclass(frozen=True)
class Call:
    """One CLI invocation, naming its inputs by catalogue name."""

    command: str
    group: str | None = None
    extension: str | None = None
    presentation: str | None = None
    monodromy: int | None = None
    flags: tuple[str, ...] = ()

    def argv(self, inputs: Inputs) -> list[str]:
        out = [self.command]
        if self.presentation is not None:
            out += ["--presentation", inputs.presentation(self.presentation)[0]]
        if self.group is not None:
            out += ["--group", inputs.group(self.group)[0]]
        if self.extension is not None:
            out += ["--extension", inputs.extension(self.extension)[0]]
        if self.monodromy is not None:
            out += ["--monodromy", str(self.monodromy)]
        return out + list(self.flags)


# Each workload is run as one pass: these invocations, in order, each in a
# fresh process. Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS: dict[str, tuple[Call, ...]] = {
    "verify-full": (
        Call("double", group="Q8"),
        Call("jdouble", extension="Z4-D4"),
        Call("orbifold", extension="Z2-Q8", flags=("--check-psi",)),
    ),
    "modules": (
        Call("verify-category", extension="Z2-Q8"),
        Call("smatrix", group="A4"),
    ),
    # sampled verification and enumeration share a workload so that each run
    # averages more than one long process; neither touches the exhaustive loops
    "sampled-enumerate": (
        Call("orbifold", extension="V4-A4", flags=("--sampled",)),
        Call("cech", extension="A4-S4", monodromy=1),
        Call("dw", presentation="Sigma_2", group="S4"),
        Call("sectors", extension="A4-S4", monodromy=1),
    ),
}

# Not in BENCHMARK.json: single invocations that measure two ROADMAP done-when
# numbers (verify_hopf on D(A4), the V4-A4 full-mode double, and the A3-S3
# diagram suite) with --trace 1. The first takes about a minute per pass, too
# long for the timed runs.
PROBES: dict[str, tuple[Call, ...]] = {
    "probe-hopf-a4": (Call("double", group="A4"),),
    "probe-diagrams-a3s3": (Call("verify-category", extension="A3-S3"),),
}
