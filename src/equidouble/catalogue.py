"""Built-in named groups, extensions, presentations, and input parsing.

Every name listed by catalogue_list() is stable: tests and command-line runs
refer to inputs by these identifiers, or by a path to a JSON file with the
same content as the parsers below accept.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Callable

from .errors import UsageError
from .groups import (
    FiniteGroup,
    GroupExtension,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    extension_from_subgroup,
    quaternion_group,
    symmetric_group,
)

# the presentations live in `dw`, which is loaded only by the calls below that
# read one, so a run that reads none does not compile it
if TYPE_CHECKING:
    from .dw import Presentation


def _v4() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2), name="Z2xZ2")


_GROUP_BUILDERS: dict[str, Callable[[], FiniteGroup]] = {
    "Z1": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z5": lambda: cyclic_group(5),
    "Z6": lambda: cyclic_group(6),
    "Z8": lambda: cyclic_group(8),
    "Z2xZ2": _v4,
    "V4": _v4,
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "A4": lambda: alternating_group(4),
    "D4": lambda: dihedral_group(4),
    "D5": lambda: dihedral_group(5),
    "D6": lambda: dihedral_group(6),
    "Q8": quaternion_group,
}


def group_names() -> tuple[str, ...]:
    return tuple(sorted(_GROUP_BUILDERS))


def group_by_name(name: str) -> FiniteGroup:
    if name not in _GROUP_BUILDERS:
        raise UsageError(f"unknown group {name!r}; known: {', '.join(group_names())}")
    group = _GROUP_BUILDERS[name]()
    if not group.name:
        group.name = name
    return group


def _order_divides(group: FiniteGroup, d: int) -> list[int]:
    return [g for g in range(group.order) if d % group.element_order(g) == 0]


def _ext_a3_s3() -> GroupExtension:
    s3 = symmetric_group(3)
    return extension_from_subgroup(s3, _order_divides(s3, 3), name="A3-S3")


def _ext_z2_z4() -> GroupExtension:
    return extension_from_subgroup(cyclic_group(4), [0, 2], name="Z2-Z4")


def _ext_z4_d4() -> GroupExtension:
    d4 = dihedral_group(4)
    rot = next(g for g in range(d4.order) if d4.element_order(g) == 4)
    return extension_from_subgroup(d4, sorted(d4.closure([rot])), name="Z4-D4")


def _ext_z2_q8() -> GroupExtension:
    q8 = quaternion_group()
    return extension_from_subgroup(q8, _order_divides(q8, 2), name="Z2-Q8")


def _ext_v4_a4() -> GroupExtension:
    a4 = alternating_group(4)
    return extension_from_subgroup(a4, _order_divides(a4, 2), name="V4-A4")


def _ext_a4_s4() -> GroupExtension:
    s4 = symmetric_group(4)
    squares = sorted({s4.mul(g, g) for g in range(s4.order)})
    return extension_from_subgroup(s4, sorted(s4.closure(squares)), name="A4-S4")


def _ext_z3_z6() -> GroupExtension:
    return extension_from_subgroup(cyclic_group(6), [0, 2, 4], name="Z3-Z6")


def _ext_z2_v4() -> GroupExtension:
    return extension_from_subgroup(_v4(), [0, 1], name="Z2-V4")


_EXTENSION_BUILDERS: dict[str, Callable[[], GroupExtension]] = {
    "A3-S3": _ext_a3_s3,
    "Z2-Z4": _ext_z2_z4,
    "Z4-D4": _ext_z4_d4,
    "Z2-Q8": _ext_z2_q8,
    "V4-A4": _ext_v4_a4,
    "A4-S4": _ext_a4_s4,
    "Z3-Z6": _ext_z3_z6,
    "Z2-V4": _ext_z2_v4,
}


def extension_names() -> tuple[str, ...]:
    return tuple(sorted(_EXTENSION_BUILDERS))


def extension_by_name(name: str) -> GroupExtension:
    if name not in _EXTENSION_BUILDERS:
        raise UsageError(f"unknown extension {name!r}; known: {', '.join(extension_names())}")
    return _EXTENSION_BUILDERS[name]()


NERVE_NAMES = ("circle3",)


def catalogue_list() -> dict[str, tuple[str, ...]]:
    """Stable identifiers accepted wherever a group, extension, presentation,
    or nerve is expected."""
    from .dw import presentation_names

    return {
        "groups": group_names(),
        "extensions": extension_names(),
        "presentations": tuple(presentation_names()),
        "nerves": NERVE_NAMES,
    }


# -- JSON input ----------------------------------------------------------------


def group_from_json(obj: object) -> FiniteGroup:
    """Parse {"order": n, "table": [[...]], "labels": [...]} (labels optional)."""
    if not isinstance(obj, dict):
        raise UsageError("group JSON must be an object")
    try:
        order = obj["order"]
        table = obj["table"]
    except KeyError as missing:
        raise UsageError(f"group JSON lacks required key {missing}")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise UsageError("group JSON table must be a list of rows")
    if type(order) is not int or len(table) != order:
        raise UsageError("group JSON order must match the table size")
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise UsageError("group JSON labels must be a list")
    name = obj.get("name", "")
    return FiniteGroup(table, labels=labels, name=name)


def presentation_from_json(obj: object) -> Presentation:
    """Parse {"generators": r, "relations": [[letters], ...]}."""
    from .dw import Presentation

    if not isinstance(obj, dict):
        raise UsageError("presentation JSON must be an object")
    try:
        generators = obj["generators"]
    except KeyError as missing:
        raise UsageError(f"presentation JSON lacks required key {missing}")
    relations = obj.get("relations", [])
    if not isinstance(relations, list) or not all(isinstance(word, list) for word in relations):
        raise UsageError("presentation JSON relations must be a list of letter lists")
    return Presentation(generators, tuple(tuple(word) for word in relations))


def extension_from_json(obj: object) -> GroupExtension:
    """Parse {"h": <group JSON or name>, "kernel": [...], "section": [...]?}."""
    if not isinstance(obj, dict):
        raise UsageError("extension JSON must be an object")
    try:
        h_ref = obj["h"]
        kernel = obj["kernel"]
    except KeyError as missing:
        raise UsageError(f"extension JSON lacks required key {missing}")
    section = obj.get("section")
    if not isinstance(kernel, list) or not (section is None or isinstance(section, list)):
        raise UsageError("extension JSON kernel and section must be lists of element indices")
    h = group_by_name(h_ref) if isinstance(h_ref, str) else group_from_json(h_ref)
    return extension_from_subgroup(h, kernel, section=section, name=obj.get("name", ""))


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise UsageError(f"cannot read JSON input {path!r}: {exc}")


def _load(kind: str, ref: str, by_name: Callable, from_json: Callable):
    """The catalogue entry named ref, or else the JSON file at path ref: a
    name wins over a file or directory of the same name."""
    try:
        return by_name(ref)
    except UsageError:
        if not os.path.exists(ref):
            raise UsageError(f"unknown {kind} {ref!r} (not a catalogue name or readable file)") from None
    return from_json(_load_json(ref))


def load_group(ref: str) -> FiniteGroup:
    return _load("group", ref, group_by_name, group_from_json)


def load_presentation(ref: str) -> Presentation:
    from .dw import presentation_by_name

    return _load("presentation", ref, presentation_by_name, presentation_from_json)


def load_extension(ref: str) -> GroupExtension:
    return _load("extension", ref, extension_by_name, extension_from_json)
