"""Command-line interface: one binary, batch subcommands, deterministic reports.

Reports are JSON by default ("schema": 1, keys sorted, no timestamps), so two
runs with the same configuration produce byte-identical output. Exit codes:
0 success, 1 a requested check failed (the report is still written), 2 usage
or parse errors, 3 a resource budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

# Only what every subcommand needs is imported here; each handler imports the
# layers it runs, so a run compiles and loads no module it does not use.
from .catalogue import catalogue_list, load_extension, load_group, load_presentation
from .errors import DEFAULT_BUDGET, EquidoubleError, NonInvertibleError, ResourceError, UsageError
from .scalars import Cyclotomic, Scalar

if TYPE_CHECKING:
    from .hopf import VerifyReport

SCHEMA = 1


class RunConfig:
    """A fully parsed invocation; building one validates budgets and flags.
    Its keyword defaults are the command line's defaults: the parser passes
    only the flags that were given."""

    __slots__ = (
        "command", "group", "extension", "presentation", "monodromy", "check_psi",
        "budget_homs", "budget_dim", "sampled", "format", "out",
    )

    def __init__(
        self,
        command: str,
        group: Optional[str] = None,
        extension: Optional[str] = None,
        presentation: Optional[str] = None,
        monodromy: int = 0,
        check_psi: bool = False,
        budget_homs: int = DEFAULT_BUDGET,
        budget_dim: Optional[int] = None,
        sampled: bool = False,
        format: str = "json",
        out: Optional[str] = None,
    ):
        if budget_homs <= 0:
            raise UsageError("--budget-homs must be positive")
        if budget_dim is not None and budget_dim <= 0:
            raise UsageError("--budget-dim must be positive")
        tabular = [name for name, cmd in _COMMANDS.items() if cmd.csv]
        if format == "csv" and command not in tabular:
            raise UsageError(f"csv output is only available for: {', '.join(tabular)}")
        self.command = command
        self.group = group
        self.extension = extension
        self.presentation = presentation
        self.monodromy = monodromy
        self.check_psi = check_psi
        self.budget_homs = budget_homs
        self.budget_dim = budget_dim
        self.sampled = sampled
        self.format = format
        self.out = out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RunConfig) and all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


# -- scalar and report encoding -------------------------------------------------


def encode_scalar(x: Scalar) -> object:
    if isinstance(x, Cyclotomic):
        return {"conductor": x.n, "coeffs": [encode_scalar(c) for c in x.coeffs]}
    frac = Fraction(x)
    return f"{frac.numerator}/{frac.denominator}"


def scalar_string(x: Scalar) -> str:
    """Human/CSV form: rationals plain, cyclotomics as c0 + c1*z(n)^1 + ..."""
    return str(x if isinstance(x, Cyclotomic) else Fraction(x))


def _render_text(obj: object, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key in sorted(obj, key=str):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return lines
    if isinstance(obj, list):
        lines = []
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
        return lines
    return [f"{pad}{obj}"]


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        return "\n".join(_render_text(report)) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    raise UsageError(f"unknown format {fmt!r}")


def _render_csv(report: dict) -> str:
    rows = report["csv_rows"]
    return "\n".join(",".join(str(cell) for cell in row) for row in rows) + "\n"


# -- subcommand implementations --------------------------------------------------


def _require(value: Optional[str], flag: str) -> str:
    if value is None:
        raise UsageError(f"{flag} is required for this subcommand")
    return value


def _cmd_dw(config: RunConfig) -> tuple[dict, bool]:
    from .dw import count_homs, require_surface_budget

    ref = _require(config.presentation, "--presentation")
    require_surface_budget(ref, config.budget_homs)
    pres = load_presentation(ref)
    group = load_group(_require(config.group, "--group"))
    count = count_homs(pres, group, budget=config.budget_homs)
    invariant = Fraction(count, group.order)
    report = {
        "presentation": config.presentation,
        "group": config.group,
        "generators": pres.generators,
        "relations": [list(word) for word in pres.relations],
        "hom_count": count,
        "invariant": encode_scalar(invariant),
    }
    return report, True


def _suite_fields(rep: VerifyReport) -> dict:
    return {"mode": rep.mode, "checks": dict(rep.checks), "all_passed": rep.all_passed}


def _cmd_double(config: RunConfig) -> tuple[dict, bool]:
    from .doubles import double_algebra
    from .hopf import verify_all_axioms

    group = load_group(_require(config.group, "--group"))
    d = double_algebra(group)
    rep = verify_all_axioms(d.ribbon_data(), sampled=config.sampled)
    report = {"group": config.group, "dimension": d.hopf.dim, **_suite_fields(rep)}
    return report, rep.all_passed


def _cmd_jdouble(config: RunConfig) -> tuple[dict, bool]:
    from .doubles import sector_double
    from .orbifold import verify_sector_double

    ext = load_extension(_require(config.extension, "--extension"))
    sd = sector_double(ext)
    rep = verify_sector_double(sd, sampled=config.sampled)
    report = {
        "extension": config.extension,
        "dimension": sd.hopf.dim,
        "sectors": ext.J.order,
        "sector_dimensions": [len(ext.fiber(j)) * ext.G.order for j in range(ext.J.order)],
        **_suite_fields(rep),
    }
    return report, rep.all_passed


def _cmd_orbifold(config: RunConfig) -> tuple[dict, bool]:
    from .doubles import double_algebra, sector_double
    from .hopf import verify_all_axioms
    from .orbifold import orbifold_algebra, orbifold_ribbon, psi_check

    ext = load_extension(_require(config.extension, "--extension"))
    sd = sector_double(ext)
    ohat = orbifold_algebra(sd)
    rib = orbifold_ribbon(sd, ohat)
    rep = verify_all_axioms(rib, sampled=config.sampled)
    report = {"extension": config.extension, "dimension": ohat.dim, **_suite_fields(rep)}
    if config.check_psi:
        psi = psi_check(sd, rib, double_algebra(ext.H))
        report["psi"] = dict(psi.checks)
        report["all_passed"] = rep.all_passed and psi.all_passed
    return report, report["all_passed"]


def _cmd_smatrix(config: RunConfig) -> tuple[dict, bool]:
    from .modular import s_matrix, s_matrix_character_formula

    group = load_group(_require(config.group, "--group"))
    traced = s_matrix(group)
    counted = s_matrix_character_formula(group)
    agrees = traced.matrix == counted.matrix
    labels = [f"[{h}]x{row}" for (h, row) in traced.labels]
    invertible = traced.is_invertible()
    symmetric = traced.is_symmetric()
    ok = invertible and symmetric and agrees
    report = {
        "group": config.group,
        "size": traced.matrix.rows,
        "labels": labels,
        "matrix": [
            [encode_scalar(traced.matrix[r, c]) for c in range(traced.matrix.cols)]
            for r in range(traced.matrix.rows)
        ],
        "invertible": invertible,
        "symmetric": symmetric,
        "character_formula_agrees": agrees,
        "all_passed": ok,
        "csv_rows": [["label"] + labels]
        + [
            [labels[r]] + [scalar_string(traced.matrix[r, c]) for c in range(traced.matrix.cols)]
            for r in range(traced.matrix.rows)
        ],
    }
    return report, ok


def _cmd_simples(config: RunConfig) -> tuple[dict, bool]:
    from .modular import simples_of_double, trivial_extension

    if (config.extension is None) == (config.group is None):
        raise UsageError("need exactly one of --extension and --group")
    if config.extension is not None:
        ext = load_extension(config.extension)
        source = config.extension
    else:
        ext = trivial_extension(load_group(config.group))
        source = config.group
    simples = simples_of_double(ext)
    entries = [
        {
            "label": v.name,
            "dimension": v.dim,
            "sector": v.degree(),
            "grades": list(v.grades),
        }
        for v in simples
    ]
    report = {
        "input": source,
        "count": len(simples),
        "sum_of_squared_dimensions": sum(v.dim * v.dim for v in simples),
        "simples": entries,
        "csv_rows": [["label", "dimension", "sector"]]
        + [[v.name, v.dim, v.degree()] for v in simples],
    }
    return report, True


def _category_sample(simples: list, config: RunConfig) -> list:
    """The simples within --budget-dim; --sampled keeps the first, middle
    and last of them."""
    if config.budget_dim is not None:
        simples = [v for v in simples if v.dim <= config.budget_dim]
    if config.sampled and len(simples) > 3:
        picks = sorted({0, len(simples) // 2, len(simples) - 1})
        simples = [simples[i] for i in picks]
    return simples


def _category_payload(ext, config: RunConfig, sd=None) -> dict:
    """Diagram suite on the sample of simples; sd is the extension's sector
    double, when the caller has built it."""
    from .modular import check_equivariant_diagrams, simples_of_double

    simples = _category_sample(simples_of_double(ext), config)
    rep = check_equivariant_diagrams(ext, simples, sd)
    return {
        "sample_size": len(simples),
        "diagram_counts": dict(rep.counts),
        "failures": [[name, list(labels)] for name, labels in rep.failures],
        "all_passed": rep.all_passed,
    }


def _cmd_verify_category(config: RunConfig) -> tuple[dict, bool]:
    ext = load_extension(_require(config.extension, "--extension"))
    report = {"extension": config.extension, "sampled": config.sampled}
    report.update(_category_payload(ext, config))
    return report, report["all_passed"]


def _cmd_verify_all(config: RunConfig) -> tuple[dict, bool]:
    from .doubles import double_algebra, sector_double
    from .hopf import verify_all_axioms
    from .modular import s_matrix
    from .orbifold import orbifold_ribbon, psi_check, verify_sector_double

    ext = load_extension(_require(config.extension, "--extension"))
    # first the S-matrix: past its order bound it raises before the long sections run
    invertible = s_matrix(ext.H).is_invertible()
    sd = sector_double(ext)
    dh = double_algebra(ext.H)
    sector = verify_sector_double(sd, sampled=config.sampled)
    # if the sector suite could not build the crossed product, this raises its error
    rib = sector.built or orbifold_ribbon(sd)
    sections = {
        "hopf-axioms": dict(verify_all_axioms(dh.ribbon_data(), sampled=config.sampled).checks),
        "j-hopf-axioms": dict(sector.checks),
        "psi-identification": dict(psi_check(sd, rib, dh).checks),
        "category-diagrams": _category_payload(ext, config, sd),
    }
    sections["modularity"] = {"orbifold_modular": invertible, "j_modular_claim": invertible}

    def section_ok(payload: dict) -> bool:
        if "all_passed" in payload:
            return bool(payload["all_passed"])
        return all(bool(v) for v in payload.values())

    report = {
        "extension": config.extension,
        "mode": "sampled" if config.sampled else "full",
        "sections": sections,
        "section_passed": {name: section_ok(payload) for name, payload in sections.items()},
    }
    ok = all(report["section_passed"].values())
    report["all_passed"] = ok
    return report, ok


def _circle_sectors(config: RunConfig):
    """The extension and the twisted-bundle groupoid of the circle at the
    requested monodromy j (the sector groupoid H_j//G), with its points."""
    from .dw import TwistHom, presentation_by_name, twisted_bundle_groupoid

    ext = load_extension(_require(config.extension, "--extension"))
    if not 0 <= config.monodromy < ext.J.order:
        raise UsageError(f"monodromy must be a sector index in 0..{ext.J.order - 1}")
    twist_hom = TwistHom(presentation_by_name("circle"), ext.J, (config.monodromy,))
    action, points = twisted_bundle_groupoid(twist_hom, ext, budget=config.budget_homs)
    return ext, action, points


def _cmd_cech(config: RunConfig) -> tuple[dict, bool]:
    from .dw import circle_nerve, twisted_cech_h1
    from .groups import extension_to_weak_action

    ext, action, _points = _circle_sectors(config)
    wa = extension_to_weak_action(ext)
    nerve = circle_nerve(ext.J, config.monodromy)
    classes = twisted_cech_h1(nerve, wa, budget=config.budget_homs)
    orbit_count = len(action.orbits())
    matches = classes.count == orbit_count
    report = {
        "extension": config.extension,
        "monodromy": config.monodromy,
        "nerve": "circle3",
        "class_count": classes.count,
        "representatives": [list(rep) for rep in classes.representatives],
        "sector_groupoid_orbits": orbit_count,
        "matches_sector_groupoid": matches,
    }
    return report, matches


def _cmd_sectors(config: RunConfig) -> tuple[dict, bool]:
    from .groups import groupoid_cardinality

    _ext, action, points = _circle_sectors(config)
    orbits = action.orbits()
    entries = []
    for orbit in orbits:
        base = orbit[0]
        stab = action.stabilizer(base)
        entries.append(
            {
                "base_point": points[base][0],
                "size": len(orbit),
                "stabilizer_order": len(stab),
            }
        )
    report = {
        "extension": config.extension,
        "monodromy": config.monodromy,
        "point_count": len(points),
        "orbit_count": len(orbits),
        "orbits": entries,
        "cardinality": encode_scalar(groupoid_cardinality(action)),
        "csv_rows": [["base_point", "size", "stabilizer_order"]]
        + [[e["base_point"], e["size"], e["stabilizer_order"]] for e in entries],
    }
    return report, True


def _cmd_catalogue(config: RunConfig) -> tuple[dict, bool]:
    listing = catalogue_list()
    report = {
        "groups": list(listing["groups"]),
        "extensions": list(listing["extensions"]),
        "presentations": list(listing["presentations"]),
        "nerves": list(listing["nerves"]),
        "csv_rows": [["kind", "name"]]
        + [[kind, name] for kind in sorted(listing) for name in listing[kind]],
    }
    return report, True


class _Command(NamedTuple):
    handler: Callable[[RunConfig], tuple[dict, bool]]
    help: str
    fields: tuple[str, ...]  # the RunConfig fields it reads, besides format and out
    csv: bool = False


_COMMANDS: dict[str, _Command] = {
    "dw": _Command(
        _cmd_dw, "count flat bundles and the normalized invariant", ("group", "presentation", "budget_homs")
    ),
    "double": _Command(_cmd_double, "axiom suite for the double of a group", ("group", "sampled")),
    "jdouble": _Command(_cmd_jdouble, "axiom suite for the graded double of an extension", ("extension", "sampled")),
    "orbifold": _Command(_cmd_orbifold, "axiom suite for the crossed product", ("extension", "check_psi", "sampled")),
    "smatrix": _Command(_cmd_smatrix, "S-matrix of the double of a group", ("group",), csv=True),
    "simples": _Command(_cmd_simples, "simple modules of the (graded) double", ("group", "extension"), csv=True),
    "verify-category": _Command(
        _cmd_verify_category, "braiding/twist coherence diagrams on simples", ("extension", "budget_dim", "sampled")
    ),
    "verify-all": _Command(
        _cmd_verify_all, "every verification suite for one extension", ("extension", "budget_dim", "sampled")
    ),
    "cech": _Command(
        _cmd_cech, "cocycle classes over the three-arc circle nerve", ("extension", "monodromy", "budget_homs")
    ),
    "sectors": _Command(
        _cmd_sectors, "twisted-bundle groupoid of the circle", ("extension", "monodromy", "budget_homs"), csv=True
    ),
    "catalogue": _Command(_cmd_catalogue, "list built-in groups, extensions, presentations, nerves", (), csv=True),
}


# -- argument parsing ------------------------------------------------------------

# The argparse options of each RunConfig field; its flag is the field name
# with "-" for "_". A flag that is not given stays out of the parsed namespace,
# so the defaults live in RunConfig alone.
_FLAGS: dict[str, dict] = {
    "group": {"help": "catalogue group name or JSON file path"},
    "extension": {"help": "catalogue extension name or JSON file path"},
    "presentation": {"required": True, "help": "catalogue presentation name or JSON file path"},
    "monodromy": {"type": int, "help": "sector index (default 0)"},
    "check_psi": {"action": "store_true", "help": "also verify the identification with the plain double"},
    "budget_homs": {"type": int, "help": "cap on enumeration search spaces"},
    "budget_dim": {"type": int, "help": "skip sample modules above this dimension"},
    "sampled": {"action": "store_true", "help": "randomized spot checks instead of exhaustive loops"},
    "format": {"choices": ("json", "csv", "text")},
    "out": {"help": "write the report to this path instead of stdout"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equidouble",
        description="Exact doubles of group extensions: invariants, axiom suites, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for field in command.fields + ("format", "out"):
            p.add_argument("--" + field.replace("_", "-"), **_FLAGS[field])
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    return RunConfig(**vars(_build_parser().parse_args(argv)))


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift the interpreter's cap on the decimal digits of a printed int, where
    it has one: counts are reported exact, and the budgets bound their size."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run(config: RunConfig) -> int:
    """Execute one parsed invocation and write its report."""
    with _unlimited_int_digits():
        body, ok = _COMMANDS[config.command].handler(config)
        report = {"schema": SCHEMA, "command": config.command}
        report.update(body)
        if config.format != "csv":
            report.pop("csv_rows", None)
        rendered = render_report(report, config.format)
    if config.out is not None:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise UsageError(f"cannot write report to {config.out!r}: {exc}")
    else:
        sys.stdout.write(rendered)
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(args)
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NonInvertibleError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except EquidoubleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
