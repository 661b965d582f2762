"""Command-line interface: parsing, exit codes, rendering, file inputs."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from equidouble import cli, doubles, dw, orbifold
from equidouble.catalogue import catalogue_list
from equidouble.errors import UsageError
from equidouble.groups import dihedral_group, symmetric_group
from equidouble.scalars import Cyclotomic


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_catalogue_names_cover_the_required_inputs():
    listing = catalogue_list()
    for name in ("Z2", "Z4", "S3", "D4", "Q8", "S4"):
        assert name in listing["groups"]
    for name in ("A3-S3", "Z2-Z4", "Z4-D4", "A4-S4"):
        assert name in listing["extensions"]
    assert "T3" in listing["presentations"]
    assert "circle" in listing["presentations"]
    assert listing["nerves"] == ("circle3",)


def test_config_validation():
    with pytest.raises(UsageError):
        cli.RunConfig(command="dw", budget_homs=0)
    with pytest.raises(UsageError):
        cli.RunConfig(command="dw", budget_dim=-1)
    with pytest.raises(UsageError):
        cli.RunConfig(command="verify-all", format="csv")


def test_config_defaults_live_in_run_config():
    assert cli.parse_config(["cech", "--extension", "A3-S3"]) == cli.RunConfig(command="cech", extension="A3-S3")
    got = cli.parse_config(["dw", "--presentation", "T3", "--group", "S3", "--budget-homs", "7", "--format", "text"])
    assert got == cli.RunConfig(command="dw", presentation="T3", group="S3", budget_homs=7, format="text")


def test_scalar_encoding_forms():
    assert cli.encode_scalar(Fraction(3, 2)) == "3/2"
    assert cli.encode_scalar(Fraction(4)) == "4/1"
    enc = cli.encode_scalar(Cyclotomic.zeta(8))
    assert enc["conductor"] == 8
    assert enc["coeffs"][0] == "0/1"
    assert enc["coeffs"][1] == "1/1"
    assert cli.scalar_string(Fraction(4)) == "4"
    assert cli.scalar_string(Fraction(-3, 2)) == "-3/2"
    assert cli.scalar_string(Cyclotomic.zeta(4)) == "0 + 1*z(4)^1"


def test_dw_report_fields(capsys):
    code, out = run_cli(capsys, "dw", "--presentation", "T3", "--group", "S3")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["command"] == "dw"
    assert report["hom_count"] == 48
    assert report["invariant"] == "8/1"


def test_catalogue_command_lists_kinds(capsys):
    code, out = run_cli(capsys, "catalogue")
    assert code == 0
    report = json.loads(out)
    assert "A3-S3" in report["extensions"]
    assert "csv_rows" not in report  # only the csv format keeps the rows


def test_unknown_names_exit_with_usage_code(capsys):
    assert cli.main(["double", "--group", "NoSuchGroup"]) == 2
    assert cli.main(["jdouble", "--extension", "NoSuchExt"]) == 2
    assert cli.main(["cech", "--extension", "Z2-Z4", "--monodromy", "7"]) == 2
    capsys.readouterr()
    # only a canonical ASCII genus names a surface: these take the unknown-name route
    for name in ["Sigma_\u00b2", "Sigma_\u0661", "Sigma_01"]:
        assert cli.main(["dw", "--presentation", name, "--group", "Z2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: unknown presentation {name!r}")


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["smatrix", "--group", "Z2", "--sampled"],
        ["simples", "--group", "Z2", "--budget-homs", "5"],
        ["cech", "--extension", "Z2-Z4", "--budget-dim", "3"],
        ["double", "--group", "Z2", "--budget-dim", "3"],
        ["dw", "--presentation", "Sigma_1", "--group", "Z2", "--sampled"],
        ["verify-all", "--extension", "Z2-Z4", "--budget-homs", "5"],
    ],
)
def test_subcommands_reject_flags_their_handler_ignores(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    capsys.readouterr()


def test_budget_exceeded_exits_with_resource_code(capsys):
    argv = ["dw", "--presentation", "Sigma_3", "--group", "S4", "--budget-homs", "2"]
    assert cli.main(argv) == 3
    capsys.readouterr()


def test_huge_genus_exits_on_budget_before_the_relator_is_built(monkeypatch, capsys):
    """Sigma_9999999 needs at least 2g - 1 = 19,999,997 steps on any group,
    past the default budget: the run exits 3 without forming the 40-million
    letter relator. At budget 2g - 1 the floor passes and the count's own
    budget decides."""

    def unbuilt(genus):
        raise AssertionError(f"the relator of genus {genus} was built")

    monkeypatch.setattr(dw, "surface_presentation", unbuilt)
    assert cli.main(["dw", "--presentation", "Sigma_9999999", "--group", "Z2"]) == 3
    assert "Sigma_9999999 needs at least 2g - 1 = 19999997 counting steps" in capsys.readouterr().err
    monkeypatch.undo()
    assert cli.main(["dw", "--presentation", "Sigma_3", "--group", "S4", "--budget-homs", "5"]) == 3
    assert "block convolution steps" in capsys.readouterr().err


def test_verify_all_exits_on_the_s_matrix_bound_before_any_section(monkeypatch, tmp_path, capsys):
    """|H| = 25 exceeds the S-matrix bound: verify-all exits 3 before it
    builds the sector double."""
    calls = []
    monkeypatch.setattr(doubles, "sector_double", lambda *args: calls.append(args))
    path = tmp_path / "z5-z25.json"
    z25 = {"order": 25, "table": [[(a + b) % 25 for b in range(25)] for a in range(25)]}
    path.write_text(json.dumps({"h": z25, "kernel": [0, 5, 10, 15, 20]}))
    assert cli.main(["verify-all", "--extension", str(path), "--sampled"]) == 3
    assert "exceeds the S-matrix bound" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("genus", [7200, 20000])
def test_dw_prints_exact_counts_of_any_length(genus, tmp_path):
    """4^7200 has 4,335 digits, past the 4,300 an int is printed with by
    default; the block convolution of Sigma_20000 over Z2 fits the budget."""
    path = tmp_path / "dw.json"
    assert cli.main(["dw", "--presentation", f"Sigma_{genus}", "--group", "Z2", "--out", str(path)]) == 0
    with cli._unlimited_int_digits():
        report = json.loads(path.read_text())
        assert report["hom_count"] == 4**genus
        assert report["invariant"] == f"{2 ** (2 * genus - 1)}/1"


def test_search_spaces_past_the_printable_digits_exit_with_resource_code(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"generators": 20000}))
    assert cli.main(["dw", "--presentation", str(path), "--group", "Z2"]) == 3
    assert "search space 2^20000 exceeds budget 1000000" in capsys.readouterr().err


def test_csv_rejected_for_non_tabular_commands(capsys):
    assert cli.main(["verify-all", "--extension", "Z2-Z4", "--format", "csv"]) == 2
    capsys.readouterr()


def test_smatrix_csv_is_the_pinned_z2_table(capsys):
    code, out = run_cli(capsys, "smatrix", "--group", "Z2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,[0]x0,[0]x1,[1]x0,[1]x1"
    assert lines[1] == "[0]x0,1,1,1,1"
    assert lines[2] == "[0]x1,1,1,-1,-1"
    assert lines[3] == "[1]x0,1,-1,1,-1"
    assert lines[4] == "[1]x1,1,-1,-1,1"


def test_simples_reports_count_and_dimension_sum(capsys):
    code, out = run_cli(capsys, "simples", "--group", "S3")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 8
    assert report["sum_of_squared_dimensions"] == 36

    code, out = run_cli(capsys, "simples", "--extension", "A3-S3")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 10
    assert {entry["sector"] for entry in report["simples"]} == {0, 1}


def test_simples_takes_exactly_one_of_group_and_extension(capsys):
    assert cli.main(["simples", "--group", "Z2", "--extension", "A3-S3"]) == 2
    assert cli.main(["simples"]) == 2
    assert capsys.readouterr().err == "error: need exactly one of --extension and --group\n" * 2


def test_orbifold_check_psi_adds_section(capsys):
    code, out = run_cli(capsys, "orbifold", "--extension", "Z2-Z4", "--check-psi")
    assert code == 0
    report = json.loads(out)
    assert report["psi"] == {
        "bijective": True,
        "product": True,
        "coproduct": True,
        "rmatrix": True,
        "twist": True,
    }
    assert report["all_passed"] is True


def test_verify_category_sampled_subset(capsys):
    argv = ["verify-category", "--extension", "A3-S3", "--sampled", "--budget-dim", "1"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["sample_size"] == 3
    assert report["all_passed"] is True


def test_text_rendering_is_flat_and_sorted(capsys):
    code, out = run_cli(capsys, "cech", "--extension", "Z2-Z4", "--format", "text")
    assert code == 0
    assert "matches_sector_groupoid: True" in out
    keys = [
        line.split(":")[0]
        for line in out.splitlines()
        if line and not line.startswith((" ", "-"))
    ]
    assert keys == sorted(keys)


def test_json_file_inputs(tmp_path, capsys):
    group_file = tmp_path / "k4.json"
    group_file.write_text(
        json.dumps(
            {
                "order": 4,
                "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                "name": "K4",
            }
        )
    )
    pres_file = tmp_path / "torus.json"
    pres_file.write_text(json.dumps({"generators": 2, "relations": [[1, 2, -1, -2]]}))
    code, out = run_cli(capsys, "dw", "--presentation", str(pres_file), "--group", str(group_file))
    assert code == 0
    report = json.loads(out)
    assert report["hom_count"] == 16  # abelian group: every pair commutes
    assert report["invariant"] == "4/1"

    ext_file = tmp_path / "ext.json"
    ext_file.write_text(json.dumps({"h": "Z4", "kernel": [0, 2]}))
    code, out = run_cli(capsys, "sectors", "--extension", str(ext_file), "--monodromy", "1")
    assert code == 0
    report = json.loads(out)
    assert report["orbit_count"] == 2


def test_catalogue_names_win_over_files_of_the_same_name(tmp_path, monkeypatch, capsys):
    argvs = [
        ["dw", "--presentation", "T2", "--group", "Z2"],
        ["dw", "--presentation", "circle", "--group", "Z2"],
        ["simples", "--extension", "A3-S3"],
    ]
    catalogue_reports = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "T2").write_text(json.dumps({"generators": 1}))
    (tmp_path / "circle").mkdir()
    (tmp_path / "Z2").write_text("not JSON")
    (tmp_path / "A3-S3").mkdir()
    assert [run_cli(capsys, *argv) for argv in argvs] == catalogue_reports
    code, out = run_cli(capsys, "dw", "--presentation", "./T2", "--group", "Z2")
    assert code == 0 and json.loads(out)["hom_count"] == 2


@pytest.mark.parametrize(
    "flag, payload",
    [
        ("--group", {"order": 0, "table": []}),
        ("--group", {"order": 2, "table": [[0, 1], [1]]}),
        ("--extension", {"h": "Z4", "kernel": [0, 2], "section": [0]}),
        ("--presentation", {"generators": 1, "relations": [["a"]]}),
        ("--group", {"order": 2, "table": 5}),
        ("--group", {"order": 2, "table": [[0, 1], [1, "x"]]}),
        ("--group", {"order": 2, "table": [[0, 1], [1, 0]], "labels": ["a"]}),
        ("--extension", {"h": "Z4", "kernel": [0, 9]}),
        ("--extension", {"h": "Z4", "kernel": "ab"}),
        ("--extension", {"h": "Z4", "kernel": [0, 2], "section": [0, 7]}),
        ("--presentation", {"generators": 2, "relations": [1, 2]}),
        # JSON true and false are not integers
        ("--group", {"order": 2, "table": [[0, True], [True, 0]]}),
        ("--extension", {"h": "Z4", "kernel": [False, 2]}),
        ("--group", {"order": True, "table": [[0]]}),
        ("--presentation", {"generators": True, "relations": [[1, 1]]}),
        ("--presentation", {"generators": 1, "relations": [[True]]}),
        # labels must be distinct strings: they name elements and modules in reports
        ("--group", {"order": 2, "table": [[0, 1], [1, 0]], "labels": [None, {"a": 1}]}),
        ("--group", {"order": 2, "table": [[0, 1], [1, 0]], "labels": ["e", "e"]}),
    ],
)
def test_malformed_json_inputs_exit_with_usage_code(tmp_path, capsys, flag, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "--group": ["simples", "--group", str(path)],
        "--extension": ["sectors", "--extension", str(path)],
        "--presentation": ["dw", "--presentation", str(path), "--group", "Z2"],
    }[flag]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--group", "--extension", "--presentation"])
def test_json_input_that_is_not_utf8_exits_with_usage_code(tmp_path, capsys, flag):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    argv = {
        "--group": ["simples", "--group", str(path)],
        "--extension": ["sectors", "--extension", str(path)],
        "--presentation": ["dw", "--presentation", str(path), "--group", "Z2"],
    }[flag]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read JSON input {str(path)!r}")


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_path_exits_with_usage_code(tmp_path, capsys, target):
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    assert cli.main(["catalogue", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write report to {str(out)!r}")


def test_out_file_reports_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert cli.main(["jdouble", "--extension", "Z2-Z4", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_all_runs_every_section(tmp_path):
    base = tmp_path / "report.json"
    assert cli.main(["verify-all", "--extension", "Z2-Z4", "--out", str(base)]) == 0
    report = json.loads(base.read_text())
    assert sorted(report["sections"]) == [
        "category-diagrams",
        "hopf-axioms",
        "j-hopf-axioms",
        "modularity",
        "psi-identification",
    ]
    assert report["all_passed"] is True


@pytest.mark.parametrize("command, builds", [("verify-all", 2), ("verify-category", 1)])
def test_each_sector_double_is_built_once(monkeypatch, capsys, command, builds):
    """verify-all builds the extension's sector double and D(H) once each, and
    the diagram suite reuses the first; verify-category builds one."""
    real = doubles.sector_double
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(doubles, "sector_double", counting)
    assert cli.main([command, "--extension", "Z2-Z4"]) == 0
    capsys.readouterr()
    assert len(calls) == builds


NO_HOPF_LAYER = {"hopf", "modular", "orbifold", "chartable"}
NO_MODULE_LAYER = {"modular", "chartable", "dw"}
NO_DOUBLES = {"hopf", "doubles", "orbifold", "dw"}
# records are NamedTuples or slotted classes, so no run loads these
NO_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, runs, unloaded",
    [
        (["dw", "--presentation", "Sigma_2", "--group", "Z2"], "dw", NO_HOPF_LAYER),
        (["cech", "--extension", "A3-S3", "--monodromy", "1"], "dw", NO_HOPF_LAYER),
        (["sectors", "--extension", "A3-S3", "--monodromy", "1"], "dw", NO_HOPF_LAYER),
        (["double", "--group", "Z2"], "hopf", NO_MODULE_LAYER),
        (["jdouble", "--extension", "Z2-Z4"], "orbifold", NO_MODULE_LAYER),
        (["orbifold", "--extension", "Z2-Z4"], "orbifold", NO_MODULE_LAYER),
        (["orbifold", "--extension", "V4-A4", "--sampled"], "orbifold", NO_MODULE_LAYER | {"rowscans"}),
        (["smatrix", "--group", "A4"], "modular", NO_DOUBLES),
        (["simples", "--group", "S3"], "modular", NO_DOUBLES),
    ],
    ids=["dw", "cech", "sectors", "double", "jdouble", "orbifold", "orbifold-sampled", "smatrix", "simples"],
)
def test_each_subcommand_imports_only_its_layers(argv, runs, unloaded):
    """In a fresh interpreter, a subcommand loads the layer it runs and none
    of the layers it does not: the enumerations no Hopf layer or character
    table, the axiom suites no module category and no presentations (`dw`),
    a sampled suite whose checks are all drawn or lack their premises none
    of the full-mode row scans, and the S-matrix and the simples of a group's
    double no Hopf table. No run loads `dataclasses` or `inspect`."""
    script = "import sys\nfrom equidouble import cli\ncode = cli.main(sys.argv[1:])\nprint(*sorted(sys.modules))\nsys.exit(code)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", os.devnull], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    modules = set(out.stdout.split())
    loaded = {name.split(".")[1] for name in modules if name.startswith("equidouble.")}
    assert runs in loaded
    assert loaded & unloaded == set()
    assert modules & NO_STDLIB == set()


def test_no_module_imports_dataclasses():
    """Importing dataclasses loads inspect, ast, dis and tokenize into every
    run, and generating each record at import costs more start-up."""
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(alias.name != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


# The library API of ROADMAP item 2: module-level names no src/ code reaches.
UNREFERENCED_LIBRARY_API = {
    "conjugation_action",
    "decompose_character",
    "dw_invariant",
    "find_isomorphism",
    "hom_groupoid",
    "homomorphisms",
    "surface_state_dim",
    "weak_action_to_extension",
    "weak_actions_isomorphic",
}


def test_src_holds_no_test_only_code():
    """Every module-level function and class of the package is referenced by
    name, attribute or import from some other top-level statement of the
    package, or is listed library API: a helper only the tests call belongs
    in the tests."""
    defined = {}
    referenced = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for k, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(stmt.name, set()).add((path.name, k))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.name.rpartition(".")[2] for alias in node.names)
            referenced.append(((path.name, k), names))
    unreferenced = {
        name for name, where in defined.items() if not any(name in names for at, names in referenced if at not in where)
    }
    assert unreferenced == UNREFERENCED_LIBRARY_API


def test_readme_flag_table_lists_each_subcommand_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `--([a-z-]+)[^`]*` \| ([^|]+) \|", readme, re.MULTILINE)
    documented = {
        flag: set(cli._COMMANDS) if where.strip() == "all" else set(re.findall(r"`([a-z-]+)`", where))
        for flag, where in rows
    }
    accepted: dict[str, set] = {}
    for name, command in cli._COMMANDS.items():
        for field in command.fields + ("format", "out"):
            accepted.setdefault(field.replace("_", "-"), set()).add(name)
    assert documented == accepted


def test_failing_checks_exit_one_but_still_write(tmp_path, monkeypatch):
    def fake(config):
        return {"all_passed": False}, False

    monkeypatch.setitem(cli._COMMANDS, "dw", cli._COMMANDS["dw"]._replace(handler=fake))
    path = tmp_path / "fail.json"
    argv = ["dw", "--presentation", "T3", "--group", "S3", "--out", str(path)]
    assert cli.main(argv) == 1
    assert json.loads(path.read_text())["all_passed"] is False


# sha256 of the `smatrix --group G --out FILE` report bytes, recorded from the
# code that formed the dense product B F and took its trace. A zero entry is
# encoded with its scalar type ("0/1" or a conductor-n cyclotomic zero), so a
# change in which products are summed shows here even when the values agree.
SMATRIX_REPORT_SHA256 = {
    "Z4": "7bf5fd01ea03534c266a0e260725fb6a74a1bdaa5a2b09f335391abd79fb59d2",
    "S3": "0c206a204d65b7eb713a8515f203b65c372cc3b0098445fc41ed7f4f83718333",
    "D4": "6a1c16e659c16a7c1bee0f5172d1eecda040a4606c341f94195bc3a0c2fcff95",
    "Q8": "cc98f8c0e5a8e4490e69425924db13d3add6d0e18cf0ba6b06ae0da3087f58d8",
    "A4": "be7f9e9b4bac9a4443bd764036c0f452e1c162e6992d813943c3e2c3d34a1e29",
    "S4": "979a76730dee33e2880c0ba9cb683ea2b68680e13e4c886f750a88b35aa1c471",
}


def test_smatrix_reports_match_recorded_digests(tmp_path):
    got = {}
    for name in SMATRIX_REPORT_SHA256:
        path = tmp_path / f"{name}.json"
        assert cli.main(["smatrix", "--group", name, "--out", str(path)]) == 0
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == SMATRIX_REPORT_SHA256


# sha256 of the `verify-category --extension E --out FILE` report bytes
# (--sampled where marked), recorded from the code whose fused modules
# formed every Kronecker product through the validating constructor.
CATEGORY_REPORT_SHA256 = {
    ("A3-S3", False): "36376529671f7010f7b551675abb88b57afb04589b8c4808169c21850856aeef",
    ("Z2-Z4", False): "481f2e1295ae6182e8a3d5bb898b31231510e28cc3e22b61473c9bfc433e9b48",
    ("Z3-Z6", False): "878c9e8441533c6e86c4ede8c17c00009db1b77bd5b8473aaedf4c291d732c4c",
    ("V4-A4", True): "8f798f55aa5e83ff929243c787852128576e1db970c9c6cf572aa7eb4ca5333a",
    ("Z4-D4", True): "92a3b701fb384e409a45b4ed7c64b05e40790ec3fd805bc72af3b4c8bce99965",
    # recorded at e3d9502, from the dense matrices and eagerly graded fusions
    ("Z2-Q8", False): "a7e56bdf078b4482f5a1fde1cd904d88cde042c4b6745cc7f1872a8b2b12a289",
    # recorded at 0f162cb, from the simples whose every entry was a cyclotomic
    # at the conductor exponent(stabilizer)
    ("A4-S4", False): "47075dae172af635cda4b1e14bc119f4724590ee3ae5e69b28f2de422f6dd62c",
}


def test_verify_category_reports_match_recorded_digests(tmp_path):
    got = {}
    for name, sampled in CATEGORY_REPORT_SHA256:
        path = tmp_path / f"{name}.json"
        argv = ["verify-category", "--extension", name, "--out", str(path)] + ["--sampled"] * sampled
        assert cli.main(argv) == 0
        got[name, sampled] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == CATEGORY_REPORT_SHA256


# sha256 of the `verify-category --extension NAME.json --out FILE` report bytes
# for two extensions with J = S3, each read from an extension file in the
# working directory, recorded from the code that built one composite per
# tuple of simples. No catalogue extension has a nonabelian J, so these are
# the pinned reports that read the compositors' order of composition.
NONABELIAN_CATEGORY_REPORT_SHA256 = {
    "Z2-D6": "cc7e90e90e27d7e43ee53cbf075f519f548ad90370c75b55fc42da63cf233cec",
    "Z1-S3": "07be92cf2f944b832a915598cad162fb2705b65a70a7af9b1f33d556830a043c",
}


def test_verify_category_reports_over_a_nonabelian_sector_group_match_recorded_digests(tmp_path, monkeypatch):
    d6, s3 = dihedral_group(6), symmetric_group(3)
    centre = [z for z in range(d6.order) if len(d6.centralizer(z)) == d6.order]
    kernels = {"Z2-D6": (d6, centre), "Z1-S3": (s3, [0])}
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, (h, kernel) in kernels.items():
        Path(f"{name}.json").write_text(json.dumps({"h": {"order": h.order, "table": h.table}, "kernel": kernel}))
        assert cli.main(["verify-category", "--extension", f"{name}.json", "--out", "report.json"]) == 0
        got[name] = hashlib.sha256(Path("report.json").read_bytes()).hexdigest()
    assert got == NONABELIAN_CATEGORY_REPORT_SHA256


# sha256 of the `cech` and `sectors --extension E --monodromy j --out FILE`
# report bytes, recorded from the code that found each Cech class by a
# search re-sweeping every gauge from every cocycle it reached.
CIRCLE_REPORT_SHA256 = {
    ("cech", "A3-S3", 0): "bc87491957a075679989f7e2a4ab16200f662d066766f3d69c5e0764c03b9e1e",
    ("cech", "A3-S3", 1): "4c742c6e2bb422a8abb035332bb288c3a6fc92ca8430cac119c48ff1da4d812e",
    ("cech", "Z2-Q8", 0): "c478dde7ee9bac32c6ae8c80399bb142ff86f50d2e64a022274a9331425bc09b",
    ("cech", "Z2-Q8", 1): "1b22de44315cfd755368dbb3b1c8e76adf9ed5a0e70ae5a19687a8f48c50ad09",
    ("cech", "Z2-Q8", 2): "153d9724644b63eeb422dc33b8b4e4af36201eb3d408fc97b16c2a15c501793a",
    ("cech", "Z2-Q8", 3): "b62748d887336c67c647a5d0c2e81698acfaf680f5f5ba3f495a7cca92e4e03d",
    ("cech", "V4-A4", 0): "aa7d96eb5a731fd464bbc1ff38ba972d7536b033ab9fb27f3f5112ee9c69a014",
    ("cech", "V4-A4", 1): "76a02e2565a8c0a9e63edc990d878f7bc2beb1efbce41d053127e381309694f3",
    ("cech", "V4-A4", 2): "d1802cedee7ac242407babbc648e2fa53d174ec73ee34710322772d0851019fd",
    ("cech", "A4-S4", 0): "96a5b4d051bfb6cea17b0c4aa2d5d25b6f04d3843396522426935add4951333b",
    ("cech", "A4-S4", 1): "af77357111abf34017410e72025d55712f46b1ef637da6dd0aab57b4f19082bc",
    ("sectors", "A3-S3", 0): "f329d2343bef01b1c3a32cf175fd53de19a4ae80b3006458de79d01b24538833",
    ("sectors", "A3-S3", 1): "29602653b365639e51bb7ad694047b178185e8f02766d98734064061bb5f0a5b",
    ("sectors", "V4-A4", 0): "031b5ddcca7e7bef250d94c414553a9d07bbc86674bd5f7fcfff140b7715263c",
    ("sectors", "V4-A4", 1): "cfd68c05eee2d8c54f36c24929fee759a4cc802b21eff51214376b7b29ea4647",
    ("sectors", "A4-S4", 0): "bca83df93f7bbf61e06268cd11a932d02640212db775b49e68c19d9791f25063",
    ("sectors", "A4-S4", 1): "4dd4da5743391701bd094cb950df7bb2f627ecd7270b842116ba2f4ca9217a77",
}


def test_cech_and_sectors_reports_match_recorded_digests(tmp_path):
    got = {}
    for command, name, j in CIRCLE_REPORT_SHA256:
        path = tmp_path / f"{command}-{name}-{j}.json"
        argv = [command, "--extension", name, "--monodromy", str(j), "--out", str(path)]
        assert cli.main(argv) == 0
        got[command, name, j] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == CIRCLE_REPORT_SHA256


# sha256 of the verifier reports `ARGV --out FILE`, recorded from the code
# that inverted the crossed product's grouplikes and assembled twist by dense
# linear solves. The two sampled D4 and Z4-D4 reports were recorded from the
# code whose sampled Hopf suites ran the sparse predicates on every draw and
# drew 400 tuples per check under `verify-all`; the S4 and A4-S4 reports at
# 92d250b, from the code that decided every full-mode Hopf, R-matrix and
# ribbon check on every basis tuple. Each argv is written as one string.
VERIFIER_REPORT_SHA256 = {
    "double --group Q8": "dd892a5abd34a9820a288586ce9078fcfd51fd887a1640e6b74c350d96566dff",
    "jdouble --extension Z4-D4": "b338b53dc86683b54c5308c38124139bb04c5a6f65c98532032ac24bc1052e9b",
    "jdouble --extension V4-A4 --sampled": "cbb5e68ac36f174b7b78cf2a8d40b4661ddb10aca20ec3774cdbc60338bdd51a",
    "orbifold --extension Z2-Q8 --check-psi": "d6c42c91747926bceac0e5a70bbf50068ec7d96f2e08f77fbf9bf3a172082861",
    "orbifold --extension V4-A4 --sampled": "3803d83a93063d1eed744d0e12b6ab7f2208c7371260954406009e4d6fd90ae4",
    "verify-all --extension A3-S3": "e97fa63c9b0895fb341daa8f7b3d1ab83bffed3d32cf2a11c96df47142e57165",
    "double --group D4 --sampled": "9ecf65a0f2fbedfab4393cc169c2204f9749c699ab210b107d8672e3033f6a85",
    "verify-all --extension Z4-D4 --sampled": "8f56cbb4585f3370438eafae232a0d700f75907641fe1666a01526bee2f7dd0a",
    "double --group S4": "4bd8af46fd5e716f3e5fd13d603618f80abf8fb76376d2ea2589c4c05bfb7f07",
    "jdouble --extension A4-S4": "6769b98b3743ec52f2e3d281d5758a41709452e1767d8332be2326d4f06c7cc1",
}


def test_verifier_reports_match_recorded_digests(tmp_path):
    got = {}
    for argv in VERIFIER_REPORT_SHA256:
        path = tmp_path / "report.json"
        assert cli.main(argv.split() + ["--out", str(path)]) == 0
        got[argv] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == VERIFIER_REPORT_SHA256


# sha256 of the `dw --presentation P --group G --out FILE` report bytes,
# recorded from the code that counted every homomorphism by the leaf search.
# Each named presentation is paired with every catalogue group on which that
# code finished under the default budget (Sigma_3 over A4, D6 and S4 did not).
DW_REPORT_SHA256 = {
    ("S3sphere", "A4"): "f3c344d6b37cec3a6f2d3e1c473f634b83efe41343d9028de62258b37e65d581",
    ("S3sphere", "D4"): "5be58c693eac3656486137fb330e68ded934c47786c53cc264ca88fbfb88a8d4",
    ("S3sphere", "D5"): "fdae281fc8405e7a1f78737e07fa0d61bbe1663d861bf9ea68c0112666e7bd5e",
    ("S3sphere", "D6"): "4c78360254c514cb3342484e7d028e0fa5edab4272297317fa21f6c388de37cd",
    ("S3sphere", "Q8"): "cf4b5d292b3a3a3f2848f22f2bf4fd42005a328659ed8e82506b058d204f915a",
    ("S3sphere", "S3"): "83d463ba5bf9a0b2f8391e7765044a22f89f8bad22378b652761172d98356508",
    ("S3sphere", "S4"): "15ecc908b6a85416ced745f71c0b2ae5c178aabd54a5b20f47351ce97a4f31b1",
    ("S3sphere", "V4"): "9f7a36ff197a41d101d34c25cc81372e1f839e826a9fc786ace24fcd32eb1d85",
    ("S3sphere", "Z1"): "4879aef8da4ba579090c20188eef6505a52741125a00b1d1616289dd26d757e7",
    ("S3sphere", "Z2"): "c9e009437828fa519b960b1faef359392c40bbf1adcdc77e26b9a7467272d296",
    ("S3sphere", "Z2xZ2"): "f7b2b0a44c6d4de6606d9a3f99945ff397898bf6562eacae3d9bcdbda216e831",
    ("S3sphere", "Z3"): "dfdfa974d44bd1149139a871b52c717194ef06e34798970f6aa79b77fd361db1",
    ("S3sphere", "Z4"): "03a59137edf5bee0e91502b1318b6aa9fd0109fbe8e6c09cda90ee584340ea96",
    ("S3sphere", "Z5"): "068e32e11ea2b5428b1b032addfe0689d2cb3dba663a870e609348eec264a693",
    ("S3sphere", "Z6"): "3800aa701f2e53a46c128ba0e49244622c44b62b3c0f60b82f6d375729f1eea6",
    ("S3sphere", "Z8"): "e80573df53e770a1db8e2f6afa7749e0622a5c65553ea4e0b0d5b3b31d1fc8de",
    ("S2xS1", "A4"): "967efd965c44dbd729f1ad507d7ed8df538b104d58f10b0b69f0a2f65036a73c",
    ("S2xS1", "D4"): "bdbc2efe622fa9b90875b6d7cd25c262a5719594b4fd6ce016fe2e2a3d11864c",
    ("S2xS1", "D5"): "ac65d70caf6e94decaa29ff2c6f44413f7074514ab4bc4168585158a43a00f09",
    ("S2xS1", "D6"): "71d88632fdb623b57dbcd1197a7a6f585129eea2a370288331203bb7b708e417",
    ("S2xS1", "Q8"): "06bad2c1db0074b7888c258e391b1262ab682422d97fb601a39118fff6b8f144",
    ("S2xS1", "S3"): "a602a444e37ddb787eca65d257f61f444a2440e7b64d1818853b4da4b77667bf",
    ("S2xS1", "S4"): "c0d3d56c76fdb1588fc01cbac57f72d6a951f1c51d2aefcbb2bf243c0dcc5c12",
    ("S2xS1", "V4"): "86fa352c4b1483e561b12fd69e89226b736a808e4ee737bfe3411657aff1b71c",
    ("S2xS1", "Z1"): "ba4fe2651fd3b950150baaf4f58a30a0df55d5447067665534144c66ba63d9d9",
    ("S2xS1", "Z2"): "7dcf377e9cfd7acf9be7bd2adb47b289a7279f43d9c1324f760a5e71f37804eb",
    ("S2xS1", "Z2xZ2"): "8f6bb40d952322a0ab82935e89a0a7fcb2f272009e1b65a7a23410f41d7e6baa",
    ("S2xS1", "Z3"): "eb0c742bc961a899a06efbd78ea34274f383e382e8537d859bc17ef55782e085",
    ("S2xS1", "Z4"): "c0c0e466812c5339844c162ed42624d4a776d537fb0f2e788c600d83c7d9d880",
    ("S2xS1", "Z5"): "3a4efe4eee011520679b8617b2d6bab45524414e84703e5f3020001623c9a122",
    ("S2xS1", "Z6"): "bca864f8f6710ca6a7e7866b92eee43e0b4bb715a1bfeb007cc59898a803ef5d",
    ("S2xS1", "Z8"): "26628513dfcc9e80460b2954dee28289d63d44983e173e7b0c0cf1364cfd1240",
    ("circle", "A4"): "f51b5c76ddb05539e431471cbce78c57dda4771b8cea947c637411a8aa6c21a3",
    ("circle", "D4"): "92d333b737d8f9ccb2d8e12590001d59a94af54b69613cd1cfc35675f45fec98",
    ("circle", "D5"): "1e4e2867363934b1f52a28893922c0e631c2defa2c489f9e29f4663065875ecb",
    ("circle", "D6"): "ac24861ac4894cb347e04eb210cd121da47839ff1708cfbf4722d5c213602423",
    ("circle", "Q8"): "facaaa46c0fea050a6368e03ff3ac039e1164f7305947cf885abc032b8e6bfec",
    ("circle", "S3"): "a670bd74fefd45a621d5a4277108db294a8d425b98beb3d8b86f0542e9d705d0",
    ("circle", "S4"): "0f3983f9b0b7199cc40b91d6a55ad3e83b144361ea03aa9e81667eb10ed01d4e",
    ("circle", "V4"): "185de9a4f35a0a874c98bf50a18e4459e10c3a61f6f2a28c2d322fac4fa3e466",
    ("circle", "Z1"): "7134a352676e3ed3d3937d229a5a2f583249c12d857cc76340634bf343a24cd6",
    ("circle", "Z2"): "7f906fa5b182f8d482505700237940112d292828b852d45390ad7d04c40f8f1e",
    ("circle", "Z2xZ2"): "789c80118748fe4b298a3d8d90cf9b0fa7e79834524a811432bb12c13db5b9d8",
    ("circle", "Z3"): "3fe6de232bfc57e579a32af4a7e029809839d8f3a48c32ebe71dc8756f318cb7",
    ("circle", "Z4"): "b4e89a53136b9f81841b973fd032982bcc070aadc9e269af053c667f7d77cd27",
    ("circle", "Z5"): "fa1dfda18e04a91277c957fb3f255a4ec20f573bf6399cf5ab785afea36d7691",
    ("circle", "Z6"): "cdb9731ce6711df2aa1d94a3a86f9a1d89b0f92ee57e961f94b92c985ef69852",
    ("circle", "Z8"): "02876f10f1e2ed96ff436c8c170019f32d0a2198f9dac3f30ff7f460ab67fb04",
    ("T2", "A4"): "21e65f56bb4ab38bed55911bee8926ea4b1ed6f3aa5aaae91c89b8e09e529cab",
    ("T2", "D4"): "666fa6441420c6114bab0d218c62078bd76ea97d468df60b3b68a39ac15a54f8",
    ("T2", "D5"): "3c3072de2a8ada2645ba7d586a02e4f973cc4a633c35531d2e0623c270f3dc55",
    ("T2", "D6"): "436490b986d78ff86d0f77b28d39dcc9dbbf8094ca84f30d9e9cc12d2129ecc5",
    ("T2", "Q8"): "b7ee4ba7b07278cb7ab4c2919fd8fa8821827327da67ed04a2dc06c371d8f906",
    ("T2", "S3"): "48801838d4db33843cb0dbc365e36cb82aced8d7955cdb66979b3a2fa5780b83",
    ("T2", "S4"): "0213dedcac3b77f32773b0b5b4a599dcbd24bbae853eee1b6194aec4b904c38d",
    ("T2", "V4"): "c98996c82c8590ca4ee4335e62f130b8b926a92533f65815032215f671242205",
    ("T2", "Z1"): "fd462cf0f5352088d162f83e6412cb083a2b16cc8a2afc0d86754141111b3524",
    ("T2", "Z2"): "0f96b7e2420ca2a43cfe37074f1ba88e8a9cb43c6f21cb224de24cd96b50edeb",
    ("T2", "Z2xZ2"): "a99e1c2b90ddfeb56a4a0ddf4682fff662d6205fedd5654369b51ce18951ee5f",
    ("T2", "Z3"): "ad29512f2c820fdef7a460cac9f76c5df79b029e336c349519e962e557d274f5",
    ("T2", "Z4"): "7f5d0e58c07e0760f1510cb0e299bd17c7da819b8dc24a2eaacbbace2e83ba9c",
    ("T2", "Z5"): "c7be834cbb2aeb42744e4bb97539188b0e55908686e42c393f511a0787567da4",
    ("T2", "Z6"): "c27b7212a1c7d4a311cdffe4c42fdbf972f8387275a2f1eec4c583e85461dc1e",
    ("T2", "Z8"): "8674afa93ea47faea1b259cc1be72f09341e6c5123889ac2ff6c04f60be1a9f9",
    ("T3", "A4"): "e4694e5cd9a418482e7b7211b3a630508614b44045cd8227adc1a1ed5f8ba17c",
    ("T3", "D4"): "2c8704aaa59e8a95130ded714858ece6354e66ba99b139675171d80ef2302015",
    ("T3", "D5"): "f126162571cfb684c3e53118eac9ce933c71d53bc0760c4396de01c269d3684a",
    ("T3", "D6"): "3edbe8d123453a419e3a1a97735cc5a2b2d0728ac7c43dc964d8484c50d6b488",
    ("T3", "Q8"): "4eab517d06a5bde96576d470c87c3f9d28e5e27149c7df9a9d3de813d198f4c3",
    ("T3", "S3"): "7e33a6c27e40b5ef942141d519b303aead75640378d039c450829a703dedccde",
    ("T3", "S4"): "06983136d94c6735ed42b0bc0df96471215c96312bdb00c1ecb831d5724bc33f",
    ("T3", "V4"): "4d297c59062ad82e5f07eada2fcd0c3bc5cfe0ac4b534e1764e13ba965776f61",
    ("T3", "Z1"): "b092b4c2dde2be0362144971900be55d30f598b96348cce60a705de5ac76e8c6",
    ("T3", "Z2"): "f4190c3e7a172738d558875e5021caa319fa7dc6170dd84901cc535bdb4a8f27",
    ("T3", "Z2xZ2"): "6323cd3d170f7f3d1e9b08c8a51155c525f2a1a9723a7ce88f255f7eb65dee30",
    ("T3", "Z3"): "756e4bbd0ddb0073c27c2d19b64854fc52e816fa5f0d9d48c39e0421311a873e",
    ("T3", "Z4"): "ad43d1b78af79ec7827999cc415efbe135298678391eec56015ebd2857503403",
    ("T3", "Z5"): "dd23b02c243aa6f26d56bf20f86dcaff0352d668e7b1f98cf38b9a9dbfb0e10a",
    ("T3", "Z6"): "93aa05a3f76c2df905d38e7d1a5a6d3854189fc34d575587368debde771f5f87",
    ("T3", "Z8"): "a5b3a3158a09865fbcfc69d7821ddfed01e774efda479c37a5bf76aa36fc7600",
    ("Sigma_1", "A4"): "089bb6b739377e7bae1bd7c6e127d6594a04eccc4b58dac80765c78ffc5af75a",
    ("Sigma_1", "D4"): "4935c2862535d451f668834b366dcb2aaf423ce2d44ec39a2990cc53c97cbed6",
    ("Sigma_1", "D5"): "c389363c770e154143692850f06ee9f3cf654c40b48c9e46a71e6170146b99cc",
    ("Sigma_1", "D6"): "9b15b350c766ac5c1cb0a49206e3e7ea9e04bd96e12fa626e1eff4514b91f10a",
    ("Sigma_1", "Q8"): "2f336b73d3c15b01496f50cda1885e423d6fb7ce3e660d73945adffc5a4370a5",
    ("Sigma_1", "S3"): "398e82fb1c7c2e3370aef8a99a7c878ca7b595deadf4e969ec7f234d9323db4d",
    ("Sigma_1", "S4"): "1737c2b899fb3aba10327ed721a685fd027f866d79bdc602fa9f82a962d45515",
    ("Sigma_1", "V4"): "80519cb1c939785eedf75985da63b8c00aaf02784d35e3ed26595d05811ff104",
    ("Sigma_1", "Z1"): "32da9b60221bc894ca62bba52fdd488c396af95a254a7d8dbb1886325df10367",
    ("Sigma_1", "Z2"): "9a3d9a69b9108f0d6b8ed8c9c8feadc751fa4fbf611f5d63d40efe81a93e5d53",
    ("Sigma_1", "Z2xZ2"): "e47ad66cf3697c77a311887f6b9d757c5ab9522b9cdbefdf49730ffe82e1d283",
    ("Sigma_1", "Z3"): "923188f055a5344ba85812a75c4ded32bdc238fca03a1da389aed13f2eca41fe",
    ("Sigma_1", "Z4"): "79455ae77bc1f7f2a48fe5b1d89be7c097fe88f23f0200bbc797a029cdd4150c",
    ("Sigma_1", "Z5"): "11962edbd7834e4707671905e901d18469de5fbf1cbc5164b62b8053d9cc629b",
    ("Sigma_1", "Z6"): "53edb59016f6263787b798fb86b9a743daf6f182773370f3902100ebbeaaa2aa",
    ("Sigma_1", "Z8"): "b10515b85af18af3a2a8292cfb9a297eaf0da4f278a00ecdfad90c71a1b4dc8a",
    ("Sigma_2", "A4"): "fb93723e74a90271e8705c652e90deda404a8120251fd878e23e324b6b6d6111",
    ("Sigma_2", "D4"): "6fca11f2973200efcc8b671b3ac5ca7ade745c61ecb369fab9638a568c2fa63f",
    ("Sigma_2", "D5"): "a049dcc68ffc17043ab1b52016f23aeec2234f232c9b62acafeeb0628682035f",
    ("Sigma_2", "D6"): "87283ad7e18d27cb47a759a5cb4d53a9bbba4c7b9e8800d65da4f6f8c5a8333e",
    ("Sigma_2", "Q8"): "b593019dd34e40cc4430da61002a2788c6bee9eb51586a74225ae71dbcd999b6",
    ("Sigma_2", "S3"): "9059fd14c8235085d02ae1b4174f88b284789f319e7f5c654dffa4f3fe3005ee",
    ("Sigma_2", "S4"): "8b8982aed2cca1e1cb3e1935e7e20334486d5d9f974e8adfd5d332c415475194",
    ("Sigma_2", "V4"): "866bc6f0acd1ed1acc654cd79e4ec9e44fcdbc06bc6bf4ea84a3a0a04db0cf44",
    ("Sigma_2", "Z1"): "5ca9fd81a5ba4ad3523c3cfab9130dd21b78b5c9cd3906025c5bec1aa0e5c2f5",
    ("Sigma_2", "Z2"): "f80e6fe238a5293eea3459c4a9566a64f41fd186b50fd650cb10b885154d13c9",
    ("Sigma_2", "Z2xZ2"): "ed9362ab0290bb7a7baef97eee8347c15cb53b4046f31047ae743d6aef3b0113",
    ("Sigma_2", "Z3"): "9e4537e31f53c27a2a9e8f1e7ec009d70710540a8f571a481c70860c73546cf1",
    ("Sigma_2", "Z4"): "8ac73f1c86d5d6aad663490b702d48ecc4487fb61694dac10483c6dcb8eedcd0",
    ("Sigma_2", "Z5"): "15976086bfd7363329cdd2264eeb48c25ddb289068f1ab556b3d7aadae41cdfa",
    ("Sigma_2", "Z6"): "2335a9d3fa34ee2ab4e91cbac51d33661e8a80c8c7f124bef4f2934c3672d201",
    ("Sigma_2", "Z8"): "d3008f224e6faa15cdda7b6ad003468910682a3f0fb8dbafe98e32ac35e468bd",
    ("Sigma_3", "D4"): "734638e3f1b8c3678a60501d24335fd096aac740c1a7dc361f96500307106f21",
    ("Sigma_3", "D5"): "4b79bcc042c5b954bffdd57a9e6d2bf775af1495a642fb6ee38fb640c238108b",
    ("Sigma_3", "Q8"): "3040aa195e0cddf38a6e759d6ad340508af5f6341c94c3352383447c1fbc52e4",
    ("Sigma_3", "S3"): "5514ebbaaf6f4beaeed08b37496468e50fc24904cb137d9e7ededbb36d063449",
    ("Sigma_3", "V4"): "93a60697a68507e07511702ea31e2cff9593771c1853a14dd27fd9fe162eb210",
    ("Sigma_3", "Z1"): "eb5156067e592b682b87f527487f5f0420fa380a7dd0ca782bc9be443df826c3",
    ("Sigma_3", "Z2"): "ac4768a80bc2e0724a914c50ae823c40aa9e595771a7ce355a9434850d1189a0",
    ("Sigma_3", "Z2xZ2"): "2041beac63cf4078f30731726ef437df3addabd1b697630b52637efba2dee069",
    ("Sigma_3", "Z3"): "c3d52110b5da7fd3263e39562d69724da92d572480170544d6bdb6e2b40c3a39",
    ("Sigma_3", "Z4"): "6720b863b99dad5cd60a6eeddf06e779a8b9cce7b1b7c00330e8761fe35b530e",
    ("Sigma_3", "Z5"): "5d52d18bb6bb7ada041655c697096441da4c38e67fa5cae52eb2b8fd1ed8e866",
    ("Sigma_3", "Z6"): "27336c799b22bfba1ad3c5192493b7efa709747495fcfcd7585a42822fbeca25",
    ("Sigma_3", "Z8"): "d47eb0441927eaa26715cf42f9a18d8a029280bd97a51f0a049392a674bdd0db",
}


def test_dw_reports_match_recorded_digests(tmp_path):
    got = {}
    for presentation, group in DW_REPORT_SHA256:
        path = tmp_path / f"{presentation}-{group}.json"
        assert cli.main(["dw", "--presentation", presentation, "--group", group, "--out", str(path)]) == 0
        got[presentation, group] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == DW_REPORT_SHA256


def _count_builds(monkeypatch):
    """Count calls of the four structure builders, wherever they are looked up."""
    counts = {}
    for name, owner in (
        ("sector_double", doubles),
        ("double_algebra", doubles),
        ("orbifold_algebra", orbifold),
        ("orbifold_ribbon", orbifold),
    ):
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("equidouble") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_crossed_product_is_built_once_per_command(tmp_path, monkeypatch):
    counts = _count_builds(monkeypatch)
    argv = ["orbifold", "--extension", "Z2-Z4", "--check-psi", "--out", str(tmp_path / "o.json")]
    assert cli.main(argv) == 0
    # one sector double for the command, one inside double_algebra
    assert counts == {"sector_double": 2, "double_algebra": 1, "orbifold_algebra": 1, "orbifold_ribbon": 1}
    for name in counts:
        counts[name] = 0
    assert cli.main(["verify-all", "--extension", "Z2-Z4", "--out", str(tmp_path / "v.json")]) == 0
    assert counts["double_algebra"] == 1
    # the psi section checks the crossed product the sector suite built
    assert counts["orbifold_algebra"] == 1
    assert counts["orbifold_ribbon"] == 1
