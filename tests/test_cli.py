"""Command-line interface: parsing, exit codes, rendering, file inputs."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from equidouble import cli, doubles, orbifold
from equidouble.catalogue import catalogue_list
from equidouble.errors import UsageError
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


def test_failing_checks_exit_one_but_still_write(tmp_path, monkeypatch):
    def fake(config):
        return {"all_passed": False}, False

    monkeypatch.setitem(cli._COMMANDS, "dw", fake)
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
}


def test_verify_category_reports_match_recorded_digests(tmp_path):
    got = {}
    for name, sampled in CATEGORY_REPORT_SHA256:
        path = tmp_path / f"{name}.json"
        argv = ["verify-category", "--extension", name, "--out", str(path)] + ["--sampled"] * sampled
        assert cli.main(argv) == 0
        got[name, sampled] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == CATEGORY_REPORT_SHA256


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
# linear solves. Each argv is written as one string.
VERIFIER_REPORT_SHA256 = {
    "double --group Q8": "dd892a5abd34a9820a288586ce9078fcfd51fd887a1640e6b74c350d96566dff",
    "jdouble --extension Z4-D4": "b338b53dc86683b54c5308c38124139bb04c5a6f65c98532032ac24bc1052e9b",
    "jdouble --extension V4-A4 --sampled": "cbb5e68ac36f174b7b78cf2a8d40b4661ddb10aca20ec3774cdbc60338bdd51a",
    "orbifold --extension Z2-Q8 --check-psi": "d6c42c91747926bceac0e5a70bbf50068ec7d96f2e08f77fbf9bf3a172082861",
    "orbifold --extension V4-A4 --sampled": "3803d83a93063d1eed744d0e12b6ab7f2208c7371260954406009e4d6fd90ae4",
    "verify-all --extension A3-S3": "e97fa63c9b0895fb341daa8f7b3d1ab83bffed3d32cf2a11c96df47142e57165",
}


def test_verifier_reports_match_recorded_digests(tmp_path):
    got = {}
    for argv in VERIFIER_REPORT_SHA256:
        path = tmp_path / "report.json"
        assert cli.main(argv.split() + ["--out", str(path)]) == 0
        got[argv] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == VERIFIER_REPORT_SHA256


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
