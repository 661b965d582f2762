"""Axiom-suite witnesses: a failed check names the first tuple it fails on,
and that tuple alone reproduces the failure."""

import ast
import pathlib
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import setitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import replaced
from sparse_oracle import SparseProducts, first_unmapped_product, rebuilt, take_sparse_products

import equidouble
from equidouble import cli
from equidouble import hopf as hopf_module
from equidouble import rowscans
from equidouble.catalogue import extension_by_name, group_by_name
from equidouble.doubles import double_algebra, sector_double
from equidouble.hopf import (
    HOPF_SAMPLES,
    RIBBON_SAMPLES,
    RibbonData,
    TableHopf,
    VerifyReport,
    first_failure,
    hopf_checks,
    quasitriangular_checks,
    ribbon_checks,
    run_checks,
    verify_all_axioms,
    verify_hopf,
    verify_quasitriangular,
    verify_ribbon,
)
from equidouble.errors import UsageError
from equidouble.orbifold import orbifold_algebra, orbifold_ribbon, psi_check, psi_permutation, verify_sector_double

TABLES = ("mul", "comul", "antipode")
ONE = Fraction(1)


def small_double(draw):
    return double_algebra(group_by_name(draw(st.sampled_from(("Z2", "Z3", "S3"))))).hopf


@st.composite
def constant_corruptions(draw):
    """D(G) for G in Z2, Z3, S3 with one structure constant of its product,
    coproduct or antipode table replaced by a different value."""

    def corrupt(tables):
        table = getattr(tables, draw(st.sampled_from(TABLES)))
        key = draw(st.sampled_from(sorted(k for k, v in table.items() if v)))
        entry = draw(st.sampled_from(sorted(table[key])))
        old = table[key][entry]
        new = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(lambda x: x != old))
        table[key][entry] = new

    return rebuilt(small_double(draw), corrupt)


def corrupt_monomially(draw, hopf):
    """A copy of hopf whose product and coproduct tables stay monomial: one
    product redirected to another basis element, one product deleted, or
    one coproduct pair redirected to a pair not yet present."""
    kind = draw(st.sampled_from(("redirect-product", "delete-product", "redirect-coproduct")))

    def corrupt(tables):
        if kind == "redirect-coproduct":
            key = draw(st.sampled_from(sorted(k for k, v in tables.comul.items() if v)))
            pairs = tables.comul[key]
            fresh = [p for p in product(range(hopf.dim), repeat=2) if p not in pairs]
            del pairs[draw(st.sampled_from(sorted(pairs)))]
            pairs[draw(st.sampled_from(fresh))] = ONE
        else:
            key = draw(st.sampled_from(sorted(k for k, v in tables.mul.items() if v)))
            (old,) = tables.mul[key]
            if kind == "delete-product":
                del tables.mul[key]
            else:
                tables.mul[key] = {draw(st.sampled_from([k for k in range(hopf.dim) if k != old])): ONE}

    corrupted = rebuilt(hopf, corrupt)
    assert corrupted.ones
    return corrupted


@st.composite
def monomial_corruptions(draw):
    """D(G) for G in Z2, Z3, S3 with one monomial corruption."""
    return corrupt_monomially(draw, small_double(draw))


@st.composite
def halved_products(draw):
    """D(G) for G in Z2, Z3, S3 with one product coefficient set to 1/2."""

    def halve(tables):
        key = draw(st.sampled_from(sorted(k for k, v in tables.mul.items() if v)))
        (entry,) = tables.mul[key]
        tables.mul[key][entry] = Fraction(1, 2)

    return rebuilt(small_double(draw), halve)


def scalar_tables():
    """A corrupted D(G) of any of the three kinds above: its products may
    carry drawn fractions, 1/2 or stored zeros."""
    return st.one_of(constant_corruptions(), monomial_corruptions(), halved_products())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(constant_corruptions(), monomial_corruptions()))
def test_corrupted_double_fails_and_each_witness_reproduces_the_failure(hopf):
    """Each witness fails its sparse predicate and is the first failing tuple
    of the exhaustive predicate loop, on the scans as on the sparse path."""
    report = verify_hopf(hopf)
    assert not report.all_passed
    assert set(report.witnesses) == set(report.failing())
    checks = hopf_checks(hopf, SparseProducts(hopf))
    for name, witness in report.witnesses.items():
        arity, holds = checks[name]
        assert len(witness) == arity
        assert not holds(*witness), (name, witness)
        assert witness == first_failure(product(range(hopf.dim), repeat=arity), holds), name


def test_scans_agree_with_the_sparse_oracle_on_valid_tables():
    sd = sector_double(extension_by_name("A3-S3"))
    crossed = orbifold_algebra(sd)
    assert crossed.dim == 36
    for hopf in (double_algebra(group_by_name("S3")).hopf, sd.hopf, crossed):
        assert hopf.ones
        scanned = verify_hopf(hopf)
        oracle = run_checks(hopf_checks(hopf, SparseProducts(hopf)), hopf.dim, sampled=False, samples=0)
        assert scanned.all_passed
        assert (scanned.checks, scanned.witnesses) == (oracle.checks, oracle.witnesses)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("Z2", "Z3", "S3", "D4")), st.data())
def test_coproducts_with_a_repeated_first_leg_give_the_sparse_verdicts(name, data):
    """No coproduct of a double repeats a first leg, so one term of
    Delta(e_k) is moved onto the first leg of another: the integer
    predicates still decide every check on the same witnesses as the
    sparse ones."""
    hopf = double_algebra(group_by_name(name)).hopf
    key = data.draw(st.sampled_from(sorted(k for k in range(hopf.dim) if len(hopf.comul_basis(k)) > 1)))

    def move_a_term(tables):
        terms = tables.comul[key]
        (x, y), (x2, _) = data.draw(st.permutations(sorted(terms)))[:2]
        moved = data.draw(st.sampled_from([(x2, z) for z in range(hopf.dim) if (x2, z) not in terms]))
        del terms[(x, y)]
        terms[moved] = ONE

    hopf = rebuilt(hopf, move_a_term)
    assert len({first for first, _ in hopf.pairs[key]}) < len(hopf.pairs[key])
    for sampled in (False, True) if hopf.dim < 64 else (True,):
        fast = verify_hopf(hopf, sampled=sampled)
        oracle = run_checks(hopf_checks(hopf, SparseProducts(hopf)), hopf.dim, sampled=sampled, samples=HOPF_SAMPLES)
        assert (fast.checks, fast.witnesses) == (oracle.checks, oracle.witnesses)
        assert "comultiplication_multiplicative" in fast.failing()


@st.composite
def sampled_monomial_corruptions(draw):
    """D(D4), whose 4,096 basis pairs and 262,144 triples are more than
    HOPF_SAMPLES, with two to six monomial corruptions, so that the draws of
    associativity and comultiplication_multiplicative can hit them."""
    hopf = double_algebra(group_by_name("D4")).hopf
    for _ in range(draw(st.integers(2, 6))):
        hopf = corrupt_monomially(draw, hopf)
    return hopf


def test_sampled_integer_predicates_agree_with_the_sparse_oracle():
    """In sampled mode the integer predicates of a monomial table give the
    same verdicts and witnesses as the sparse predicates on the same draws."""
    failed = set()

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(sampled_monomial_corruptions())
    def agree(hopf):
        fast = verify_hopf(hopf, sampled=True)
        oracle = run_checks(hopf_checks(hopf, SparseProducts(hopf)), hopf.dim, sampled=True, samples=HOPF_SAMPLES)
        assert fast.mode == oracle.mode == "sampled"
        assert (fast.checks, fast.witnesses) == (oracle.checks, oracle.witnesses)
        failed.update(fast.failing())

    agree()
    assert {"associativity", "comultiplication_multiplicative"} <= failed


def crossed_v4_a4() -> RibbonData:
    sd = sector_double(extension_by_name("V4-A4"))
    return orbifold_ribbon(sd, orbifold_algebra(sd))


@pytest.mark.parametrize("sampled", [True, False])
def test_monomial_tables_never_run_the_sparse_product_predicates(monkeypatch, sampled):
    """On the dim-144 V4-A4 crossed product, in either mode, the Hopf,
    quasitriangular and ribbon suites take every product from the table's
    integer rows, whose coefficients are all 1: associativity and
    comultiplication_multiplicative are its integer predicates. Once one
    product has coefficient 2, the rows serve that table with the verdicts
    and witnesses of the sparse products."""
    rib = crossed_v4_a4()
    crossed = rib.hopf
    assert crossed.dim == 144
    report = verify_all_axioms(rib, sampled=sampled)
    assert report.all_passed
    assert crossed.ones
    for name in ("associativity", "comultiplication_multiplicative"):
        assert hopf_checks(crossed, crossed)[name][1].__qualname__ == f"_monomial_checks.<locals>.{name}"

    def double_product(tables):
        (entry,) = tables.mul[(0, 0)]
        tables.mul[(0, 0)] = {entry: 2}

    rib.hopf = rebuilt(crossed, double_product)
    assert not rib.hopf.ones
    by_view = verify_all_axioms(rib, sampled=True)
    take_sparse_products(monkeypatch)
    sparse = verify_all_axioms(rib, sampled=True)
    assert not by_view.all_passed
    assert (by_view.checks, by_view.witnesses) == (sparse.checks, sparse.witnesses)


def move_or_negate(draw, vec: dict, keys) -> None:
    """Negate one term of vec, or move its coefficient to one of keys that
    vec lacks."""
    key = draw(st.sampled_from(sorted(vec)))
    if draw(st.booleans()):
        vec[key] = -vec[key]
    else:
        vec[draw(st.sampled_from([k for k in keys if k not in vec]))] = vec.pop(key)


@st.composite
def view_corruptions(draw):
    """The ribbon data of D(G) for G in Z2, Z3, S3 or of the dim-144 V4-A4
    crossed product, with one monomial corruption of its tables, or one term
    of R or of the ribbon element moved or negated."""
    name = draw(st.sampled_from(("Z2", "Z3", "S3", "V4-A4")))
    rib = crossed_v4_a4() if name == "V4-A4" else double_algebra(group_by_name(name)).ribbon_data()
    basis = range(rib.hopf.dim)
    kind = draw(st.sampled_from(("table", "r_matrix", "ribbon")))
    if kind == "table":
        rib.hopf = corrupt_monomially(draw, rib.hopf)
    elif kind == "r_matrix":
        move_or_negate(draw, rib.r_matrix, product(basis, repeat=2))
    else:
        move_or_negate(draw, rib.ribbon, basis)
    return rib


VIEW_PRODUCT_CHECKS = {
    "unit",
    "antipode",
    "r_invertible",
    "r_intertwines_coproducts",
    "hexagon_coproduct_left",
    "hexagon_coproduct_right",
    "ribbon_invertible",
    "ribbon_central",
    "ribbon_coproduct",
}


def test_view_products_give_the_sparse_verdicts_and_witnesses():
    """On corrupted monomial tables and corrupted R-matrices and ribbon
    elements, the three suites, which take their products from the integer
    rows, decide every check as the checks built on the sparse table do, on
    the same witnesses, in full and in sampled mode. The sparse Hopf suite
    runs on the crossed product in sampled mode only: its full associativity
    loop over 144 ** 3 triples is too slow for an oracle."""
    failed = set()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(view_corruptions())
    def agree(rib):
        h = rib.hopf
        assert h.ones
        sparse = SparseProducts(h)
        for sampled in (False, True):
            suites = [
                (verify_quasitriangular, quasitriangular_checks(rib, sparse), RIBBON_SAMPLES),
                (verify_ribbon, ribbon_checks(rib, sparse), RIBBON_SAMPLES),
            ]
            if sampled or h.dim < 144:
                suites.append((lambda rd, sampled: verify_hopf(rd.hopf, sampled=sampled), hopf_checks(h, sparse), HOPF_SAMPLES))
            for verify, checks, samples in suites:
                fast = verify(rib, sampled=sampled)
                oracle = run_checks(checks, h.dim, sampled=sampled, samples=samples)
                assert (fast.mode, fast.checks, fast.witnesses) == (oracle.mode, oracle.checks, oracle.witnesses)
                failed.update(fast.failing())

    agree()
    assert VIEW_PRODUCT_CHECKS <= failed


@st.composite
def products_to_take(draw):
    """A corrupted D(G) (`scalar_tables`) and two lists of terms (i, j, c)
    whose keys are basis indices or lie just outside them, and whose
    coefficients may be zero."""
    hopf = draw(scalar_tables())
    key = st.integers(-2, hopf.dim + 1)
    terms = st.lists(st.tuples(key, key, st.fractions(-2, 2, max_denominator=2)), max_size=8)
    return hopf, draw(terms), draw(terms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(products_to_take())
def test_view_products_are_the_sparse_products(taken):
    """TableHopf.mul_vec and ten_mul return what the sparse products
    return, on tables with drawn fractions, 1/2 and stored zeros among their
    coefficients, also for zero coefficients and for keys that are not
    basis indices."""
    hopf, a, b = taken
    sparse = SparseProducts(hopf)
    vec_a, vec_b = {i: c for i, _, c in a}, {i: c for i, _, c in b}
    ten_a, ten_b = {(i, j): c for i, j, c in a}, {(i, j): c for i, j, c in b}
    assert hopf.mul_vec(vec_a, vec_b) == sparse.mul_vec(vec_a, vec_b)
    assert hopf.ten_mul(ten_a, ten_b) == sparse.ten_mul(ten_a, ten_b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scalar_tables(), st.data())
def test_relabeled_products_by_rows_are_the_pair_loop(hopf, data):
    """rowscans.first_unmapped_product finds the witness of the sparse pair
    loop on tables with any coefficients: as psi_check's product, with the
    corrupted D(G) as its target and as its source, and as phi-hopf-map's
    product under a drawn relabeling of the corrupted table."""
    (group,) = (g for g in map(group_by_name, ("Z2", "Z3", "S3")) if g.order**2 == hopf.dim)
    clean = double_algebra(group)
    corrupted = replaced(clean, hopf=hopf)
    rib = orbifold_ribbon(clean)
    perm = psi_permutation(clean)
    psi = psi_check(clean, rib, corrupted)
    assert psi.witnesses.get("product") == first_unmapped_product(rib.hopf, hopf, perm)
    source = orbifold_algebra(corrupted)
    psi = psi_check(clean, replaced(rib, hopf=source), clean)
    assert psi.witnesses.get("product") == first_unmapped_product(source, clean.hopf, perm)
    shuffled = data.draw(st.permutations(range(hopf.dim)))
    for relabeling in (range(hopf.dim), shuffled):
        by_rows = rowscans.first_unmapped_product(hopf, hopf, relabeling)
        assert by_rows == first_unmapped_product(hopf, hopf, relabeling)


def test_psi_check_against_a_smaller_double_reads_no_product_off_its_basis():
    """Against D(Z2), whose 4 basis elements are fewer than the labels of
    the Z2-Z4 crossed product, psi_check fails bijective, and product with
    the witness of the pair loop, which finds no product off the basis."""
    sd = sector_double(extension_by_name("Z2-Z4"))
    rib = orbifold_ribbon(sd)
    small = double_algebra(group_by_name("Z2"))
    report = psi_check(sd, rib, small)
    assert not report.checks["bijective"]
    assert report.witnesses["product"] == first_unmapped_product(rib.hopf, small.hopf, psi_permutation(sd))


def test_the_integer_view_is_the_one_product_path():
    """No class in the package but TableHopf defines mul_vec or ten_mul,
    and no module under src imports the sparse oracle of the tests."""
    src = pathlib.Path(equidouble.__file__).parent.parent
    paths = sorted(src.rglob("*.py"))
    assert len(paths) >= 14
    kernels, imports = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined = {f.name for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
                kernels += [(path.name, node.name, name) for name in sorted(defined & {"mul_vec", "ten_mul"})]
            elif isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports += [(path.name, f"{node.module or ''}.{alias.name}") for alias in node.names]
    assert {(cls, name) for _, cls, name in kernels} == {("TableHopf", "mul_vec"), ("TableHopf", "ten_mul")}
    assert [(path, name) for path, name in imports if "sparse_oracle" in name.split(".")] == []


def test_a_product_of_two_terms_is_refused_at_construction():
    """A table whose product of one pair has two terms is not monomial:
    building it raises UsageError naming the pair."""
    hopf = double_algebra(group_by_name("S3")).hopf
    key = sorted((i, j) for i, j in product(range(hopf.dim), repeat=2) if hopf.mul_basis(i, j))[3]

    def add_a_term(tables):
        (old,) = tables.mul[key]
        tables.mul[key][(old + 1) % hopf.dim] = ONE

    with pytest.raises(UsageError, match=rf"product of the pair \({key[0]}, {key[1]}\)"):
        rebuilt(hopf, add_a_term)


@pytest.mark.parametrize(
    "store, moved, named",
    [
        ("comul", lambda key, dim: (key[0], dim), r"the coproduct of 1 has a term keyed off the basis, at \(1, 4\)"),
        ("comul", lambda key, dim: (-1, key[1]), r"the coproduct of 1 has a term keyed off the basis, at \(-1, 1\)"),
        ("unit", lambda key, dim: dim, r"the unit has a term keyed off the basis, at 4"),
        ("antipode", lambda key, dim: dim, r"the antipode of 1 has a term keyed off the basis, at 4"),
    ],
)
def test_a_term_keyed_off_the_basis_is_refused_at_construction(store, moved, named):
    """A unit, coproduct or antipode term of D(Z2) moved off its basis, past
    the end or to a negative index, raises UsageError naming the map and the
    key: no check reads it, as an IndexError or through Python's negative
    indexing."""
    hopf = double_algebra(group_by_name("Z2")).hopf
    assert hopf.dim == 4

    def move_a_term(tables):
        terms = tables.unit if store == "unit" else getattr(tables, store)[1]
        key = min(terms)
        terms[moved(key, hopf.dim)] = terms.pop(key)

    with pytest.raises(UsageError, match=named):
        rebuilt(hopf, move_a_term)


@pytest.mark.parametrize("shift", [-4, 4])
def test_a_ribbon_element_keyed_off_the_basis_has_no_counit(shift):
    """The ribbon element of D(Z2) with every key shifted off the basis has
    no counit, as it has no product, so ribbon_counit_one fails with witness
    () instead of reading a counit through a negative index or raising
    IndexError."""
    rib = double_algebra(group_by_name("Z2")).ribbon_data()
    assert rib.hopf.dim == 4
    shifted = replaced(rib, ribbon={k + shift: c for k, c in rib.ribbon.items()})
    report = verify_ribbon(shifted)
    assert not report.checks["ribbon_counit_one"]
    assert report.witnesses["ribbon_counit_one"] == ()


@pytest.mark.parametrize("store", ["rows", "coefficients", "coproduct", "antipode", "counit", "unit"])
def test_a_built_table_is_read_only(store):
    """Every structure map of a built table refuses an edit, so that its
    rows cannot go stale: the product's rows and coefficients, the
    coproduct and antipode of a basis element, the counit and the unit."""
    hopf = double_algebra(group_by_name("S3")).hopf
    target, key = {
        "rows": (hopf.rows[0], 0),
        "coefficients": (hopf.coefficients, (0, 0)),
        "coproduct": (hopf.comul_basis(0), (0, 0)),
        "antipode": (hopf.antipode_basis(0), 0),
        "counit": (hopf._counit, 0),
        "unit": (hopf.unit, 0),
    }[store]
    with pytest.raises(TypeError):
        setitem(target, key, 2)
    assert verify_hopf(hopf).all_passed


@pytest.mark.parametrize("corrupt", ["constant", "redirect"])
def test_sampled_check_with_no_more_tuples_than_samples_runs_exhaustively(corrupt):
    """D(Z2) has 4 ** 3 basis triples, fewer than the HOPF_SAMPLES draws,
    so every sampled check runs on every tuple and finds the full witness."""
    hopf = double_algebra(group_by_name("Z2")).hopf

    def corrupt_product(tables):
        (old,) = tables.mul[(0, 1)]
        tables.mul[(0, 1)] = {old: Fraction(5)} if corrupt == "constant" else {(old + 1) % hopf.dim: ONE}

    hopf = rebuilt(hopf, corrupt_product)
    full = verify_hopf(hopf)
    sampled = verify_hopf(hopf, sampled=True)
    assert not full.all_passed
    assert (sampled.mode, full.mode) == ("sampled", "full")
    assert (sampled.checks, sampled.witnesses) == (full.checks, full.witnesses)


@pytest.mark.parametrize("name", ["Z2", "Z3", "S3"])
def test_uncorrupted_suites_have_no_witnesses(name):
    d = double_algebra(group_by_name(name))
    rib = d.ribbon_data()
    for report in (verify_hopf(d.hopf), verify_quasitriangular(rib), verify_ribbon(rib)):
        assert report.all_passed and report.witnesses == {}


def test_check_loop_stops_at_the_first_failure_and_skips_later_parts():
    seen = []

    def holds(i, j):
        seen.append((i, j))
        return i + j < 3

    assert first_failure([(0, 1), (1, 2), (2, 2)], holds) == (1, 2)
    assert seen == [(0, 1), (1, 2)]
    assert first_failure([], holds) is None

    rep = VerifyReport(mode="full")
    rep.check("c", [(0,), (5,)], lambda x: x < 3)
    rep.check("c", [(1,)], lambda x: pytest.fail("a later part ran after a failure"))
    rep.check("d", [()], lambda: True)
    assert rep.checks == {"c": False, "d": True}
    assert rep.witnesses == {"c": (5,)}
    assert not rep.all_passed and rep.failing() == ["c"]

    outer = VerifyReport(mode="full")
    outer.include("suite", rep)
    assert outer.checks == {"suite": False}
    assert outer.witnesses == {"suite": ("c", 5)}


def test_corrupted_ribbon_element_is_witnessed():
    d = double_algebra(group_by_name("Z4"))
    rib = d.ribbon_data()
    key = next(iter(rib.ribbon))
    rib.ribbon[key] = -rib.ribbon[key]
    report = verify_ribbon(rib)
    assert not report.all_passed
    assert set(report.witnesses) == set(report.failing())
    checks = ribbon_checks(rib, SparseProducts(rib.hopf))
    for name, witness in report.witnesses.items():
        assert not checks[name][1](*witness), (name, witness)


def fractions(vec: dict) -> dict:
    return {k: Fraction(c) for k, c in vec.items()}


def with_fractions(x):
    """A copy of a TableHopf, RibbonData or SectorDouble whose every stored
    coefficient, zeros included, is a Fraction."""
    if isinstance(x, TableHopf):

        def to_fractions(tables):
            tables.unit = fractions(tables.unit)
            for name in TABLES:
                setattr(tables, name, {k: fractions(v) for k, v in getattr(tables, name).items()})
            tables.counit = [Fraction(c) for c in tables.counit]

        return rebuilt(x, to_fractions)
    if isinstance(x, RibbonData):
        sparse = {f: fractions(getattr(x, f)) for f in ("r_matrix", "r_inverse", "ribbon", "ribbon_inverse")}
    else:
        fields = ("coherence", "coherence_inv", "r_sector", "r_sector_inv", "theta", "theta_inv")
        sparse = {f: {k: fractions(v) for k, v in getattr(x, f).items()} for f in fields}
    return replaced(x, hopf=with_fractions(x.hopf), **sparse)


def assert_fractions_change_nothing(suite, *args):
    """suite decides the same checks on the same witnesses when every
    coefficient of its arguments is a Fraction."""

    def decided(report):
        return report.mode, report.checks, report.witnesses

    assert decided(suite(*args)) == decided(suite(*map(with_fractions, args)))


def test_int_and_fraction_tables_give_the_same_reports():
    """The structure constants are ints; the same tables with Fraction
    coefficients get the same verdicts."""
    ds3 = double_algebra(group_by_name("S3"))
    sd = sector_double(extension_by_name("A3-S3"))
    assert_fractions_change_nothing(verify_all_axioms, ds3.ribbon_data())
    assert_fractions_change_nothing(verify_sector_double, sd)
    assert_fractions_change_nothing(psi_check, sd, orbifold_ribbon(sd), ds3)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(scalar_tables())
def test_corrupted_mixed_tables_give_the_same_reports_with_fractions(hopf):
    """A corrupted D(G), whose tables mix int and Fraction coefficients,
    fails the same checks on the same witnesses when every coefficient is a
    Fraction: in the axiom suites and as the target of psi_check."""
    (group,) = (g for g in map(group_by_name, ("Z2", "Z3", "S3")) if g.order**2 == hopf.dim)
    clean = double_algebra(group)
    corrupted = replaced(clean, hopf=hopf)
    assert not verify_hopf(hopf).all_passed
    assert_fractions_change_nothing(verify_all_axioms, corrupted.ribbon_data())
    assert_fractions_change_nothing(verify_sector_double, corrupted)
    assert_fractions_change_nothing(psi_check, clean, orbifold_ribbon(clean), corrupted)


# the tables of the reduced-scan oracle: ribbon data of D(S3), D(D4) and the
# A3-S3 and Z2-Q8 crossed products, and the Z4-D4 sector double, which has no
# global R-matrix
ORACLE_ALGEBRAS = {
    "D(S3)": lambda: double_algebra(group_by_name("S3")).ribbon_data(),
    "D(D4)": lambda: double_algebra(group_by_name("D4")).ribbon_data(),
    "Z4-D4": lambda: sector_double(extension_by_name("Z4-D4")).hopf,
    "A3-S3": lambda: orbifold_ribbon(sector_double(extension_by_name("A3-S3"))),
    "Z2-Q8": lambda: orbifold_ribbon(sector_double(extension_by_name("Z2-Q8"))),
}
REDUCED_CHECKS = {
    "associativity",
    "comultiplication_multiplicative",
    "coassociativity",
    "r_intertwines_coproducts",
    "ribbon_central",
}


@st.composite
def reduced_scan_corruptions(draw):
    """An oracle table with one monomial corruption of its product or
    coproduct, or, for ribbon data, one term of R or of the ribbon element
    moved or negated: then the Hopf checks hold and the R-matrix and ribbon
    checks fail in rowscans.reduced_check."""
    built = ORACLE_ALGEBRAS[draw(st.sampled_from(sorted(ORACLE_ALGEBRAS)))]()
    if isinstance(built, TableHopf):
        return corrupt_monomially(draw, built)
    basis = range(built.hopf.dim)
    kind = draw(st.sampled_from(("table", "r_matrix", "ribbon")))
    if kind == "table":
        built.hopf = corrupt_monomially(draw, built.hopf)
    elif kind == "r_matrix":
        move_or_negate(draw, built.r_matrix, product(basis, repeat=2))
    else:
        move_or_negate(draw, built.ribbon, basis)
    return built


def test_reduced_suites_agree_with_the_sparse_oracle():
    """Full-mode suites, whose checks are decided on generating sets, give
    the checks and witnesses of the sparse predicates run on every tuple."""
    failed = set()

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(reduced_scan_corruptions())
    def agree(built):
        if isinstance(built, TableHopf):
            fast, checks, dim = verify_hopf(built), hopf_checks(built, SparseProducts(built)), built.dim
        else:
            fast, dim, sparse = verify_all_axioms(built), built.hopf.dim, SparseProducts(built.hopf)
            checks = {
                **hopf_checks(built.hopf, sparse),
                **quasitriangular_checks(built, sparse),
                **ribbon_checks(built, sparse),
            }
        oracle = run_checks(checks, dim, sampled=False, samples=0)
        assert (fast.mode, fast.checks, fast.witnesses) == (oracle.mode, oracle.checks, oracle.witnesses)
        failed.update(fast.failing())

    agree()
    assert REDUCED_CHECKS <= failed


@pytest.mark.parametrize("name", ["D(S3)", "D(D4)", "Z4-D4", "A3-S3", "Z2-Q8"])
def test_generating_sets_reach_every_basis_element_and_none_is_redundant(name):
    """Every basis element is a product of generators, multiplied on the
    right one at a time; without any one generator some element is missed."""
    built = ORACLE_ALGEBRAS[name]()
    rows = (built if isinstance(built, TableHopf) else built.hopf).rows
    dim = len(rows) - 1

    def reached(gens):
        seen, frontier = set(gens), list(gens)
        while frontier:
            row = rows[frontier.pop()]
            fresh = {row[s] for s in gens} - seen - {-1}
            seen |= fresh
            frontier.extend(fresh)
        return seen

    gens = rowscans.generating_set(rows)
    assert reached(gens) == set(range(dim)) and len(gens) < dim
    for g in gens:
        assert reached([s for s in gens if s != g]) != set(range(dim)), g


def count_predicates(monkeypatch):
    """Count the calls of every predicate of the three suites, by name, and
    of rowscans.reduced_check, by check name with a "reduced:" prefix."""
    calls = Counter()

    def counting(name, holds):
        def wrapper(*t):
            calls[name] += 1
            return holds(*t)

        return wrapper

    for suite in ("hopf_checks", "quasitriangular_checks", "ribbon_checks"):
        real = getattr(hopf_module, suite)

        def counted(*args, real=real):
            return {name: (arity, counting(name, holds)) for name, (arity, holds) in real(*args).items()}

        monkeypatch.setattr(hopf_module, suite, counted)
    real_reduced_check = rowscans.reduced_check

    def reduced_check(h, name, arity, holds):
        calls["reduced:" + name] += 1
        return real_reduced_check(h, name, arity, holds)

    monkeypatch.setattr(rowscans, "reduced_check", reduced_check)
    return calls


def assert_on_every_tuple(calls, report, name, arity, dim):
    """The check of that name ran its predicate in product order, up to its
    witness or over every tuple, and not rowscans.reduced_check."""
    tuples = list(product(range(dim), repeat=arity))
    witness = report.witnesses.get(name)
    assert calls["reduced:" + name] == 0, name
    assert calls[name] == (len(tuples) if witness is None else tuples.index(witness) + 1), name


def test_premised_checks_run_on_generators_only_after_their_premises_held(monkeypatch):
    """On D(S3) the premised checks run on the generating set. After a
    corruption of one coproduct, associativity still holds but Delta fails,
    so ribbon_central alone stays on the generators; after one that breaks
    associativity, Delta and coassociativity run on every tuple in product
    order, without rowscans.reduced_check."""
    assert set(hopf_module.REDUCTION_PREMISES) == REDUCED_CHECKS
    rib = double_algebra(group_by_name("S3")).ribbon_data()
    h, dim = rib.hopf, rib.hopf.dim
    gens = rowscans.generating_set(h.rows)
    calls = count_predicates(monkeypatch)
    assert verify_all_axioms(rib).all_passed
    assert calls["comultiplication_multiplicative"] == len(gens) * dim
    for name in ("coassociativity", "r_intertwines_coproducts", "ribbon_central"):
        assert calls[name] == len(gens), name
    assert {calls["reduced:" + name] for name in REDUCED_CHECKS} == {1}

    calls.clear()

    def move_a_term(tables):
        terms = tables.comul[1]
        x, y = min(terms)
        del terms[(x, y)]
        terms[next((x, z) for z in range(dim) if (x, z) not in terms)] = ONE

    rib.hopf = rebuilt(h, move_a_term)
    report = verify_all_axioms(rib)
    assert report.checks["associativity"] and not report.checks["comultiplication_multiplicative"]
    assert calls["reduced:comultiplication_multiplicative"] == 1
    assert_on_every_tuple(calls, report, "coassociativity", 1, dim)
    assert_on_every_tuple(calls, report, "r_intertwines_coproducts", 1, dim)
    assert calls["reduced:ribbon_central"] == 1 and calls["ribbon_central"] == len(gens)

    calls.clear()
    h = double_algebra(group_by_name("S3")).hopf

    def redirect_product(tables):
        (old,) = tables.mul[(0, 0)]
        tables.mul[(0, 0)] = {(old + 1) % dim: ONE}

    h = rebuilt(h, redirect_product)
    report = verify_hopf(h)
    assert not report.checks["associativity"] and calls["reduced:associativity"] == 1
    assert_on_every_tuple(calls, report, "comultiplication_multiplicative", 2, dim)
    assert_on_every_tuple(calls, report, "coassociativity", 1, dim)


def test_an_associativity_failure_off_the_generators_has_the_predicate_loops_witness(monkeypatch):
    """Redirecting the product e_3 e_0 of D(S3) breaks associativity first
    at (1, 3, 0), whose middle slot is not a generator. Light's test fails
    on the generators, and the row-wise run over every middle element
    returns the witness of the predicate loop, without calling the
    predicate."""
    h = double_algebra(group_by_name("S3")).hopf

    def redirect_product(tables):
        (old,) = tables.mul[(3, 0)]
        tables.mul[(3, 0)] = {(old + 1) % h.dim: ONE}

    h = rebuilt(h, redirect_product)
    calls = count_predicates(monkeypatch)
    report = verify_hopf(h)
    assert calls["reduced:associativity"] == 1 and calls["associativity"] == 0
    arity, holds = hopf_checks(h, SparseProducts(h))["associativity"]
    witness = first_failure(product(range(h.dim), repeat=arity), holds)
    assert report.witnesses["associativity"] == witness == (1, 3, 0)
    assert witness[1] not in h.generators()


def test_each_table_finds_its_generating_set_once_and_a_sampled_run_none(monkeypatch, tmp_path):
    """verify-all on A3-S3 finds one generating set for each table whose
    checks it reduces: the sector double (dim 18), the crossed product and
    D(S3) (dim 36). A sampled run on the V4-A4 crossed product, whose
    reduced checks are drawn or lack their premises, finds none."""
    found = []
    real_generating_set = rowscans.generating_set

    def generating_set(rows):
        found.append(len(rows) - 1)
        return real_generating_set(rows)

    monkeypatch.setattr(rowscans, "generating_set", generating_set)
    assert cli.main(["verify-all", "--extension", "A3-S3", "--out", str(tmp_path / "report.json")]) == 0
    assert sorted(found) == [18, 36, 36]

    found.clear()
    rib = orbifold_ribbon(sector_double(extension_by_name("V4-A4")))
    assert rib.hopf.dim == 144
    assert verify_all_axioms(rib, sampled=True).all_passed
    assert found == []


@pytest.mark.parametrize(
    "held, reduced",
    [
        ((), set()),
        (("associativity",), {"ribbon_central"}),
        (("comultiplication_multiplicative",), set()),
        (("associativity", "comultiplication_multiplicative"), {"r_intertwines_coproducts", "ribbon_central"}),
    ],
)
def test_r_matrix_and_ribbon_checks_take_the_generators_only_with_their_premises(held, reduced, monkeypatch):
    """r_intertwines_coproducts needs associativity and Delta to have held
    on every tuple, ribbon_central associativity; with less they run on
    every basis element. Without premises, as when the two suites run alone,
    neither takes the generators."""
    rib = double_algebra(group_by_name("S3")).ribbon_data()
    dim = rib.hopf.dim
    gens = rowscans.generating_set(rib.hopf.rows)
    calls = count_predicates(monkeypatch)
    assert verify_quasitriangular(rib, held=set(held)).all_passed
    assert verify_ribbon(rib, held=set(held)).all_passed
    for name in ("r_intertwines_coproducts", "ribbon_central"):
        assert calls["reduced:" + name] == (name in reduced), name
        assert calls[name] == (len(gens) if name in reduced else dim), name
