"""Crossed product of the graded double and its comparison with D(H)."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain, product

import pytest
from helpers import with_entries
from sparse_oracle import SparseProducts, rebuilt, take_sparse_products

import equidouble
from equidouble.catalogue import extension_by_name, extension_names, group_by_name
from equidouble.doubles import double_algebra, sector_double
from equidouble.errors import NonInvertibleError
from equidouble.hopf import (
    first_failure,
    hopf_checks,
    sparse_eq,
    verify_hopf,
    verify_quasitriangular,
    verify_ribbon,
)
from equidouble.groups import (
    cyclic_group,
    dihedral_group,
    extension_from_subgroup,
    symmetric_group,
)
from equidouble.linalg import ExactMatrix, inverse, solve
from equidouble.orbifold import (
    _grouplike,
    _grouplike_inverse,
    verify_sector_double,
    orbifold_algebra,
    orbifold_ribbon,
    psi_check,
    psi_permutation,
)

ONE = Fraction(1)


def a3_in_s3():
    s3 = symmetric_group(3)
    a3 = [g for g in range(6) if s3.element_order(g) != 2]
    return extension_from_subgroup(s3, a3, name="A3-S3")


def z2_in_z4():
    return extension_from_subgroup(cyclic_group(4), [0, 2], name="Z2-Z4")


def z4_in_d4():
    d4 = dihedral_group(4)
    rot = next(g for g in range(8) if d4.element_order(g) == 4)
    z4 = sorted(d4.closure([rot]))
    return extension_from_subgroup(d4, z4, name="Z4-D4")


def test_orbifold_dimension_and_hopf_axioms():
    sd = sector_double(a3_in_s3())
    ohat = orbifold_algebra(sd)
    assert ohat.dim == 36
    report = verify_hopf(ohat)
    assert report.all_passed, report.failing()


def test_orbifold_of_trivial_sector_group_is_the_double_itself():
    sd = double_algebra(symmetric_group(3))
    ohat = orbifold_algebra(sd)
    assert ohat.dim == sd.hopf.dim
    for x in range(ohat.dim):
        for y in range(ohat.dim):
            assert sparse_eq(ohat.mul_basis(x, y), sd.hopf.mul_basis(x, y))
        assert sparse_eq(ohat.comul_basis(x), sd.hopf.comul_basis(x))
        assert ohat.counit_basis(x) == sd.hopf.counit_basis(x)
        assert sparse_eq(ohat.antipode_basis(x), sd.hopf.antipode_basis(x))


def test_strict_coherence_gives_smash_product():
    ext = a3_in_s3()
    sd = sector_double(ext)
    for key, coh in sd.coherence.items():
        assert sparse_eq(coh, sd.hopf.unit), f"section of {ext.name} is not a complement at {key}"
    ohat = orbifold_algebra(sd)
    n_j = ext.J.order
    for a in range(sd.hopf.dim):
        for b in range(sd.hopf.dim):
            for i in range(n_j):
                for j in range(n_j):
                    got = ohat.mul_basis(a * n_j + i, b * n_j + j)
                    plain = sd.hopf.mul_basis(a, sd.phi[i][b])
                    ij = ext.J.mul(i, j)
                    want = {k * n_j + ij: c for k, c in plain.items()}
                    assert sparse_eq(got, want)


def test_first_tensor_factor_is_a_hopf_subalgebra():
    sd = sector_double(z2_in_z4())
    ohat = orbifold_algebra(sd)
    n_j = sd.ext.J.order
    for a in range(sd.hopf.dim):
        for b in range(sd.hopf.dim):
            got = ohat.mul_basis(a * n_j, b * n_j)
            want = {k * n_j: c for k, c in sd.hopf.mul_basis(a, b).items()}
            assert sparse_eq(got, want)
        got_t = ohat.comul_basis(a * n_j)
        want_t = {(x * n_j, y * n_j): c for (x, y), c in sd.hopf.comul_basis(a).items()}
        assert sparse_eq(got_t, want_t)


def test_counit_weighted_quotient_onto_sector_group_algebra():
    ext = z2_in_z4()
    sd = sector_double(ext)
    ohat = orbifold_algebra(sd)
    n_j = ext.J.order

    def project(vec):
        out = [Fraction(0)] * n_j
        for k, c in vec.items():
            a, j = divmod(k, n_j)
            out[j] += c * sd.hopf.counit_basis(a)
        return out

    for a in range(sd.hopf.dim):
        for i in range(n_j):
            for b in range(sd.hopf.dim):
                for j in range(n_j):
                    lhs = project(ohat.mul_basis(a * n_j + i, b * n_j + j))
                    rhs = [Fraction(0)] * n_j
                    rhs[ext.J.mul(i, j)] = sd.hopf.counit_basis(a) * sd.hopf.counit_basis(b)
                    assert lhs == rhs
    unit_image = project(ohat.unit)
    assert unit_image[0] == 1 and all(c == 0 for c in unit_image[1:])


def solved_inverse(hopf, x):
    """The inverse of x in the table algebra by an exact linear solve of
    x y = 1: the oracle for the closed forms of orbifold_ribbon."""
    n = hopf.dim
    products = SparseProducts(hopf)
    columns = {(r, k): c for k in range(n) for r, c in products.mul_vec(x, {k: ONE}).items()}
    lmul = with_entries(ExactMatrix.zeros(n, n), columns)
    rhs = with_entries(ExactMatrix.zeros(n, 1), {(r, 0): c for r, c in hopf.unit.items()})
    sol = solve(lmul, rhs)
    return {k: sol[k, 0] for k in range(n) if sol[k, 0]}


# the catalogue extensions whose crossed product, of dimension |H|^2, has
# dimension at most 144
SOLVABLE_EXTENSIONS = [name for name in extension_names() if extension_by_name(name).H.order ** 2 <= 144]


@pytest.mark.parametrize("name", SOLVABLE_EXTENSIONS)
def test_closed_form_inverses_match_the_linear_solve(name):
    ext = extension_by_name(name)
    sd = sector_double(ext)
    ohat = orbifold_algebra(sd)
    for j in range(ext.J.order):
        assert _grouplike_inverse(sd, ohat, j) == solved_inverse(ohat, _grouplike(sd, j)), j
    rib = orbifold_ribbon(sd, ohat)
    assert rib.ribbon == solved_inverse(ohat, rib.ribbon_inverse)


def coefficients(*sparse):
    """Every coefficient stored in the given sparse vectors and tensors."""
    return [c for v in sparse for c in v.values()]


def hopf_coefficients(hopf):
    """The counit and every stored unit, product, coproduct and antipode
    coefficient; a product coefficient that is not stored is the int 1."""
    tables = (hopf._comul, hopf._antipode)
    return list(hopf._counit) + coefficients(
        hopf.unit, hopf.coefficients, *chain.from_iterable(t.values() for t in tables)
    )


def sector_coefficients(sd):
    """hopf_coefficients of sd's algebra, then its coherence elements, sector
    braidings and twists and their inverses."""
    tables = (sd.coherence, sd.coherence_inv, sd.r_sector, sd.r_sector_inv, sd.theta, sd.theta_inv)
    return hopf_coefficients(sd.hopf) + coefficients(*chain.from_iterable(t.values() for t in tables))


@pytest.mark.parametrize("name", extension_names())
def test_catalogue_structure_constants_are_ints(name):
    """Every structure constant of the graded double and of its crossed
    product, braiding and ribbon elements is exactly an int: no Fraction."""
    sd = sector_double(extension_by_name(name))
    rib = orbifold_ribbon(sd)
    elements = coefficients(rib.r_matrix, rib.r_inverse, rib.ribbon, rib.ribbon_inverse)
    assert {type(c) for c in sector_coefficients(sd) + hopf_coefficients(rib.hopf) + elements} == {int}


@pytest.mark.parametrize("name", ["Z2", "S3", "Q8"])
def test_group_double_structure_constants_are_ints(name):
    assert {type(c) for c in sector_coefficients(double_algebra(group_by_name(name)))} == {int}


def test_corrupted_closed_form_inputs_raise():
    sd = sector_double(extension_by_name("A3-S3"))
    entry = next(iter(sd.theta[1]))
    sd.theta[1][entry] = -sd.theta[1][entry]
    with pytest.raises(NonInvertibleError, match="ribbon element"):
        orbifold_ribbon(sd)

    sd = sector_double(extension_by_name("A3-S3"))
    ohat = orbifold_algebra(sd)
    k = min(_grouplike(sd, 1))

    def redirect_antipode(tables):
        (old,) = tables.antipode[k]
        tables.antipode[k] = {(old + 1) % ohat.dim: ONE}

    with pytest.raises(NonInvertibleError, match="grouplike"):
        orbifold_ribbon(sd, rebuilt(ohat, redirect_antipode))


def test_orbifold_ribbon_passes_quasitriangular_and_ribbon_axioms():
    sd = sector_double(a3_in_s3())
    ohat = orbifold_algebra(sd)
    rib = orbifold_ribbon(sd, ohat)
    qt = verify_quasitriangular(rib)
    assert qt.all_passed, qt.failing()
    rb = verify_ribbon(rib)
    assert rb.all_passed, rb.failing()


def test_psi_check_passes_for_catalogue_extensions():
    for ext in (a3_in_s3(), z2_in_z4()):
        sd = sector_double(ext)
        report = psi_check(sd, orbifold_ribbon(sd), double_algebra(ext.H))
        assert report.checks["bijective"]
        assert report.checks["product"]
        assert report.checks["coproduct"]
        assert report.checks["rmatrix"]
        assert report.checks["twist"]
        assert report.all_passed and report.witnesses == {}


def test_psi_permutation_is_a_bijection_onto_big_double_labels():
    ext = z4_in_d4()
    sd = sector_double(ext)
    perm = psi_permutation(sd)
    assert sorted(perm) == list(range(ext.H.order ** 2))


def test_psi_negative_control_bad_section_fails_product_with_witness():
    ext = z2_in_z4()
    bad_section = (2, 1)
    sd = sector_double(ext)
    rib, dh = orbifold_ribbon(sd), double_algebra(ext.H)
    ext.section = bad_section
    report = psi_check(sd, rib, dh)
    assert report.checks["bijective"]
    assert not report.checks["product"]
    assert "product" in report.witnesses
    # the witness pair alone shows the relabeled products differ
    x, y = report.witnesses["product"]
    perm = psi_permutation(sd)
    got = {perm[k]: c for k, c in orbifold_algebra(sd).mul_basis(x, y).items()}
    assert not sparse_eq(got, double_algebra(ext.H).hopf.mul_basis(perm[x], perm[y]))


def test_module_converter_round_trip_on_regular_module():
    ext = z2_in_z4()
    sd = sector_double(ext)
    dh = double_algebra(ext.H)
    ohat = orbifold_algebra(sd)
    perm = psi_permutation(sd)
    n = ohat.dim
    n_j = ext.J.order

    def rho_tilde(x: int) -> ExactMatrix:
        entries = {}
        for col in range(n):
            prod = dh.hopf.mul_basis(perm[x], perm[col])
            for k, c in prod.items():
                entries[perm.index(k), col] = c
        return with_entries(ExactMatrix.zeros(n, n), entries)

    def matrix_of(vec) -> ExactMatrix:
        sums = [0] * (n * n)
        for x, cx in vec.items():
            sums = [s + cx * b for s, b in zip(sums, rho_tilde(x).data)]
        return ExactMatrix(n, n, sums)

    psi_maps = []
    for j in range(n_j):
        jinv_vec = {k * n_j + ext.J.inv[j]: c for k, c in sd.hopf.unit.items()}
        psi_maps.append(inverse(matrix_of(jinv_vec)))
    for a in range(sd.hopf.dim):
        rho_a = matrix_of({a * n_j: ONE})
        for j in range(n_j):
            reconstructed = rho_a @ inverse(psi_maps[ext.J.inv[j]])
            assert reconstructed.data == rho_tilde(a * n_j + j).data


def z1_in_s3():
    return extension_from_subgroup(symmetric_group(3), [0], name="Z1-S3")


def z2_in_d6():
    d6 = dihedral_group(6)
    centre = [z for z in range(d6.order) if len(d6.centralizer(z)) == d6.order]
    return extension_from_subgroup(d6, centre, name="Z2-D6")


def hopf_tables(h):
    return h.dim, h.unit, h.rows, h.coefficients, h._comul, h._counit, h._antipode


@pytest.mark.parametrize("name", [*extension_names(), "Z1-S3", "Z2-D6"])
def test_crossed_product_from_the_integer_view_equals_the_sparse_one(name, monkeypatch):
    """orbifold_algebra takes the products of a sector double, whose
    coefficients are all 1, from its integer rows, and builds the tables the
    sparse products build."""
    ext = {"Z1-S3": z1_in_s3, "Z2-D6": z2_in_d6}.get(name, lambda: extension_by_name(name))()
    sd = sector_double(ext)
    assert sd.hopf.ones
    from_rows = hopf_tables(orbifold_algebra(sd))
    take_sparse_products(monkeypatch)
    assert from_rows == hopf_tables(orbifold_algebra(sd))


def test_crossed_product_of_a_sector_double_that_is_not_monomial_takes_the_sparse_products(monkeypatch):
    """Once one product has coefficient 2, the table stores that coefficient
    and still takes every product from its rows: the crossed product built
    from it is the one the sparse products build, and not the clean one."""
    sd = sector_double(z2_in_z4())
    clean_build = orbifold_algebra(sd)
    pair = next((x, y) for x, y in product(range(sd.hopf.dim), repeat=2) if sd.hopf.mul_basis(x, y))

    def double_one_product(tables):
        target = next(iter(tables.mul[pair]))
        tables.mul[pair][target] = 2

    sd.hopf = rebuilt(sd.hopf, double_one_product)
    assert sd.hopf.coefficients == {pair: 2} and not sd.hopf.ones
    built = hopf_tables(orbifold_algebra(sd))
    take_sparse_products(monkeypatch)
    assert built == hopf_tables(orbifold_algebra(sd)) != hopf_tables(clean_build)


def test_sector_axiom_suite_passes_for_catalogue_extensions():
    for build in (a3_in_s3, z2_in_z4, z4_in_d4):
        sd = sector_double(build())
        report = verify_sector_double(sd)
        assert report.all_passed, (build.__name__, report.failing())
        assert report.witnesses == {}
        assert report.mode == "full"


def test_sector_axiom_suite_detects_single_entry_corruptions():
    def witnessed(report):
        assert report.failing() and set(report.witnesses) == set(report.failing())
        return report

    sd = sector_double(z2_in_z4())
    key = next(iter(sd.r_sector[(1, 1)]))
    sd.r_sector[(1, 1)][key] = Fraction(2)
    report = witnessed(verify_sector_double(sd))
    assert "rmatrix-sectors" in report.failing()
    assert report.witnesses["rmatrix-sectors"] == (1, 1)
    assert report.checks["orbifold-hopf"]
    for name in ("orbifold-quasitriangular", "orbifold-ribbon"):
        (message,) = report.witnesses[name]
        assert "R-matrix" in message

    sd = sector_double(a3_in_s3())
    swapped = [sd.phi[1][1], sd.phi[1][0]] + list(sd.phi[1][2:])
    sd.phi = (sd.phi[0], tuple(swapped))
    report = witnessed(verify_sector_double(sd))
    assert "phi-hopf-map" in report.failing()

    sd = sector_double(a3_in_s3())
    entry = next(iter(sd.theta[1]))
    sd.theta[1][entry] = -sd.theta[1][entry]
    report = witnessed(verify_sector_double(sd))
    assert "twist-sectors" in report.failing()
    assert report.witnesses["twist-sectors"] == (1,)
    for name in ("orbifold-quasitriangular", "orbifold-ribbon"):
        (message,) = report.witnesses[name]
        assert "ribbon element" in message

    sd = sector_double(z2_in_z4())
    entry = next(iter(sd.coherence[(1, 1)]))
    sd.coherence[(1, 1)][entry] = Fraction(3)
    report = witnessed(verify_sector_double(sd))
    assert not report.all_passed

    sd = sector_double(z2_in_z4())

    def corrupt(tables):
        pair = next(k for k, v in tables.mul.items() if v)
        target = next(iter(tables.mul[pair]))
        tables.mul[pair][target] = Fraction(5)

    sd.hopf = rebuilt(sd.hopf, corrupt)
    report = witnessed(verify_sector_double(sd))
    assert "hopf-axioms" in report.failing()
    failed_check = report.witnesses["hopf-axioms"][0]
    assert failed_check in hopf_checks(sd.hopf, sd.hopf)


def test_untwist_corrupted_before_the_sector_double_fails_named_checks():
    """sector_double certifies no inverse: with untwist[1] times element 1 of
    G = A3 it builds a theta_1^{-1} that does not invert theta_1, and the
    suite names the checks that decide it."""
    ext = a3_in_s3()
    untwist = list(ext.untwist)
    untwist[1] = ext.G.mul(1, untwist[1])
    ext.untwist = tuple(untwist)
    report = verify_sector_double(sector_double(ext))
    assert report.failing() == ["twist-sectors", "orbifold-quasitriangular", "orbifold-ribbon"]
    assert report.witnesses["twist-sectors"] == (1,)
    for name in ("orbifold-quasitriangular", "orbifold-ribbon"):
        (message,) = report.witnesses[name]
        assert "does not invert the assembled twist" in message


def test_redirected_product_in_the_z2_q8_crossed_product_is_witnessed():
    """A corruption that keeps the table monomial runs on the integer scans;
    each witness is the first failing tuple of the sparse predicate loop."""
    hopf = orbifold_algebra(sector_double(extension_by_name("Z2-Q8")))
    assert hopf.dim == 64

    def redirect(tables):
        nonzero = sorted(k for k, v in tables.mul.items() if v)
        key = nonzero[len(nonzero) // 2]
        (old,) = tables.mul[key]
        tables.mul[key] = {(old + 1) % hopf.dim: ONE}

    hopf = rebuilt(hopf, redirect)
    assert hopf.ones
    report = verify_hopf(hopf)
    assert not report.checks["associativity"]
    assert not report.checks["comultiplication_multiplicative"]
    assert set(report.witnesses) == set(report.failing())
    checks = hopf_checks(hopf, SparseProducts(hopf))
    for name, witness in report.witnesses.items():
        arity, holds = checks[name]
        assert not holds(*witness), (name, witness)
        assert witness == first_failure(product(range(hopf.dim), repeat=arity), holds), name


def test_orbifold_ribbon_certification_does_not_depend_on_assert():
    """Under python -O every assert is stripped; a corrupted sector braiding
    must still make orbifold_ribbon raise NonInvertibleError."""
    script = """
from fractions import Fraction
from equidouble.catalogue import extension_by_name
from equidouble.doubles import sector_double
from equidouble.catalogue import extension_by_name
from equidouble.errors import NonInvertibleError
from equidouble.orbifold import orbifold_ribbon
sd = sector_double(extension_by_name("Z2-Z4"))
key = next(iter(sd.r_sector[(1, 1)]))
sd.r_sector[(1, 1)][key] = Fraction(2)
try:
    orbifold_ribbon(sd)
    print("returned")
except NonInvertibleError as exc:
    print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(equidouble.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: "), out.stdout


def test_sector_checks_of_a_monomial_sector_double_take_no_sparse_products(monkeypatch):
    """On the Z4-D4 sector double every product of the suite comes from the
    integer rows of its two tables, the sector double and the crossed
    product. Once one product has coefficient 2, the rows serve that table
    with the verdicts and witnesses of the sparse products."""
    sd = sector_double(z4_in_d4())
    report = verify_sector_double(sd)
    assert report.all_passed

    def double_product(tables):
        (entry,) = tables.mul[(0, 0)]
        tables.mul[(0, 0)] = {entry: 2}

    sd.hopf = rebuilt(sd.hopf, double_product)
    assert not sd.hopf.ones
    by_view = verify_sector_double(sd)
    take_sparse_products(monkeypatch)
    sparse = verify_sector_double(sd)
    assert not by_view.all_passed
    assert (by_view.checks, by_view.witnesses) == (sparse.checks, sparse.witnesses)


def corrupted_sector_inputs(kind: str):
    """A sector double, its crossed product's ribbon data and the double of
    H, with one corruption of the kind named."""
    ext = a3_in_s3() if kind in ("phi", "coherence") else z4_in_d4()
    sd = sector_double(ext)
    dh = double_algebra(ext.H)
    if kind == "phi":
        swapped = [sd.phi[1][1], sd.phi[1][0]] + list(sd.phi[1][2:])
        sd.phi = (sd.phi[0], tuple(swapped))
    elif kind == "coherence":
        entry = next(iter(sd.coherence[(1, 1)]))
        sd.coherence[(1, 1)] = {(entry + 1) % sd.hopf.dim: ONE}
    elif kind == "sector-product":
        sd.hopf = rebuilt(sd.hopf, lambda tables: redirect_product(tables, 5, 3))
    else:
        dh.hopf = rebuilt(dh.hopf, lambda tables: redirect_product(tables, 7, 1))
    return sd, dh


def redirect_product(tables, n: int, shift: int) -> None:
    """Move the n-th nonzero product, in product order, shift basis
    elements on."""
    key = sorted(k for k, v in tables.mul.items() if v)[n]
    (old,) = tables.mul[key]
    tables.mul[key] = {(old + shift) % len(tables.counit): ONE}


@pytest.mark.parametrize("kind", ["phi", "coherence", "sector-product", "big-product"])
def test_sector_and_psi_checks_by_rows_give_the_sparse_witnesses(kind, monkeypatch):
    """verify_sector_double and psi_check decide phi-hopf-map and the psi
    product on integer rows; with the sparse products and the pair loop in
    the rows' place, both give the same report."""

    def reports():
        sd, dh = corrupted_sector_inputs(kind)
        sector = verify_sector_double(sd)
        psi = psi_check(sd, sector.built or orbifold_ribbon(sector_double(sd.ext)), dh)
        return [(r.checks, r.witnesses) for r in (sector, psi)]

    by_rows = reports()
    take_sparse_products(monkeypatch)
    assert by_rows == reports()
    assert not all(all(checks.values()) for checks, _ in by_rows)
