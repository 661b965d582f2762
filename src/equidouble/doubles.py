"""Doubles of finite groups with exact scalars.

For an extension 1 -> G -> H -> J -> 1 the algebra has basis delta_h (x) g
(h in H, g in G), product supported on incl(g)-conjugation, and coproduct
dual to H-multiplication. It decomposes into sectors D_j = Fun(H_j) (x) K[G];
braiding and twist exist sector-wise (R_{i,j}, theta_j) together with the
automorphisms phi_j and coherence elements c_{i,j} that the orbifold algebra
consumes. The trivial extension H = G recovers the ordinary ribbon double.
"""

from __future__ import annotations

from .errors import UsageError
from .groups import FiniteGroup, GroupExtension, extension_from_subgroup
from .hopf import RibbonData, SparseTen, SparseVec, TableHopf
from .scalars import ONE, ZERO


class SectorDouble:
    """The double of an extension, with its sector-wise braided structure."""

    __slots__ = (
        "ext", "hopf", "phi", "coherence", "coherence_inv", "r_sector", "r_sector_inv", "theta", "theta_inv"
    )

    def __init__(
        self,
        ext: GroupExtension,
        hopf: TableHopf,
        phi: tuple[tuple[int, ...], ...],
        coherence: dict[tuple[int, int], SparseVec],
        coherence_inv: dict[tuple[int, int], SparseVec],
        r_sector: dict[tuple[int, int], SparseTen],
        r_sector_inv: dict[tuple[int, int], SparseTen],
        theta: dict[int, SparseVec],
        theta_inv: dict[int, SparseVec],
    ):
        self.ext = ext
        self.hopf = hopf
        self.phi = phi
        self.coherence = coherence
        self.coherence_inv = coherence_inv
        self.r_sector = r_sector
        self.r_sector_inv = r_sector_inv
        self.theta = theta
        self.theta_inv = theta_inv

    @property
    def n_g(self) -> int:
        return self.ext.G.order

    def index(self, h: int, g: int) -> int:
        return h * self.n_g + g

    def label_of(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.n_g)

    def sector_of(self, idx: int) -> int:
        h, _g = self.label_of(idx)
        return self.ext.proj(h)

    def sector_unit(self, j: int) -> SparseVec:
        return {self.index(h, 0): ONE for h in self.ext.fiber(j)}

    def ribbon_data(self) -> RibbonData:
        """Global quasitriangular + ribbon structure; trivial J only."""
        if self.ext.J.order != 1:
            raise UsageError("global R-matrix exists only for a trivial sector group")
        return RibbonData(
            hopf=self.hopf,
            r_matrix=self.r_sector[(0, 0)],
            r_inverse=self.r_sector_inv[(0, 0)],
            ribbon=self.theta[0],
            ribbon_inverse=self.theta_inv[0],
        )


def sector_double(ext: GroupExtension, name: str = "") -> SectorDouble:
    """The double of ext with its sector data, read off the extension's
    tables. No inverse is certified here; the suites decide each one.
    verify_sector_double checks coherence_inv in `phi-composition`,
    r_sector_inv in `rmatrix-sectors` and theta_inv in `twist-sectors`; on
    the double of a group, verify_all_axioms checks ribbon_data's two in
    `r_invertible` and `ribbon_invertible`; orbifold_ribbon certifies the
    twist it assembles from theta_inv."""
    H, G, J = ext.H, ext.G, ext.J
    nh, ng = H.order, G.order
    dim = nh * ng

    def idx(h: int, g: int) -> int:
        return h * ng + g

    incl = ext.incl.images

    mul_table: dict[tuple[int, int], SparseVec] = {}
    for h in range(nh):
        for g in range(ng):
            a = idx(h, g)
            cg = incl[g]
            for h2 in range(nh):
                if H.conj(cg, h2) != h:
                    continue
                for g2 in range(ng):
                    mul_table[(a, idx(h2, g2))] = {idx(h, G.mul(g, g2)): ONE}

    unit: SparseVec = {idx(h, 0): ONE for h in range(nh)}

    comul_table: dict[int, SparseTen] = {}
    for h in range(nh):
        for g in range(ng):
            ten: SparseTen = {}
            for h1 in range(nh):
                h2 = H.mul(H.inv[h1], h)
                ten[(idx(h1, g), idx(h2, g))] = ONE
            comul_table[idx(h, g)] = ten

    counit_table = [ONE if h == 0 else ZERO for h in range(nh) for _ in range(ng)]

    antipode_table: dict[int, SparseVec] = {}
    for h in range(nh):
        for g in range(ng):
            cg = incl[g]
            target_h = H.conj(H.inv[cg], H.inv[h])
            antipode_table[idx(h, g)] = {idx(target_h, G.inv[g]): ONE}

    hopf = TableHopf(
        dim,
        unit,
        mul_table,
        comul_table,
        counit_table,
        antipode_table,
        name=name or f"D({H.name or nh})^{J.name or J.order}",
    )

    # the weak action and the sector untwist are the extension's tables
    # (GroupExtension has each identity); phi's H-part conjugates by s_j
    js = range(J.order)
    phi = tuple(tuple(idx(H.conj(ext.section[j], h), ext.rho[j][g]) for h in range(nh) for g in range(ng)) for j in js)
    pairs = [(i, j) for i in js for j in js]
    coherence = {(i, j): {idx(h, ext.c[i][j]): ONE for h in range(nh)} for i, j in pairs}
    coherence_inv = {(i, j): {idx(h, G.inv[ext.c[i][j]]): ONE for h in range(nh)} for i, j in pairs}

    # on a left leg of grade a, R_{i,j} acts on the right leg by u[a]; the
    # twist acts on a grade-h vector by u[h], so the element projects onto the
    # image grade u[h] h u[h]^{-1}; the ribbon is its inverse
    u = ext.untwist
    fibers = [ext.fiber(j) for j in js]
    r_sector = {(i, j): {(idx(a, 0), idx(b, u[a])): ONE for a in fibers[i] for b in fibers[j]} for i, j in pairs}
    r_sector_inv = {
        (i, j): {(idx(a, 0), idx(b, G.inv[u[a]])): ONE for a in fibers[i] for b in fibers[j]} for i, j in pairs
    }
    theta = {j: {idx(h, G.inv[u[h]]): ONE for h in fibers[j]} for j in js}
    theta_inv = {j: {idx(H.conj(incl[u[h]], h), u[h]): ONE for h in fibers[j]} for j in js}

    return SectorDouble(ext, hopf, phi, coherence, coherence_inv, r_sector, r_sector_inv, theta, theta_inv)


def double_algebra(h_group: FiniteGroup) -> SectorDouble:
    """The ordinary double of a finite group (trivial sector grading)."""
    ext = extension_from_subgroup(h_group, range(h_group.order))
    return sector_double(ext, name=f"D({h_group.name or h_group.order})")
