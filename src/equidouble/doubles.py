"""Doubles of finite groups with exact scalars.

For an extension 1 -> G -> H -> J -> 1 the algebra has basis delta_h (x) g
(h in H, g in G), product supported on incl(g)-conjugation, and coproduct
dual to H-multiplication. It decomposes into sectors D_j = Fun(H_j) (x) K[G];
braiding and twist exist sector-wise (R_{i,j}, theta_j) together with the
automorphisms phi_j and coherence elements c_{i,j} that the orbifold algebra
consumes. The trivial extension H = G recovers the ordinary ribbon double.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonInvertibleError, UsageError
from .groups import FiniteGroup, GroupExtension, extension_from_subgroup
from .groupoids import GroupAction, action_via_hom
from .hopf import RibbonData, SparseTen, SparseVec, TableHopf, inverts, outer
from .scalars import ONE, ZERO


@dataclass
class SectorDouble:
    """The double of an extension, with its sector-wise braided structure."""

    ext: GroupExtension
    hopf: TableHopf
    phi: tuple[tuple[int, ...], ...]
    coherence: dict[tuple[int, int], SparseVec]
    coherence_inv: dict[tuple[int, int], SparseVec]
    r_sector: dict[tuple[int, int], SparseTen]
    r_sector_inv: dict[tuple[int, int], SparseTen]
    theta: dict[int, SparseVec]
    theta_inv: dict[int, SparseVec]

    @property
    def n_h(self) -> int:
        return self.ext.H.order

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

    def conjugation_action(self) -> GroupAction:
        """G acting on the elements of H through incl-conjugation."""
        return action_via_hom(self.ext.H, self.ext.G, self.ext.incl.images)

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
    H, G, J = ext.H, ext.G, ext.J
    nh, ng = H.order, G.order
    dim = nh * ng

    def idx(h: int, g: int) -> int:
        return h * ng + g

    incl = ext.incl.images
    labels = [f"({H.labels[h]}|{G.labels[g]})" for h in range(nh) for g in range(ng)]

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
        labels,
        unit,
        mul_table,
        comul_table,
        counit_table,
        antipode_table,
        name=name or f"D({H.name or nh})^{J.name or J.order}",
    )

    g_of = ext.g_of
    s = ext.section
    nj = J.order

    phi_rows = []
    for j in range(nj):
        sj = s[j]
        perm = [0] * dim
        for h in range(nh):
            hh = H.conj(sj, h)
            for g in range(ng):
                gg = g_of(H.conj(sj, incl[g]))
                perm[idx(h, g)] = idx(hh, gg)
        phi_rows.append(tuple(perm))
    phi = tuple(phi_rows)

    coherence: dict[tuple[int, int], SparseVec] = {}
    coherence_inv: dict[tuple[int, int], SparseVec] = {}
    for i in range(nj):
        for j in range(nj):
            gamma = H.mul(H.mul(s[i], s[j]), H.inv[s[J.table[i][j]]])
            gam_g = g_of(gamma)
            coherence[(i, j)] = {idx(h, gam_g): ONE for h in range(nh)}
            coherence_inv[(i, j)] = {idx(h, G.inv[gam_g]): ONE for h in range(nh)}

    fibers = [ext.fiber(j) for j in range(nj)]

    r_sector: dict[tuple[int, int], SparseTen] = {}
    r_sector_inv: dict[tuple[int, int], SparseTen] = {}
    for i in range(nj):
        s_i_inv = s[J.inv[i]]
        for j in range(nj):
            r: SparseTen = {}
            rinv: SparseTen = {}
            for h1 in fibers[i]:
                g_fwd = g_of(H.mul(s_i_inv, h1))
                g_bwd = g_of(H.mul(H.inv[h1], H.inv[s_i_inv]))
                for h2 in fibers[j]:
                    r[(idx(h1, 0), idx(h2, g_fwd))] = ONE
                    rinv[(idx(h1, 0), idx(h2, g_bwd))] = ONE
            r_sector[(i, j)] = r
            r_sector_inv[(i, j)] = rinv

    # the twist acts on a grade-h vector by s(j^{-1})h =: u, so the element
    # projects onto the image grade u h u^{-1}; the ribbon is its inverse
    theta: dict[int, SparseVec] = {}
    theta_inv: dict[int, SparseVec] = {}
    for j in range(nj):
        s_j_inv = s[J.inv[j]]
        tinv: SparseVec = {}
        t: SparseVec = {}
        for h in fibers[j]:
            u = H.mul(s_j_inv, h)
            t[idx(h, g_of(H.inv[u]))] = ONE
            tinv[idx(H.conj(u, h), g_of(u))] = ONE
        theta[j] = t
        theta_inv[j] = tinv

    sd = SectorDouble(
        ext,
        hopf,
        phi,
        coherence,
        coherence_inv,
        r_sector,
        r_sector_inv,
        theta,
        theta_inv,
    )

    # structural sanity: inverses really invert, sector-wise
    units = [sd.sector_unit(j) for j in range(nj)]
    for j in range(nj):
        if not inverts(hopf.mul_vec, theta[j], theta_inv[j], units[j]):
            raise NonInvertibleError(f"theta_{j} inverse")
    for i in range(nj):
        for j in range(nj):
            if not inverts(hopf.ten_mul, r_sector[(i, j)], r_sector_inv[(i, j)], outer(units[i], units[j])):
                raise NonInvertibleError(f"R_({i},{j}) inverse")
            if not inverts(hopf.mul_vec, coherence[(i, j)], coherence_inv[(i, j)], unit):
                raise NonInvertibleError(f"c_({i},{j}) inverse")
    return sd


def double_algebra(h_group: FiniteGroup, name: str = "") -> SectorDouble:
    """The ordinary double of a finite group (trivial sector grading)."""
    ext = extension_from_subgroup(h_group, range(h_group.order))
    return sector_double(ext, name=name or f"D({h_group.name or h_group.order})")
