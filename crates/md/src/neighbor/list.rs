//! Verlet neighbor lists (half/Newton and full variants) with skin and
//! the two rebuild policies of Table 2 (`check no` / `check yes`).

use super::bins::CellBins;
use crate::atom::Atoms;
use crate::kernels::{chunk_rows, CHUNK_ROWS};
use tofumd_threadpool::ChunkExec;

/// Which pairs a list stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Each pair appears once. For local j, stored under i < j; for ghost j,
    /// stored under the local atom per LAMMPS's coordinate-ordering rule.
    /// Requires Newton's 3rd law (ghost forces are reverse-communicated).
    HalfNewton,
    /// Every neighbor j != i of each local atom i. Needed by potentials
    /// like Tersoff/DeePMD (Fig. 15's 26-neighbor regime).
    Full,
    /// Half list for *one-sided half ghost shells* (the paper's p2p
    /// pattern, Fig. 5): ghosts exist only from upper-half neighbors, so
    /// every in-range local-ghost pair belongs to this rank; local-local
    /// pairs are stored once (i < j). Using the coordinate rule here would
    /// silently drop pairs — and using this rule with a full ghost shell
    /// would double-count them.
    HalfOneSided,
}

/// A built neighbor list in CSR layout.
#[derive(Debug, Clone)]
pub struct NeighborList {
    /// Which pairs the list stores.
    pub kind: ListKind,
    /// CSR row offsets, `nlocal + 1` entries.
    offsets: Vec<u32>,
    /// Flattened neighbor indices (may point at ghost atoms).
    neigh: Vec<u32>,
    /// Force cutoff + skin used when the list was built.
    pub cutoff_list: f64,
    /// Local atom positions at build time (drives `check yes` rebuilds).
    x_at_build: Vec<[f64; 3]>,
}

/// LAMMPS's half-list ordering rule for a local/ghost candidate pair:
/// the pair belongs to atom i if j is "above" i in (z, y, x) coordinate
/// order. Exactly one side of each cross-rank pair satisfies this, so every
/// pair is computed exactly once across the whole machine.
#[inline]
#[must_use]
pub fn ghost_pair_belongs_to_i(xi: &[f64; 3], xj: &[f64; 3]) -> bool {
    if xj[2] != xi[2] {
        return xj[2] > xi[2];
    }
    if xj[1] != xi[1] {
        return xj[1] > xi[1];
    }
    xj[0] > xi[0]
}

/// The non-geometric half of the candidate filter: does the pair (i, j)
/// belong in row `i` under this list kind? (Pure control flow — no
/// floating-point accumulation, so factoring it out of the scan cannot
/// change any bits.)
#[inline]
fn kind_accepts(
    kind: ListKind,
    nlocal: usize,
    i: usize,
    j: usize,
    xi: &[f64; 3],
    xj: &[f64; 3],
) -> bool {
    match kind {
        ListKind::Full => true,
        ListKind::HalfNewton => {
            if j < nlocal {
                // local-local: store once under the lower index
                j >= i
            } else {
                ghost_pair_belongs_to_i(xi, xj)
            }
        }
        // Ghost pairs always belong to the local side; the half ghost
        // shell guarantees uniqueness.
        ListKind::HalfOneSided => j >= nlocal || j >= i,
    }
}

/// Append row `i`'s accepted neighbors to `out`, in exactly the order the
/// 27-bin stencil scan produces (bins in ascending `(dz, dy, dx)` order,
/// atoms in ascending index order within each bin).
///
/// When `skip_lower_locals` is set (local atoms sorted by flat bin index,
/// half-list build), the *local* segments of the 13 lexicographically lower
/// stencil cells are skipped: a lex-lower in-range cell always has a
/// strictly lower flat index, so with bin-sorted locals every local atom
/// there has `j < i` and would be rejected by the half-list predicate
/// anyway. Ghost segments are still scanned — the HalfNewton coordinate
/// rule can assign a pair to `i` even when the ghost sits in a lower bin —
/// so the accepted-neighbor sequence is *identical* to the full scan, and
/// the resulting forces are bit-for-bit the same.
#[allow(clippy::too_many_arguments)]
#[inline]
fn append_row_neighbors(
    bins: &CellBins,
    x: &[[f64; 3]],
    nlocal: usize,
    kind: ListKind,
    cutsq: f64,
    skip_lower_locals: bool,
    i: usize,
    out: &mut Vec<u32>,
) {
    let xi = x[i];
    let c = bins.coord_of(&xi);
    let c = [c[0] as i64, c[1] as i64, c[2] as i64];
    let nb = bins.nbin();
    for dz in -1..=1i64 {
        let z = c[2] + dz;
        if z < 0 || z >= nb[2] as i64 {
            continue;
        }
        for dy in -1..=1i64 {
            let y = c[1] + dy;
            if y < 0 || y >= nb[1] as i64 {
                continue;
            }
            for dx in -1..=1i64 {
                let xx = c[0] + dx;
                if xx < 0 || xx >= nb[0] as i64 {
                    continue;
                }
                let b = bins.flat([xx as usize, y as usize, z as usize]);
                let cand = if skip_lower_locals && (dz, dy, dx) < (0, 0, 0) {
                    bins.ghosts(b)
                } else {
                    bins.bin(b)
                };
                for &ju in cand {
                    let j = ju as usize;
                    if j == i {
                        continue;
                    }
                    let xj = x[j];
                    if !kind_accepts(kind, nlocal, i, j, &xi, &xj) {
                        continue;
                    }
                    let dd0 = xi[0] - xj[0];
                    let dd1 = xi[1] - xj[1];
                    let dd2 = xi[2] - xj[2];
                    let r2 = dd0 * dd0 + dd1 * dd1 + dd2 * dd2;
                    if r2 < cutsq {
                        out.push(ju);
                    }
                }
            }
        }
    }
}

/// Per-chunk output of the parallel neighbor build: the chunk's flattened
/// neighbor indices plus per-row lengths, stitched into the CSR arrays in
/// chunk order afterwards.
struct RowChunk {
    neigh: Vec<u32>,
    lens: Vec<u32>,
}

/// Bin the local and ghost atoms over `[lo, hi]` and scan the rows with
/// `keep(i)` chunk-parallel over `exec`; rows not kept stay empty. One
/// [`RowChunk`] per [`CHUNK_ROWS`] rows, in row order.
fn build_rows(
    atoms: &Atoms,
    lo: [f64; 3],
    hi: [f64; 3],
    kind: ListKind,
    cutoff_list: f64,
    exec: &ChunkExec<'_>,
    keep: impl Fn(usize) -> bool + Sync,
) -> Vec<RowChunk> {
    let cutsq = cutoff_list * cutoff_list;
    let mut bins = CellBins::new(lo, hi, cutoff_list);
    bins.fill(&atoms.x, atoms.nlocal);
    let skip_lower = bins.sorted_locals() && !matches!(kind, ListKind::Full);
    let nlocal = atoms.nlocal;
    let mut chunks: Vec<RowChunk> = (0..nlocal.div_ceil(CHUNK_ROWS))
        .map(|_| RowChunk {
            neigh: Vec::new(),
            lens: Vec::new(),
        })
        .collect();
    let (bins, x) = (&bins, &atoms.x);
    exec.floored(nlocal).for_each_mut(&mut chunks, &|c, chunk| {
        for i in chunk_rows(c, nlocal) {
            let before = chunk.neigh.len();
            if keep(i) {
                append_row_neighbors(
                    bins,
                    x,
                    nlocal,
                    kind,
                    cutsq,
                    skip_lower,
                    i,
                    &mut chunk.neigh,
                );
            }
            chunk.lens.push((chunk.neigh.len() - before) as u32);
        }
    });
    chunks
}

impl NeighborList {
    /// An empty placeholder list covering zero atoms (used before the
    /// first real build; any displacement check against it reports
    /// "moved" as soon as atoms exist).
    #[must_use]
    pub fn empty(kind: ListKind) -> Self {
        NeighborList {
            kind,
            offsets: vec![0],
            neigh: Vec::new(),
            cutoff_list: 0.0,
            x_at_build: Vec::new(),
        }
    }

    /// Build a list for the local atoms of `atoms`, binning local + ghost
    /// positions over the extended bounds `[lo, hi]`.
    ///
    /// `cutoff_force` is the potential cutoff; `skin` is the extra Verlet
    /// margin (Table 2: 0.3 for LJ, 1.0 for EAM).
    #[must_use]
    pub fn build(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_force: f64,
        skin: f64,
    ) -> Self {
        let cutoff_list = cutoff_force + skin;
        let cutsq = cutoff_list * cutoff_list;
        let mut bins = CellBins::new(lo, hi, cutoff_list);
        bins.fill(&atoms.x, atoms.nlocal);
        let skip_lower = bins.sorted_locals() && !matches!(kind, ListKind::Full);

        let nlocal = atoms.nlocal;
        let mut offsets = Vec::with_capacity(nlocal + 1);
        let mut neigh = Vec::new();
        offsets.push(0u32);

        for i in 0..nlocal {
            append_row_neighbors(
                &bins, &atoms.x, nlocal, kind, cutsq, skip_lower, i, &mut neigh,
            );
            offsets.push(neigh.len() as u32);
        }

        NeighborList {
            kind,
            offsets,
            neigh,
            cutoff_list,
            x_at_build: atoms.x[..nlocal].to_vec(),
        }
    }

    /// Chunk-parallel [`NeighborList::build`]: rows are split into
    /// fixed-size chunks fanned out over `exec`, and the per-chunk results
    /// stitched back in chunk order — the produced list is identical to
    /// the serial build at any thread count.
    #[must_use]
    pub fn build_chunked(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_force: f64,
        skin: f64,
        exec: &ChunkExec<'_>,
    ) -> Self {
        let cutoff_list = cutoff_force + skin;
        let chunks = build_rows(atoms, lo, hi, kind, cutoff_list, exec, |_| true);
        Self::stitch(&chunks, atoms.nlocal, kind, cutoff_list, &atoms.x)
    }

    /// Build only the *interior* rows of a split rebuild: rows flagged
    /// `true` in `interior`, binned over the local atoms alone. Boundary
    /// rows are present but empty.
    ///
    /// Intended to run while the Border halo exchange is still in flight,
    /// i.e. **before any ghosts exist** (`atoms.nghost() == 0`). The grid
    /// is the same `[lo, hi]` grid the full build uses, and with no ghosts
    /// the fill, the sorted-locals detection and every interior row's
    /// 27-bin scan see exactly the candidates the full build would show
    /// them: an interior row's ghost candidates all sit beyond the
    /// classification shell and would be distance-rejected anyway. The
    /// produced rows are therefore bit-identical to the same rows of
    /// [`NeighborList::build_chunked`] after the halo lands — provided the
    /// flags are sound (no interior atom within `cutoff_force + skin` of a
    /// sub-box face).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn build_interior(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_force: f64,
        skin: f64,
        interior: &[bool],
        exec: &ChunkExec<'_>,
    ) -> Self {
        debug_assert_eq!(atoms.nghost(), 0, "interior build runs pre-ghost");
        let cutoff_list = cutoff_force + skin;
        let chunks = build_rows(atoms, lo, hi, kind, cutoff_list, exec, |i| interior[i]);
        Self::stitch(&chunks, atoms.nlocal, kind, cutoff_list, &atoms.x)
    }

    /// Complete a split rebuild: build the rows flagged `false` in
    /// `interior` against the full (locals + ghosts) bins and merge them
    /// with the interior rows built by [`NeighborList::build_interior`].
    ///
    /// Runs after the Border halo has landed. Local positions must not
    /// have moved since the interior half (nothing between the two halves
    /// integrates), so the merged list is bit-identical to one
    /// [`NeighborList::build_chunked`] pass over the same state.
    #[must_use]
    pub fn build_boundary(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        interior_list: &NeighborList,
        interior: &[bool],
        exec: &ChunkExec<'_>,
    ) -> Self {
        let kind = interior_list.kind;
        let cutoff_list = interior_list.cutoff_list;
        let chunks = build_rows(atoms, lo, hi, kind, cutoff_list, exec, |i| !interior[i]);

        // Merge row-by-row: interior rows from the pre-ghost half,
        // boundary rows from this pass.
        let nlocal = atoms.nlocal;
        let mut offsets = Vec::with_capacity(nlocal + 1);
        offsets.push(0u32);
        let mut neigh = Vec::new();
        let mut cursors = vec![0usize; chunks.len()];
        for i in 0..nlocal {
            let c = i / CHUNK_ROWS;
            let len = chunks[c].lens[i - c * CHUNK_ROWS] as usize;
            if interior[i] {
                debug_assert_eq!(len, 0, "row {i} built on both sides");
                neigh.extend_from_slice(interior_list.neighbors(i));
            } else {
                let at = cursors[c];
                neigh.extend_from_slice(&chunks[c].neigh[at..at + len]);
            }
            cursors[c] += len;
            offsets.push(neigh.len() as u32);
        }

        NeighborList {
            kind,
            offsets,
            neigh,
            cutoff_list,
            x_at_build: atoms.x[..nlocal].to_vec(),
        }
    }

    /// Stitch per-chunk rows into a CSR list (chunk order = row order).
    fn stitch(
        chunks: &[RowChunk],
        nlocal: usize,
        kind: ListKind,
        cutoff_list: f64,
        x: &[[f64; 3]],
    ) -> Self {
        let mut offsets = Vec::with_capacity(nlocal + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for chunk in chunks {
            for &len in &chunk.lens {
                total += len;
                offsets.push(total);
            }
        }
        let mut neigh = Vec::with_capacity(total as usize);
        for chunk in chunks {
            neigh.extend_from_slice(&chunk.neigh);
        }
        NeighborList {
            kind,
            offsets,
            neigh,
            cutoff_list,
            x_at_build: x[..nlocal].to_vec(),
        }
    }

    /// Flag every row whose stored neighbors are all local (`j < nlocal`).
    /// These rows never read ghost state, so their force/density
    /// contributions can be computed while a halo exchange is in flight —
    /// the *exact* (list-content) form of the interior classification,
    /// a superset of the geometric cutoff+skin shell test.
    #[must_use]
    pub fn local_only_rows(&self) -> Vec<bool> {
        let nl = self.nlocal() as u32;
        (0..self.nlocal())
            .map(|i| self.neighbors(i).iter().all(|&j| j < nl))
            .collect()
    }

    /// Stored pairs in the selected row class of a `flags` partition.
    #[must_use]
    pub fn pairs_in(&self, flags: &[bool], select: bool) -> usize {
        (0..self.nlocal())
            .filter(|&i| flags[i] == select)
            .map(|i| self.neighbors(i).len())
            .sum()
    }

    /// Neighbors of local atom `i`.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let a = self.offsets[i] as usize;
        let b = self.offsets[i + 1] as usize;
        &self.neigh[a..b]
    }

    /// Number of local atoms the list covers.
    #[must_use]
    pub fn nlocal(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored pairs.
    #[must_use]
    pub fn npairs(&self) -> usize {
        self.neigh.len()
    }

    /// `check yes` policy (Table 2, EAM): true if any local atom has moved
    /// more than half the skin since the list was built. LAMMPS combines
    /// this flag across ranks with an allreduce — the caller is responsible
    /// for that reduction.
    #[must_use]
    pub fn any_moved_beyond_half_skin(&self, atoms: &Atoms, skin: f64) -> bool {
        let lim2 = (0.5 * skin) * (0.5 * skin);
        let n = self.x_at_build.len().min(atoms.nlocal);
        for i in 0..n {
            let mut d2 = 0.0;
            for d in 0..3 {
                let dd = atoms.x[i][d] - self.x_at_build[i][d];
                d2 += dd * dd;
            }
            if d2 > lim2 {
                return true;
            }
        }
        // Migration changes local counts; treat that as "moved".
        atoms.nlocal != self.x_at_build.len()
    }
}

/// When the neighbor list should be rebuilt — LAMMPS `neigh_modify`
/// (Table 2: LJ uses `every 20 check no`, EAM `every 5 check yes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildPolicy {
    /// Consider rebuilding every this many steps.
    pub every: u32,
    /// If true, only rebuild when some atom moved > skin/2 (requires a
    /// global allreduce of the per-rank flags); if false, always rebuild at
    /// the interval.
    pub check: bool,
}

impl RebuildPolicy {
    /// The LJ benchmark policy from Table 2.
    pub const LJ: RebuildPolicy = RebuildPolicy {
        every: 20,
        check: false,
    };
    /// The EAM benchmark policy from Table 2.
    pub const EAM: RebuildPolicy = RebuildPolicy {
        every: 5,
        check: true,
    };

    /// Is `step` an inspection step for this policy? (Step numbering is
    /// 1-based like LAMMPS's: the first rebuild opportunity after setup is
    /// at `step == every`.)
    #[must_use]
    pub fn is_check_step(&self, step: u64) -> bool {
        self.every > 0 && step.is_multiple_of(u64::from(self.every))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two atoms within cutoff, one far away; no ghosts.
    fn tiny() -> Atoms {
        Atoms::from_positions(vec![[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [8.0, 8.0, 8.0]], 1)
    }

    #[test]
    fn half_list_stores_each_pair_once() {
        let a = tiny();
        let l = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::HalfNewton, 1.5, 0.3);
        assert_eq!(l.neighbors(0), &[1]);
        assert!(l.neighbors(1).is_empty());
        assert!(l.neighbors(2).is_empty());
        assert_eq!(l.npairs(), 1);
    }

    #[test]
    fn full_list_stores_both_directions() {
        let a = tiny();
        let l = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, 1.5, 0.3);
        assert_eq!(l.neighbors(0), &[1]);
        assert_eq!(l.neighbors(1), &[0]);
        assert_eq!(l.npairs(), 2);
    }

    #[test]
    fn skin_extends_capture_radius() {
        let a = tiny(); // pair distance 1.0
        let no_skin = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, 0.9, 0.0);
        assert_eq!(no_skin.npairs(), 0);
        let with_skin = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, 0.9, 0.2);
        assert_eq!(with_skin.npairs(), 2);
    }

    #[test]
    fn ghost_pairs_use_coordinate_rule() {
        let mut a = Atoms::from_positions(vec![[1.0, 1.0, 1.0]], 1);
        // Ghost above in z: pair belongs to local atom.
        a.push_ghost([1.0, 1.0, 1.8], 1, 99);
        // Ghost below in z: pair belongs to the *other* rank's local atom.
        a.push_ghost([1.0, 1.0, 0.2], 1, 98);
        let l = NeighborList::build(&a, [0.0; 3], [3.0; 3], ListKind::HalfNewton, 1.0, 0.0);
        assert_eq!(l.neighbors(0), &[1]);
    }

    #[test]
    fn movement_check_triggers_at_half_skin() {
        let mut a = tiny();
        let l = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::HalfNewton, 1.5, 0.4);
        assert!(!l.any_moved_beyond_half_skin(&a, 0.4));
        a.x[0][0] += 0.19; // < skin/2 = 0.2
        assert!(!l.any_moved_beyond_half_skin(&a, 0.4));
        a.x[0][0] += 0.02; // now 0.21 > 0.2
        assert!(l.any_moved_beyond_half_skin(&a, 0.4));
    }

    #[test]
    fn one_sided_half_keeps_all_ghost_pairs() {
        let mut a = Atoms::from_positions(vec![[1.0, 1.0, 1.0]], 1);
        a.push_ghost([1.0, 1.0, 1.8], 1, 99); // "above" the local atom
        a.push_ghost([1.0, 1.0, 0.2], 1, 98); // "below" it
        let l = NeighborList::build(&a, [0.0; 3], [3.0; 3], ListKind::HalfOneSided, 1.0, 0.0);
        // Both ghost pairs belong to the local rank under one-sided shells.
        let mut n = l.neighbors(0).to_vec();
        n.sort_unstable();
        assert_eq!(n, vec![1, 2]);
    }

    #[test]
    fn rebuild_policies_match_table2() {
        assert_eq!(RebuildPolicy::LJ.every, 20);
        assert_eq!(RebuildPolicy::EAM.every, 5);
        let (lj, eam) = (RebuildPolicy::LJ, RebuildPolicy::EAM);
        assert!(!lj.check && eam.check);
        assert!(RebuildPolicy::LJ.is_check_step(20));
        assert!(!RebuildPolicy::LJ.is_check_step(21));
    }

    /// Split interior/boundary rebuild over a sub-box with a ghost shell
    /// must reproduce the one-pass chunked build bit-for-bit, sorted or
    /// not, for every list kind.
    #[test]
    fn split_build_matches_one_pass_build() {
        use crate::neighbor::sort_locals_by_bin;
        let (cut, skin) = (1.1, 0.3);
        let r = cut + skin;
        let (sub_lo, sub_hi) = ([0.0; 3], [6.0; 3]);
        let lo = [sub_lo[0] - r, sub_lo[1] - r, sub_lo[2] - r];
        let hi = [sub_hi[0] + r, sub_hi[1] + r, sub_hi[2] + r];
        // Deterministic jittered grid of locals inside the sub-box.
        let mut pos = Vec::new();
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for gz in 0..7 {
            for gy in 0..7 {
                for gx in 0..7 {
                    pos.push([
                        0.3 + 0.8 * f64::from(gx) + 0.2 * rnd(),
                        0.3 + 0.8 * f64::from(gy) + 0.2 * rnd(),
                        0.3 + 0.8 * f64::from(gz) + 0.2 * rnd(),
                    ]);
                }
            }
        }
        for sorted in [false, true] {
            for kind in [ListKind::HalfNewton, ListKind::HalfOneSided, ListKind::Full] {
                let mut bare = Atoms::from_positions(pos.clone(), 1);
                if sorted {
                    sort_locals_by_bin(&mut bare, lo, hi, r);
                }
                // Geometric interior flags against the cutoff+skin shell.
                let flags: Vec<bool> = (0..bare.nlocal)
                    .map(|i| {
                        (0..3).all(|d| bare.x[i][d] > sub_lo[d] + r && bare.x[i][d] < sub_hi[d] - r)
                    })
                    .collect();
                assert!(flags.iter().any(|&f| f), "test needs interior rows");
                assert!(flags.iter().any(|&f| !f), "test needs boundary rows");
                // Interior half runs pre-ghost.
                let int = NeighborList::build_interior(
                    &bare,
                    lo,
                    hi,
                    kind,
                    cut,
                    skin,
                    &flags,
                    &ChunkExec::Serial,
                );
                // The halo lands: ghosts in the shell just outside.
                let mut full = bare.clone();
                for (k, tag) in (0..160).zip(10_000u64..) {
                    let face = k % 6;
                    let off = 0.2 + 1.0 * rnd();
                    let mut g = [1.0 + 4.0 * rnd(), 1.0 + 4.0 * rnd(), 1.0 + 4.0 * rnd()];
                    if face < 3 {
                        g[face] = sub_lo[face] - off;
                    } else {
                        g[face - 3] = sub_hi[face - 3] + off;
                    }
                    full.push_ghost(g, 1, tag);
                }
                let split =
                    NeighborList::build_boundary(&full, lo, hi, &int, &flags, &ChunkExec::Serial);
                // The one-pass build is the reference; 343 rows span two
                // chunks, so the chunked build's stitching is checked too.
                let one = NeighborList::build(&full, lo, hi, kind, cut, skin);
                let chunked =
                    NeighborList::build_chunked(&full, lo, hi, kind, cut, skin, &ChunkExec::Serial);
                assert!(one.nlocal() > CHUNK_ROWS, "test needs several chunks");
                assert_eq!(split.npairs(), one.npairs(), "{kind:?} sorted={sorted}");
                assert_eq!(chunked.npairs(), one.npairs(), "{kind:?} sorted={sorted}");
                for i in 0..one.nlocal() {
                    assert_eq!(
                        split.neighbors(i),
                        one.neighbors(i),
                        "row {i} {kind:?} sorted={sorted}"
                    );
                    assert_eq!(
                        chunked.neighbors(i),
                        one.neighbors(i),
                        "chunked row {i} {kind:?} sorted={sorted}"
                    );
                }
                // Interior rows of a sound partition contain no ghosts.
                let lor = one.local_only_rows();
                for (i, &f) in flags.iter().enumerate() {
                    if f {
                        assert!(lor[i], "geometric interior row {i} saw a ghost");
                    }
                }
                assert_eq!(
                    one.pairs_in(&flags, true) + one.pairs_in(&flags, false),
                    one.npairs()
                );
            }
        }
    }

    #[test]
    fn ordering_rule_is_antisymmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.0, 3.0];
        assert!(ghost_pair_belongs_to_i(&a, &b) ^ ghost_pair_belongs_to_i(&b, &a));
    }
}
