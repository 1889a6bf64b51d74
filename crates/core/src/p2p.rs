//! Shared bookkeeping for the peer-to-peer ghost pattern (§3.1, Fig. 5).
//!
//! Pure pack/unpack and layout logic, transport-agnostic: the MPI and
//! uTofu engines both drive a [`P2pGhosts`] and differ only in how the
//! payload bytes travel and what the transfer costs.
//!
//! Index discipline: `CommGraph::recv[i]` and `CommGraph::send[i]` mirror
//! each other, and every edge carries the `peer_index` of its mirror on
//! the other side — messages are tagged with the receiver's edge index,
//! which also disambiguates small periodic grids (and irregular graphs)
//! where one rank is a neighbor along several edges.

use crate::engine::{GhostLayout, RankState};
use crate::sf::SendSelector;
use crate::wire;

/// Send lists and ghost layout for the p2p pattern.
#[derive(Debug, Clone, Default)]
pub struct P2pGhosts {
    /// One slot per edge `k`: `send_lists[k]` holds my local atoms
    /// `send[k]`'s peer needs, `ghost_seg[k]` the ghosts `recv[k]`
    /// delivered.
    pub layout: GhostLayout,
}

impl P2pGhosts {
    /// Build send lists from the graph's selector and produce the border
    /// payloads (tag + shifted position per atom), one per send edge.
    pub fn pack_border(&mut self, st: &RankState, sel: &SendSelector) -> Vec<Vec<f64>> {
        let n_links = st.graph.send.len();
        let send_lists = &mut self.layout.send_lists;
        *send_lists = vec![Vec::new(); n_links];
        let mut payloads = vec![Vec::new(); n_links];
        for i in 0..st.atoms.nlocal {
            let x = st.atoms.x[i];
            sel.for_each_target(&x, |k| {
                let k = k as usize;
                let link = &st.graph.send[k];
                send_lists[k].push(i as u32);
                wire::push_border_record(
                    &mut payloads[k],
                    st.atoms.tag[i],
                    st.atoms.typ[i],
                    [
                        x[0] + link.shift[0],
                        x[1] + link.shift[1],
                        x[2] + link.shift[2],
                    ],
                );
            });
        }
        payloads
    }

    /// Append received border records as ghosts. `per_link[k]` is the
    /// payload from `recv[k]` (empty if that neighbor sent nothing).
    /// Ghosts are laid out in link order — deterministic across runs.
    pub fn unpack_border(&mut self, st: &mut RankState, per_link: &[Vec<f64>]) {
        st.atoms.clear_ghosts();
        let ghost_seg = &mut self.layout.ghost_seg;
        *ghost_seg = Vec::with_capacity(per_link.len());
        for payload in per_link {
            let start = st.atoms.ntotal();
            let records = wire::parse_border_records(payload);
            for (tag, typ, x) in &records {
                st.atoms.push_ghost(*x, *typ, *tag);
            }
            ghost_seg.push((start, records.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Op;
    use crate::plan::{CommPlan, PlanConfig};
    use crate::sf::CommGraph;
    use crate::topo_map::{Placement, RankMap};
    use tofumd_md::atom::Atoms;
    use tofumd_md::region::Box3;
    use tofumd_tofu::CellGrid;

    /// Pack edge `k`'s payload for `op` the way the engines do: the
    /// periodic shift of the edge the payload leaves along.
    fn pack(g: &P2pGhosts, op: Op, st: &RankState, k: usize) -> Vec<f64> {
        let mut out = Vec::new();
        let shift = st.graph.out_edges(op)[k].shift;
        g.layout.pack_into(op, st, k, shift, &mut out);
        assert_eq!(out.len(), g.layout.f64s(op, k));
        out
    }

    /// Build a single-rank state with a 10^3 sub-box at the grid origin.
    fn state_with_atoms(pos: Vec<[f64; 3]>) -> (RankState, SendSelector) {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let plan = CommPlan::build(0, &map, &global, 2.0, PlanConfig::NEWTON);
        let graph = CommGraph::from_grid(plan);
        let sel = graph.selector();
        (RankState::new(Atoms::from_positions(pos, 1), graph), sel)
    }

    #[test]
    fn interior_atoms_are_not_packed() {
        let (st, sel) = state_with_atoms(vec![[5.0, 5.0, 5.0]]);
        let mut g = P2pGhosts::default();
        let payloads = g.pack_border(&st, &sel);
        assert!(payloads.iter().all(Vec::is_empty));
        assert!(g.layout.send_lists.iter().all(Vec::is_empty));
    }

    #[test]
    fn border_atom_packed_toward_matching_links() {
        // Atom near the low-x low-y low-z corner: goes to every send link
        // whose offset has non-positive components matching those faces.
        let (st, sel) = state_with_atoms(vec![[0.5, 0.5, 0.5]]);
        let mut g = P2pGhosts::default();
        let payloads = g.pack_border(&st, &sel);
        let sent: usize = payloads.iter().filter(|p| !p.is_empty()).count();
        // send_to = lower-half offsets; the --- corner matches 7 of 13.
        assert_eq!(sent, 7);
        // Each payload is one full record.
        for p in payloads.iter().filter(|p| !p.is_empty()) {
            assert_eq!(p.len(), wire::BORDER_RECORD_F64S);
        }
    }

    #[test]
    fn forward_reverse_roundtrip_between_two_states() {
        // Rank A (grid 0,0,0) border-packs toward its -x neighbor; simulate
        // the neighbor side with a second state and check force return.
        let (mut a, sel) = state_with_atoms(vec![[0.5, 5.0, 5.0]]);
        let mut ga = P2pGhosts::default();
        let payloads = ga.pack_border(&a, &sel);
        // Find the link with offset (-1, 0, 0).
        let k = a
            .graph
            .send
            .iter()
            .position(|l| l.offset.d == [-1, 0, 0])
            .unwrap();
        assert_eq!(payloads[k].len(), 4);

        // Neighbor state B receives the border payload on its recv side
        // (same link index by construction).
        let (mut b, _) = state_with_atoms(vec![[9.5, 5.0, 5.0]]);
        let n_links = b.graph.recv.len();
        let mut per_link = vec![Vec::new(); n_links];
        per_link[k] = payloads[k].clone();
        let mut gb = P2pGhosts::default();
        gb.unpack_border(&mut b, &per_link);
        assert_eq!(b.atoms.nghost(), 1);
        // The ghost carries A's tag and the PBC-shifted position.
        assert_eq!(b.atoms.tag[b.atoms.nlocal], 1);

        // Forward: A moves its atom, repacks, B sees the new position.
        a.atoms.x[0] = [0.25, 5.5, 5.0];
        let fwd = pack(&ga, Op::Forward, &a, k);
        gb.layout.unpack(Op::Forward, &mut b, k, &fwd);
        let g_idx = b.atoms.nlocal;
        let shift = a.graph.send[k].shift;
        assert!((b.atoms.x[g_idx][0] - (0.25 + shift[0])).abs() < 1e-12);
        assert!((b.atoms.x[g_idx][1] - 5.5).abs() < 1e-12);

        // Reverse: B accumulates force on the ghost; A folds it back.
        b.atoms.f[g_idx] = [1.0, -2.0, 0.5];
        let rev = pack(&gb, Op::Reverse, &b, k);
        a.atoms.f[0] = [0.1, 0.0, 0.0];
        ga.layout.unpack(Op::Reverse, &mut a, k, &rev);
        assert!((a.atoms.f[0][0] - 1.1).abs() < 1e-12);
        assert!((a.atoms.f[0][1] - -2.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_roundtrip() {
        let (mut a, sel) = state_with_atoms(vec![[0.5, 5.0, 5.0]]);
        let mut ga = P2pGhosts::default();
        let payloads = ga.pack_border(&a, &sel);
        let k = a
            .graph
            .send
            .iter()
            .position(|l| l.offset.d == [-1, 0, 0])
            .unwrap();
        let (mut b, _) = state_with_atoms(vec![[9.5, 5.0, 5.0]]);
        let mut per_link = vec![Vec::new(); b.graph.recv.len()];
        per_link[k] = payloads[k].clone();
        let mut gb = P2pGhosts::default();
        gb.unpack_border(&mut b, &per_link);

        // Forward scalar: A's fp reaches B's ghost slot.
        a.scalar = vec![7.5]; // one local atom
        let fs = pack(&ga, Op::ForwardScalar, &a, k);
        b.scalar = vec![0.0; b.atoms.ntotal()];
        gb.layout.unpack(Op::ForwardScalar, &mut b, k, &fs);
        assert_eq!(b.scalar[b.atoms.nlocal], 7.5);

        // Reverse scalar: B's ghost rho folds into A's local rho.
        b.scalar[b.atoms.nlocal] = 1.25;
        let rs = pack(&gb, Op::ReverseScalar, &b, k);
        a.scalar = vec![1.0];
        ga.layout.unpack(Op::ReverseScalar, &mut a, k, &rs);
        assert!((a.scalar[0] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn ghost_layout_is_deterministic() {
        let (mut st, _) = state_with_atoms(vec![[5.0; 3]]);
        let mut g = P2pGhosts::default();
        let mut per_link = vec![Vec::new(); st.graph.recv.len()];
        let mut p0 = Vec::new();
        wire::push_border_record(&mut p0, 11, 1, [1.0; 3]);
        wire::push_border_record(&mut p0, 12, 1, [2.0; 3]);
        per_link[0] = p0;
        let mut p2 = Vec::new();
        wire::push_border_record(&mut p2, 13, 1, [3.0; 3]);
        per_link[2] = p2;
        g.unpack_border(&mut st, &per_link);
        assert_eq!(g.layout.ghost_seg[0], (1, 2));
        assert_eq!(g.layout.ghost_seg[1], (3, 0));
        assert_eq!(g.layout.ghost_seg[2], (3, 1));
        assert_eq!(st.atoms.nghost(), 3);
    }
}
