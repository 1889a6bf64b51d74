//! Structure-of-arrays atom storage.
//!
//! Mirrors LAMMPS's layout: positions/velocities/forces of *local* atoms
//! first, followed by *ghost* atoms received from neighboring ranks
//! (or periodic images in serial runs). The pre-registered-address
//! optimization of §3.4 depends on this contiguity: forward-stage RDMA puts
//! write directly into the ghost tail of the remote position array.

use crate::wirefmt;

/// SoA storage for one rank's (or the serial engine's) atoms.
#[derive(Debug, Clone, Default)]
pub struct Atoms {
    /// Positions, `nlocal` local atoms followed by ghosts.
    pub x: Vec<[f64; 3]>,
    /// Velocities (local atoms only are meaningful; ghost tail is unused).
    pub v: Vec<[f64; 3]>,
    /// Forces, local followed by ghosts (ghost forces are folded back to
    /// their owners by the reverse stage when Newton's 3rd law is on).
    pub f: Vec<[f64; 3]>,
    /// Atom type (1-based as in LAMMPS; single-type systems use 1).
    pub typ: Vec<u32>,
    /// Globally unique atom ids, stable across migration.
    pub tag: Vec<u64>,
    /// Number of local (owned) atoms; `x.len() - nlocal` are ghosts.
    pub nlocal: usize,
}

impl Atoms {
    /// Create storage holding `nlocal` owned atoms with zero velocity/force.
    #[must_use]
    pub fn from_positions(x: Vec<[f64; 3]>, first_tag: u64) -> Self {
        let n = x.len();
        Atoms {
            x,
            v: vec![[0.0; 3]; n],
            f: vec![[0.0; 3]; n],
            typ: vec![1; n],
            tag: (first_tag..first_tag + n as u64).collect(),
            nlocal: n,
        }
    }

    /// Number of ghost atoms currently appended.
    #[must_use]
    pub fn nghost(&self) -> usize {
        self.x.len() - self.nlocal
    }

    /// Total stored atoms (local + ghost).
    #[must_use]
    pub fn ntotal(&self) -> usize {
        self.x.len()
    }

    /// Drop all ghost atoms, keeping only the owned ones.
    pub fn clear_ghosts(&mut self) {
        self.x.truncate(self.nlocal);
        self.v.truncate(self.nlocal);
        self.f.truncate(self.nlocal);
        self.typ.truncate(self.nlocal);
        self.tag.truncate(self.nlocal);
    }

    /// Append one ghost atom; returns its index.
    pub fn push_ghost(&mut self, x: [f64; 3], typ: u32, tag: u64) -> usize {
        self.x.push(x);
        self.v.push([0.0; 3]);
        self.f.push([0.0; 3]);
        self.typ.push(typ);
        self.tag.push(tag);
        self.x.len() - 1
    }

    /// Append one owned atom (used by the exchange stage when an atom
    /// migrates in from a neighboring rank). Must be called only when no
    /// ghosts are present.
    pub fn push_local(&mut self, x: [f64; 3], v: [f64; 3], typ: u32, tag: u64) {
        assert_eq!(
            self.nghost(),
            0,
            "cannot insert local atoms while ghosts are present"
        );
        self.x.push(x);
        self.v.push(v);
        self.f.push([0.0; 3]);
        self.typ.push(typ);
        self.tag.push(tag);
        self.nlocal += 1;
    }

    /// Remove local atom `i` by swapping in the last local atom (O(1),
    /// order-destroying — fine because neighbor lists are rebuilt after
    /// every exchange). Must be called only when no ghosts are present.
    pub fn swap_remove_local(&mut self, i: usize) {
        assert_eq!(
            self.nghost(),
            0,
            "cannot remove locals while ghosts present"
        );
        assert!(i < self.nlocal);
        self.x.swap_remove(i);
        self.v.swap_remove(i);
        self.f.swap_remove(i);
        self.typ.swap_remove(i);
        self.tag.swap_remove(i);
        self.nlocal -= 1;
    }

    /// Permute the local atoms so that new slot `k` holds the atom
    /// previously at `perm[k]` (all per-atom arrays move together; tags
    /// travel with their atoms, so identity is preserved). Must be called
    /// only when no ghosts are present — ghost indices into the old order
    /// would dangle.
    pub fn reorder_locals(&mut self, perm: &[u32]) {
        assert_eq!(
            self.nghost(),
            0,
            "cannot reorder locals while ghosts present"
        );
        assert_eq!(perm.len(), self.nlocal);
        fn apply<T: Copy>(src: &[T], perm: &[u32]) -> Vec<T> {
            perm.iter().map(|&p| src[p as usize]).collect()
        }
        self.x = apply(&self.x, perm);
        self.v = apply(&self.v, perm);
        self.f = apply(&self.f, perm);
        self.typ = apply(&self.typ, perm);
        self.tag = apply(&self.tag, perm);
    }

    /// Zero all force entries (local and ghost).
    pub fn zero_forces(&mut self) {
        for f in &mut self.f {
            *f = [0.0; 3];
        }
    }

    /// Append the *local* atoms (positions, velocities, types, tags) to a
    /// checkpoint payload in the [`crate::wirefmt`] format. Ghosts and
    /// forces are deliberately omitted: both are pure functions of the
    /// local state and are regenerated by the border/rebuild/pair replay
    /// after a restore, so storing them would only widen the corruption
    /// surface.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        wirefmt::put_usize(out, self.nlocal);
        for i in 0..self.nlocal {
            wirefmt::put_f64x3(out, &self.x[i]);
            wirefmt::put_f64x3(out, &self.v[i]);
            wirefmt::put_u32(out, self.typ[i]);
            wirefmt::put_u64(out, self.tag[i]);
        }
    }

    /// Decode atoms written by [`Atoms::wire_encode`]: `nlocal` owned
    /// atoms, zero ghosts, zero forces.
    pub fn wire_decode(r: &mut wirefmt::WireReader<'_>) -> Result<Self, wirefmt::WireError> {
        let nlocal = r.usize_(true)?;
        let mut a = Atoms {
            x: Vec::with_capacity(nlocal),
            v: Vec::with_capacity(nlocal),
            f: Vec::new(),
            typ: Vec::with_capacity(nlocal),
            tag: Vec::with_capacity(nlocal),
            nlocal,
        };
        for _ in 0..nlocal {
            a.x.push(r.f64x3()?);
            a.v.push(r.f64x3()?);
            a.typ.push(r.u32_()?);
            a.tag.push(r.u64_()?);
        }
        a.f = vec![[0.0; 3]; nlocal];
        Ok(a)
    }

    /// Internal consistency check used by debug assertions and tests.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let n = self.x.len();
        self.v.len() == n
            && self.f.len() == n
            && self.typ.len() == n
            && self.tag.len() == n
            && self.nlocal <= n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_atoms() -> Atoms {
        Atoms::from_positions(vec![[0.0; 3], [1.0; 3], [2.0; 3]], 1)
    }

    #[test]
    fn from_positions_sets_tags_and_counts() {
        let a = three_atoms();
        assert_eq!(a.nlocal, 3);
        assert_eq!(a.nghost(), 0);
        assert_eq!(a.tag, vec![1, 2, 3]);
        assert!(a.is_consistent());
    }

    #[test]
    fn ghost_lifecycle() {
        let mut a = three_atoms();
        let g = a.push_ghost([9.0; 3], 1, 2);
        assert_eq!(g, 3);
        assert_eq!(a.nghost(), 1);
        assert_eq!(a.ntotal(), 4);
        a.clear_ghosts();
        assert_eq!(a.nghost(), 0);
        assert!(a.is_consistent());
    }

    #[test]
    fn swap_remove_keeps_consistency() {
        let mut a = three_atoms();
        a.swap_remove_local(0);
        assert_eq!(a.nlocal, 2);
        // Atom formerly last (tag 3) moved into slot 0.
        assert_eq!(a.tag[0], 3);
        assert!(a.is_consistent());
    }

    #[test]
    #[should_panic(expected = "ghosts are present")]
    fn push_local_with_ghosts_panics() {
        let mut a = three_atoms();
        a.push_ghost([9.0; 3], 1, 7);
        a.push_local([0.5; 3], [0.0; 3], 1, 99);
    }

    #[test]
    fn reorder_moves_all_arrays_together() {
        let mut a = three_atoms();
        a.v[2] = [9.0; 3];
        a.reorder_locals(&[2, 0, 1]);
        assert_eq!(a.tag, vec![3, 1, 2]);
        assert_eq!(a.x[0], [2.0; 3]);
        assert_eq!(a.v[0], [9.0; 3]);
        assert!(a.is_consistent());
    }

    #[test]
    #[should_panic(expected = "ghosts present")]
    fn reorder_with_ghosts_panics() {
        let mut a = three_atoms();
        a.push_ghost([9.0; 3], 1, 7);
        a.reorder_locals(&[0, 1, 2]);
    }

    #[test]
    fn wire_round_trip_keeps_locals_and_drops_ghosts() {
        let mut a = three_atoms();
        a.v[1] = [0.5, -0.25, 8.0];
        a.typ[2] = 3;
        a.push_ghost([9.0; 3], 1, 77);
        let mut bytes = Vec::new();
        a.wire_encode(&mut bytes);
        let mut r = wirefmt::WireReader::new(&bytes);
        let b = Atoms::wire_decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.nlocal, 3);
        assert_eq!(b.nghost(), 0);
        assert_eq!(b.x[..3], a.x[..3]);
        assert_eq!(b.v[1], [0.5, -0.25, 8.0]);
        assert_eq!(b.typ, vec![1, 1, 3]);
        assert_eq!(b.tag, vec![1, 2, 3]);
        assert_eq!(b.f, vec![[0.0; 3]; 3]);
        assert!(b.is_consistent());
        // Truncated payloads are typed errors, never panics.
        let mut r = wirefmt::WireReader::new(&bytes[..bytes.len() - 1]);
        assert!(Atoms::wire_decode(&mut r).is_err());
    }

    #[test]
    fn zero_forces_clears_everything() {
        let mut a = three_atoms();
        a.f[1] = [3.0, 4.0, 5.0];
        a.zero_forces();
        assert_eq!(a.f[1], [0.0; 3]);
    }
}
