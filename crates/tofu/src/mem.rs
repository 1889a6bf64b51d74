//! Registered-memory ("STADD") management.
//!
//! uTofu one-sided communication requires send and receive buffers to be
//! registered before use; registration pins pages and transitions into the
//! kernel, which §3.4 identifies as a significant overhead worth paying
//! only once. The simulator reproduces both halves: registration returns a
//! handle *and* a modeled cost, and puts/gets may only touch registered
//! regions — exactly the constraint that forces the paper's pre-registered
//! max-size buffer design.

use crate::timing::NetParams;

/// A registered-region handle (the uTofu "STADD", a network-visible
/// address). Valid only on the node that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stadd(pub u32);

/// Per-node registry of RDMA-visible memory regions.
#[derive(Debug, Default)]
pub struct MemRegistry {
    regions: Vec<Vec<u8>>,
    /// Total modeled time spent registering (what §3.4 minimizes).
    pub total_reg_cost: f64,
    /// Number of registration calls performed.
    pub reg_calls: u64,
}

impl MemRegistry {
    /// Register a zero-initialized region of `len` bytes. Returns the handle
    /// and the modeled registration cost (also accumulated internally).
    pub fn register(&mut self, len: usize, params: &NetParams) -> (Stadd, f64) {
        let cost = params.registration_cost(len);
        self.total_reg_cost += cost;
        self.reg_calls += 1;
        self.regions.push(vec![0u8; len]);
        (Stadd(self.regions.len() as u32 - 1), cost)
    }

    /// Grow an existing region (LAMMPS's dynamic buffer expansion — the
    /// behaviour the pre-registration optimization avoids). Re-registration
    /// cost is charged for the whole new size.
    pub fn grow(&mut self, stadd: Stadd, new_len: usize, params: &NetParams) -> f64 {
        let region = &mut self.regions[stadd.0 as usize];
        if new_len <= region.len() {
            return 0.0;
        }
        region.resize(new_len, 0);
        let cost = params.registration_cost(new_len);
        self.total_reg_cost += cost;
        self.reg_calls += 1;
        cost
    }

    /// Region length.
    #[must_use]
    pub fn len(&self, stadd: Stadd) -> usize {
        self.regions[stadd.0 as usize].len()
    }

    /// True if no regions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Write bytes into a region. Panics on out-of-bounds — an RDMA put
    /// outside a registered region is a hard fault on real hardware too.
    pub fn write(&mut self, stadd: Stadd, offset: usize, data: &[u8]) {
        let region = &mut self.regions[stadd.0 as usize];
        assert!(
            offset + data.len() <= region.len(),
            "RDMA write beyond registered region: {} + {} > {}",
            offset,
            data.len(),
            region.len()
        );
        region[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Hand a region's bytes to `f` for in-place serialization — the
    /// zero-copy wire path packs frames directly here instead of staging
    /// them in a `Vec` first. Panics if `offset + len` overruns the
    /// region, like [`MemRegistry::write`].
    pub fn write_with<R>(
        &mut self,
        stadd: Stadd,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        let region = &mut self.regions[stadd.0 as usize];
        assert!(
            offset + len <= region.len(),
            "RDMA write beyond registered region: {} + {} > {}",
            offset,
            len,
            region.len()
        );
        f(&mut region[offset..offset + len])
    }

    /// Read a slice of a region.
    #[must_use]
    pub fn read(&self, stadd: Stadd, offset: usize, len: usize) -> &[u8] {
        let region = &self.regions[stadd.0 as usize];
        assert!(
            offset + len <= region.len(),
            "RDMA read beyond registered region"
        );
        &region[offset..offset + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_rw_roundtrip() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, cost) = m.register(64, &p);
        assert!(cost > 0.0);
        m.write(s, 8, &[1, 2, 3]);
        assert_eq!(m.read(s, 8, 3), &[1, 2, 3]);
        assert_eq!(m.read(s, 0, 1), &[0]);
    }

    #[test]
    fn multiple_regions_are_independent() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (a, _) = m.register(16, &p);
        let (b, _) = m.register(16, &p);
        m.write(a, 0, &[7; 4]);
        assert_eq!(m.read(b, 0, 4), &[0; 4]);
        assert_eq!(m.reg_calls, 2);
    }

    #[test]
    fn write_with_serializes_in_place() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, _) = m.register(32, &p);
        let n = m.write_with(s, 4, 8, |buf| {
            buf.copy_from_slice(&[9u8; 8]);
            buf.len()
        });
        assert_eq!(n, 8);
        assert_eq!(m.read(s, 4, 8), &[9; 8]);
        assert_eq!(m.read(s, 0, 4), &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "beyond registered region")]
    fn out_of_bounds_write_faults() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, _) = m.register(8, &p);
        m.write(s, 6, &[0; 4]);
    }

    #[test]
    fn grow_charges_re_registration() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, c0) = m.register(4096, &p);
        let before = m.total_reg_cost;
        let c1 = m.grow(s, 8192, &p);
        assert!(c1 > c0, "re-registration of a larger buffer costs more");
        assert_eq!(m.total_reg_cost, before + c1);
        assert_eq!(m.len(s), 8192);
        // Growing to a smaller/equal size is free.
        assert_eq!(m.grow(s, 100, &p), 0.0);
    }
}
