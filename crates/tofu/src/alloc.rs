//! Job allocation: Fugaku's scheduler hands out nodes in "shelf" units
//! (2 x 3 x 8 nodes = 4 cells, §4.3.1) shaped as rectangular meshes, and
//! `mpi-extend` lets ranks query their physical coordinates (§3.5.3).

use crate::topology::{CellGrid, CELL_DIMS};

/// Nodes per shelf: 2 x 3 x 8 = 48.
pub const SHELF_NODES: usize = 48;

/// A validated job allocation: a rectangular node mesh on the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobAllocation {
    /// The cell grid backing the allocation.
    pub grid: CellGrid,
}

/// Reasons an allocation request is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Mesh dims not divisible by the cell dims (2, 3, 2).
    NotFoldable([u32; 3]),
    /// Node count not a whole number of shelves.
    NotShelfMultiple(usize),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NotFoldable(m) => {
                write!(
                    f,
                    "node mesh {m:?} does not fold onto cells of {CELL_DIMS:?}"
                )
            }
            AllocError::NotShelfMultiple(n) => {
                write!(
                    f,
                    "{n} nodes is not a multiple of the {SHELF_NODES}-node shelf"
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

impl JobAllocation {
    /// Request a node mesh, validating Fugaku's constraints.
    pub fn request(mesh: [u32; 3]) -> Result<Self, AllocError> {
        let grid = CellGrid::from_node_mesh(mesh).ok_or(AllocError::NotFoldable(mesh))?;
        let n = grid.node_count();
        if n % SHELF_NODES != 0 {
            return Err(AllocError::NotShelfMultiple(n));
        }
        Ok(JobAllocation { grid })
    }

    /// Total allocated nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.grid.node_count()
    }

    /// Physical mesh coordinate of a node id — what a rank obtains through
    /// `mpi-extend` to compute its sub-box under the topo-map optimization.
    #[must_use]
    pub fn physical_coords(&self, node_id: usize) -> [u32; 3] {
        self.grid.mesh_of_id(node_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PAPER_NODE_MESHES;

    #[test]
    fn paper_allocations_are_accepted() {
        for (nodes, mesh) in PAPER_NODE_MESHES {
            let a = JobAllocation::request(mesh)
                .unwrap_or_else(|e| panic!("paper mesh {mesh:?} rejected: {e}"));
            assert_eq!(a.node_count(), nodes);
        }
    }

    #[test]
    fn unfoldable_mesh_rejected() {
        assert_eq!(
            JobAllocation::request([8, 13, 8]),
            Err(AllocError::NotFoldable([8, 13, 8]))
        );
    }

    #[test]
    fn non_shelf_multiple_rejected() {
        // 2 x 3 x 2 = 12 nodes folds (one cell) but is less than a shelf.
        assert_eq!(
            JobAllocation::request([2, 3, 2]),
            Err(AllocError::NotShelfMultiple(12))
        );
    }

    #[test]
    fn physical_coords_cover_mesh() {
        let a = JobAllocation::request([8, 12, 8]).unwrap();
        let seen: std::collections::HashSet<_> =
            (0..a.node_count()).map(|i| a.physical_coords(i)).collect();
        assert_eq!(seen.len(), 768, "coordinates must be unique");
    }

    #[test]
    fn error_messages_render() {
        let e1 = AllocError::NotFoldable([1, 1, 1]).to_string();
        assert!(e1.contains("does not fold"));
        let e2 = AllocError::NotShelfMultiple(12).to_string();
        assert!(e2.contains("48"));
    }
}
