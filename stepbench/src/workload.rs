//! The benchmark's workloads and the deterministic numbers each run
//! must reproduce.

use tofumd_core::engine::OpStats;
use tofumd_md::region::Box3;
use tofumd_md::{Atoms, SerialSim};
use tofumd_runtime::config::{CommTuning, Decomp};
use tofumd_runtime::{Cluster, CommVariant, RunConfig};

/// 48 ranks on the smallest foldable TofuD mesh.
pub const MESH: [u32; 3] = [2, 3, 2];

/// Steps every cluster runs before timing starts: the first list build
/// and the engines' buffer registration.
pub const SETUP_STEPS: u64 = 2;

/// One named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 6,916 LJ atoms on `parallel-p2p` over a grid: the strong-scaling
    /// limit, about 144 atoms per rank. Light kernels, so the comm layer
    /// and the driver dominate the host wall time.
    LjStrong,
    /// 37,536 EAM atoms on `parallel-p2p`: the three EAM kernel passes
    /// dominate, and the mid-pair scalar ops move scalars, not positions.
    /// Runnable by name but not listed in `BENCHMARK.json`: its run-level
    /// wall-time medians drift with a shared host's memory traffic by
    /// more than the benchmark's bounds allow.
    EamBulk,
    /// 3,735 SW atoms on `mpi-p2p` with RCB, a density ramp, dynamic
    /// rebalancing and in-memory checkpoints every 20 steps: migration,
    /// checkpoint serialisation, irregular graphs and a three-body list.
    SwRebalance,
}

impl Workload {
    /// Every workload: those `BENCHMARK.json` lists, in its order, with
    /// `EamBulk` between them.
    pub const ALL: [Workload; 3] = [Workload::LjStrong, Workload::EamBulk, Workload::SwRebalance];

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LjStrong => "lj_strong",
            Workload::EamBulk => "eam_bulk",
            Workload::SwRebalance => "sw_rebalance",
        }
    }

    /// The run configuration; `seed` drives the initial velocities.
    /// Kernel and plan modes stay at the program's defaults, so a later
    /// change of default shows up here.
    pub fn config(self, seed: u64) -> RunConfig {
        let cfg = match self {
            Workload::LjStrong => RunConfig::lj(6_000),
            Workload::EamBulk => RunConfig::eam(32_000),
            Workload::SwRebalance => RunConfig {
                comm: CommTuning {
                    decomp: Decomp::Rcb,
                    density_gradient: 0.8,
                    balance_thresh: Some(1.05),
                    rebalance_every: Some(20),
                    ..CommTuning::default()
                },
                ..RunConfig::sw(4_000)
            },
        };
        RunConfig { seed, ..cfg }
    }

    /// The communication design the workload runs on.
    pub fn variant(self) -> CommVariant {
        match self {
            Workload::LjStrong | Workload::EamBulk => CommVariant::Opt,
            Workload::SwRebalance => CommVariant::MpiP2p,
        }
    }

    /// Build the workload's cluster, driven by `threads` host threads.
    pub fn build(self, seed: u64, threads: usize) -> Cluster {
        let mut c = Cluster::new(MESH, self.config(seed), self.variant());
        c.set_driver_threads(threads);
        if self == Workload::SwRebalance {
            c.set_checkpoint_every(20);
        }
        c
    }

    /// Steps after setup over which the exact (deterministic) metrics are
    /// taken. Each window holds several reneighbor steps. Which steps
    /// reneighbor depends on the seed, and on EAM that moves the modeled
    /// comm mean by up to ~20 % over 20 steps and ~4 % over 100.
    pub fn exact_window(self) -> u64 {
        match self {
            Workload::LjStrong => 60,
            Workload::EamBulk => 100,
            Workload::SwRebalance => 60,
        }
    }

    /// Absolute step at which the cluster's energy is compared with its
    /// serial twin. LJ and EAM agree to about 12 digits far beyond these
    /// horizons; SW's three-body round-off grows over time (relative
    /// error ~4e-10 at step 200, ~5e-5 at step 400), so its horizon stays
    /// where the tolerance below still separates round-off from a bug.
    pub fn twin_horizon(self) -> u64 {
        match self {
            Workload::LjStrong => 200,
            Workload::EamBulk => 30,
            Workload::SwRebalance => 100,
        }
    }
}

/// Largest relative total-energy difference from the serial twin that
/// counts as round-off rather than a physics divergence.
pub const TWIN_TOLERANCE: f64 = 1e-9;

/// The cluster's owned atoms as `(tag, x, v)` rows, sorted by tag.
pub fn gather(c: &Cluster) -> Vec<(u64, [f64; 3], [f64; 3])> {
    let mut rows = Vec::with_capacity(c.natoms());
    for st in c.states() {
        for i in 0..st.atoms.nlocal {
            rows.push((st.atoms.tag[i], st.atoms.x[i], st.atoms.v[i]));
        }
    }
    rows.sort_unstable_by_key(|r| r.0);
    rows
}

/// A single-process simulation of the same atoms (`rows` from [`gather`]
/// at step 0, `global` the cluster's box) under the same physics settings.
pub fn serial_twin(cfg: &RunConfig, global: Box3, rows: &[(u64, [f64; 3], [f64; 3])]) -> SerialSim {
    let mut atoms = Atoms::from_positions(rows.iter().map(|r| r.1).collect(), 1);
    for (i, r) in rows.iter().enumerate() {
        atoms.tag[i] = r.0;
        atoms.v[i] = r.2;
    }
    SerialSim::new(
        atoms,
        global,
        cfg.build_potential(),
        cfg.units(),
        cfg.skin(),
        cfg.policy(),
        cfg.timestep(),
        cfg.mass(),
    )
}

/// Relative difference of two total energies.
pub fn energy_error(cluster: f64, serial: f64) -> f64 {
    (cluster - serial).abs() / serial.abs()
}

/// Counters read at the start of the exact window.
#[derive(Debug, Clone)]
pub struct WindowStart {
    step: u64,
    rebuilds: u64,
    rebalances: u64,
    ops: OpStats,
}

impl WindowStart {
    /// Reset the cluster's virtual timers and read its counters.
    pub fn open(c: &mut Cluster) -> Self {
        c.reset_timers();
        WindowStart {
            step: c.step,
            rebuilds: c.rebuild_count,
            rebalances: c.rebalance_count(),
            ops: c.op_stats(),
        }
    }
}

/// Every metric that must repeat bit-for-bit for a given seed, at any
/// driver thread count and with or without the timing shim.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Steps in the window.
    pub steps: u64,
    /// Modeled time per step, slowest rank (s).
    pub step_time: f64,
    /// Modeled per-step stage means: pair, neigh, comm, modify, other (s).
    pub stages: [f64; 5],
    /// Modeled comm time hidden behind interior compute, per rank and
    /// step (s).
    pub overlapped: f64,
    /// Modeled setup cost summed over ranks (s).
    pub setup_cost: f64,
    /// Registration calls on the fabric.
    pub registrations: u64,
    /// Neighbor-list rebuilds in the window.
    pub rebuilds: u64,
    /// Mid-run rebalances in the window.
    pub rebalances: u64,
    /// Messages, payload bytes, staged-copy bytes and retries in the
    /// window, all ops folded.
    pub messages: u64,
    /// See `messages`.
    pub bytes: u64,
    /// See `messages`.
    pub bytes_copied: u64,
    /// See `messages`.
    pub retries: u64,
}

impl Exact {
    /// Read the window that `start` opened.
    pub fn close(c: &Cluster, start: &WindowStart) -> Exact {
        let b = c.breakdown();
        let ops = c.op_stats().since(&start.ops);
        let total = ops.total();
        let steps = c.step - start.step;
        Exact {
            steps,
            step_time: c.step_time(),
            stages: [b.pair, b.neigh, b.comm, b.modify, b.other],
            overlapped: c.overlapped_total() / (c.nranks() as f64 * steps.max(1) as f64),
            setup_cost: c.setup_cost(),
            registrations: c.growth_events(),
            rebuilds: c.rebuild_count - start.rebuilds,
            rebalances: c.rebalance_count() - start.rebalances,
            messages: total.messages,
            bytes: total.bytes,
            bytes_copied: total.bytes_copied,
            retries: total.retries,
        }
    }

    /// Bitwise equality (`==` on `f64` would also accept `0.0 == -0.0`).
    pub fn bits_equal(&self, other: &Exact) -> bool {
        let f = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        self == other
            && f(
                &[self.step_time, self.overlapped, self.setup_cost],
                &[other.step_time, other.overlapped, other.setup_cost],
            )
            && f(&self.stages, &other.stages)
    }
}
