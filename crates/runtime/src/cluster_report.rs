//! The read side of the façade: stage breakdowns, virtual-clock metrics,
//! thermodynamic reductions, comm telemetry and the Fig. 6 exchange
//! micro-benchmark. Child module of [`crate::cluster`]; everything here
//! only observes (or re-drives) existing state.

use super::{Cluster, StageBreakdown};
use tofumd_core::engine::{CommStats, Op, OpStats};
use tofumd_md::thermo::{self, ThermoSnapshot};

impl Cluster {
    /// Raw per-stage sums across ranks (un-normalized; used by tracing).
    fn stage_sums(&self) -> [f64; 5] {
        let mut s = [0.0; 5];
        for (lane, st) in self.lanes.iter().zip(&self.states) {
            s[0] += lane.acc.pair + st.pair_comm_time;
            s[1] += lane.acc.neigh;
            s[2] += st.comm_time;
            s[3] += lane.acc.modify;
            s[4] += lane.acc.other;
        }
        s
    }

    /// Slowest-rank clock divided by the mean rank clock — the
    /// load-imbalance factor that gates bulk-synchronous steps.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let max = self
            .states
            .iter()
            .map(|s| s.clock)
            .fold(f64::NEG_INFINITY, f64::max);
        let mean = self.states.iter().map(|s| s.clock).sum::<f64>() / self.nranks() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Per-rank local atom counts — the load each rank carries right now.
    #[must_use]
    pub fn atom_counts(&self) -> Vec<usize> {
        self.states.iter().map(|s| s.atoms.nlocal).collect()
    }

    /// Max/mean of the per-rank atom counts (1.0 = perfectly balanced) —
    /// the decomposition-quality counterpart of the virtual-clock
    /// [`Cluster::imbalance`].
    #[must_use]
    pub fn atom_imbalance(&self) -> f64 {
        crate::trace::atom_imbalance(&self.atom_counts())
    }

    /// Run `n` steps recording a per-step stage trace.
    pub fn run_traced(&mut self, n: u64) -> crate::trace::Trace {
        let mut trace = crate::trace::Trace::default();
        let nranks = self.nranks() as f64;
        let ops_before = self.op_stats();
        for _ in 0..n {
            let before = self.stage_sums();
            let clock_before = self
                .states
                .iter()
                .map(|s| s.clock)
                .fold(f64::NEG_INFINITY, f64::max);
            let rebuilds_before = self.rebuild_count;
            let rebalances_before = self.rebalance_count;
            let overlapped_before = self.overlapped_total();
            self.run_step();
            trace.push_imbalance_sample(self.step, self.atom_imbalance());
            if self.rebalance_count > rebalances_before {
                trace.push_rebalance_step(self.step);
            }
            let after = self.stage_sums();
            let clock_after = self
                .states
                .iter()
                .map(|s| s.clock)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut stages = [0.0; 5];
            for (st, (a, b)) in stages.iter_mut().zip(after.iter().zip(&before)) {
                *st = (a - b) / nranks;
            }
            trace.push(crate::trace::StepRecord {
                step: self.step,
                stages,
                max_clock_delta: clock_after - clock_before,
                rebuilt: self.rebuild_count > rebuilds_before,
                overlapped: (self.overlapped_total() - overlapped_before) / nranks,
            });
        }
        let delta = self.op_stats().since(&ops_before);
        trace.comm = crate::trace::comm_rows(&delta, nranks * n as f64);
        trace.set_atom_counts(self.atom_counts());
        trace.recovery = self.recovery;
        trace
    }

    /// Total comm time hidden behind interior compute across all ranks
    /// since the last `reset_timers` — the step DAG's overlap win. Not
    /// part of any stage sum: it is wait the ranks never incurred.
    #[must_use]
    pub fn overlapped_total(&self) -> f64 {
        self.lanes.iter().map(|l| l.acc.overlapped).sum()
    }

    /// Mean per-step stage breakdown over all ranks since the last
    /// `reset_timers`.
    #[must_use]
    pub fn breakdown(&self) -> StageBreakdown {
        let n = self.nranks() as f64;
        let steps = self.steps_run.max(1) as f64;
        let s = self.stage_sums();
        StageBreakdown {
            pair: s[0] / (n * steps),
            neigh: s[1] / (n * steps),
            comm: s[2] / (n * steps),
            modify: s[3] / (n * steps),
            other: s[4] / (n * steps),
        }
    }

    /// Wall-clock (virtual) seconds per step: the slowest rank's clock
    /// averaged over the steps run.
    #[must_use]
    pub fn step_time(&self) -> f64 {
        let latest = self
            .states
            .iter()
            .map(|s| s.clock)
            .fold(f64::NEG_INFINITY, f64::max);
        latest / self.steps_run.max(1) as f64
    }

    /// Globally-reduced thermodynamic snapshot.
    #[must_use]
    pub fn thermo(&self) -> ThermoSnapshot {
        let units = self.cfg.units();
        let mass = self.cfg.mass();
        let mut pe = 0.0;
        let mut virial = 0.0;
        let mut ke = 0.0;
        for (lane, st) in self.lanes.iter().zip(&self.states) {
            pe += lane.energy.energy + lane.embed;
            virial += lane.energy.virial;
            ke += thermo::kinetic_energy(&st.atoms, mass, units);
        }
        let n = self.natoms();
        ThermoSnapshot {
            step: self.step,
            pe,
            ke,
            temperature: thermo::temperature(ke, n, units),
            pressure: thermo::pressure(ke, virial, self.global.volume(), units),
        }
    }

    /// Sum of modeled setup costs (registrations, pre-sizing) across ranks.
    #[must_use]
    pub fn setup_cost(&self) -> f64 {
        self.lanes.iter().map(|l| l.engine.setup_cost()).sum()
    }

    /// Aggregate message counters across ranks (Table 1's live
    /// counterpart: messages posted and payload bytes moved).
    #[must_use]
    pub fn comm_stats(&self) -> CommStats {
        let mut total = self.retired_stats.total();
        for lane in &self.lanes {
            total.merge(&lane.engine.stats());
        }
        total
    }

    /// Aggregate per-op / per-round message counters across ranks — the
    /// deep-telemetry view behind [`Cluster::comm_stats`]. Includes the
    /// counters of engines retired by a mid-run demotion.
    #[must_use]
    pub fn op_stats(&self) -> OpStats {
        let mut total = self.retired_stats.clone();
        for lane in &self.lanes {
            total.merge(&lane.engine.op_stats());
        }
        total
    }

    /// Enable LAMMPS-style `thermo N` output: every N steps the cluster
    /// performs (and charges) a global thermodynamic reduction and logs
    /// the snapshot.
    pub fn set_thermo_every(&mut self, every: u64) {
        self.thermo_every = every;
    }

    /// Snapshots collected at thermo steps since construction.
    #[must_use]
    pub fn thermo_log(&self) -> &[ThermoSnapshot] {
        &self.thermo_log
    }

    /// Fig. 6's micro-measurement: run only the forward ghost exchange
    /// `iters` times and return the mean per-exchange time (max over
    /// ranks). Positions are frozen, so this isolates the message path.
    #[must_use]
    pub fn bench_forward_exchange(&mut self, iters: u64) -> f64 {
        self.reset_timers();
        for _ in 0..iters {
            self.run_op(Op::Forward);
        }
        let latest = self
            .states
            .iter()
            .map(|s| s.clock)
            .fold(f64::NEG_INFINITY, f64::max);
        self.reset_timers();
        latest / iters as f64
    }

    /// Total buffer-growth events across all ranks (the §3.4 dynamic
    /// expansion overhead; zero under pre-registration).
    #[must_use]
    pub fn growth_events(&self) -> u64 {
        // Growth is observable through registration call counts: every
        // grow re-registers. Subtract the initial registrations.
        (0..self.net.node_count())
            .map(|n| self.net.registration_calls_of(n))
            .sum::<u64>()
    }
}
