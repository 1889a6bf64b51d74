//! The traced run: a timing shim around every rank's ghost engine and an
//! in-memory span log with self-time attribution.
//!
//! Spans are taken from outside the program, around the public calls the
//! benchmark makes ([`Cluster::run_step`]) and the engine calls the
//! cluster makes through [`TimedEngine`]. Engine calls of different ranks
//! run concurrently on the driver's threads, so a step's self time is its
//! duration minus the *union* of its engine spans, and each instant of
//! that union is shared equally among the engine spans open at it. With
//! that attribution the step's self time plus its engine spans' self
//! times add up to the step's wall time exactly.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tofumd_core::engine::{CommStats, GhostEngine, Op, OpStats, RankState, N_OPS};
use tofumd_runtime::Cluster;
use tofumd_tofu::TofuError;

/// Marks a span without a parent (the root step spans).
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One [`Cluster::run_step`] call; `rebuilt` when the step reneighbored.
    Step { rebuilt: bool },
    /// One [`GhostEngine::post`] call.
    Post(Op),
    /// One [`GhostEngine::complete`] call.
    Complete(Op),
}

impl SpanKind {
    fn label(self) -> String {
        match self {
            SpanKind::Step { rebuilt: true } => "step:rebuild".into(),
            SpanKind::Step { rebuilt: false } => "step".into(),
            SpanKind::Post(op) => format!("post:{}", op.label()),
            SpanKind::Complete(op) => format!("complete:{}", op.label()),
        }
    }
}

/// One closed span; times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Start instant.
    pub start: u64,
    /// End instant.
    pub end: u64,
    /// Index of the enclosing step span, or [`NO_PARENT`].
    pub parent: u32,
    /// Rank whose engine ran the call (0 for step spans).
    pub rank: u32,
}

type Lane = Arc<Mutex<Vec<Span>>>;

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Forwards every [`GhostEngine`] method to the wrapped engine and records
/// a span around each `post` and `complete`.
pub struct TimedEngine {
    inner: Box<dyn GhostEngine>,
    rank: u32,
    epoch: Instant,
    parent: Arc<AtomicU32>,
    lane: Lane,
}

impl TimedEngine {
    fn timed(
        &mut self,
        kind: SpanKind,
        call: impl FnOnce(&mut dyn GhostEngine) -> Result<(), TofuError>,
    ) -> Result<(), TofuError> {
        let start = since(self.epoch);
        let out = call(self.inner.as_mut());
        let end = since(self.epoch);
        let span = Span {
            kind,
            start,
            end,
            parent: self.parent.load(Ordering::Relaxed),
            rank: self.rank,
        };
        // Only this rank's engine writes its lane, and the lane is read
        // after stepping stops; a poisoned lock cannot hold a torn span.
        self.lane
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
        out
    }
}

impl GhostEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn rounds(&self, op: Op) -> usize {
        self.inner.rounds(op)
    }
    fn barrier_between_rounds(&self) -> bool {
        self.inner.barrier_between_rounds()
    }
    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.timed(SpanKind::Post(op), |e| e.post(op, round, st))
    }
    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.timed(SpanKind::Complete(op), |e| e.complete(op, round, st))
    }
    fn setup_cost(&self) -> f64 {
        self.inner.setup_cost()
    }
    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
    fn op_stats(&self) -> OpStats {
        self.inner.op_stats()
    }
    fn fallback_requested(&self) -> bool {
        self.inner.fallback_requested()
    }
    fn rebind_graph(&mut self, st: &RankState) {
        self.inner.rebind_graph(st);
    }
}

/// The span log of one traced run.
pub struct SpanLog {
    epoch: Instant,
    parent: Arc<AtomicU32>,
    lanes: Vec<Lane>,
    steps: Vec<Span>,
}

impl SpanLog {
    /// Wrap every rank's engine of `cluster` in a [`TimedEngine`].
    pub fn install(cluster: &mut Cluster) -> Self {
        let epoch = Instant::now();
        let parent = Arc::new(AtomicU32::new(NO_PARENT));
        let mut lanes = Vec::with_capacity(cluster.nranks());
        for rank in 0..cluster.nranks() {
            let lane: Lane = Arc::default();
            let (parent, shim_lane) = (parent.clone(), lane.clone());
            cluster.wrap_engine(rank, |inner| {
                Box::new(TimedEngine {
                    inner,
                    rank: rank as u32,
                    epoch,
                    parent,
                    lane: shim_lane,
                })
            });
            lanes.push(lane);
        }
        SpanLog {
            epoch,
            parent,
            lanes,
            steps: Vec::new(),
        }
    }

    /// Run one traced step.
    pub fn step(&mut self, cluster: &mut Cluster) {
        let id = u32::try_from(self.steps.len()).unwrap_or(NO_PARENT - 1);
        self.parent.store(id, Ordering::Relaxed);
        let rebuilds = cluster.rebuild_count;
        let start = since(self.epoch);
        cluster.run_step();
        let end = since(self.epoch);
        self.parent.store(NO_PARENT, Ordering::Relaxed);
        self.steps.push(Span {
            kind: SpanKind::Step {
                rebuilt: cluster.rebuild_count > rebuilds,
            },
            start,
            end,
            parent: NO_PARENT,
            rank: 0,
        });
    }

    /// Step spans recorded so far, in step order.
    pub fn steps(&self) -> &[Span] {
        &self.steps
    }

    /// Every engine span, grouped by parent step (index = step span id).
    pub fn engine_spans(&self) -> Vec<Vec<Span>> {
        let mut by_step = vec![Vec::new(); self.steps.len()];
        for lane in &self.lanes {
            let lane = lane
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for s in lane.iter() {
                if let Some(v) = by_step.get_mut(s.parent as usize) {
                    v.push(*s);
                }
            }
        }
        by_step
    }

    /// Self times of every recorded step.
    pub fn self_times(&self) -> Vec<StepSelf> {
        self.steps
            .iter()
            .zip(self.engine_spans())
            .map(|(step, children)| attribute(step, &children))
            .collect()
    }

    /// The spans of the first `max_steps` steps as JSON (name, start,
    /// end, parent, rank; nanoseconds since the log's epoch). Each step
    /// span is followed by its engine spans, whose `parent` is the step's
    /// index in step order.
    pub fn to_json(&self, max_steps: usize) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let mut push = |out: &mut String, s: &Span| {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"rank\":{}}}",
                s.kind.label(),
                s.start,
                s.end,
                parent,
                s.rank
            );
        };
        for (step, children) in self.steps.iter().zip(self.engine_spans()).take(max_steps) {
            push(&mut out, step);
            for c in &children {
                push(&mut out, c);
            }
        }
        out.push_str("\n]");
        out
    }
}

/// One step's wall time split by self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSelf {
    /// Step wall time (ns).
    pub wall: f64,
    /// Whether the step reneighbored.
    pub rebuilt: bool,
    /// Wall time no engine call covered (ns).
    pub step_self: f64,
    /// Engine self time by `[op.index()][0 = post, 1 = complete]` (ns).
    pub engine: [[f64; 2]; N_OPS],
}

impl StepSelf {
    /// Total engine self time, i.e. the union of the engine spans (ns).
    pub fn engine_total(&self) -> f64 {
        self.engine.iter().flatten().sum()
    }
}

/// Split `step`'s duration between itself and its (possibly concurrent)
/// child spans: every instant covered by `k` children gives each `1/k`.
pub fn attribute(step: &Span, children: &[Span]) -> StepSelf {
    let slot = |s: &Span| match s.kind {
        SpanKind::Post(op) => (op.index(), 0),
        SpanKind::Complete(op) => (op.index(), 1),
        SpanKind::Step { .. } => unreachable!("steps do not nest"),
    };
    // Sweep the clamped child intervals; `open` holds the children
    // covering the current elementary segment.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * children.len());
    for (i, c) in children.iter().enumerate() {
        let (s, e) = (c.start.max(step.start), c.end.min(step.end));
        if s < e {
            events.push((s, true, i));
            events.push((e, false, i));
        }
    }
    // Ends sort before starts at the same instant (`false < true`).
    events.sort_unstable();
    let mut out = StepSelf {
        wall: (step.end - step.start) as f64,
        rebuilt: matches!(step.kind, SpanKind::Step { rebuilt: true }),
        ..StepSelf::default()
    };
    let mut open: Vec<usize> = Vec::new();
    let mut last = step.start;
    let mut covered = 0u64;
    for (t, is_start, i) in events {
        if !open.is_empty() && t > last {
            covered += t - last;
            let share = (t - last) as f64 / open.len() as f64;
            for &j in &open {
                let (op, half) = slot(&children[j]);
                out.engine[op][half] += share;
            }
        }
        last = t;
        if is_start {
            open.push(i);
        } else {
            open.retain(|&j| j != i);
        }
    }
    out.step_self = (step.end - step.start - covered) as f64;
    out
}
