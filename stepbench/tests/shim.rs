//! The timing shim must be invisible to the physics and the counters, and
//! its span attribution must account for every nanosecond of a step.

use stepbench::trace::{attribute, Span, SpanKind, SpanLog, NO_PARENT};
use stepbench::workload::{Exact, WindowStart, Workload, SETUP_STEPS};
use tofumd_core::engine::Op;

#[test]
fn shim_leaves_thermo_and_op_stats_bit_identical() {
    for (w, steps) in [
        (Workload::LjStrong, 45),
        (Workload::EamBulk, 12),
        (Workload::SwRebalance, 45),
    ] {
        let mut plain = w.build(7, 2);
        let mut shimmed = w.build(7, 2);
        plain.run(SETUP_STEPS);
        shimmed.run(SETUP_STEPS);
        let mut log = SpanLog::install(&mut shimmed);
        let (wa, wb) = (
            WindowStart::open(&mut plain),
            WindowStart::open(&mut shimmed),
        );
        plain.run(steps);
        for _ in 0..steps {
            log.step(&mut shimmed);
        }
        let (a, b) = (plain.thermo(), shimmed.thermo());
        for (x, y) in [(a.pe, b.pe), (a.ke, b.ke), (a.pressure, b.pressure)] {
            assert_eq!(x.to_bits(), y.to_bits(), "{}: thermo moved", w.name());
        }
        assert_eq!(plain.op_stats(), shimmed.op_stats(), "{}", w.name());
        assert!(
            Exact::close(&plain, &wa).bits_equal(&Exact::close(&shimmed, &wb)),
            "{}: exact metrics moved",
            w.name()
        );
        assert_eq!(log.steps().len() as u64, steps);
    }
}

#[test]
fn span_self_times_add_up_to_traced_step_wall_time() {
    let mut c = Workload::LjStrong.build(3, 2);
    c.run(SETUP_STEPS);
    let mut log = SpanLog::install(&mut c);
    for _ in 0..25 {
        log.step(&mut c);
    }
    let steps = log.steps().to_vec();
    let children = log.engine_spans();
    let selfs = log.self_times();
    assert_eq!(selfs.len(), 25);
    assert!(selfs.iter().any(|s| s.rebuilt), "window holds a rebuild");
    for ((step, kids), s) in steps.iter().zip(&children).zip(&selfs) {
        assert!(!kids.is_empty(), "every step calls the engines");
        for k in kids {
            assert!(
                k.start >= step.start && k.end <= step.end,
                "{k:?} outside {step:?}"
            );
        }
        let sum = s.step_self + s.engine_total();
        assert!(
            (sum - s.wall).abs() <= 1e-9 * s.wall,
            "self times {sum} ns vs step wall {} ns",
            s.wall
        );
        assert!(s.step_self > 0.0 && s.engine_total() > 0.0);
        // Forward runs every step; Border and Exchange only on rebuilds.
        assert!(s.engine[Op::Forward.index()][0] > 0.0 || s.rebuilt);
        assert_eq!(s.engine[Op::Exchange.index()][0] > 0.0, s.rebuilt);
    }
}

#[test]
fn concurrent_spans_share_the_instants_they_overlap() {
    let span = |kind, start, end| Span {
        kind,
        start,
        end,
        parent: 0,
        rank: 0,
    };
    let step = Span {
        parent: NO_PARENT,
        ..span(SpanKind::Step { rebuilt: false }, 0, 100)
    };
    // Two ranks' posts overlap on [20, 30); a complete pokes past the step.
    let kids = [
        span(SpanKind::Post(Op::Forward), 10, 30),
        span(SpanKind::Post(Op::Forward), 20, 40),
        span(SpanKind::Complete(Op::Reverse), 90, 120),
    ];
    let s = attribute(&step, &kids);
    assert_eq!(s.wall, 100.0);
    assert_eq!(s.engine[Op::Forward.index()][0], 30.0);
    assert_eq!(s.engine[Op::Reverse.index()][1], 10.0);
    assert_eq!(s.step_self, 60.0);
}
