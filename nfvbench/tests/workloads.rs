//! Runs every workload at a reduced size and checks that the benchmark
//! measures what it claims: the stream decides exactly as the inline
//! reference, and admission quality and per-decision work counts repeat
//! bit for bit for one seed.
//!
//! Run with `cargo test --release --manifest-path nfvbench/Cargo.toml`.

use nfvbench::report::{end_to_end, work_counts, Metric};
use nfvbench::trace::Tracer;
use nfvbench::workloads::{prepare, run_pass, Params, Pass, Size, Workload, PIPELINE_WORKERS};
use std::sync::Mutex;

/// Telemetry counters are process-global: passes must not overlap.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn reduced(workload: Workload, seed: u64) -> Params {
    Params {
        workload,
        seed,
        size: Size {
            rounds: 2,
            round_len: 24,
            fat_tree_k: 16,
        },
    }
}

fn counted_pass(params: Params, workers: usize) -> (Pass, usize) {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let (prepared, _) = prepare(params, &mut Tracer::new(false));
    telemetry::reset();
    telemetry::enable();
    let pass = run_pass(&prepared, workers, &mut Tracer::new(true));
    telemetry::disable();
    assert!(pass.failures.is_empty(), "{:?}", pass.failures);
    assert_eq!(pass.offered, 48);
    (pass, prepared.servers())
}

fn deterministic(pass: &Pass, servers: usize) -> Vec<(&'static str, u64)> {
    let quality = end_to_end(&Default::default(), pass, 0.0)
        .into_iter()
        .filter(|m| ["admit_ratio", "cost_per_admit", "kept_ratio"].contains(&m.name));
    quality
        .chain(work_counts(pass, servers))
        .map(|Metric { name, value, .. }| (name, value.to_bits()))
        .collect()
}

#[test]
fn stream_decisions_equal_the_inline_reference() {
    let params = reduced(Workload::StreamFaultsWaxman250, 3);
    let (pipelined, _) = counted_pass(params, PIPELINE_WORKERS);
    let (inline, _) = counted_pass(params, 0);
    assert!(pipelined.faults > 0 && pipelined.admitted > 0);
    assert_eq!(pipelined.decisions, inline.decisions);
    assert_eq!(pipelined.not_kept, inline.not_kept);
}

#[test]
fn quality_and_work_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let params = reduced(workload, 5);
        let (a, servers) = counted_pass(params, PIPELINE_WORKERS);
        let (b, _) = counted_pass(params, PIPELINE_WORKERS);
        assert_eq!(a.decisions, b.decisions, "{}", workload.name());
        assert_eq!(
            deterministic(&a, servers),
            deterministic(&b, servers),
            "{}",
            workload.name()
        );
        assert!(
            a.counter(telemetry::Counter::DijkstraRuns) > 0,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn every_run_has_samples_for_p95() {
    // p95 keeps at least ten samples beyond it from 200 decisions on.
    for workload in Workload::ALL {
        let size = Size::for_seconds(workload, 1);
        assert!(size.rounds * size.round_len >= 200, "{}", workload.name());
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
}
