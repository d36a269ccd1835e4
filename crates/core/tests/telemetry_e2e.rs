//! End-to-end telemetry over a real `LogManager`: with tracing at
//! `sample_every = 1`, an inserted record's life shows up as a causal span
//! chain — reserve/fill/release from the insert path, device-write/durable
//! from the flush daemon — and the snapshot carries the wired counters in
//! one document.

use aether_core::record::RecordKind;
use aether_core::telemetry::{assemble_spans, Stage, TelemetryConfig};
use aether_core::{DeviceKind, LogConfig, LogManager};

#[test]
fn sampled_record_yields_causal_span_chain() {
    let log = LogManager::builder()
        .device(DeviceKind::Ram)
        .config(
            LogConfig::default()
                .with_buffer_size(1 << 20)
                .with_telemetry(TelemetryConfig {
                    enabled: true,
                    sample_every: 1,
                    ..TelemetryConfig::default()
                }),
        )
        .build();
    for i in 0..32u64 {
        log.insert(RecordKind::Filler, i, &[7u8; 100]);
    }
    log.flush_all().unwrap();
    let snap = log.telemetry_snapshot();

    // The wired counters all flowed into one document.
    assert!(snap.counter("log.inserts").unwrap() >= 32);
    assert!(snap.counter("log.bytes").unwrap() > 0);
    assert!(snap.hist("log.insert_ns").unwrap().count >= 32);
    assert!(snap.counter("flush.flushes").unwrap_or(0) >= 1);
    assert!(snap.gauge("log.durable_lsn").unwrap() > 0);

    // At least one record traces the full causal chain: per-record stages
    // from the insert path, batch stages from the flush daemon.
    let spans = assemble_spans(&snap.events);
    let full = spans
        .iter()
        .find(|s| {
            let has = |st: Stage| s.stages.iter().any(|e| e.stage == st);
            has(Stage::Reserve)
                && has(Stage::Fill)
                && has(Stage::Release)
                && s.batch.iter().any(|e| e.stage == Stage::DeviceWrite)
                && s.batch.iter().any(|e| e.stage == Stage::Durable)
        })
        .unwrap_or_else(|| panic!("no full causal chain in {} spans", spans.len()));

    // Causality under the monotonic clock: the record was reserved before
    // its bytes hit the device, and durability is declared last.
    let start = |st: Stage| {
        full.stages
            .iter()
            .chain(full.batch.iter())
            .find(|e| e.stage == st)
            .unwrap()
            .start_ns
    };
    assert!(start(Stage::Reserve) <= start(Stage::Fill));
    assert!(start(Stage::Fill) <= start(Stage::Release));
    assert!(start(Stage::DeviceWrite) <= start(Stage::Durable));

    // The renderers agree on the same snapshot.
    let text = snap.render_text();
    assert!(text.lines().all(|l| l.starts_with("telemetry> ")));
    assert!(text.contains("span lsn="));
    assert!(snap.render_jsonl().contains("\"stage\":\"durable\""));
}

/// The disabled path stays inert: no histogram observations, no trace
/// events, and the snapshot renders cleanly.
#[test]
fn disabled_telemetry_records_nothing() {
    let log = LogManager::builder().device(DeviceKind::Ram).build();
    for i in 0..16u64 {
        log.insert(RecordKind::Filler, i, &[7u8; 64]);
    }
    log.flush_all().unwrap();
    assert!(!log.telemetry().on());
    let snap = log.telemetry_snapshot();
    assert_eq!(snap.hist("log.insert_ns").unwrap().count, 0);
    assert!(snap.events.is_empty());
    // The stats-backed counters still render (they are always maintained).
    assert_eq!(snap.counter("log.inserts"), Some(16));
}
