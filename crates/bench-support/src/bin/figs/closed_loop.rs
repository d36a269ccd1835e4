//! The closed-loop figures: TPC-B and TATP clients against a `Db`, one
//! [`run_point`] per point.

use aether_bench::driver::{run_point, Point, Workload};
use aether_bench::env::{env_or, list};
use aether_bench::loganalysis::LogProfile;
use aether_bench::measure::{self, Breakdown};
use aether_bench::table::Table;
use aether_bench::tatp::TatpMix;
use aether_core::{BufferKind, DeviceKind};
use aether_storage::CommitProtocol::{self, AsyncCommit, Baseline, Elr, Pipelined};
use std::sync::Arc;

const CLIENTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// TPC-B AccountUpdate at `skew` over `AETHER_ACCOUNTS` accounts.
fn tpcb(default_accounts: u64, skew: f64) -> Workload {
    let accounts = env_or("AETHER_ACCOUNTS", default_accounts);
    Workload::Tpcb { accounts, skew }
}

/// TATP UpdateLocation only, the paper's log-stress mix.
fn update_location() -> Workload {
    let subscribers = env_or("AETHER_SUBSCRIBERS", 100_000u64);
    Workload::Tatp {
        subscribers,
        mix: TatpMix::UpdateLocationOnly,
    }
}

/// Figure 2: CPU-time breakdown of TPC-B as log bottlenecks are removed —
/// the baseline losing its time to log-induced lock contention, ELR exposing
/// the scheduler, flush pipelining exposing the log buffer, and full Aether.
pub fn fig2_breakdown() {
    let clients = env_or("AETHER_CLIENTS", 60usize);
    let ms = super::ms(2000);
    let mut t = Table::new(
        "fig2_breakdown",
        &format!(
            "Figure 2: time breakdown, TPC-B, {clients} clients, {} ms/bar",
            ms.as_millis()
        ),
        &format!("config\t{}\ttps\tctx_switches", Breakdown::tsv_header()),
    );
    #[rustfmt::skip]
    let bars = [
        // Locks held across the flash-latency flush (B) dominate.
        ("log_io_latency(baseline)", Baseline, BufferKind::Baseline, DeviceKind::Flash),
        // ELR on a ramdisk: lock contention gone, commit waits remain.
        ("os_scheduler(+ELR,ram)", Elr, BufferKind::Baseline, DeviceKind::Ram),
        // Flush pipelining: no commit waits; the log buffer is left.
        ("log_buffer(+pipelining)", Pipelined, BufferKind::Baseline, DeviceKind::Ram),
        ("aether(+hybrid)", Pipelined, BufferKind::Hybrid, DeviceKind::Ram),
    ];
    for (label, protocol, buffer, device) in bars {
        let (_, r) = run_point(&Point {
            protocol,
            buffer,
            device,
            // The contention regime where Figure 2 lives.
            workload: tpcb(20_000, 0.8),
            clients,
            duration: ms,
            seed: 0xF162,
        });
        let b = r.breakdown.tsv_row();
        t.row(&format!("{label}\t{b}\t{:.0}\t{}", r.tps, r.ctx_switches));
    }
}

/// Figure 3: speedup due to ELR, tps(ELR) / tps(Baseline) of TPC-B, over
/// zipfian skew × log-device latency.
pub fn fig3_elr() {
    let clients = env_or("AETHER_CLIENTS", 16usize);
    let accounts = env_or("AETHER_ACCOUNTS", 10_000u64);
    let skews = list("AETHER_SKEWS", &[0.0, 0.5, 0.85, 1.25, 2.0, 3.0]);
    let lats = list("AETHER_LATENCIES_US", &[0.0, 100.0, 1000.0, 10000.0]);
    let mut t = Table::new(
        "fig3_elr",
        &format!(
            "Figure 3: ELR speedup vs skew x latency; TPC-B, {clients} clients, {accounts} accounts"
        ),
        "skew\tlatency_us\ttps_baseline\ttps_elr\tspeedup",
    );
    for &lat in &lats {
        let lat = lat as u64;
        let device = match lat {
            0 => DeviceKind::Ram,
            us => DeviceKind::CustomUs(us),
        };
        for &skew in &skews {
            let tps = |protocol| {
                let point = Point {
                    protocol,
                    buffer: BufferKind::Hybrid,
                    device: device.clone(),
                    workload: Workload::Tpcb { accounts, skew },
                    clients,
                    duration: super::ms(1000),
                    seed: 0xF163,
                };
                run_point(&point).1.tps
            };
            let (base, elr) = (tps(Baseline), tps(Elr));
            let speedup = elr / base.max(1e-9);
            t.row(&format!("{skew}\t{lat}\t{base:.0}\t{elr:.0}\t{speedup:.2}"));
        }
    }
}

/// Figure 4: context switches per second and per transaction vs. clients,
/// without and with flush pipelining: the baseline's grow with clients,
/// pipelining's stay flat because one thread issues the I/O.
pub fn fig4_scheduler() {
    let mut title =
        "Figure 4: scheduler activity vs clients, TPC-B on flash-class log (100us)".to_string();
    if !measure::ctx_switches_supported() {
        title += "\nnote: /proc ctx-switch counters unavailable on this host; ctx columns read 0";
    }
    let header = "mode\tclients\ttps\tctx_per_s\tctx_per_txn\tflushes\tflushes_per_txn";
    let mut t = Table::new("fig4_scheduler", &title, header);
    let client_counts = list("AETHER_CLIENTS", CLIENTS);
    for (label, protocol) in [("baseline", Baseline), ("flush_pipelining", Pipelined)] {
        for &clients in &client_counts {
            let (_, r) = run_point(&tpcb_point(protocol, clients, 0xF164));
            let per_txn = |n: u64| n as f64 / r.committed.max(1) as f64;
            t.row(&format!(
                "{label}\t{clients}\t{:.0}\t{:.0}\t{:.2}\t{}\t{:.3}",
                r.tps,
                r.ctx_switches as f64 / r.wall_s,
                per_txn(r.ctx_switches),
                r.flushes,
                per_txn(r.flushes),
            ));
        }
    }
}

/// Figure 5: TPC-B throughput vs. clients — baseline, asynchronous commit
/// and flush pipelining, which matches async commit without giving up
/// durability.
pub fn fig5_throughput() {
    let mut t = Table::new(
        "fig5_throughput",
        "Figure 5: TPC-B throughput vs clients (flash-class log device)",
        "protocol\tclients\ttps\tcommitted\taborts",
    );
    let client_counts = list("AETHER_CLIENTS", CLIENTS);
    let protocols = [
        ("baseline", Baseline),
        ("async_commit", AsyncCommit),
        ("flush_pipelining", Pipelined),
    ];
    for (label, protocol) in protocols {
        for &clients in &client_counts {
            let (_, r) = run_point(&tpcb_point(protocol, clients, 0xF165));
            let (tps, committed, aborts) = (r.tps, r.committed, r.aborts);
            t.row(&format!(
                "{label}\t{clients}\t{tps:.0}\t{committed}\t{aborts}"
            ));
        }
    }
}

/// Uniform TPC-B on the flash-class device (Figures 4 and 5).
fn tpcb_point(protocol: CommitProtocol, clients: usize, seed: u64) -> Point {
    Point {
        protocol,
        buffer: BufferKind::Hybrid,
        device: DeviceKind::Flash,
        workload: tpcb(10_000, 0.0),
        clients,
        duration: super::ms(1000),
        seed,
    }
}

/// Figure 7: time breakdown of TATP UpdateLocation as load grows, ELR and
/// flush pipelining applied: log-buffer contention grows to dominate.
pub fn fig7_breakdown() {
    let mut t = Table::new(
        "fig7_breakdown",
        "Figure 7: TATP UpdateLocation breakdown vs load (ELR + flush pipelining, baseline log buffer)",
        &format!("clients\t{}\ttps", Breakdown::tsv_header()),
    );
    for clients in list("AETHER_CLIENTS", CLIENTS) {
        let (_, r) = run_point(&Point {
            protocol: Pipelined,
            buffer: BufferKind::Baseline, // the buffer under indictment
            device: DeviceKind::Ram,
            workload: update_location(),
            clients,
            duration: super::ms(1000),
            seed: 0xF167,
        });
        t.row(&format!(
            "{clients}\t{}\t{:.0}",
            r.breakdown.tsv_row(),
            r.tps
        ));
    }
}

/// Figure 9: TATP UpdateLocation throughput, cumulatively: baseline;
/// +ELR+flush pipelining; +hybrid log buffer (full Aether).
pub fn fig9_overall() {
    let mut t = Table::new(
        "fig9_overall",
        "Figure 9: TATP UpdateLocation throughput vs clients",
        "config\tclients\ttps\tcommitted",
    );
    let configs = [
        ("baseline", Baseline, BufferKind::Baseline),
        ("elr+pipelining", Pipelined, BufferKind::Baseline),
        ("aether", Pipelined, BufferKind::Hybrid),
    ];
    let client_counts = list("AETHER_CLIENTS", CLIENTS);
    for (label, protocol, buffer) in configs {
        for &clients in &client_counts {
            let (_, r) = run_point(&Point {
                protocol,
                buffer,
                device: DeviceKind::Flash,
                workload: update_location(),
                clients,
                duration: super::ms(1000),
                seed: 0xF169,
            });
            t.row(&format!(
                "{label}\t{clients}\t{:.0}\t{}",
                r.tps, r.committed
            ));
        }
    }
}

/// The record-kind and record-size distributions of the WAL a short TPC-B
/// and TATP burst write — §5/§6.3.1's "two strong peaks", ~120 B average,
/// checked against the logs this system writes.
pub fn log_stats() {
    let clients = env_or("AETHER_CLIENTS", 4usize);
    #[rustfmt::skip]
    let runs = [
        ("TPC-B", Workload::Tpcb { accounts: 10_000, skew: 0.0 }, 1),
        ("TATP (standard mix)", Workload::Tatp { subscribers: 20_000, mix: TatpMix::Standard }, 2),
    ];
    for (label, workload, seed) in runs {
        let (db, _) = run_point(&Point {
            protocol: Elr,
            buffer: BufferKind::Hybrid,
            device: DeviceKind::Ram,
            workload,
            clients,
            duration: super::ms(500),
            seed,
        });
        let _ = db.log().flush_all();
        let profile = LogProfile::scan(Arc::clone(db.log().device())).unwrap();
        println!("== {label} log profile ==");
        println!("{}", profile.report());
    }
}
