//! Harness spans: recorded from outside the program, around the calls into
//! each layer, kept in memory and written out when the run ends.
//!
//! Spans inside the program are a later change; what the program already
//! traces (the LSN-keyed stage events of `aether_core::telemetry`) is
//! appended to the same file so one artifact holds both.

use aether_core::telemetry::trace::TraceEvent;
use std::io::Write;
use std::path::Path;

/// One timed interval. `parent` is the id of the span that caused it (0 for
/// the run itself); spans of one request share `req`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Connection or thread index.
    pub lane: u32,
    /// Request id on that lane (0 for phase spans).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Ids of the phase spans: the run, its set-up, its warm-up, and window `w`.
pub const RUN: u64 = 1;
pub const SETUP: u64 = 2;
pub const WARMUP: u64 = 3;
pub fn window_id(w: usize) -> u64 {
    16 + w as u64
}

/// Id of the span for request `req` on `lane`; `part` tells apart the spans
/// of one request (0 = the whole request).
pub fn op_id(lane: u32, req: u64, part: u64) -> u64 {
    ((u64::from(lane) + 1) << 56) | (part << 48) | (req & 0xFFFF_FFFF_FFFF)
}

pub fn phase(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name,
        lane: 0,
        req: 0,
        start_ns,
        end_ns,
    }
}

/// Write harness spans, then the program's own trace events, one JSON
/// object per line.
pub fn write_jsonl(path: &Path, spans: &[Span], program: &[TraceEvent]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"lane\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.lane, s.req, s.start_ns, s.end_ns
        )?;
    }
    for e in program {
        writeln!(
            out,
            "{{\"span\":\"core.{}\",\"lsn\":{},\"start_ns\":{},\"end_ns\":{}}}",
            e.stage.label(),
            e.lsn,
            e.start_ns,
            e.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_do_not_collide() {
        let ids = [
            RUN,
            SETUP,
            WARMUP,
            window_id(0),
            window_id(9),
            op_id(0, 0, 0),
            op_id(0, 0, 1),
            op_id(0, 1, 0),
            op_id(1, 0, 0),
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
