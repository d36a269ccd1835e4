//! Sequential log scans for recovery.
//!
//! Recovery "must stop at the first gap it encounters" (§5.2): the scan ends
//! at the first byte run that does not decode as a valid record — a zeroed
//! region, torn header, or checksum mismatch. Everything before that point is
//! the durable log prefix.

use crate::device::LogDevice;
use crate::error::{AetherError, Result};
use crate::lsn::Lsn;
use crate::record::{Record, RecordHeader, HEADER_SIZE};
use std::sync::Arc;

/// A sequential reader over a log device.
pub struct LogReader {
    device: Arc<dyn LogDevice>,
    at: Lsn,
    limit: u64,
    /// When true, a structurally valid header whose payload fails its
    /// checksum raises [`AetherError::Corrupt`] instead of ending the scan.
    strict: bool,
}

impl std::fmt::Debug for LogReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogReader")
            .field("at", &self.at)
            .field("limit", &self.limit)
            .finish()
    }
}

impl LogReader {
    /// Scan `device` from its low-water mark — LSN 0 for a device that never
    /// truncates, the first retained record boundary after log truncation.
    pub fn new(device: Arc<dyn LogDevice>) -> LogReader {
        let limit = device.len();
        let at = device.low_water();
        LogReader {
            device,
            at,
            limit,
            strict: false,
        }
    }

    /// Scan from a specific LSN (e.g. a checkpoint's redo point).
    pub fn from_lsn(device: Arc<dyn LogDevice>, start: Lsn) -> LogReader {
        let limit = device.len();
        LogReader {
            device,
            at: start,
            limit,
            strict: false,
        }
    }

    /// Enable strict mode: corruption mid-log is an error, not end-of-log.
    pub fn strict(mut self) -> LogReader {
        self.strict = true;
        self
    }

    /// Current scan position.
    pub fn position(&self) -> Lsn {
        self.at
    }

    /// Read the next record, or `None` at the end of the valid prefix.
    pub fn next_record(&mut self) -> Result<Option<Record>> {
        if self.at.raw() + HEADER_SIZE as u64 > self.limit {
            return Ok(None);
        }
        let mut hbuf = [0u8; HEADER_SIZE];
        let n = self.device.read_at(self.at.raw(), &mut hbuf)?;
        if n < HEADER_SIZE {
            return Ok(None);
        }
        let header = match RecordHeader::decode(&hbuf) {
            Some(h) => h,
            None => return Ok(None), // first gap: end of durable prefix
        };
        let end = self.at.raw() + header.total_len as u64;
        if end > self.limit {
            // Record extends past the durable tail: torn write.
            return Ok(None);
        }
        let mut payload = vec![0u8; header.payload_len as usize];
        if header.payload_len > 0 {
            let n = self
                .device
                .read_at(self.at.raw() + HEADER_SIZE as u64, &mut payload)?;
            if n < payload.len() {
                return Ok(None);
            }
        }
        if !header.verify(&payload) {
            if self.strict {
                return Err(AetherError::Corrupt {
                    at: self.at,
                    reason: "payload checksum mismatch".into(),
                });
            }
            return Ok(None);
        }
        let rec = Record {
            lsn: self.at,
            header,
            payload,
        };
        self.at = Lsn(end);
        Ok(Some(rec))
    }

    /// Collect every record in the valid prefix.
    pub fn read_all(mut self) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

impl Iterator for LogReader {
    type Item = Result<Record>;
    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::record::{on_log_size, RecordKind};
    use std::time::Duration;

    fn device_with_records(payloads: &[&[u8]]) -> Arc<SimDevice> {
        let d = Arc::new(SimDevice::new(Duration::ZERO));
        let mut prev = Lsn::ZERO;
        for (i, p) in payloads.iter().enumerate() {
            let h = RecordHeader::new(RecordKind::Update, i as u64, prev, p);
            let mut bytes = h.encode().to_vec();
            bytes.extend_from_slice(p);
            bytes.resize(h.total_len as usize, 0);
            prev = Lsn(d.len());
            d.append(&bytes).unwrap();
        }
        d
    }

    #[test]
    fn reads_all_records_in_order() {
        let d = device_with_records(&[b"first", b"second record", b""]);
        let recs = LogReader::new(d).read_all().unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].payload, b"first");
        assert_eq!(recs[1].payload, b"second record");
        assert_eq!(recs[2].payload, b"");
        assert_eq!(recs[0].lsn, Lsn::ZERO);
        assert_eq!(recs[1].lsn, Lsn(on_log_size(5) as u64));
        // Undo chain threading.
        assert_eq!(recs[1].header.prev_lsn, Lsn::ZERO);
        assert_eq!(recs[2].header.prev_lsn, recs[1].lsn);
    }

    #[test]
    fn stops_at_torn_tail() {
        let d = device_with_records(&[b"complete"]);
        // Append half a record.
        let h = RecordHeader::new(RecordKind::Update, 9, Lsn::ZERO, b"torn away payload");
        let bytes = h.encode();
        d.append(&bytes[..16]).unwrap();
        let recs = LogReader::new(d).read_all().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"complete");
    }

    #[test]
    fn stops_at_checksum_mismatch_tolerant() {
        let d = device_with_records(&[b"good", b"going to be corrupted"]);
        // Flip a payload byte of the second record.
        let first_len = on_log_size(4) as u64;
        let mut contents = d.contents();
        contents[(first_len as usize) + HEADER_SIZE + 3] ^= 0xFF;
        let d2 = Arc::new(SimDevice::new(Duration::ZERO));
        d2.append(&contents).unwrap();
        let recs = LogReader::new(d2.clone()).read_all().unwrap();
        assert_eq!(recs.len(), 1);
        // Strict mode errors instead.
        let err = LogReader::new(d2).strict().read_all();
        assert!(matches!(err, Err(AetherError::Corrupt { .. })));
    }

    #[test]
    fn empty_device_yields_nothing() {
        let d = Arc::new(SimDevice::new(Duration::ZERO));
        assert!(LogReader::new(d).read_all().unwrap().is_empty());
    }

    #[test]
    fn from_lsn_skips_prefix() {
        let d = device_with_records(&[b"first", b"second"]);
        let start = Lsn(on_log_size(5) as u64);
        let mut r = LogReader::from_lsn(d, start);
        assert_eq!(r.position(), start);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.payload, b"second");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn iterator_interface() {
        let d = device_with_records(&[b"a", b"b", b"c"]);
        let n = LogReader::new(d).filter(|r| r.is_ok()).count();
        assert_eq!(n, 3);
    }
}
