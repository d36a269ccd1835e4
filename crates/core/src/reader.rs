//! Sequential log scans for recovery.
//!
//! Recovery "must stop at the first gap it encounters" (§5.2): the scan ends
//! at the first byte run that does not decode as a valid record — a zeroed
//! region, torn header, or checksum mismatch. Everything before that point is
//! the durable log prefix.
//!
//! The reader decodes records out of a 1 KiB window that it fills from the
//! device with one [`LogDevice::read_at`], not two reads per record: a scan
//! of 120-byte records reads the device about once in eight records. A
//! short read, which `read_at` may return, refills the window; only a read
//! of nothing ends the scan. A record larger than the window is read
//! straight into its payload. The window stays small because the record
//! that crosses its end pays for the refill: a 32 KiB window made one read
//! in 34 slow enough to raise a scan's 99th percentile.

use crate::device::LogDevice;
use crate::error::{AetherError, Result};
use crate::lsn::Lsn;
use crate::record::{Record, RecordHeader, HEADER_SIZE};
use std::sync::Arc;

/// Bytes the reader asks the device for at once.
const WINDOW: usize = 1024;

/// A sequential reader over a log device.
pub struct LogReader {
    device: Arc<dyn LogDevice>,
    at: Lsn,
    limit: u64,
    /// When true, a structurally valid header whose payload fails its
    /// checksum raises [`AetherError::Corrupt`] instead of ending the scan.
    strict: bool,
    /// Log bytes `[base, base + filled)`, read ahead of the scan.
    window: [u8; WINDOW],
    base: u64,
    filled: usize,
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
        let at = device.low_water();
        LogReader::from_lsn(device, at)
    }

    /// Scan from a specific LSN (e.g. a checkpoint's redo point).
    pub fn from_lsn(device: Arc<dyn LogDevice>, start: Lsn) -> LogReader {
        let limit = device.len();
        LogReader {
            device,
            at: start,
            limit,
            strict: false,
            window: [0; WINDOW],
            base: start.raw(),
            filled: 0,
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
        let at = self.at.raw();
        if at + HEADER_SIZE as u64 > self.limit || !self.fill(at, HEADER_SIZE)? {
            return Ok(None);
        }
        let h = (at - self.base) as usize;
        let hbuf = self.window[h..h + HEADER_SIZE]
            .try_into()
            .expect("a header");
        let header = match RecordHeader::decode(hbuf) {
            Some(h) => h,
            None => return Ok(None), // first gap: end of durable prefix
        };
        let end = at + header.total_len as u64;
        if end > self.limit {
            // Record extends past the durable tail: torn write.
            return Ok(None);
        }
        let len = header.payload_len as usize;
        let payload_at = at + HEADER_SIZE as u64;
        let payload = if HEADER_SIZE + len <= WINDOW {
            if !self.fill(at, HEADER_SIZE + len)? {
                return Ok(None);
            }
            let p = (payload_at - self.base) as usize;
            let bytes = &self.window[p..p + len];
            if !header.verify(bytes) {
                return self.mismatch();
            }
            bytes.to_vec()
        } else {
            // Larger than the window: what it holds, then the rest read
            // straight into the payload.
            let mut payload = vec![0u8; len];
            let p = (payload_at - self.base) as usize;
            let have = (self.filled - p).min(len);
            payload[..have].copy_from_slice(&self.window[p..p + have]);
            let rest = &mut payload[have..];
            let want = rest.len();
            if read_at_least(&*self.device, payload_at + have as u64, rest, want)?.is_none() {
                return Ok(None);
            }
            if !header.verify(&payload) {
                return self.mismatch();
            }
            payload
        };
        let rec = Record {
            lsn: self.at,
            header,
            payload,
        };
        self.at = Lsn(end);
        Ok(Some(rec))
    }

    /// A record whose checksum fails: the end of the scan, or in strict
    /// mode an error.
    fn mismatch(&self) -> Result<Option<Record>> {
        if self.strict {
            return Err(AetherError::Corrupt {
                at: self.at,
                reason: "payload checksum mismatch".into(),
            });
        }
        Ok(None)
    }

    /// Make the window hold `[at, at + n)`, `n <= WINDOW`, reading ahead
    /// as far as the window and the scan's limit reach. The caller has
    /// checked that `at + n` is within the limit. False if the device ends
    /// first.
    fn fill(&mut self, at: u64, n: usize) -> Result<bool> {
        let end = self.base + self.filled as u64;
        if at >= self.base && at + n as u64 <= end {
            return Ok(true);
        }
        // Keep what the window holds from `at` on, at its front.
        if at >= self.base && at < end {
            let from = (at - self.base) as usize;
            self.window.copy_within(from..self.filled, 0);
            self.filled -= from;
        } else {
            self.filled = 0;
        }
        self.base = at;
        let want = (WINDOW as u64).min(self.limit - at) as usize;
        let offset = at + self.filled as u64;
        let need = n - self.filled;
        match read_at_least(
            &*self.device,
            offset,
            &mut self.window[self.filled..want],
            need,
        )? {
            Some(got) => {
                self.filled += got;
                Ok(true)
            }
            None => Ok(false),
        }
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

/// Read into `buf` from stream offset `offset` until at least `min` bytes
/// are in, however few each [`LogDevice::read_at`] returns. Returns how
/// many came, or `None` if a read returned nothing first.
fn read_at_least(
    device: &dyn LogDevice,
    offset: u64,
    buf: &mut [u8],
    min: usize,
) -> Result<Option<usize>> {
    let mut got = 0;
    while got < min {
        match device.read_at(offset + got as u64, &mut buf[got..])? {
            0 => return Ok(None),
            n => got += n,
        }
    }
    Ok(Some(got))
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
    use crate::device::{DeviceFault, FaultDevice, SimDevice};
    use crate::record::{on_log_size, RecordKind};
    use std::time::Duration;

    fn device_with_records(payloads: &[&[u8]]) -> Arc<SimDevice> {
        let d = Arc::new(SimDevice::new(Duration::ZERO));
        let mut prev = Lsn::ZERO;
        for (i, p) in payloads.iter().enumerate() {
            let h = RecordHeader::new(RecordKind::Filler, i as u64, prev, p);
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
        let h = RecordHeader::new(RecordKind::Filler, 9, Lsn::ZERO, b"torn away payload");
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

    /// Returns at most 7 bytes per `read_at`, as the device contract allows.
    fn short_reads(d: Arc<SimDevice>) -> FaultDevice {
        FaultDevice::new(d, &[DeviceFault::ShortReads(7)])
    }

    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j * 7) as u8).collect()
    }

    fn device_with(payloads: &[Vec<u8>]) -> Arc<SimDevice> {
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        device_with_records(&refs)
    }

    /// A log of assorted sizes, one of them a 60 KB record.
    fn assorted() -> Vec<Vec<u8>> {
        (0..200)
            .map(|i| payload(i, if i == 77 { 60_000 } else { i * 37 % 500 }))
            .collect()
    }

    #[test]
    fn short_reads_scan_the_same_records() {
        let payloads = assorted();
        let d = device_with(&payloads);
        let whole = LogReader::new(d.clone()).strict().read_all().unwrap();
        let short = LogReader::new(Arc::new(short_reads(d))).strict();
        assert_eq!(short.read_all().unwrap(), whole);
        let got: Vec<Vec<u8>> = whole.into_iter().map(|r| r.payload).collect();
        assert_eq!(got, payloads);
    }

    #[test]
    fn records_straddling_the_window_edge() {
        // The second record starts at every 8-byte boundary from three
        // headers short of the window's end to just past it, so its header
        // and then its payload straddle the edge; the first record grows
        // from just under the window to just over it.
        for first in (WINDOW - 4 * HEADER_SIZE..WINDOW + 16).step_by(8) {
            let payloads = vec![payload(0, first), payload(1, 100), payload(2, 3)];
            let d = device_with(&payloads);
            for dev in [d.clone() as Arc<dyn LogDevice>, Arc::new(short_reads(d))] {
                let got: Vec<Vec<u8>> = LogReader::new(dev)
                    .strict()
                    .read_all()
                    .unwrap()
                    .into_iter()
                    .map(|r| r.payload)
                    .collect();
                assert_eq!(got, payloads, "first payload {first} bytes");
            }
        }
    }

    #[test]
    fn a_record_larger_than_the_window() {
        let payloads = vec![payload(0, 10), payload(1, 60_000), payload(2, 10)];
        let d = device_with(&payloads);
        let recs = LogReader::new(Arc::new(short_reads(d.clone())))
            .strict()
            .read_all()
            .unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].payload, payloads[1]);
        assert_eq!(recs[2].lsn, recs[1].next_lsn());
        // A flipped byte deep in the large payload: the end of a tolerant
        // scan, an error in strict mode.
        let mut contents = d.contents();
        contents[recs[1].lsn.raw() as usize + HEADER_SIZE + 50_000] ^= 0x10;
        let bad = Arc::new(SimDevice::new(Duration::ZERO));
        bad.append(&contents).unwrap();
        assert_eq!(LogReader::new(bad.clone()).read_all().unwrap().len(), 1);
        let err = LogReader::new(bad).strict().read_all();
        assert!(matches!(err, Err(AetherError::Corrupt { at, .. }) if at == recs[1].lsn));
    }

    #[test]
    fn a_torn_tail_ends_the_scan_at_the_torn_record() {
        // Cut the last record after every one of its bytes: the scan keeps
        // the records before it and stops at its LSN, with no error, even
        // in strict mode.
        let payloads = [payload(0, 700), payload(1, 200), payload(2, 90)];
        let d = device_with(&payloads);
        let contents = d.contents();
        let torn_at = on_log_size(700) + on_log_size(200);
        for cut in torn_at..contents.len() {
            let dev = Arc::new(SimDevice::new(Duration::ZERO));
            dev.append(&contents[..cut]).unwrap();
            for dev in [
                dev.clone() as Arc<dyn LogDevice>,
                Arc::new(short_reads(dev)),
            ] {
                let mut r = LogReader::new(dev).strict();
                assert_eq!(r.by_ref().count(), 2, "cut at {cut}");
                assert_eq!(r.position(), Lsn(torn_at as u64), "cut at {cut}");
            }
        }
    }

    #[test]
    fn strict_mode_raises_corrupt_on_a_flipped_payload_byte() {
        let payloads = assorted();
        let d = device_with(&payloads);
        let recs = LogReader::new(d.clone()).read_all().unwrap();
        for k in [1, 50, 150] {
            let mut contents = d.contents();
            contents[recs[k].lsn.raw() as usize + HEADER_SIZE + 2] ^= 0x01;
            let bad = Arc::new(SimDevice::new(Duration::ZERO));
            bad.append(&contents).unwrap();
            let tolerant = LogReader::new(Arc::new(short_reads(bad.clone()))).read_all();
            assert_eq!(tolerant.unwrap().len(), k);
            let err = LogReader::new(Arc::new(short_reads(bad)))
                .strict()
                .read_all();
            assert!(matches!(err, Err(AetherError::Corrupt { at, .. }) if at == recs[k].lsn));
        }
    }

    #[test]
    fn from_lsn_mid_log_reads_the_rest() {
        let payloads = assorted();
        let d = device_with(&payloads);
        let all = LogReader::new(d.clone()).read_all().unwrap();
        for k in [1, 9, 76, 78, 199] {
            let dev = Arc::new(short_reads(d.clone()));
            let rest = LogReader::from_lsn(dev, all[k].lsn).read_all().unwrap();
            assert_eq!(rest, all[k..], "from record {k}");
        }
    }
}
