//! lint:scope(no-panic-decode)
//! The table file: row-wise interpreted records in an append-only log.
//!
//! Matches Sec. IV-B of the paper: "the new tuple is appended to the end of
//! the table file for an insertion"; deletions are tombstoned and physically
//! reclaimed only by a periodic rebuild. Each stored record carries its
//! tuple id and a flags byte so the file is self-contained for full scans
//! (the DST baseline) and for rebuilds.
//!
//! Stored record layout: `[rec_len: u32][tid: u64][flags: u8][record bytes]`.

use std::path::Path;
use std::sync::Arc;

use iva_storage::codec::{le_u32, le_u64};
use iva_storage::vfs::Vfs;
use iva_storage::{ByteLog, IoStats, PagerOptions, PinnedPages, USER_HEADER_LEN};

use crate::error::{Result, SwtError};
use crate::record::{decode_record, encode_record};
use crate::value::Tuple;

/// Tuple identifier. Monotonically increasing; never reused (updates are
/// delete + insert with a fresh id, per Sec. IV-B).
pub type Tid = u64;

/// Byte address of a stored record in the table file (the tuple list's
/// `ptr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordPtr(pub u64);

const FLAG_DELETED: u8 = 1;
const RECORD_HEADER: usize = 4 + 8 + 1;

/// Payload bytes [`TableFile::read_payload`] reads together with the
/// header before it knows the record's length: about twice the mean record
/// of the paper's workloads (~450 bytes), so almost every record inside one
/// page is fetched with a single page lookup.
const SPECULATIVE_PAYLOAD: usize = 1024;

/// The header fields of a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHead {
    /// Tuple id.
    pub tid: Tid,
    /// Tombstone flag.
    pub deleted: bool,
}

/// A parsed, bounds-checked stored-record header.
#[derive(Debug, Clone, Copy)]
struct RecordMeta {
    at: u64,
    len: usize,
    head: RecordHead,
}

impl RecordMeta {
    fn payload_at(&self) -> u64 {
        self.at + RECORD_HEADER as u64
    }
}

/// Pages pinned for a batch of record reads (see
/// [`TableFile::pin_records`]).
pub struct RecordPins {
    metas: Vec<RecordMeta>,
    pages: PinnedPages,
}

impl RecordPins {
    /// Number of records pinned.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True if no records are pinned.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }
}

/// A record fetched from the table file.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// Tuple id.
    pub tid: Tid,
    /// Tombstone flag.
    pub deleted: bool,
    /// The tuple payload.
    pub tuple: Tuple,
}

/// Append-only table file of interpreted records.
pub struct TableFile {
    log: ByteLog,
    next_tid: Tid,
    total_records: u64,
    deleted_records: u64,
}

impl TableFile {
    /// Create a fresh disk-backed table file.
    pub fn create(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Ok(Self::from_log(ByteLog::create(path, opts, stats)?))
    }

    /// Create a fresh memory-backed table file.
    pub fn create_mem(opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Ok(Self::from_log(ByteLog::create_mem(opts, stats)?))
    }

    /// Create a fresh table file on an explicit [`Vfs`] (fault injection,
    /// in-memory crash replay).
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        Ok(Self::from_log(ByteLog::create_with_vfs(
            vfs, path, opts, stats,
        )?))
    }

    /// Open an existing table file on an explicit [`Vfs`], running the
    /// byte log's crash recovery (uncommitted tail pages are discarded).
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        Self::from_opened(ByteLog::open_with_vfs(vfs, path, opts, stats)?)
    }

    /// The [`Vfs`] the backing log lives on. [`SwtTable`](crate::SwtTable)
    /// writes its catalog sidecar through this same handle so the whole
    /// table — data and meta — shares one filesystem (and one fault
    /// injector, under `IVA_VFS=fault`).
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.log.vfs()
    }

    fn from_log(log: ByteLog) -> Self {
        Self {
            log,
            next_tid: 0,
            total_records: 0,
            deleted_records: 0,
        }
    }

    /// Open an existing table file.
    pub fn open(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::from_opened(ByteLog::open(path, opts, stats)?)
    }

    fn from_opened(log: ByteLog) -> Result<Self> {
        let h = log.user_header();
        let header = |o| le_u64(h, o).ok_or_else(|| SwtError::Corrupt("short user header".into()));
        let next_tid = header(0)?;
        let total_records = header(8)?;
        let deleted_records = header(16)?;
        if deleted_records > total_records || total_records > log.len() {
            return Err(SwtError::Corrupt(format!(
                "table header counters inconsistent: {total_records} records \
                 ({deleted_records} deleted) in a {}-byte file",
                log.len()
            )));
        }
        Ok(Self {
            log,
            next_tid,
            total_records,
            deleted_records,
        })
    }

    /// Append a tuple, returning its assigned tuple id and record pointer.
    pub fn append(&mut self, tuple: &Tuple) -> Result<(Tid, RecordPtr)> {
        let tid = self.next_tid;
        let ptr = self.append_with_tid(tid, tuple)?;
        Ok((tid, ptr))
    }

    /// Append a tuple under a caller-chosen tuple id (used by rebuilds to
    /// preserve ids). Advances `next_tid` past `tid` if needed.
    pub fn append_with_tid(&mut self, tid: Tid, tuple: &Tuple) -> Result<RecordPtr> {
        let mut payload = Vec::new();
        encode_record(tuple, &mut payload)?;
        self.next_tid = self.next_tid.max(tid + 1);
        self.total_records += 1;

        let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&tid.to_le_bytes());
        rec.push(0); // flags
        rec.extend_from_slice(&payload);
        let pos = self.log.append(&rec)?;
        Ok(RecordPtr(pos))
    }

    /// Random-access fetch of the record at `ptr`.
    pub fn get(&self, ptr: RecordPtr) -> Result<StoredRecord> {
        let mut payload = Vec::new();
        let head = self.read_payload(ptr, &mut payload)?;
        materialize(ptr, head, &payload)
    }

    /// Read the payload of the record at `ptr` into `buf`, replacing its
    /// contents (the buffer's capacity is reused across calls), and return
    /// the record's header. The payload is not decoded; iterate it with
    /// [`RecordFields`](crate::RecordFields).
    ///
    /// One read covers the header and, speculatively, the payload up to the
    /// end of the header's page (at most 1 KiB), so a record inside one
    /// page costs one page lookup, not two.
    pub fn read_payload(&self, ptr: RecordPtr, buf: &mut Vec<u8>) -> Result<RecordHead> {
        let page = self.log.pager().page_size() as u64;
        let to_page_end = page - ptr.0 % page;
        let first = to_page_end
            .min(self.log.len().saturating_sub(ptr.0))
            .min((RECORD_HEADER + SPECULATIVE_PAYLOAD) as u64)
            .max(RECORD_HEADER as u64) as usize;
        fill_zeroed(buf, first);
        self.log.read_at(ptr.0, buf)?;
        let header = buf
            .get(..RECORD_HEADER)
            .and_then(|h| <[u8; RECORD_HEADER]>::try_from(h).ok())
            .ok_or_else(|| SwtError::Corrupt(format!("record header at {} unreadable", ptr.0)))?;
        let meta = self.parse_header(ptr.0, &header)?;
        let have = first - RECORD_HEADER;
        buf.copy_within(RECORD_HEADER.., 0);
        buf.truncate(have.min(meta.len));
        if meta.len > have {
            buf.resize(meta.len, 0);
            let rest = buf.get_mut(have..).unwrap_or_default();
            self.log.read_at(meta.payload_at() + have as u64, rest)?;
        }
        Ok(meta.head)
    }

    /// Pin every page holding the records at `ptrs` for
    /// [`TableFile::read_payload_pinned`]. The disk I/O happens in **page
    /// order**: the pages are sorted, deduplicated and coalesced into
    /// sequential runs, so several records on one page cost a single read
    /// and adjacent pages cost one seek (see
    /// [`Pager::read_batch`](iva_storage::Pager::read_batch)).
    ///
    /// Two passes: pin the record headers first (their lengths are not
    /// known up front), then pin every page the payloads span. Every
    /// header's length is checked against the file before any payload
    /// page is enumerated. Duplicate pointers are fine.
    pub fn pin_records(&self, ptrs: &[RecordPtr]) -> Result<RecordPins> {
        // Pass 1: headers, page-coalesced.
        let mut ids = Vec::new();
        for &p in ptrs {
            self.log.pages_spanning(p.0, RECORD_HEADER, &mut ids);
        }
        let header_pins = self.log.pin_pages(&ids)?;
        let mut metas = Vec::with_capacity(ptrs.len());
        ids.clear();
        for &p in ptrs {
            let mut header = [0u8; RECORD_HEADER];
            self.log.read_at_pinned(p.0, &mut header, &header_pins)?;
            let meta = self.parse_header(p.0, &header)?;
            self.log
                .pages_spanning(meta.payload_at(), meta.len, &mut ids);
            metas.push(meta);
        }
        // Pass 2: payloads. Header pages were published to the buffer pool
        // by pass 1, so re-pinning shared pages here is a cache hit.
        let pages = self.log.pin_pages(&ids)?;
        Ok(RecordPins { metas, pages })
    }

    /// [`TableFile::read_payload`] for the `i`-th pointer passed to
    /// [`TableFile::pin_records`], served from its pins.
    pub fn read_payload_pinned(
        &self,
        pins: &RecordPins,
        i: usize,
        buf: &mut Vec<u8>,
    ) -> Result<RecordHead> {
        let meta = pins.metas.get(i).ok_or_else(|| {
            SwtError::InvalidArgument(format!("record {i} of a {}-record pin set", pins.len()))
        })?;
        fill_zeroed(buf, meta.len);
        self.log
            .read_at_pinned(meta.payload_at(), buf, &pins.pages)?;
        Ok(meta.head)
    }

    /// Batched random-access fetch: results come back in input order, the
    /// disk I/O happens page-ordered and coalesced (see
    /// [`TableFile::pin_records`]). Duplicate pointers decode
    /// independently.
    pub fn get_batch(&self, ptrs: &[RecordPtr]) -> Result<Vec<StoredRecord>> {
        if ptrs.len() <= 1 {
            return ptrs.iter().map(|&p| self.get(p)).collect();
        }
        let pins = self.pin_records(ptrs)?;
        let mut payload = Vec::new();
        let mut out = Vec::with_capacity(ptrs.len());
        for (i, &p) in ptrs.iter().enumerate() {
            let head = self.read_payload_pinned(&pins, i, &mut payload)?;
            out.push(materialize(p, head, &payload)?);
        }
        Ok(out)
    }

    /// Parse a stored-record header `[rec_len: u32][tid: u64][flags: u8]`
    /// read at `at`, rejecting a length that runs past the end of the
    /// file before anything is sized by it.
    fn parse_header(&self, at: u64, header: &[u8; RECORD_HEADER]) -> Result<RecordMeta> {
        let corrupt = || SwtError::Corrupt(format!("record header at {at} unreadable"));
        let len = le_u32(header, 0).ok_or_else(corrupt)?;
        let tid = le_u64(header, 4).ok_or_else(corrupt)?;
        let flags = *header.get(12).ok_or_else(corrupt)?;
        let fits = at
            .checked_add(RECORD_HEADER as u64 + u64::from(len))
            .is_some_and(|end| end <= self.log.len());
        if !fits {
            return Err(SwtError::Corrupt(format!(
                "record at {at} claims {len} payload bytes past the {}-byte file",
                self.log.len()
            )));
        }
        Ok(RecordMeta {
            at,
            len: len as usize,
            head: RecordHead {
                tid,
                deleted: flags & FLAG_DELETED != 0,
            },
        })
    }

    /// Tombstone the record at `ptr` (idempotent).
    pub fn mark_deleted(&mut self, ptr: RecordPtr) -> Result<()> {
        let mut header = [0u8; RECORD_HEADER];
        self.log.read_at(ptr.0, &mut header)?;
        let flags = header.last().copied().unwrap_or(0);
        if flags & FLAG_DELETED == 0 {
            self.log.write_at(ptr.0 + 12, &[flags | FLAG_DELETED])?;
            self.deleted_records += 1;
        }
        Ok(())
    }

    /// Sequential scan over all records (including tombstones).
    pub fn scan(&self) -> TableScan<'_> {
        TableScan {
            table: self,
            pos: 0,
        }
    }

    /// Next tuple id to be assigned.
    pub fn next_tid(&self) -> Tid {
        self.next_tid
    }

    /// Raise the tid floor (used by compaction so ids of tuples deleted
    /// before the rebuild are never reassigned).
    pub fn reserve_tids_below(&mut self, tid: Tid) {
        self.next_tid = self.next_tid.max(tid);
    }

    /// Total records ever appended (including tombstones).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Records currently tombstoned.
    pub fn deleted_records(&self) -> u64 {
        self.deleted_records
    }

    /// Live (non-tombstoned) records.
    pub fn live_records(&self) -> u64 {
        self.total_records - self.deleted_records
    }

    /// Logical data bytes in the file.
    pub fn data_len(&self) -> u64 {
        self.log.len()
    }

    /// Physical file size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.log.size_bytes()
    }

    /// I/O counters of the backing pager.
    pub fn io_stats(&self) -> &IoStats {
        self.log.pager().stats()
    }

    /// Drop all cached pages (cold-start experiments).
    pub fn clear_cache(&self) {
        self.log.pager().clear_cache();
    }

    /// Resize the buffer pool (experiments keep cache-to-data ratios
    /// constant across scales).
    pub fn resize_cache(&self, cache_bytes: usize) {
        self.log.pager().resize_cache(cache_bytes);
    }

    /// Toggle per-page checksum verification on reads (benchmarking hook;
    /// on by default).
    pub fn set_verify_checksums(&self, verify: bool) {
        self.log.pager().set_verify_checksums(verify);
    }

    /// Persist header and tail page.
    pub fn flush(&mut self) -> Result<()> {
        let mut h = [0u8; USER_HEADER_LEN];
        let words = [self.next_tid, self.total_records, self.deleted_records];
        for (dst, src) in h.chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&src.to_le_bytes());
        }
        self.log.set_user_header(h);
        self.log.flush()?;
        Ok(())
    }
}

/// Decode a fetched payload into a [`StoredRecord`], requiring the record
/// to fill its stored length exactly.
fn materialize(ptr: RecordPtr, head: RecordHead, payload: &[u8]) -> Result<StoredRecord> {
    let (tuple, used) = decode_record(payload)?;
    if used != payload.len() {
        return Err(SwtError::Corrupt(format!(
            "record at {} decoded {used} of {} bytes",
            ptr.0,
            payload.len()
        )));
    }
    Ok(StoredRecord {
        tid: head.tid,
        deleted: head.deleted,
        tuple,
    })
}

/// Make `buf` exactly `len` zero bytes, reusing its allocation.
fn fill_zeroed(buf: &mut Vec<u8>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

/// Iterator over `(ptr, record)` pairs in file order.
pub struct TableScan<'a> {
    table: &'a TableFile,
    pos: u64,
}

impl Iterator for TableScan<'_> {
    type Item = Result<(RecordPtr, StoredRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.table.log.len() {
            return None;
        }
        let ptr = RecordPtr(self.pos);
        let mut payload = Vec::new();
        let rec = self
            .table
            .read_payload(ptr, &mut payload)
            .and_then(|head| materialize(ptr, head, &payload));
        if rec.is_ok() {
            // Advance past header + payload.
            self.pos += (RECORD_HEADER + payload.len()) as u64;
        }
        Some(rec.map(|rec| (ptr, rec)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::value::Value;
    use iva_storage::{RealVfs, Vfs};

    fn opts() -> PagerOptions {
        PagerOptions {
            page_size: 256,
            cache_bytes: 256 * 8,
        }
    }

    fn tuple(i: u64) -> Tuple {
        Tuple::new()
            .with(AttrId(0), Value::text(format!("item number {i}")))
            .with(AttrId(1), Value::num(i as f64 * 1.5))
    }

    #[test]
    fn append_get_roundtrip() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let (tid0, p0) = t.append(&tuple(0)).unwrap();
        let (tid1, p1) = t.append(&tuple(1)).unwrap();
        assert_eq!((tid0, tid1), (0, 1));
        assert_ne!(p0, p1);

        let r = t.get(p1).unwrap();
        assert_eq!(r.tid, 1);
        assert!(!r.deleted);
        assert_eq!(r.tuple, tuple(1));
    }

    #[test]
    fn tombstone_is_idempotent() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let (_, p) = t.append(&tuple(7)).unwrap();
        t.mark_deleted(p).unwrap();
        t.mark_deleted(p).unwrap();
        assert!(t.get(p).unwrap().deleted);
        assert_eq!(t.deleted_records(), 1);
        assert_eq!(t.live_records(), 0);
    }

    #[test]
    fn scan_returns_all_in_order() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..50 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.mark_deleted(ptrs[10]).unwrap();
        let scanned: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(scanned.len(), 50);
        for (i, (ptr, rec)) in scanned.iter().enumerate() {
            assert_eq!(*ptr, ptrs[i]);
            assert_eq!(rec.tid, i as u64);
            assert_eq!(rec.deleted, i == 10);
            assert_eq!(rec.tuple, tuple(i as u64));
        }
    }

    #[test]
    fn persistence() {
        let dir = std::env::temp_dir().join(format!("iva-tbl-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("t.tbl");
        let p;
        {
            let mut t = TableFile::create(&path, &opts(), IoStats::new()).unwrap();
            p = t.append(&tuple(0)).unwrap().1;
            t.append(&tuple(1)).unwrap();
            t.mark_deleted(p).unwrap();
            t.flush().unwrap();
        }
        let t = TableFile::open(&path, &opts(), IoStats::new()).unwrap();
        assert_eq!(t.next_tid(), 2);
        assert_eq!(t.total_records(), 2);
        assert_eq!(t.deleted_records(), 1);
        assert!(t.get(p).unwrap().deleted);
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_batch_matches_serial_gets() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..60 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.mark_deleted(ptrs[5]).unwrap();
        // Scattered, unsorted, with a duplicate; includes a record in the
        // unflushed tail page.
        let req = [
            ptrs[41], ptrs[3], ptrs[59], ptrs[5], ptrs[3], ptrs[20], ptrs[33],
        ];
        let batch = t.get_batch(&req).unwrap();
        assert_eq!(batch.len(), req.len());
        for (p, rec) in req.iter().zip(&batch) {
            assert_eq!(rec, &t.get(*p).unwrap());
        }
        assert!(batch[3].deleted);
        assert!(t.get_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn get_batch_reads_each_page_once() {
        // Cache big enough to keep pass-1 header pins resident for pass 2.
        let opts = PagerOptions {
            page_size: 256,
            cache_bytes: 256 * 64,
        };
        let mut t = TableFile::create_mem(&opts, IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..60 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.flush().unwrap();
        t.clear_cache();
        let before = t.io_stats().snapshot();
        let batch = t.get_batch(&ptrs).unwrap();
        let d = t.io_stats().snapshot().since(&before);
        assert_eq!(batch.len(), 60);
        // Fetching every record must read each data page at most once;
        // pages form one adjacent run, so (almost) all of it sequential.
        let pages = t.size_bytes() / 256;
        assert!(
            d.disk_page_reads <= pages,
            "{} reads for a {}-page file",
            d.disk_page_reads,
            pages
        );
        assert!(d.random_seeks <= 2, "run not coalesced: {d:?}");
    }

    #[test]
    fn get_at_bad_ptr_fails() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        t.append(&tuple(0)).unwrap();
        assert!(t.get(RecordPtr(1_000_000)).is_err());
    }

    #[test]
    fn forged_record_length_is_rejected_before_allocation() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..20 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        // Forge `rec_len = u32::MAX` into a record header.
        let forged = ptrs[7];
        t.log.write_at(forged.0, &u32::MAX.to_le_bytes()).unwrap();
        assert!(matches!(t.get(forged), Err(SwtError::Corrupt(_))));
        let mut buf = Vec::new();
        assert!(matches!(
            t.read_payload(forged, &mut buf),
            Err(SwtError::Corrupt(_))
        ));
        assert!(buf.capacity() < 1 << 20, "sized by the forged length");
        let batch = [ptrs[1], forged, ptrs[12]];
        assert!(matches!(t.get_batch(&batch), Err(SwtError::Corrupt(_))));
        assert!(matches!(t.pin_records(&batch), Err(SwtError::Corrupt(_))));
        // The neighbours are untouched.
        assert_eq!(t.get(ptrs[8]).unwrap().tuple, tuple(8));
    }

    #[test]
    fn pinned_payload_reads_match_get() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..40 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        let req = [ptrs[30], ptrs[2], ptrs[39], ptrs[2]];
        let pins = t.pin_records(&req).unwrap();
        assert_eq!(pins.len(), req.len());
        let mut buf = Vec::new();
        for (i, &p) in req.iter().enumerate() {
            let head = t.read_payload_pinned(&pins, i, &mut buf).unwrap();
            let rec = t.get(p).unwrap();
            assert_eq!(head.tid, rec.tid);
            assert_eq!(decode_record(&buf).unwrap().0, rec.tuple);
        }
        assert!(t.read_payload_pinned(&pins, 4, &mut buf).is_err());
    }

    #[test]
    fn empty_tuple_storable() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let (_, p) = t.append(&Tuple::new()).unwrap();
        assert!(t.get(p).unwrap().tuple.is_empty());
    }
}
