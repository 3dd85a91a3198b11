//! Storage backends: one `DiskUnit` per simulated disk.
//!
//! Two implementations:
//! * [`MemDisk`] — blocks held in a flat `Vec`; the default for
//!   experiments (the paper's cost model counts operations, not bytes).
//! * [`FileDisk`] — one preallocated file per disk driven by
//!   *positional* I/O (`read_exact_at`/`write_all_at`): one system
//!   call per block, no internal seek state, serialization through a
//!   reusable byte-staging buffer owned by the unit. This is the
//!   engine target for end-to-end realism — the
//!   [`crate::parallel::DiskPool`]'s service threads own the
//!   `FileDisk`s, so a threaded [`crate::engine::PassEngine`] run
//!   overlaps real file reads of memoryload *k+1* with the in-RAM
//!   permute of *k*.
//!
//! A unit does not know its position in the disk array; out-of-range
//! errors therefore carry a `usize::MAX` placeholder disk index that
//! the [`crate::system::DiskSystem`] patches via
//! [`PdmError::with_disk`] before the error reaches a caller.

use crate::error::{PdmError, Result};
use crate::record::ByteRecord;
use std::fs::{File, OpenOptions};
use std::path::Path;

/// A single disk that stores fixed-size blocks of records of type `R`.
///
/// A `DiskUnit` knows nothing about striping or parallel I/O; the
/// [`crate::system::DiskSystem`] enforces the model on top of a vector
/// of these.
pub trait DiskUnit<R>: Send {
    /// Number of block slots on this disk.
    fn slots(&self) -> usize;
    /// Records per block.
    fn block(&self) -> usize;
    /// Reads block `slot` into `out` (`out.len() == block()`).
    fn read(&mut self, slot: usize, out: &mut [R]) -> Result<()>;
    /// Writes `data` (`data.len() == block()`) to block `slot`.
    fn write(&mut self, slot: usize, data: &[R]) -> Result<()>;
}

/// An in-memory disk: `slots * block` records in one allocation.
pub struct MemDisk<R> {
    block: usize,
    data: Vec<R>,
}

impl<R: Copy + Default> MemDisk<R> {
    /// A zeroed disk with the given number of block slots.
    pub fn new(block: usize, slots: usize) -> Self {
        MemDisk {
            block,
            data: vec![R::default(); block * slots],
        }
    }
}

impl<R: Copy + Default + Send> DiskUnit<R> for MemDisk<R> {
    fn slots(&self) -> usize {
        self.data.len() / self.block
    }

    fn block(&self) -> usize {
        self.block
    }

    fn read(&mut self, slot: usize, out: &mut [R]) -> Result<()> {
        let start = slot * self.block;
        if start + self.block > self.data.len() {
            return Err(PdmError::OutOfRange {
                disk: usize::MAX,
                slot,
                slots_per_disk: self.slots(),
            });
        }
        out.copy_from_slice(&self.data[start..start + self.block]);
        Ok(())
    }

    fn write(&mut self, slot: usize, data: &[R]) -> Result<()> {
        let start = slot * self.block;
        if start + self.block > self.data.len() {
            return Err(PdmError::OutOfRange {
                disk: usize::MAX,
                slot,
                slots_per_disk: self.slots(),
            });
        }
        self.data[start..start + self.block].copy_from_slice(data);
        Ok(())
    }
}

/// A file-backed disk: block `i` lives at byte offset
/// `i * block * R::BYTES` in a single preallocated file.
///
/// Transfers use positional I/O — one `pread`/`pwrite` per block, no
/// seek state — and serialize through `staging`, a block-sized byte
/// buffer allocated once at creation, so steady-state operation
/// performs **no heap allocation** (the file-path half of the engine's
/// allocation-free guarantee; see `crates/pdm/tests/engine_alloc.rs`).
///
/// The record width is pinned at [`FileDisk::create`] time; every
/// subsequent access re-checks it and rejects a mismatched record type
/// with [`PdmError::RecordSize`] instead of slicing the on-disk bytes
/// at the wrong stride.
pub struct FileDisk {
    block: usize,
    slots: usize,
    record_bytes: usize,
    file: File,
    /// Reusable serialization buffer, exactly one block of bytes.
    staging: Vec<u8>,
}

impl FileDisk {
    /// Creates (or truncates) the file at `path` sized for
    /// `slots * block` records of `R`.
    pub fn create<R: ByteRecord>(path: &Path, block: usize, slots: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| PdmError::Io(format!("create {}: {e}", path.display())))?;
        file.set_len((block * slots * R::BYTES) as u64)
            .map_err(|e| PdmError::Io(format!("set_len {}: {e}", path.display())))?;
        Ok(FileDisk {
            block,
            slots,
            record_bytes: R::BYTES,
            file,
            staging: vec![0u8; block * R::BYTES],
        })
    }

    /// The serialized record width this disk was created with.
    pub fn record_bytes(&self) -> usize {
        self.record_bytes
    }

    /// Admission checks shared by read and write: the record type must
    /// match the creation-time geometry and the slot must exist.
    fn admit<R: ByteRecord>(&self, slot: usize) -> Result<()> {
        if R::BYTES != self.record_bytes {
            return Err(PdmError::RecordSize {
                expected: self.record_bytes,
                actual: R::BYTES,
            });
        }
        if slot >= self.slots {
            return Err(PdmError::OutOfRange {
                disk: usize::MAX,
                slot,
                slots_per_disk: self.slots,
            });
        }
        Ok(())
    }

    fn byte_offset(&self, slot: usize) -> u64 {
        (slot * self.block * self.record_bytes) as u64
    }

    #[cfg(unix)]
    fn read_staging_at(&mut self, off: u64) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(&mut self.staging, off)
    }

    #[cfg(unix)]
    fn write_staging_at(&mut self, off: u64) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(&self.staging, off)
    }

    #[cfg(not(unix))]
    fn read_staging_at(&mut self, off: u64) -> std::io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut self.staging)
    }

    #[cfg(not(unix))]
    fn write_staging_at(&mut self, off: u64) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(&self.staging)
    }
}

impl<R: ByteRecord + Send> DiskUnit<R> for FileDisk {
    fn slots(&self) -> usize {
        self.slots
    }

    fn block(&self) -> usize {
        self.block
    }

    fn read(&mut self, slot: usize, out: &mut [R]) -> Result<()> {
        // The trait contract fixes the slice at one block; enforce it
        // as loudly as MemDisk's copy_from_slice would, rather than
        // letting zip() silently truncate the transfer.
        assert_eq!(out.len(), self.block, "read requires a full block");
        self.admit::<R>(slot)?;
        self.read_staging_at(self.byte_offset(slot))
            .map_err(|e| PdmError::Io(format!("read_at slot {slot}: {e}")))?;
        for (chunk, r) in self.staging.chunks_exact(self.record_bytes).zip(out) {
            *r = R::from_bytes(chunk);
        }
        Ok(())
    }

    fn write(&mut self, slot: usize, data: &[R]) -> Result<()> {
        // A short `data` would leave stale staging bytes in the block's
        // tail on disk; reject it like MemDisk does.
        assert_eq!(data.len(), self.block, "write requires a full block");
        self.admit::<R>(slot)?;
        for (chunk, r) in self.staging.chunks_exact_mut(self.record_bytes).zip(data) {
            r.to_bytes(chunk);
        }
        self.write_staging_at(self.byte_offset(slot))
            .map_err(|e| PdmError::Io(format!("write_at slot {slot}: {e}")))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_disk_round_trip() {
        let mut d: MemDisk<u64> = MemDisk::new(4, 8);
        assert_eq!(DiskUnit::<u64>::slots(&d), 8);
        d.write(3, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u64; 4];
        d.read(3, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        // Untouched slot reads back zeros.
        d.read(0, &mut out).unwrap();
        assert_eq!(out, [0, 0, 0, 0]);
    }

    #[test]
    fn mem_disk_out_of_range() {
        let mut d: MemDisk<u64> = MemDisk::new(4, 2);
        let mut out = [0u64; 4];
        assert!(d.read(2, &mut out).is_err());
        assert!(d.write(5, &[0; 4]).is_err());
    }

    #[test]
    fn file_disk_round_trip() {
        let dir = crate::tempdir::TempDir::new("pdm-test");
        let path = dir.path().join("disk0.bin");
        let mut d = FileDisk::create::<u64>(&path, 4, 4).unwrap();
        d.write(2, &[9u64, 8, 7, 6]).unwrap();
        d.write(0, &[1u64, 2, 3, 4]).unwrap();
        let mut out = [0u64; 4];
        DiskUnit::<u64>::read(&mut d, 2, &mut out).unwrap();
        assert_eq!(out, [9, 8, 7, 6]);
        DiskUnit::<u64>::read(&mut d, 0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        // Out-of-order access needs no seek bookkeeping: positional
        // reads hit the right offset regardless of history.
        DiskUnit::<u64>::read(&mut d, 2, &mut out).unwrap();
        assert_eq!(out, [9, 8, 7, 6]);
    }

    #[test]
    fn file_disk_out_of_range() {
        let dir = crate::tempdir::TempDir::new("pdm-test-oor");
        let path = dir.path().join("disk0.bin");
        let mut d = FileDisk::create::<u64>(&path, 2, 2).unwrap();
        let mut out = [0u64; 2];
        assert!(DiskUnit::<u64>::read(&mut d, 2, &mut out).is_err());
    }

    /// Regression test for the record-geometry corruption bug: a
    /// `FileDisk` created for one record width used to accept any
    /// other `ByteRecord` type, slicing the on-disk bytes at the
    /// stored stride while `from_bytes`/`to_bytes` assumed the new
    /// type's width — silent corruption (narrower records) or an
    /// out-of-bounds panic (wider ones). Both must now be a typed
    /// error, with the data untouched.
    #[test]
    fn file_disk_rejects_record_size_mismatch() {
        use crate::record::TaggedRecord;
        let dir = crate::tempdir::TempDir::new("pdm-test-recsize");
        let path = dir.path().join("disk0.bin");
        let mut d = FileDisk::create::<u64>(&path, 4, 4).unwrap();
        assert_eq!(d.record_bytes(), 8);
        DiskUnit::<u64>::write(&mut d, 1, &[10, 11, 12, 13]).unwrap();

        // Narrower record type (u32: 4 bytes vs the stored 8).
        let mut narrow = [0u32; 4];
        let err = DiskUnit::<u32>::read(&mut d, 1, &mut narrow).unwrap_err();
        assert_eq!(
            err,
            PdmError::RecordSize {
                expected: 8,
                actual: 4
            }
        );
        let err = DiskUnit::<u32>::write(&mut d, 1, &[0u32; 4]).unwrap_err();
        assert!(matches!(err, PdmError::RecordSize { .. }));

        // Wider record type (TaggedRecord: 16 bytes) — the old code
        // sliced past the staging buffer here.
        let mut wide = [TaggedRecord::default(); 4];
        let err = DiskUnit::<TaggedRecord>::read(&mut d, 1, &mut wide).unwrap_err();
        assert_eq!(
            err,
            PdmError::RecordSize {
                expected: 8,
                actual: 16
            }
        );

        // The rejected writes must not have touched the data.
        let mut out = [0u64; 4];
        DiskUnit::<u64>::read(&mut d, 1, &mut out).unwrap();
        assert_eq!(out, [10, 11, 12, 13]);
    }

    /// A short write must fail loudly (like MemDisk), never flush
    /// stale staging-buffer bytes into the block's tail on disk.
    #[test]
    #[should_panic(expected = "full block")]
    fn file_disk_rejects_short_write() {
        let dir = crate::tempdir::TempDir::new("pdm-test-short");
        let path = dir.path().join("disk0.bin");
        let mut d = FileDisk::create::<u64>(&path, 4, 2).unwrap();
        let _ = DiskUnit::<u64>::write(&mut d, 0, &[1u64, 2]);
    }

    /// The placeholder disk index a unit reports is patched to the real
    /// one by the system/parallel layers (see `PdmError::with_disk`).
    #[test]
    fn out_of_range_placeholder_is_patchable() {
        let mut d: MemDisk<u64> = MemDisk::new(4, 2);
        let mut out = [0u64; 4];
        let err = d.read(7, &mut out).unwrap_err();
        assert!(matches!(err, PdmError::OutOfRange { disk, .. } if disk == usize::MAX));
        let err = err.with_disk(3);
        assert!(matches!(
            err,
            PdmError::OutOfRange {
                disk: 3,
                slot: 7,
                ..
            }
        ));
    }
}
