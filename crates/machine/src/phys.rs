//! Sparse physical memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page size (4 KB, as on x86-64).
pub const PAGE_SIZE: u64 = 4096;

/// A multiply-xor hasher for small integer keys (frame and page numbers).
/// The default SipHash costs more than the lookup it guards on the
/// per-instruction memory path; this is the 64-bit finalizer of
/// MurmurHash3, which mixes well enough for page-number keys.
#[derive(Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut h = self.0 ^ n;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = h ^ (h >> 33);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over integer keys using [`IntHasher`].
pub type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;

type Frame = [u8; PAGE_SIZE as usize];

/// Byte-addressable sparse physical memory backed by 4 KB frames.
///
/// Frames live in a stable arena indexed by a side table, with a
/// one-entry MRU memo so the streak of accesses to a single page (the
/// overwhelmingly common pattern in microbenchmark bodies) resolves its
/// frame without hashing at all.
#[derive(Debug)]
pub struct PhysMem {
    frames: Vec<Box<Frame>>,
    index: IntMap<u32>,
    /// `(frame number, arena slot)` of the last successful lookup;
    /// `u64::MAX` is never a valid frame number for ≤64-bit addresses.
    mru: (u64, u32),
}

impl Default for PhysMem {
    fn default() -> PhysMem {
        PhysMem::new()
    }
}

impl PhysMem {
    /// Creates empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem {
            frames: Vec::new(),
            index: IntMap::default(),
            mru: (u64::MAX, 0),
        }
    }

    /// Arena slot of `frame` if materialized, via the MRU memo.
    fn slot(&mut self, frame: u64) -> Option<u32> {
        if self.mru.0 == frame {
            return Some(self.mru.1);
        }
        let slot = *self.index.get(&frame)?;
        self.mru = (frame, slot);
        Some(slot)
    }

    /// Arena slot of `frame`, materializing a zero frame if absent.
    fn slot_or_insert(&mut self, frame: u64) -> u32 {
        if self.mru.0 == frame {
            return self.mru.1;
        }
        let slot = match self.index.get(&frame) {
            Some(&s) => s,
            None => {
                let s = u32::try_from(self.frames.len()).expect("frame arena fits u32");
                self.frames.push(Box::new([0; PAGE_SIZE as usize]));
                self.index.insert(frame, s);
                s
            }
        };
        self.mru = (frame, slot);
        slot
    }

    /// Whether `[paddr, paddr + len)` stays within one 4 KB frame (the
    /// common case for the ≤8-byte accesses the machine issues).
    fn within_one_frame(paddr: u64, len: u8) -> bool {
        len > 0 && (paddr + len as u64 - 1) / PAGE_SIZE == paddr / PAGE_SIZE
    }

    /// Reads `len` bytes (little-endian) at a physical address.
    pub fn read(&mut self, paddr: u64, len: u8) -> u64 {
        if PhysMem::within_one_frame(paddr, len) {
            // Resolve the frame once for the whole span.
            let Some(slot) = self.slot(paddr / PAGE_SIZE) else {
                return 0;
            };
            let f = &self.frames[slot as usize];
            let offset = (paddr % PAGE_SIZE) as usize;
            let mut buf = [0u8; 8];
            buf[..len as usize].copy_from_slice(&f[offset..offset + len as usize]);
            return u64::from_le_bytes(buf);
        }
        let mut value = 0u64;
        for i in (0..len as u64).rev() {
            let addr = paddr + i;
            let offset = (addr % PAGE_SIZE) as usize;
            let byte = self
                .slot(addr / PAGE_SIZE)
                .map_or(0, |s| self.frames[s as usize][offset]);
            value = (value << 8) | u64::from(byte);
        }
        value
    }

    /// Writes `len` bytes (little-endian) at a physical address.
    pub fn write(&mut self, paddr: u64, len: u8, value: u64) {
        if PhysMem::within_one_frame(paddr, len) {
            let slot = self.slot_or_insert(paddr / PAGE_SIZE);
            let f = &mut self.frames[slot as usize];
            let offset = (paddr % PAGE_SIZE) as usize;
            f[offset..offset + len as usize].copy_from_slice(&value.to_le_bytes()[..len as usize]);
            return;
        }
        for i in 0..len as u64 {
            let addr = paddr + i;
            let offset = (addr % PAGE_SIZE) as usize;
            let slot = self.slot_or_insert(addr / PAGE_SIZE);
            self.frames[slot as usize][offset] = (value >> (8 * i)) as u8;
        }
    }

    /// Zeroes every materialized frame in place. Observationally identical
    /// to fresh memory (unwritten bytes read as zero) while keeping the
    /// frame allocations, which is what makes machine resets cheap.
    pub fn zero_all(&mut self) {
        for frame in &mut self.frames {
            frame.fill(0);
        }
    }

    /// Number of materialized frames (for tests).
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = PhysMem::new();
        m.write(0x1000, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 4), 0x5566_7788);
        assert_eq!(m.read(0x1004, 4), 0x1122_3344);
        assert_eq!(m.read(0x1000, 1), 0x88);
    }

    #[test]
    fn default_memory_starts_empty_at_frame_zero() {
        let mut m = PhysMem::default();
        assert_eq!(m.read(0x10, 8), 0);
        m.write(0x10, 8, 7);
        assert_eq!(m.read(0x10, 8), 7);
    }

    #[test]
    fn cross_page_access() {
        let mut m = PhysMem::new();
        m.write(PAGE_SIZE - 4, 8, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read(PAGE_SIZE - 4, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.frame_count(), 2);
    }

    #[test]
    fn zero_all_keeps_frames_but_clears_contents() {
        let mut m = PhysMem::new();
        m.write(0x2000, 8, 0x1234_5678);
        m.write(PAGE_SIZE - 2, 4, 0xAABB_CCDD); // straddles two frames
        m.zero_all();
        assert_eq!(m.frame_count(), 3);
        assert_eq!(m.read(0x2000, 8), 0);
        assert_eq!(m.read(PAGE_SIZE - 2, 4), 0);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut m = PhysMem::new();
        assert_eq!(m.read(0xDEAD_0000, 8), 0);
        assert_eq!(m.frame_count(), 0, "reads must not materialize frames");
    }

    #[test]
    fn interleaved_pages_hit_through_the_mru_memo() {
        let mut m = PhysMem::new();
        m.write(0x0, 8, 1);
        m.write(0x10_0000, 8, 2);
        for _ in 0..4 {
            assert_eq!(m.read(0x0, 8), 1);
            assert_eq!(m.read(0x10_0000, 8), 2);
        }
    }
}
