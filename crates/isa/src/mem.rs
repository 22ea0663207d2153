//! Sparse, paged byte-addressable target memory.
//!
//! The interpreter's memory is a table of 4 KiB pages allocated on first
//! write, so a 64-bit address space costs only what the workload actually
//! uses. All accessors are little-endian and tolerate unaligned and
//! page-straddling accesses (the silicon and FireSim targets both allow
//! unaligned scalar accesses via trap-and-emulate; we just allow them).
//!
//! # Page lookup
//!
//! Every load and store of every simulated instruction finds its page
//! here, so the lookup computes no hash: the low 4 GiB — where every
//! image, heap and stack of this repository lives — is a two-level radix
//! table indexed by address bits (a root of 4 MiB leaves, each leaf 1024
//! page slots), two dependent loads to the page. Pages at or above 4 GiB,
//! which only a stray pointer reaches, sit in an ordered map. Reads never
//! allocate: a missing root entry, leaf or page reads as zero.
//!
//! [`Memory::load`] copies an image page by page (one `copy_from_slice`
//! per page touched), so `Cpu::new` of the 40 MiB `MM` pointer ring
//! costs a `memcpy`.

use std::collections::BTreeMap;

const PAGE_BITS: u32 = 12;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

type Page = [u8; PAGE_SIZE];

/// Page slots per leaf of the radix table (4 MiB of address space).
const LEAF_BITS: u32 = 10;
const LEAF_PAGES: usize = 1 << LEAF_BITS;
/// Page numbers below this are looked up in the radix table (4 GiB).
const DIRECT_PAGES: u64 = 1 << (2 * LEAF_BITS);

type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// Sparse paged memory image.
#[derive(Default)]
pub struct Memory {
    /// Radix root over the low 4 GiB, grown to the highest leaf written.
    root: Vec<Option<Box<Leaf>>>,
    /// Pages at or above 4 GiB, by page number.
    high: BTreeMap<u64, Box<Page>>,
    resident: usize,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of distinct 4 KiB pages written so far.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        let pn = addr >> PAGE_BITS;
        if pn < DIRECT_PAGES {
            let leaf = self.root.get((pn >> LEAF_BITS) as usize)?.as_deref()?;
            leaf[(pn as usize) & (LEAF_PAGES - 1)].as_deref()
        } else {
            self.high.get(&pn).map(|p| &**p)
        }
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        let pn = addr >> PAGE_BITS;
        let resident = &mut self.resident;
        let fresh = || {
            *resident += 1;
            Box::new([0u8; PAGE_SIZE])
        };
        if pn < DIRECT_PAGES {
            let hi = (pn >> LEAF_BITS) as usize;
            if self.root.len() <= hi {
                self.root.resize_with(hi + 1, || None);
            }
            let leaf = self.root[hi].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
            leaf[(pn as usize) & (LEAF_PAGES - 1)].get_or_insert_with(fresh)
        } else {
            self.high.entry(pn).or_insert_with(fresh)
        }
    }

    /// Reads one byte (untouched memory reads as zero).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = val;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let mut out = [0u8; N];
        if off + N <= PAGE_SIZE {
            // Fast path: within one page.
            if let Some(p) = self.page(addr) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    #[inline]
    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + bytes.len() <= PAGE_SIZE {
            self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
        } else {
            self.load(addr, bytes);
        }
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads an f64 (bit pattern).
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes a little-endian u16.
    #[inline]
    pub(crate) fn write_u16(&mut self, addr: u64, val: u16) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Writes a little-endian u32.
    #[inline]
    pub(crate) fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Writes an f64 (bit pattern).
    #[inline]
    pub(crate) fn write_f64(&mut self, addr: u64, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Bulk-loads a byte image at `base`: one copy per page touched.
    pub fn load(&mut self, base: u64, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_first_read() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0xDEAD_BEEF), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn roundtrip_scalars() {
        let mut m = Memory::new();
        m.write_u8(10, 0xAB);
        m.write_u16(100, 0xBEEF);
        m.write_u32(200, 0xDEAD_BEEF);
        m.write_u64(300, 0x0123_4567_89AB_CDEF);
        m.write_f64(400, -3.5);
        assert_eq!(m.read_u8(10), 0xAB);
        assert_eq!(m.read_u16(100), 0xBEEF);
        assert_eq!(m.read_u32(200), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(300), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_f64(400), -3.5);
    }

    #[test]
    fn page_straddling_access() {
        let mut m = Memory::new();
        let addr = (PAGE_SIZE as u64) - 3; // u64 write crosses the boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
        // Byte-level check on both sides of the boundary.
        assert_eq!(m.read_u8(addr), 0x88);
        assert_eq!(m.read_u8(addr + 7), 0x11);
    }

    #[test]
    fn bulk_load_multi_page() {
        let mut m = Memory::new();
        let img: Vec<u8> = (0..3 * PAGE_SIZE + 17).map(|i| (i % 251) as u8).collect();
        m.load(0x10_0000, &img);
        for (i, b) in img.iter().enumerate() {
            assert_eq!(m.read_u8(0x10_0000 + i as u64), *b, "mismatch at {i}");
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0A0B_0C0D);
        assert_eq!(m.read_u8(0), 0x0D);
        assert_eq!(m.read_u8(3), 0x0A);
    }
}
