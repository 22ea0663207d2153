//! Sparse, paged byte-addressable target memory.
//!
//! The interpreter's memory is a table of 4 KiB pages allocated on first
//! write, so a 64-bit address space costs only what the workload actually
//! writes. All accessors are little-endian and tolerate unaligned and
//! page-straddling accesses (the silicon and FireSim targets both allow
//! unaligned scalar accesses via trap-and-emulate; we just allow them).
//!
//! # Mounted image
//!
//! A program's initialised data is not copied in. [`Memory::mounted`]
//! places a shared, immutable byte image under the page table: a read of
//! a page nobody wrote reads the image's bytes where they lie (zero
//! outside it), and the first write to a page copies that page's part of
//! the image into a fresh page and proceeds on the copy. So an image
//! exists once however many memories are mounted on it, a memory owns
//! only the pages it has written, and no memory sees another's stores —
//! the image cannot be written through any of them. Byte for byte this
//! is [`Memory::new`] followed by a [`Memory::load`] of the image.
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
//! A page that exists is found before the image is consulted, so an
//! access to written memory — every stack and array access — costs what
//! it would without a mount.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

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
    /// The mounted image (empty for none), read where no page exists.
    image: Arc<[u8]>,
    /// Address of the image's first byte.
    image_base: u64,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Creates a memory that reads as `image` at `base` and as zero
    /// elsewhere, without copying it (see the module docs).
    pub fn mounted(base: u64, image: Arc<[u8]>) -> Memory {
        Memory {
            image,
            image_base: base,
            ..Memory::default()
        }
    }

    /// Number of distinct 4 KiB pages written so far: the pages this
    /// memory owns. Pages only ever read through to a mounted image are
    /// not among them.
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
        if pn < DIRECT_PAGES {
            let hi = (pn >> LEAF_BITS) as usize;
            if self.root.len() <= hi {
                self.root.resize_with(hi + 1, || None);
            }
            let leaf = self.root[hi].get_or_insert_with(fresh_leaf);
            leaf[(pn as usize) & (LEAF_PAGES - 1)].get_or_insert_with(|| {
                self.resident += 1;
                fresh_page(pn << PAGE_BITS, &self.image, self.image_base)
            })
        } else {
            match self.high.entry(pn) {
                Entry::Occupied(page) => page.into_mut(),
                Entry::Vacant(slot) => {
                    self.resident += 1;
                    slot.insert(fresh_page(pn << PAGE_BITS, &self.image, self.image_base))
                }
            }
        }
    }

    /// Whether any of the `n` bytes at `addr` lies in the mounted image.
    #[inline]
    fn image_meets(&self, addr: u64, n: usize) -> bool {
        // -(n-1) <= addr - base < len, as one unsigned comparison.
        let lead = n as u64 - 1;
        addr.wrapping_sub(self.image_base).wrapping_add(lead) < self.image.len() as u64 + lead
    }

    /// Fills `out`, which arrives zeroed, with the bytes at `addr` where
    /// no page exists: the image's, zero outside it. Out of line, so the
    /// accessors' own code is a lookup, a comparison and a copy.
    #[inline(never)]
    fn read_image(&self, addr: u64, out: &mut [u8]) {
        let len = self.image.len() as u64;
        let off = addr.wrapping_sub(self.image_base);
        if off < len && out.len() as u64 <= len - off {
            let off = off as usize;
            out.copy_from_slice(&self.image[off..off + out.len()]);
        } else {
            // Astride an edge of the image: byte by byte.
            for (i, b) in out.iter_mut().enumerate() {
                let off = off.wrapping_add(i as u64);
                if off < len {
                    *b = self.image[off as usize];
                }
            }
        }
    }

    /// Reads one byte (untouched memory reads as the mounted image, or zero).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_bytes::<1>(addr)[0]
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
            match self.page(addr) {
                Some(p) => out.copy_from_slice(&p[off..off + N]),
                None if self.image_meets(addr, N) => self.read_image(addr, &mut out),
                None => {}
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

    /// Copies `bytes` in at `base`, one copy per page touched; every
    /// page touched becomes this memory's own.
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

/// A new, empty leaf. Out of line for the same reason as [`fresh_page`],
/// and so that no store reserves a leaf-sized stack frame.
#[inline(never)]
fn fresh_leaf() -> Box<Leaf> {
    Box::new(std::array::from_fn(|_| None))
}

/// A new page for address `page_addr`: the part of `image` (mounted at
/// `image_base`) that lies in it, zero around that. Out of line, so
/// finding a page that exists stays small enough to inline into a store.
#[inline(never)]
fn fresh_page(page_addr: u64, image: &[u8], image_base: u64) -> Box<Page> {
    let mut page = Box::new([0u8; PAGE_SIZE]);
    // The image covers the page's first byte, or starts inside the page,
    // or misses it. (Wrapping differences: an image may lie anywhere.)
    let image_before_page = page_addr.wrapping_sub(image_base);
    let page_before_image = image_base.wrapping_sub(page_addr);
    let (skip, at) = if image_before_page < image.len() as u64 {
        (image_before_page as usize, 0)
    } else if page_before_image < PAGE_SIZE as u64 {
        (0, page_before_image as usize)
    } else {
        return page;
    };
    let n = (image.len() - skip).min(PAGE_SIZE - at);
    page[at..at + n].copy_from_slice(&image[skip..skip + n]);
    page
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
