//! Sparse simulated memory.
//!
//! Every simulated load and store ends here, so the page lookup is one of
//! the interpreter's hottest operations. Three things keep it cheap:
//!
//! * pages live in a flat `Vec` and the page-number index maps to a slot,
//!   so the common path touches one small table entry rather than hashing
//!   into boxed pages;
//! * the index uses a multiplicative hasher — the std `HashMap`'s SipHash
//!   was the single largest cost in the original load/store path;
//! * a small direct-mapped translation cache (64 entries, indexed by the
//!   low page-number bits) remembers recently touched pages (including
//!   "known absent"). Stack frames, counter tables and array walks live
//!   on different pages and alternate per micro-op, so a single-entry
//!   cache thrashes; 64 slots capture the whole working set of a hot
//!   loop with no eviction logic. Entries live in [`Cell`]s so reads
//!   stay `&self`. This is host-side state only — it never affects
//!   simulated metrics.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Slot value in the translation cache meaning "this page is unallocated".
const ABSENT: u32 = u32::MAX;
/// Page number no address can produce (`addr >> 12 < 2^52`), so the cache
/// starts empty without an extra validity flag.
const NO_PAGE: u64 = u64::MAX;
/// Entries in the direct-mapped page-translation cache (power of two).
const TLB_SIZE: usize = 64;

/// Fibonacci-multiplicative hasher for page numbers. Page numbers are
/// small, well-distributed integers; a single multiply mixes them far
/// faster than a DoS-resistant hash, and simulated addresses are not
/// attacker-controlled.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes into the high bits; fold them down for the
        // table's low-bit bucket selection.
        self.0 ^ (self.0 >> 32)
    }
}

/// A sparse, demand-paged 64-bit byte-addressed memory. Unwritten bytes
/// read as zero.
pub struct Memory {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// Direct-mapped `(page number, slot)` translation cache indexed by
    /// the low page-number bits; slot [`ABSENT`] caches a miss.
    /// Allocation always refills the allocated page's entry (same page
    /// number → same cache index), so a cached miss can never go stale.
    tlb: [Cell<(u64, u32)>; TLB_SIZE],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: Vec::new(),
            index: HashMap::default(),
            tlb: std::array::from_fn(|_| Cell::new((NO_PAGE, ABSENT))),
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Memory({} pages)", self.pages.len())
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Slot of `page_no`, consulting and refilling the translation cache.
    #[inline]
    fn slot_of(&self, page_no: u64) -> Option<u32> {
        let entry = &self.tlb[(page_no as usize) & (TLB_SIZE - 1)];
        let (cached_no, cached_slot) = entry.get();
        if cached_no == page_no {
            return (cached_slot != ABSENT).then_some(cached_slot);
        }
        let slot = self.index.get(&page_no).copied();
        entry.set((page_no, slot.unwrap_or(ABSENT)));
        slot
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.slot_of(addr >> PAGE_SHIFT)
            .map(|s| &*self.pages[s as usize])
    }

    /// The page containing `addr`, allocated on demand.
    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page_no = addr >> PAGE_SHIFT;
        let slot = match self.slot_of(page_no) {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.pages.len()).expect("page count fits u32");
                assert!(s != ABSENT, "page table full");
                self.pages.push(Box::new([0u8; PAGE_SIZE]));
                self.index.insert(page_no, s);
                self.tlb[(page_no as usize) & (TLB_SIZE - 1)].set((page_no, s));
                s
            }
        };
        &mut self.pages[slot as usize]
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte (allocating the page on demand).
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads a little-endian `u64` (page crossings handled).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off + 8 <= PAGE_SIZE {
            match self.page(addr) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian `u64` (page crossings handled).
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        let off = (addr & PAGE_MASK) as usize;
        let bytes = val.to_le_bytes();
        if off + 8 <= PAGE_SIZE {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Reads an `f64` stored by [`Memory::write_f64`].
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its bit pattern.
    pub fn write_f64(&mut self, addr: u64, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Copies a byte slice into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Number of resident pages (each 4 KB).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0xdead_beef), 0);
        assert_eq!(m.read_u64(0x1234_5678), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u64_roundtrip_aligned() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(0x1000), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(0x1000), 0x08); // little endian
        assert_eq!(m.read_u8(0x1007), 0x01);
    }

    #[test]
    fn u64_roundtrip_page_crossing() {
        let mut m = Memory::new();
        let addr = 0x1FFC; // crosses the 0x1000..0x2000 page boundary
        m.write_u64(addr, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read_u64(addr), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(0x2000, -1234.5e-6);
        assert_eq!(m.read_f64(0x2000), -1234.5e-6);
        let nan_bits = f64::NAN.to_bits();
        m.write_f64(0x2008, f64::NAN);
        assert_eq!(m.read_u64(0x2008), nan_bits);
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = Memory::new();
        m.write_bytes(0x3000, &[1, 2, 3, 4]);
        assert_eq!(m.read_u8(0x3000), 1);
        assert_eq!(m.read_u8(0x3003), 4);
        assert_eq!(m.read_u8(0x3004), 0);
    }

    #[test]
    fn overwrite_is_last_writer_wins() {
        let mut m = Memory::new();
        m.write_u64(0x4000, u64::MAX);
        m.write_u8(0x4000, 0);
        assert_eq!(m.read_u64(0x4000), u64::MAX - 0xFF);
    }

    #[test]
    fn cached_miss_is_invalidated_by_allocation() {
        let mut m = Memory::new();
        // Prime the page's translation-cache entry with a miss...
        assert_eq!(m.read_u64(0x5000), 0);
        // ...then allocate it; the write must refill the cached entry.
        m.write_u64(0x5000, 77);
        assert_eq!(m.read_u64(0x5000), 77);
        // Page 0x45 maps to the same one of the 64 entries as page 0x5,
        // so its lookup evicts the entry; the first page must still read
        // back through the index.
        m.write_u64(0x4_5000, 88);
        assert_eq!(m.read_u64(0x5000), 77);
        assert_eq!(m.read_u64(0x4_5000), 88);
    }

    #[test]
    fn many_pages_roundtrip_through_the_index() {
        let mut m = Memory::new();
        for i in 0..512u64 {
            m.write_u64(i * 0x1000 + 8, i);
        }
        assert_eq!(m.resident_pages(), 512);
        for i in 0..512u64 {
            assert_eq!(m.read_u64(i * 0x1000 + 8), i);
        }
    }
}
