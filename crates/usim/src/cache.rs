//! L1 cache models.
//!
//! The UltraSPARC-I/II had a 16 KB direct-mapped, write-through,
//! no-write-allocate on-chip data cache with 32-byte lines (16-byte
//! sub-blocks), and a 16 KB 2-way instruction cache. The paper's hot-path
//! results (Tables 4–5) are about the D-cache, whose direct mapping makes
//! conflict misses — and therefore *path-correlated* misses — common.

/// A direct-mapped cache (tag array only — data contents live in
/// [`Memory`](crate::Memory)).
#[derive(Clone, Debug)]
pub struct DirectMappedCache {
    line_shift: u32,
    index_mask: u64,
    /// `index_mask.count_ones()`, precomputed — the tag extraction sits
    /// on the simulator's per-load/store path.
    tag_shift: u32,
    tags: Vec<u64>,
}

const INVALID: u64 = u64::MAX;

impl DirectMappedCache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines. Both must
    /// be powers of two.
    ///
    /// # Panics
    ///
    /// Panics if the sizes are not powers of two or `size_bytes <
    /// line_bytes`.
    pub fn new(size_bytes: u64, line_bytes: u64) -> DirectMappedCache {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line must be a power of two");
        assert!(size_bytes >= line_bytes, "cache smaller than one line");
        let lines = size_bytes / line_bytes;
        DirectMappedCache {
            line_shift: line_bytes.trailing_zeros(),
            index_mask: lines - 1,
            tag_shift: lines.trailing_zeros(),
            tags: vec![INVALID; lines as usize],
        }
    }

    /// Accesses `addr`; returns `true` on a hit. On a miss the line is
    /// filled (unless `allocate` is false, modeling write-through
    /// no-allocate stores).
    pub fn access(&mut self, addr: u64, allocate: bool) -> bool {
        let line = addr >> self.line_shift;
        let idx = (line & self.index_mask) as usize;
        let tag = line >> self.tag_shift;
        if self.tags[idx] == tag {
            true
        } else {
            if allocate {
                self.tags[idx] = tag;
            }
            false
        }
    }

    /// True if `addr` is resident, without touching the cache state.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let idx = (line & self.index_mask) as usize;
        let tag = line >> self.tag_shift;
        self.tags[idx] == tag
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.tags.len()
    }
}

/// A set-associative cache with LRU replacement (used for the I-cache).
#[derive(Clone, Debug)]
pub struct AssocCache {
    line_shift: u32,
    set_mask: u64,
    /// `set_mask.count_ones()`, precomputed (see [`DirectMappedCache`]).
    tag_shift: u32,
    ways: usize,
    /// `tags[set * ways + way]` holds a tag.
    tags: Vec<u64>,
    /// Replacement state. Which of its two ways is older is all the LRU
    /// state a 2-way set has, so `lru[set]` holds that way's index; wider
    /// sets keep a recency stamp per way in `lru[set * ways + way]`,
    /// drawn from `clock`.
    lru: Vec<u64>,
    clock: u64,
    /// State generation: bumped by every access that changes `tags` or
    /// `lru` (and, on the generic path, by every access), and by
    /// [`AssocCache::flush`]. Equal generations mean an unchanged cache.
    generation: u64,
}

impl AssocCache {
    /// Creates a `ways`-way cache of `size_bytes` with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two geometry or zero ways.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> AssocCache {
        assert!(ways > 0, "at least one way required");
        assert!(size_bytes.is_power_of_two() && line_bytes.is_power_of_two());
        let sets = size_bytes / line_bytes / ways as u64;
        assert!(sets.is_power_of_two() && sets > 0, "bad geometry");
        let lru_len = if ways == 2 { 1 } else { ways } * sets as usize;
        AssocCache {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            ways,
            tags: vec![INVALID; (sets as usize) * ways],
            lru: vec![0; lru_len],
            clock: 0,
            generation: 0,
        }
    }

    /// The state generation. If it is unchanged since some earlier
    /// point, no access since then has changed which lines are resident
    /// or which are most recently used — so an access that hit an MRU
    /// line then would hit it again now, and change nothing.
    #[inline(always)]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of sets. Consecutive lines map to consecutive sets, so a
    /// span of at most this many lines never puts two in one set.
    pub fn sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Accesses `addr`; returns `true` on a hit. Misses fill the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.tag_shift;
        let base = set * self.ways;
        // The UltraSPARC I-cache (every block fetch goes through it) is
        // 2-way, and a 2-way set's LRU state is one way index: a hit
        // makes the other way the LRU one, a miss fills the LRU way (way
        // 0 in an untouched set) and does the same. That beats the
        // generic way loop and stamp scan. A hit on the set's MRU way
        // leaves the state alone, so only it keeps the generation.
        if self.ways == 2 {
            let way = if self.tags[base] == tag {
                0
            } else if self.tags[base + 1] == tag {
                1
            } else {
                let victim = self.lru[set];
                self.tags[base + victim as usize] = tag;
                self.lru[set] = victim ^ 1;
                self.generation += 1;
                return false;
            };
            if self.lru[set] != way ^ 1 {
                self.lru[set] = way ^ 1;
                self.generation += 1;
            }
            return true;
        }
        self.generation += 1;
        self.clock += 1;
        for w in 0..self.ways {
            if self.tags[base + w] == tag {
                self.lru[base + w] = self.clock;
                return true;
            }
        }
        // Miss: evict LRU.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.lru[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = tag;
        self.lru[base + victim] = self.clock;
        false
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.lru.fill(0);
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_hit_after_fill() {
        let mut c = DirectMappedCache::new(16 * 1024, 32);
        assert_eq!(c.num_lines(), 512);
        assert!(!c.access(0x1000, true)); // cold miss
        assert!(c.access(0x1000, true)); // hit
        assert!(c.access(0x101F, true)); // same 32-byte line
        assert!(!c.access(0x1020, true)); // next line
    }

    #[test]
    fn direct_mapped_conflict_misses() {
        let mut c = DirectMappedCache::new(16 * 1024, 32);
        // Addresses 16 KB apart map to the same line: classic conflict.
        assert!(!c.access(0x0000, true));
        assert!(!c.access(0x4000, true));
        assert!(!c.access(0x0000, true)); // evicted by 0x4000
        assert!(!c.access(0x4000, true));
    }

    #[test]
    fn no_allocate_stores_leave_cache_unchanged() {
        let mut c = DirectMappedCache::new(1024, 32);
        assert!(!c.access(0x40, false)); // write miss, no allocate
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40, true)); // still a miss for a read
        assert!(c.probe(0x40));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = DirectMappedCache::new(1024, 32);
        c.access(0x80, true);
        assert!(c.probe(0x80));
        c.flush();
        assert!(!c.probe(0x80));
    }

    #[test]
    fn assoc_cache_tolerates_conflicts_up_to_ways() {
        let mut c = AssocCache::new(1024, 32, 2);
        // Three lines mapping to the same set of a 2-way cache.
        let stride = 512; // sets = 1024/32/2 = 16 sets; 16*32 = 512
        assert!(!c.access(0));
        assert!(!c.access(stride));
        assert!(c.access(0)); // both resident
        assert!(c.access(stride));
        assert!(!c.access(2 * stride)); // evicts LRU (0)
        assert!(!c.access(0));
        // A hit refreshes its line: touching `2 * stride` makes `0` the
        // LRU line, so the next conflicting fill evicts `0`, not it.
        assert!(c.access(2 * stride));
        assert!(!c.access(stride));
        assert!(c.access(2 * stride));
        assert!(!c.access(0));
    }

    #[test]
    fn generation_moves_exactly_when_state_can_change() {
        let mut c = AssocCache::new(1024, 32, 2);
        let stride = 512; // 16 sets of 32-byte lines: same set every 512 B
        let mut g = c.generation();
        let mut step = |c: &mut AssocCache, addr, hit, moved, what: &str| {
            assert_eq!(c.access(addr), hit, "hit/miss: {what}");
            assert_eq!(c.generation() != g, moved, "generation: {what}");
            g = c.generation();
        };
        step(&mut c, 0, false, true, "cold miss fills");
        step(&mut c, 0, true, false, "hit on the MRU line");
        step(&mut c, 8, true, false, "MRU line, other word");
        step(&mut c, stride, false, true, "miss fills the other way");
        step(&mut c, 0, true, true, "hit refreshes LRU");
        step(&mut c, 0, true, false, "hit on the refreshed MRU line");
        step(&mut c, 2 * stride, false, true, "conflict miss evicts");
        step(&mut c, 32, false, true, "miss in another set");
        step(
            &mut c,
            2 * stride,
            true,
            false,
            "MRU line after another set moved",
        );
        c.flush();
        assert_ne!(c.generation(), g, "flush");

        // Off the 2-way path every access moves the generation, hits on
        // the MRU line included.
        for ways in [1, 4] {
            let mut c = AssocCache::new(1024, 32, ways);
            for addr in [0, 0, 0, 32, 32, 0] {
                let before = c.generation();
                c.access(addr);
                assert_ne!(c.generation(), before, "{ways}-way access to {addr}");
            }
            let before = c.generation();
            c.flush();
            assert_ne!(c.generation(), before, "{ways}-way flush");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = DirectMappedCache::new(1000, 32);
    }
}
