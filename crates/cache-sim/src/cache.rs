//! A generic set-associative cache with pluggable replacement.

use crate::config::CacheGeometry;
use crate::line::LineMeta;
use crate::replacement::{Replacement, ReplacementPolicy};
use crate::types::LineAddr;

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Its metadata at eviction time.
    pub meta: LineMeta,
}

/// Lane-broadcast constant: the low bit of every byte of a `u64`.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// Lane-broadcast constant: the high bit of every byte of a `u64`.
const LANE_HI: u64 = 0x8080_8080_8080_8080;

/// One-byte fingerprint of a tag: seven hash bits plus the forced-set MSB.
///
/// The MSB doubles as the way's validity bit — an empty way stores `0x00`,
/// which can never equal a valid fingerprint, so the probe kernel needs no
/// separate validity bitset. The hash multiplier is the 64-bit golden-ratio
/// constant (SplitMix64's increment), whose top bits mix all tag bits.
#[inline]
fn fingerprint(tag: u64) -> u8 {
    ((tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as u8) | 0x80
}

/// SWAR zero-byte detector: returns a mask with bit `8k+7` set for (at
/// least) every byte `k` of `x` that is zero.
///
/// This is the classic `(x - 0x01…) & !x & 0x80…` trick. It can report a
/// false positive for a `0x01` byte that borrows from a lower zero byte —
/// harmless here, because every candidate lane is confirmed against the full
/// tag array before a hit is declared.
#[inline]
fn zero_byte_lanes(x: u64) -> u64 {
    x.wrapping_sub(LANE_LO) & !x & LANE_HI
}

/// A way's full tag and metadata, stored side by side.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u64,
    meta: LineMeta,
}

/// One set-associative cache level.
///
/// Lines are identified by [`LineAddr`]; the set index is the low bits of the
/// line address and the tag is the remainder. The cache does not know its
/// level — the [`Hierarchy`](crate::Hierarchy) composes caches into L1/L2/L3.
///
/// Storage is two flat arrays, laid out for the probe-dominated simulation
/// hot path: one-byte tag *fingerprints* packed eight per `u64` word (so a
/// whole 8-way set is compared in a single branchless SWAR operation), and
/// one slot per way holding its full tag beside its [`LineMeta`], read only
/// on a fingerprint hit. A probe that misses a 16-way set reads 16 bytes
/// of fingerprints instead of 16 tags, and a fill, or a metadata update
/// after a probe, touches one host cache line of slots.
///
/// A way is empty exactly when its fingerprint byte is 0, and nothing reads
/// an empty way's tag, metadata or replacement state. So emptying a cache
/// for reuse (as [`Hierarchy::new`](crate::Hierarchy::new) does with a
/// dropped machine's caches) zeroes only the fingerprint words.
///
/// # Examples
///
/// ```
/// use cache_sim::{Cache, CacheGeometry, LineAddr, LineMeta};
/// use cache_sim::Replacement;
///
/// let mut c = Cache::new(CacheGeometry { sets: 4, ways: 2 }, Replacement::Lru);
/// assert!(!c.contains(LineAddr(5)));
/// let evicted = c.fill(LineAddr(5), LineMeta::default());
/// assert!(evicted.is_none());
/// assert!(c.contains(LineAddr(5)));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// Packed per-way fingerprints, `words_per_set` words per set, one byte
    /// per way in ascending way order. `0x00` marks an empty way; pad bytes
    /// beyond the associativity stay `0x00` forever and are masked out of
    /// every scan by the lane masks.
    fps: Vec<u64>,
    /// Tag and metadata of each way, indexed `set * ways + way`;
    /// meaningful only where the fingerprint byte is nonzero.
    slots: Vec<Slot>,
    policy: ReplacementPolicy,
    set_mask: u64,
    set_shift: u32,
    /// `ways.div_ceil(8)`: fingerprint words per set.
    words_per_set: usize,
    /// `LANE_HI` restricted to the real-way bytes of a set's last
    /// fingerprint word (all words before it are fully populated).
    tail_lanes: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has a non-power-of-two set count.
    #[must_use]
    pub fn new(geometry: CacheGeometry, replacement: Replacement) -> Self {
        assert!(
            geometry.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let policy = ReplacementPolicy::new(replacement, geometry.sets, geometry.ways);
        let words_per_set = geometry.ways.div_ceil(8);
        let tail_ways = geometry.ways - (words_per_set - 1) * 8;
        let tail_lanes = if tail_ways == 8 {
            LANE_HI
        } else {
            LANE_HI & ((1u64 << (tail_ways * 8)) - 1)
        };
        Self {
            fps: vec![0; geometry.sets * words_per_set],
            slots: vec![Slot::default(); geometry.lines()],
            set_mask: (geometry.sets as u64) - 1,
            set_shift: geometry.sets.trailing_zeros(),
            words_per_set,
            tail_lanes,
            geometry,
            policy,
        }
    }

    /// A cache with no sets and no storage, to stand in for one moved out
    /// of its owner. It allocates nothing.
    pub(crate) fn unallocated() -> Self {
        Self {
            geometry: CacheGeometry { sets: 0, ways: 0 },
            fps: Vec::new(),
            slots: Vec::new(),
            policy: ReplacementPolicy::new(Replacement::Random { seed: 0 }, 0, 0),
            set_mask: 0,
            set_shift: 0,
            words_per_set: 0,
            tail_lanes: 0,
        }
    }

    /// Empties the cache and keeps its storage. Only the fingerprint words
    /// are zeroed and the replacement policy's clock or generator reset
    /// ([`ReplacementPolicy::reset`]); the stale tags, metadata and
    /// replacement state of the emptied ways are never read (see the type
    /// docs). The result behaves exactly as a new cache of the same
    /// geometry and policy.
    pub(crate) fn clear(&mut self) {
        self.fps.fill(0);
        self.policy.reset();
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Set index of a line.
    #[must_use]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// Tag of a line (the bits above the set index).
    fn tag_of(&self, line: LineAddr) -> u64 {
        line.0 >> self.set_shift
    }

    /// Reassembles a line address from a set index and tag.
    fn line_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr((tag << self.set_shift) | set as u64)
    }

    fn slot_index(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    /// Lane markers (`LANE_HI` bits) of the real ways in fingerprint word
    /// `word` of a set: full for every word but the last, `tail_lanes` there.
    #[inline]
    fn lanes_of(&self, word: usize) -> u64 {
        if word + 1 == self.words_per_set {
            self.tail_lanes
        } else {
            LANE_HI
        }
    }

    /// The fingerprint byte of `way` in `set` (`0x00` = empty way).
    #[inline]
    fn fp_byte(&self, set: usize, way: usize) -> u8 {
        (self.fps[set * self.words_per_set + (way >> 3)] >> ((way & 7) * 8)) as u8
    }

    /// Overwrites the fingerprint byte of `way` in `set`.
    #[inline]
    fn set_fp_byte(&mut self, set: usize, way: usize, fp: u8) {
        let word = &mut self.fps[set * self.words_per_set + (way >> 3)];
        let shift = (way & 7) * 8;
        *word = (*word & !(0xFFu64 << shift)) | (u64::from(fp) << shift);
    }

    /// The branchless probe kernel: way holding `tag` in `set`, if resident.
    ///
    /// Each fingerprint word is compared against a lane-broadcast of the
    /// target fingerprint in one SWAR subtract-and-mask; candidate lanes are
    /// walked lowest-way-first with `trailing_zeros` and confirmed against
    /// the full tag array. First confirmed way wins, preserving the scalar
    /// linear scan's ascending-way order exactly. Always inlined, so the
    /// private-hit check ([`find`](Self::find)) makes no call.
    #[inline(always)]
    fn probe_set(&self, set: usize, tag: u64) -> Option<usize> {
        let target = u64::from(fingerprint(tag)).wrapping_mul(LANE_LO);
        let word_base = set * self.words_per_set;
        let base = set * self.geometry.ways;
        // Fast path for geometries whose ways fit one fingerprint word
        // (every L1/L2 in the shipped configs): no word loop, no per-word
        // tail-lane branch.
        if self.words_per_set == 1 {
            let mut cand = zero_byte_lanes(self.fps[word_base] ^ target) & self.tail_lanes;
            while cand != 0 {
                let way = (cand.trailing_zeros() >> 3) as usize;
                if self.slots[base + way].tag == tag {
                    return Some(way);
                }
                cand &= cand - 1;
            }
            return None;
        }
        for word in 0..self.words_per_set {
            let mut cand =
                zero_byte_lanes(self.fps[word_base + word] ^ target) & self.lanes_of(word);
            while cand != 0 {
                let way = word * 8 + (cand.trailing_zeros() >> 3) as usize;
                if self.slots[base + way].tag == tag {
                    return Some(way);
                }
                cand &= cand - 1;
            }
        }
        None
    }

    /// Lowest-index empty way of `set`, if any: one branchless complement-
    /// and-mask per fingerprint word (exact — valid fingerprints always have
    /// their MSB set, so an empty way is the only `0x00` lane).
    #[inline]
    fn first_invalid_way(&self, set: usize) -> Option<usize> {
        let word_base = set * self.words_per_set;
        for word in 0..self.words_per_set {
            let empty = !self.fps[word_base + word] & self.lanes_of(word);
            if empty != 0 {
                return Some(word * 8 + (empty.trailing_zeros() >> 3) as usize);
            }
        }
        None
    }

    /// Where `line` is resident, as `(set, way)`, without touching
    /// replacement state. Always inlined, so the hierarchy's private-hit
    /// check makes no call.
    #[inline(always)]
    pub(crate) fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        Some((set, self.probe_set(set, self.tag_of(line))?))
    }

    /// Whether the line is resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Looks a line up *and* updates replacement state on a hit. Returns the
    /// line's metadata when resident.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        let (set, way) = self.find(line)?;
        self.policy.on_touch(set, way);
        let idx = self.slot_index(set, way);
        Some(&mut self.slots[idx].meta)
    }

    /// Updates replacement state as a hit on `way` of `set` would, for a
    /// hit found by [`find`](Self::find).
    #[inline]
    pub(crate) fn touch_way(&mut self, set: usize, way: usize) {
        self.policy.on_touch(set, way);
    }

    /// Metadata of the line in `way` of `set`, as found by
    /// [`find`](Self::find).
    #[inline]
    pub(crate) fn meta_at(&self, set: usize, way: usize) -> &LineMeta {
        &self.slots[self.slot_index(set, way)].meta
    }

    /// Reads a line's metadata without updating replacement state.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&LineMeta> {
        let (set, way) = self.find(line)?;
        Some(&self.slots[self.slot_index(set, way)].meta)
    }

    /// Mutates a line's metadata without updating replacement state.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        let (set, way) = self.find(line)?;
        let idx = self.slot_index(set, way);
        Some(&mut self.slots[idx].meta)
    }

    /// Inserts a line, evicting a victim if the set is full. The new line is
    /// marked most-recently-used. If the line is already resident its
    /// metadata is replaced in place (no eviction).
    pub fn fill(&mut self, line: LineAddr, meta: LineMeta) -> Option<EvictedLine> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        // Already resident: overwrite metadata.
        if let Some(way) = self.probe_set(set, tag) {
            self.policy.on_touch(set, way);
            let idx = self.slot_index(set, way);
            self.slots[idx].meta = meta;
            return None;
        }
        self.insert(set, tag, meta)
    }

    /// [`fill`](Self::fill) for a line the caller knows is absent: the
    /// hierarchy fills only lines its own lookups just missed, so it skips
    /// the residency probe.
    pub(crate) fn fill_absent(&mut self, line: LineAddr, meta: LineMeta) -> Option<EvictedLine> {
        debug_assert!(!self.contains(line), "fill_absent of resident {line}");
        self.insert(self.set_of(line), self.tag_of(line), meta)
    }

    /// The insertion body of [`fill`](Self::fill): places an absent `tag`
    /// in `set`, evicting a victim if the set is full.
    fn insert(&mut self, set: usize, tag: u64, meta: LineMeta) -> Option<EvictedLine> {
        // Prefer the lowest-index empty way.
        if let Some(way) = self.first_invalid_way(set) {
            let idx = self.slot_index(set, way);
            self.set_fp_byte(set, way, fingerprint(tag));
            self.slots[idx] = Slot { tag, meta };
            self.policy.on_touch(set, way);
            return None;
        }
        // Evict a victim.
        let way = self.policy.victim(set);
        let idx = self.slot_index(set, way);
        let victim = std::mem::replace(&mut self.slots[idx], Slot { tag, meta });
        self.set_fp_byte(set, way, fingerprint(tag));
        self.policy.on_touch(set, way);
        Some(EvictedLine {
            line: self.line_of(set, victim.tag),
            meta: victim.meta,
        })
    }

    /// Removes a line, returning its metadata if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineMeta> {
        let (set, way) = self.find(line)?;
        let idx = self.slot_index(set, way);
        self.set_fp_byte(set, way, 0);
        Some(self.slots[idx].meta)
    }

    /// Number of valid lines resident.
    ///
    /// Valid fingerprint bytes always have their MSB set and empty/pad bytes
    /// are zero, so this is one popcount per fingerprint word.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fps
            .iter()
            .map(|w| (w & LANE_HI).count_ones() as usize)
            .sum()
    }

    /// Whether the cache holds no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fps.iter().all(|&w| w == 0)
    }

    /// Way index the branchless fingerprint kernel resolves `line` to, if
    /// resident. Public for the differential suite in
    /// `tests/fingerprint_kernel.rs`; not part of the simulation API.
    #[doc(hidden)]
    #[must_use]
    pub fn probe_way(&self, line: LineAddr) -> Option<usize> {
        self.probe_set(self.set_of(line), self.tag_of(line))
    }

    /// Reference scalar lookup: a plain ascending linear scan over validity
    /// and full tags, retained as the oracle the SWAR kernel is
    /// differentially tested against. Public for
    /// `tests/fingerprint_kernel.rs`; not part of the simulation API.
    #[doc(hidden)]
    #[must_use]
    pub fn probe_way_scalar(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let base = set * self.geometry.ways;
        (0..self.geometry.ways)
            .find(|&way| self.fp_byte(set, way) != 0 && self.slots[base + way].tag == tag)
    }

    /// Iterates over resident lines and their metadata.
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, &LineMeta)> + '_ {
        let ways = self.geometry.ways;
        (0..self.geometry.sets).flat_map(move |set| {
            (0..ways).filter_map(move |way| {
                if self.fp_byte(set, way) != 0 {
                    let slot = &self.slots[set * ways + way];
                    Some((self.line_of(set, slot.tag), &slot.meta))
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> Cache {
        Cache::new(CacheGeometry { sets, ways }, Replacement::Lru)
    }

    #[test]
    fn fill_and_lookup() {
        let mut c = cache(4, 2);
        assert!(c.fill(LineAddr(0x10), LineMeta::default()).is_none());
        assert!(c.contains(LineAddr(0x10)));
        assert!(!c.contains(LineAddr(0x11)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn set_mapping_uses_low_bits() {
        let c = cache(4, 2);
        assert_eq!(c.set_of(LineAddr(0)), 0);
        assert_eq!(c.set_of(LineAddr(5)), 1);
        assert_eq!(c.set_of(LineAddr(7)), 3);
    }

    #[test]
    fn eviction_returns_lru_victim_with_correct_address() {
        let mut c = cache(2, 2);
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        assert!(c.fill(LineAddr(0), LineMeta::default()).is_none());
        assert!(c.fill(LineAddr(2), LineMeta::default()).is_none());
        let evicted = c.fill(LineAddr(4), LineMeta::default()).expect("set full");
        assert_eq!(evicted.line, LineAddr(0));
        assert!(!c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(2)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut c = cache(2, 2);
        c.fill(LineAddr(0), LineMeta::default());
        c.fill(LineAddr(2), LineMeta::default());
        c.touch(LineAddr(0)); // now line 2 is LRU
        let evicted = c.fill(LineAddr(4), LineMeta::default()).expect("set full");
        assert_eq!(evicted.line, LineAddr(2));
    }

    #[test]
    fn refill_of_resident_line_replaces_meta_without_eviction() {
        let mut c = cache(2, 1);
        c.fill(LineAddr(0), LineMeta::default());
        let meta = LineMeta::default().with_dirty(true);
        let evicted = c.fill(LineAddr(0), meta);
        assert!(evicted.is_none());
        assert!(c.peek(LineAddr(0)).expect("resident").dirty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes_and_returns_meta() {
        let mut c = cache(2, 2);
        let meta = LineMeta::default().with_protected(true);
        c.fill(LineAddr(6), meta);
        let got = c.invalidate(LineAddr(6)).expect("resident");
        assert!(got.protected());
        assert!(!c.contains(LineAddr(6)));
        assert!(c.invalidate(LineAddr(6)).is_none());
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = cache(2, 2);
        c.fill(LineAddr(0), LineMeta::default());
        c.fill(LineAddr(2), LineMeta::default());
        let _ = c.peek(LineAddr(0));
        // Line 0 is still LRU because peek doesn't touch.
        let evicted = c.fill(LineAddr(4), LineMeta::default()).expect("set full");
        assert_eq!(evicted.line, LineAddr(0));
    }

    #[test]
    fn resident_lines_enumerates_all() {
        let mut c = cache(4, 2);
        for i in 0..5u64 {
            c.fill(LineAddr(i), LineMeta::default());
        }
        let mut lines: Vec<_> = c.resident_lines().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = cache(4, 1);
        for i in 0..4u64 {
            assert!(c.fill(LineAddr(i), LineMeta::default()).is_none());
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn meta_mutation_via_peek_mut() {
        let mut c = cache(2, 1);
        c.fill(LineAddr(1), LineMeta::default());
        c.peek_mut(LineAddr(1))
            .expect("resident")
            .set_accessed(true);
        assert!(c.peek(LineAddr(1)).expect("resident").accessed());
    }

    #[test]
    fn lru_eviction_follows_touch_order() {
        // LRU order end to end, through the cache's touch and victim calls
        // into the policy's stamps. Lines 0,2,4,6 all map to set 0.
        let mut c = cache(2, 4);
        for line in [6, 2, 0, 4] {
            c.fill(LineAddr(line), LineMeta::default());
        }
        // Fresh conflicting fills must evict in touch order: 6, 2, 0, 4.
        for (i, expect) in [6u64, 2, 0, 4].into_iter().enumerate() {
            let fresh = LineAddr(8 + 2 * i as u64);
            let evicted = c.fill(fresh, LineMeta::default()).expect("set full");
            assert_eq!(evicted.line, LineAddr(expect));
        }
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut c = cache(2, 2);
        // Set 0 holds lines 0, 2; set 1 holds lines 1, 3.
        c.fill(LineAddr(0), LineMeta::default());
        c.fill(LineAddr(2), LineMeta::default());
        c.fill(LineAddr(1), LineMeta::default());
        c.fill(LineAddr(3), LineMeta::default());
        c.touch(LineAddr(0)); // set 0: line 2 is now LRU
        c.touch(LineAddr(3)); // set 1: line 1 is now LRU
        assert_eq!(
            c.fill(LineAddr(4), LineMeta::default()).expect("full").line,
            LineAddr(2)
        );
        assert_eq!(
            c.fill(LineAddr(5), LineMeta::default()).expect("full").line,
            LineAddr(1)
        );
    }

    #[test]
    fn tree_plru_cache_evicts_valid_ways() {
        let mut c = Cache::new(CacheGeometry { sets: 1, ways: 4 }, Replacement::TreePlru);
        for i in 0..16u64 {
            c.fill(LineAddr(i), LineMeta::default());
            assert!(c.contains(LineAddr(i)));
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn cleared_cache_behaves_as_a_new_one() {
        for (replacement, ways) in [
            (Replacement::Lru, 12),
            (Replacement::TreePlru, 8),
            (Replacement::Random { seed: 3 }, 12),
        ] {
            let geometry = CacheGeometry { sets: 2, ways };
            let evictions = |c: &mut Cache, stride: u64| {
                (0..200u64)
                    .filter_map(|i| {
                        let line = LineAddr(i * stride % 61);
                        if i % 7 == 0 {
                            c.invalidate(line);
                        }
                        c.touch(LineAddr(i % 5));
                        c.fill(line, LineMeta::default())
                    })
                    .map(|e| e.line.0)
                    .collect::<Vec<_>>()
            };
            let mut reused = Cache::new(geometry, replacement);
            evictions(&mut reused, 3);
            reused.clear();
            assert!(reused.is_empty());
            let fresh = evictions(&mut Cache::new(geometry, replacement), 5);
            assert_eq!(evictions(&mut reused, 5), fresh, "{replacement:?}");
        }
    }

    #[test]
    fn random_cache_is_deterministic() {
        let run = || {
            let mut c = Cache::new(
                CacheGeometry { sets: 2, ways: 2 },
                Replacement::Random { seed: 3 },
            );
            (0..100u64)
                .filter_map(|i| c.fill(LineAddr(i), LineMeta::default()))
                .map(|e| e.line.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
