//! Xor-filter pattern store with periodic rebuild.
//!
//! This backend splits pattern state into two generations:
//!
//! * a **live window** — an exact open-addressing table of
//!   `(line, Security)` pairs sized for `params.capacity()` lines, and
//! * a **frozen history** — an 8-bit xor filter (Graf–Lemire three-segment
//!   peeling construction) built from the live window's keys whenever the
//!   window fills past 7/8 occupancy.
//!
//! A query first probes the live window; a hit bumps `Security` exactly as
//! the cuckoo backends do. On a miss, membership in the frozen history grants
//! one level of *history credit*: a line that was tracked in the previous
//! window re-enters at `Security = 1` instead of `0`, so a Ping-Pong pattern
//! that straddles a rebuild loses at most one promotion step. Rebuilds
//! *forget* security levels (the xor filter stores membership only), which is
//! the backend's ablation signature: near-zero false positives between
//! rebuilds — the live window is exact — at the cost of a detection-latency
//! penalty across rebuild boundaries plus membership-only false positives
//! (≈ 1/256 per probe) from the frozen filter.
//!
//! All rebuild scratch (peeling masks, counts, queue, stack) is allocated
//! once at construction, so steady-state queries and rebuilds are
//! allocation-free, matching the repo's pinned hot-path contract.
//!
//! Reported memory models the hardware layout rather than the simulation's
//! exact keys: a real live window would store `f`-bit tags plus 2-bit
//! security like the cuckoo table (`(1 + f + 2)` bits/entry), and the frozen
//! filter costs `⌈1.23 · n⌉ + 32` bytes for `n` frozen lines.

use std::fmt;

use crate::hash::mix64;
use crate::params::{FilterParams, ParamsError};
use crate::stats::FilterStats;
use crate::store::{FilterBackend, PatternStore, Promotion, QueryOutcome};

/// Sentinel in the `secs` array marking a vacant live slot (valid security
/// levels are tiny, so `0xFF` is unambiguous).
const VACANT: u8 = 0xff;
/// Live-window probe-hash domain separation.
const LIVE_SALT: u64 = 0x11fe_5a17_ab1e_5eed;
/// Second mix constant for xor-filter position derivation.
const XOR_MIX: u64 = 0x9e6c_63d0_676a_9a9a;
/// Rebuild triggers at this fraction of the live window (7/8 full).
const REBUILD_NUM: usize = 7;
const REBUILD_DEN: usize = 8;
/// Peeling retry bound; failure probability per seed is already tiny.
const MAX_SEED_ATTEMPTS: u64 = 128;

/// Arena size for an `n`-key xor filter: `⌈1.23 n⌉ + 32`, rounded up to a
/// multiple of 3 so it splits into equal segments.
fn xor_arena_size(n: usize) -> usize {
    let c = n + (n * 23).div_ceil(100) + 32;
    c.div_ceil(3) * 3
}

/// Multiply-shift reduction of a 32-bit hash onto `0..n`.
#[inline]
fn reduce32(x: u32, n: usize) -> usize {
    ((u64::from(x) * n as u64) >> 32) as usize
}

/// Fingerprint and the three segment positions of `item` under `seed`.
#[inline]
fn xor_positions(item: u64, seed: u64, segment: usize) -> (u8, [usize; 3]) {
    let a = mix64(item.wrapping_add(seed));
    let b = mix64(a ^ XOR_MIX);
    let fp = (b >> 56) as u8;
    (
        fp,
        [
            reduce32(a as u32, segment),
            segment + reduce32((a >> 32) as u32, segment),
            2 * segment + reduce32(b as u32, segment),
        ],
    )
}

/// The two-generation xor-filter pattern store.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{FilterParams, PatternStore, XorPatternStore};
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// let mut store = XorPatternStore::new(FilterParams::paper_default())?;
/// assert!(store.query(0x40).inserted);
/// store.query(0x40);
/// store.query(0x40);
/// assert!(store.query(0x40).captured); // Security reached secThr
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct XorPatternStore {
    params: FilterParams,
    /// Live-window keys; meaningful only where `secs[i] != VACANT`.
    keys: Vec<u64>,
    /// Live-window security levels, `VACANT` marking empty slots.
    secs: Vec<u8>,
    /// Power-of-two live-window index mask.
    mask: usize,
    live_len: usize,
    /// Live occupancy that triggers a rebuild.
    rebuild_at: usize,
    /// Frozen xor-filter fingerprint arena (first `frozen_c` bytes valid).
    fps: Vec<u8>,
    frozen_c: usize,
    frozen_segment: usize,
    frozen_seed: u64,
    /// Keys folded into the frozen filter at the last rebuild.
    frozen_len: usize,
    rebuilds: u64,
    // Preallocated peeling scratch (sized for a full live window).
    build_mask: Vec<u64>,
    build_count: Vec<u32>,
    build_queue: Vec<u32>,
    stack_key: Vec<u64>,
    stack_slot: Vec<u32>,
    promotion: Promotion,
}

impl fmt::Debug for XorPatternStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XorPatternStore")
            .field("params", &self.params)
            .field("live_len", &self.live_len)
            .field("frozen_len", &self.frozen_len)
            .field("rebuilds", &self.rebuilds)
            .field("promotion", &self.promotion)
            .finish_non_exhaustive()
    }
}

impl XorPatternStore {
    /// Creates an empty store sized for `params.capacity()` live lines.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fails validation.
    pub fn new(params: FilterParams) -> Result<Self, ParamsError> {
        params.validate()?;
        let slots = params.capacity().next_power_of_two().max(64);
        let c_max = xor_arena_size(slots);
        Ok(Self {
            keys: vec![0u64; slots],
            secs: vec![VACANT; slots],
            mask: slots - 1,
            live_len: 0,
            rebuild_at: slots * REBUILD_NUM / REBUILD_DEN,
            fps: vec![0u8; c_max],
            frozen_c: 0,
            frozen_segment: 0,
            frozen_seed: 0,
            frozen_len: 0,
            rebuilds: 0,
            build_mask: vec![0u64; c_max],
            build_count: vec![0u32; c_max],
            build_queue: Vec::with_capacity(c_max),
            stack_key: Vec::with_capacity(slots),
            stack_slot: Vec::with_capacity(slots),
            promotion: Promotion::new(&params),
            params,
        })
    }

    /// Lines folded into the frozen filter at the last rebuild.
    #[must_use]
    pub fn frozen_len(&self) -> usize {
        self.frozen_len
    }

    /// Rebuilds performed since construction or [`Self::clear`].
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    #[inline]
    fn home_slot(&self, item: u64) -> usize {
        mix64(item ^ LIVE_SALT) as usize & self.mask
    }

    /// Whether the frozen filter claims membership of `item`.
    #[inline]
    fn frozen_contains(&self, item: u64) -> bool {
        if self.frozen_len == 0 {
            return false;
        }
        let (fp, [p0, p1, p2]) = xor_positions(item, self.frozen_seed, self.frozen_segment);
        self.fps[p0] ^ self.fps[p1] ^ self.fps[p2] == fp
    }

    #[inline]
    fn live_security(&self, item: u64) -> Option<u8> {
        let mut idx = self.home_slot(item);
        loop {
            if self.secs[idx] == VACANT {
                return None;
            }
            if self.keys[idx] == item {
                return Some(self.secs[idx]);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Freezes the live window into a fresh xor filter and empties it.
    /// Runs Graf–Lemire peeling in the preallocated scratch buffers.
    fn rebuild(&mut self) {
        self.rebuilds += 1;
        let n = self.live_len;
        if n == 0 {
            self.frozen_c = 0;
            self.frozen_len = 0;
            return;
        }
        let c = xor_arena_size(n);
        let segment = c / 3;
        let mut attempt = 0u64;
        loop {
            let seed = mix64(self.rebuilds.wrapping_mul(0x517c_c1b7_2722_0a95) ^ attempt);
            self.build_mask[..c].fill(0);
            self.build_count[..c].fill(0);
            for i in 0..self.secs.len() {
                if self.secs[i] == VACANT {
                    continue;
                }
                let key = self.keys[i];
                let (_, ps) = xor_positions(key, seed, segment);
                for p in ps {
                    self.build_mask[p] ^= key;
                    self.build_count[p] += 1;
                }
            }
            self.build_queue.clear();
            for (slot, &count) in self.build_count[..c].iter().enumerate() {
                if count == 1 {
                    self.build_queue.push(slot as u32);
                }
            }
            self.stack_key.clear();
            self.stack_slot.clear();
            while let Some(slot) = self.build_queue.pop() {
                let slot = slot as usize;
                if self.build_count[slot] != 1 {
                    continue;
                }
                let key = self.build_mask[slot];
                self.stack_key.push(key);
                self.stack_slot.push(slot as u32);
                let (_, ps) = xor_positions(key, seed, segment);
                for p in ps {
                    self.build_mask[p] ^= key;
                    self.build_count[p] -= 1;
                    if self.build_count[p] == 1 {
                        self.build_queue.push(p as u32);
                    }
                }
            }
            if self.stack_key.len() == n {
                self.fps[..c].fill(0);
                for i in (0..n).rev() {
                    let key = self.stack_key[i];
                    let slot = self.stack_slot[i] as usize;
                    let (fp, [p0, p1, p2]) = xor_positions(key, seed, segment);
                    self.fps[slot] = fp ^ self.fps[p0] ^ self.fps[p1] ^ self.fps[p2];
                }
                self.frozen_seed = seed;
                self.frozen_c = c;
                self.frozen_segment = segment;
                self.frozen_len = n;
                break;
            }
            attempt += 1;
            assert!(
                attempt < MAX_SEED_ATTEMPTS,
                "xor-filter peeling failed {MAX_SEED_ATTEMPTS} seeds for {n} keys"
            );
        }
        self.secs.fill(VACANT);
        self.live_len = 0;
    }
}

impl PatternStore for XorPatternStore {
    /// The query-with-promotion operation. Live hits promote exactly like the
    /// cuckoo backends; live misses consult the frozen history for one level
    /// of re-entry credit, then insert (rebuilding first if the window is
    /// full).
    fn query(&mut self, item: u64) -> QueryOutcome {
        let thr = self.params.security_threshold();
        let mut idx = self.home_slot(item);
        loop {
            if self.secs[idx] == VACANT {
                break;
            }
            if self.keys[idx] == item {
                let sec = (self.secs[idx] + 1).min(thr);
                self.secs[idx] = sec;
                return self.promotion.merge(sec);
            }
            idx = (idx + 1) & self.mask;
        }
        // Live miss: rebuild if the window is full, then insert with any
        // history credit the frozen generation grants.
        if self.live_len >= self.rebuild_at {
            self.rebuild();
            idx = self.home_slot(item);
            while self.secs[idx] != VACANT {
                idx = (idx + 1) & self.mask;
            }
        }
        let remembered = self.frozen_contains(item);
        let sec = if remembered { 1u8.min(thr) } else { 0 };
        self.keys[idx] = item;
        self.secs[idx] = sec;
        self.live_len += 1;
        if remembered {
            self.promotion.merge(sec)
        } else {
            self.promotion.insert(0, None)
        }
    }

    /// Whether the item is tracked live or claimed by the frozen history.
    fn contains(&self, item: u64) -> bool {
        self.live_security(item).is_some() || self.frozen_contains(item)
    }

    /// Current `Security` of the item: exact for live lines, history credit
    /// (`1`) for frozen-only lines.
    fn security_of(&self, item: u64) -> Option<u8> {
        if let Some(sec) = self.live_security(item) {
            return Some(sec);
        }
        self.frozen_contains(item)
            .then(|| 1u8.min(self.params.security_threshold()))
    }

    /// Lines in the live window (frozen history is membership-only and not
    /// counted; see [`XorPatternStore::frozen_len`]).
    fn len(&self) -> usize {
        self.live_len
    }

    /// Live-window occupancy.
    fn occupancy(&self) -> f64 {
        self.live_len as f64 / self.keys.len() as f64
    }

    /// Modelled hardware memory: tag-compressed live entries of
    /// [`FilterParams::entry_bits`] each plus the frozen fingerprint arena.
    fn memory_bytes(&self) -> usize {
        let live_bits = self.keys.len() * self.params.entry_bits() as usize;
        live_bits.div_ceil(8) + self.frozen_c
    }

    /// Empties both generations and resets statistics.
    fn clear(&mut self) {
        self.secs.fill(VACANT);
        self.live_len = 0;
        self.frozen_c = 0;
        self.frozen_segment = 0;
        self.frozen_seed = 0;
        self.frozen_len = 0;
        self.rebuilds = 0;
        self.promotion.reset();
    }

    fn stats_snapshot(&self) -> FilterStats {
        self.promotion.stats()
    }

    fn backend(&self) -> FilterBackend {
        FilterBackend::Xor
    }

    fn params(&self) -> &FilterParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> XorPatternStore {
        XorPatternStore::new(FilterParams::paper_default()).expect("valid")
    }

    #[test]
    fn fresh_store_is_empty() {
        let s = store();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.frozen_len(), 0);
        assert!(!s.contains(0x40));
        assert_eq!(s.security_of(0x40), None);
    }

    #[test]
    fn promotion_matches_cuckoo_latency() {
        let mut s = store();
        let out = s.query(0x40);
        assert!(out.inserted && out.security == 0);
        assert_eq!(s.query(0x40).security, 1);
        assert_eq!(s.query(0x40).security, 2);
        let out = s.query(0x40);
        assert_eq!(out.security, 3);
        assert!(out.captured);
        assert_eq!(s.security_of(0x40), Some(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn rebuild_preserves_membership_without_false_negatives() {
        let mut s = store();
        let tracked: Vec<u64> = (0..s.rebuild_at as u64).map(|i| mix64(i) | 1).collect();
        for &line in &tracked {
            s.query(line);
        }
        assert_eq!(s.rebuilds(), 0);
        // One more distinct line trips the rebuild.
        s.query(0x7777_7777);
        assert_eq!(s.rebuilds(), 1);
        assert_eq!(s.frozen_len(), tracked.len());
        // Xor filters have no false negatives: every frozen line answers yes.
        for &line in &tracked {
            assert!(s.contains(line), "frozen membership lost for {line:#x}");
        }
    }

    #[test]
    fn history_credit_fast_tracks_reentry() {
        let mut s = store();
        let line = 0xabcd_0040u64;
        s.query(line); // Security 0 in the live window.
                       // Fill the window with other lines until a rebuild evicts it.
        let mut i = 0u64;
        while s.rebuilds() == 0 {
            s.query(mix64(i) | 1);
            i += 1;
        }
        // Re-entry lands at Security 1 (history credit), not 0.
        let out = s.query(line);
        assert!(out.merged && !out.inserted);
        assert_eq!(out.security, 1);
    }

    #[test]
    fn frozen_false_positive_rate_is_near_spec() {
        let mut s = store();
        // Freeze a full window, then probe lines never inserted.
        let mut i = 0u64;
        while s.rebuilds() == 0 {
            s.query(mix64(i) | 1);
            i += 1;
        }
        let mut fps = 0u32;
        let probes = 200_000u64;
        for j in 0..probes {
            if s.frozen_contains(mix64(0x5000_0000 + j) & !1) {
                fps += 1;
            }
        }
        let rate = f64::from(fps) / probes as f64;
        // 8-bit fingerprints target 1/256 ≈ 0.39%; allow generous slack.
        assert!(rate < 0.01, "frozen fp rate too high: {rate}");
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = store();
        for i in 0..20_000u64 {
            s.query(mix64(i));
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.rebuilds(), 0);
        assert_eq!(s.stats_snapshot().queries, 0);
        assert!(!s.contains(mix64(3)));
    }

    #[test]
    fn memory_accounts_live_tags_plus_frozen_arena() {
        let s = store();
        let live_bits = s.keys.len() * (1 + 12 + 2);
        assert_eq!(s.memory_bytes(), live_bits.div_ceil(8));
        let mut s = store();
        let mut i = 0u64;
        while s.rebuilds() == 0 {
            s.query(mix64(i) | 1);
            i += 1;
        }
        assert_eq!(s.memory_bytes(), live_bits.div_ceil(8) + s.frozen_c);
    }
}
