//! Defense-aware attacks against the Auto-Cuckoo filter itself (paper §VI-B,
//! Fig. 7).
//!
//! A PiPoMonitor-aware adversary tries to evict the victim's *filter record*
//! before its `Security` counter reaches `secThr`, so the Ping-Pong pattern
//! is never captured. Two strategies:
//!
//! * **Brute force** — flood the (full) filter with fresh addresses; each
//!   insertion autonomically deletes one quasi-uniformly-random record.
//!   Expected fills to hit one specific record: `b·l`.
//! * **Reverse engineering** — restrict the flood to addresses whose
//!   candidate buckets include the target's bucket. With MNK = 0 this works
//!   in ~`b` fills; every extra kick multiplies the required eviction set by
//!   `b`, reaching `b^(MNK+1)` (32768 for the paper's b = 8, MNK = 4).

use auto_cuckoo::hash::candidate_buckets;
use auto_cuckoo::{
    brute_force_expected_fills, reverse_eviction_set_size, CuckooFilter, DirectoryPatternStore,
    FilterParams, PatternStore,
};
use cache_sim::{Addr, LineAddr, LINE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a brute-force filter-flush campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceResult {
    /// Fills needed per trial to evict the target record.
    pub fills_per_trial: Vec<u64>,
    /// Mean fills across trials.
    pub mean_fills: f64,
    /// The analytic expectation, `b·l`.
    pub expected_fills: u64,
}

/// Result of a reverse-engineering (targeted-bucket) campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ReverseAttackResult {
    /// MNK the filter was configured with.
    pub max_kicks: u32,
    /// Mean targeted fills needed to evict the target record.
    pub mean_fills: f64,
    /// The analytic eviction-set size, `b^(MNK+1)`.
    pub eviction_set_bound: u64,
}

/// Safety valve: give up a trial after this many fills (counts as the cap).
const FILL_CAP: u64 = 5_000_000;

fn fresh_filter(params: FilterParams, trial_seed: u64) -> CuckooFilter {
    let params = FilterParams::builder()
        .buckets(params.buckets())
        .entries_per_bucket(params.entries_per_bucket())
        .fingerprint_bits(params.fingerprint_bits())
        .max_kicks(params.max_kicks())
        .security_threshold(params.security_threshold())
        .seed(params.seed() ^ trial_seed.rotate_left(17))
        .build()
        .expect("derived parameters stay valid");
    CuckooFilter::auto(params).expect("validated above")
}

/// Pre-fills the filter to full occupancy with adversary addresses, then
/// inserts the target.
fn prepare_full_filter(filter: &mut CuckooFilter, target: u64, rng: &mut StdRng) {
    // Over-insert well past capacity so occupancy saturates.
    let warmup = filter.params().capacity() as u64 * 4;
    for _ in 0..warmup {
        filter.query(rng.gen::<u64>() | 1);
    }
    // Inserting into a full filter can autonomically delete the new record
    // itself when the kick walk revisits its bucket; retry until resident.
    while !filter.contains(target) {
        filter.query(target);
    }
}

/// Runs the brute-force eviction experiment: how many fresh-address fills
/// does the adversary need before the target's record is gone?
///
/// # Examples
///
/// On a small filter the measured mean tracks the analytic `b·l`:
///
/// ```
/// use auto_cuckoo::FilterParams;
/// use pipo_attacks::brute_force_eviction;
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// let params = FilterParams::builder().buckets(64).entries_per_bucket(4).build()?;
/// let r = brute_force_eviction(params, 20, 42);
/// assert_eq!(r.expected_fills, 256);
/// assert!(r.mean_fills > 64.0 && r.mean_fills < 1024.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn brute_force_eviction(params: FilterParams, trials: usize, seed: u64) -> BruteForceResult {
    let fills_per_trial = flood_trials(params, trials, seed, 1, |_, rng| rng.gen::<u64>() | 1);
    let mean_fills = fills_per_trial.iter().sum::<u64>() as f64 / trials.max(1) as f64;
    BruteForceResult {
        fills_per_trial,
        mean_fills,
        expected_fills: brute_force_expected_fills(&params),
    }
}

/// Fills needed in each of `trials` floods to evict a target's record. A
/// trial fills a fresh filter (its seed offset by `first_trial` plus the
/// trial's index), inserts a random target, then queries `fill(target, rng)`
/// until the target's record is gone or [`FILL_CAP`] fills were made.
fn flood_trials(
    params: FilterParams,
    trials: usize,
    seed: u64,
    first_trial: u64,
    fill: impl Fn(u64, &mut StdRng) -> u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (first_trial..first_trial + trials as u64)
        .map(|trial| {
            let mut filter = fresh_filter(params, trial);
            let target = rng.gen::<u64>() | 1;
            prepare_full_filter(&mut filter, target, &mut rng);
            let mut fills = 0u64;
            while filter.contains(target) && fills < FILL_CAP {
                filter.query(fill(target, &mut rng));
                fills += 1;
            }
            fills
        })
        .collect()
}

/// Finds an address (other than `target`) whose candidate buckets intersect
/// the target's candidate buckets — the adversary knows the target address,
/// hence both of its buckets.
fn address_targeting_bucket(params: &FilterParams, target: u64, rng: &mut StdRng) -> u64 {
    let target_pair = candidate_buckets(target, params);
    loop {
        let candidate = rng.gen::<u64>() | 1;
        if candidate == target {
            continue;
        }
        let pair = candidate_buckets(candidate, params);
        if pair.contains(target_pair.primary) || pair.contains(target_pair.alternate) {
            return candidate;
        }
    }
}

/// Runs the reverse-engineering experiment for the filter's configured MNK:
/// the adversary only inserts addresses whose candidate buckets include the
/// target's primary bucket (the best achievable level-0 eviction set) and
/// counts fills until the target record is evicted.
///
/// With MNK > 0 the record that is finally evicted is the one at the end of
/// the random kick walk, which can wander away from the targeted bucket, so
/// the flood costs more than at MNK = 0. It does not grow geometrically: on
/// `fig7_reverse`'s l = 128, b = 8 filter the measured cost is roughly flat
/// from MNK 1 to 3 and stays well below the `b·l` fills of brute force. The
/// paper's `b^(MNK+1)` bound of Fig. 7 prices a deterministic eviction set,
/// which this random flood never builds.
#[must_use]
pub fn reverse_engineering_attack(
    params: FilterParams,
    trials: usize,
    seed: u64,
) -> ReverseAttackResult {
    let fills = flood_trials(params, trials, seed, 1000, |target, rng| {
        address_targeting_bucket(&params, target, rng)
    });
    ReverseAttackResult {
        max_kicks: params.max_kicks(),
        mean_fills: fills.iter().sum::<u64>() as f64 / trials.max(1) as f64,
        eviction_set_bound: reverse_eviction_set_size(&params),
    }
}

/// A defense-aware attacker's record-flush generator against the
/// deterministic directory-table baseline ([`DirectoryPatternStore`]).
///
/// Each round yields `b` *fresh* line addresses mapping to the victim's
/// table set. Fresh lines guarantee memory fetches (they are LLC-cold), so
/// each round deterministically LRU-evicts the victim's table record before
/// its Security counter can saturate — defeating detection. The caller
/// supplies an `avoid` predicate to keep flush lines out of the attacker's
/// own probe sets.
///
/// No equivalent exists for the Auto-Cuckoo filter: autonomic deletion makes
/// the victim record's eviction non-deterministic, raising the expected
/// per-round flush cost to `b·l` accesses (see
/// [`brute_force_eviction`]).
#[derive(Debug, Clone)]
pub struct TableFlusher {
    table: FilterParams,
    target_set: usize,
    base_line: u64,
    cursor: u64,
}

impl TableFlusher {
    /// Creates a flusher for `target` against a table of `table`'s
    /// geometry (`l` sets of `b` ways), drawing addresses from the attacker
    /// region starting at byte address `attacker_base`. The table's index
    /// hash is public, so the adversary finds conflicting lines by
    /// brute-force search — a one-time offline cost of ~`l` hash evaluations
    /// per line.
    #[must_use]
    pub fn new(table: &FilterParams, target: LineAddr, attacker_base: u64) -> Self {
        Self {
            table: *table,
            target_set: DirectoryPatternStore::set_of(target.0, table),
            base_line: attacker_base / LINE_SIZE,
            cursor: 0,
        }
    }

    /// Produces the next round of `b` fresh conflicting addresses, skipping
    /// any the `avoid` predicate rejects.
    pub fn next_round<F: Fn(LineAddr) -> bool>(&mut self, avoid: F) -> Vec<Addr> {
        let ways = self.table.entries_per_bucket();
        let mut out = Vec::with_capacity(ways);
        while out.len() < ways {
            self.cursor += 1;
            let line = LineAddr(self.base_line + self.cursor);
            if DirectoryPatternStore::set_of(line.0, &self.table) == self.target_set && !avoid(line)
            {
                out.push(Addr(line.0 * LINE_SIZE));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(mnk: u32) -> FilterParams {
        FilterParams::builder()
            .buckets(32)
            .entries_per_bucket(4)
            .fingerprint_bits(14)
            .max_kicks(mnk)
            .build()
            .expect("valid")
    }

    #[test]
    fn brute_force_mean_tracks_capacity() {
        let params = small_params(2);
        let r = brute_force_eviction(params, 40, 7);
        assert_eq!(r.expected_fills, 128);
        // Geometric with mean 128: generous 3x bounds over 40 trials.
        assert!(
            r.mean_fills > 128.0 / 3.0 && r.mean_fills < 128.0 * 3.0,
            "mean {}",
            r.mean_fills
        );
        assert_eq!(r.fills_per_trial.len(), 40);
    }

    #[test]
    fn brute_force_scales_with_filter_size() {
        let small = brute_force_eviction(small_params(2), 25, 1);
        let big_params = FilterParams::builder()
            .buckets(128)
            .entries_per_bucket(4)
            .fingerprint_bits(14)
            .max_kicks(2)
            .build()
            .expect("valid");
        let big = brute_force_eviction(big_params, 25, 1);
        assert!(
            big.mean_fills > small.mean_fills * 1.5,
            "bigger filter must cost more: {} vs {}",
            big.mean_fills,
            small.mean_fills
        );
    }

    #[test]
    fn reverse_attack_cost_grows_with_mnk() {
        let r0 = reverse_engineering_attack(small_params(0), 30, 3);
        let r2 = reverse_engineering_attack(small_params(2), 30, 3);
        assert_eq!(r0.eviction_set_bound, 4);
        assert_eq!(r2.eviction_set_bound, 64);
        assert!(
            r2.mean_fills > r0.mean_fills * 2.0,
            "MNK=2 ({}) must cost well above MNK=0 ({})",
            r2.mean_fills,
            r0.mean_fills
        );
    }

    #[test]
    fn reverse_attack_mnk0_is_cheap() {
        let r = reverse_engineering_attack(small_params(0), 30, 9);
        // With MNK=0 every targeted fill evicts within the target's bucket
        // (b=4): expect a handful of fills on average.
        assert!(r.mean_fills < 32.0, "mean {}", r.mean_fills);
    }

    fn table_64x4() -> FilterParams {
        FilterParams::builder()
            .buckets(64)
            .entries_per_bucket(4)
            .build()
            .expect("valid")
    }

    #[test]
    fn table_flusher_lines_hit_target_set_and_stay_fresh() {
        let table = table_64x4();
        let target = LineAddr(0x123);
        let target_set = DirectoryPatternStore::set_of(target.0, &table);
        let mut flusher = TableFlusher::new(&table, target, 0x55_0000_0000);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let round = flusher.next_round(|_| false);
            assert_eq!(round.len(), 4);
            for addr in round {
                let line = LineAddr(addr.0 / 64);
                assert_eq!(
                    DirectoryPatternStore::set_of(line.0, &table),
                    target_set,
                    "must map to the target's table set"
                );
                assert!(seen.insert(line), "flush lines must be fresh");
            }
        }
    }

    #[test]
    fn table_flusher_respects_avoid_predicate() {
        let mut flusher = TableFlusher::new(&table_64x4(), LineAddr(7), 0);
        // Avoid odd line numbers; rounds must still fill with even ones.
        let round = flusher.next_round(|l| l.0 % 2 == 1);
        assert_eq!(round.len(), 4);
        for addr in round {
            assert_eq!((addr.0 / 64) % 2, 0);
        }
    }
}
