//! Shows why the Auto-Cuckoo filter exists: the classic Cuckoo filter's
//! manual delete enables false-deletion attacks, and autonomic deletion
//! makes targeted record eviction cost near brute force.
//!
//! Run with: `cargo run --release --example filter_security`

use std::fmt::Write;

use auto_cuckoo::{
    brute_force_expected_fills, reverse_eviction_set_size, CuckooFilter, DeleteOutcome,
    FilterParams, PatternStore,
};
use pipo_attacks::brute_force_eviction;
use pipo_bench::args::write_stdout;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The classic filter's false-deletion weakness -----------------
    // With a short fingerprint, two addresses quickly share fingerprint and
    // candidate buckets; deleting one removes the other's record.
    let weak = FilterParams::builder()
        .buckets(8)
        .entries_per_bucket(4)
        .fingerprint_bits(4)
        .max_kicks(16)
        .build()?;
    let mut classic = CuckooFilter::classic(weak)?;
    let target = 0x40u64;
    assert!(classic.query(target).inserted);

    use auto_cuckoo::fingerprint_of;
    use auto_cuckoo::hash::candidate_buckets;
    let collider = (1..)
        .map(|i| target + i * 64)
        .find(|&c| {
            fingerprint_of(c, &weak) == fingerprint_of(target, &weak)
                && candidate_buckets(c, &weak).canonical()
                    == candidate_buckets(target, &weak).canonical()
        })
        .expect("4-bit fingerprints collide quickly");
    assert_eq!(classic.delete(collider), DeleteOutcome::Removed);
    let mut out = format!(
        "classic Cuckoo filter (f=4):\n  \
         victim record for {target:#x} inserted\n  \
         adversary deletes via colliding address {collider:#x}...\n  \
         victim record present afterwards? {} (false deletion!)\n",
        classic.contains(target)
    );

    // --- 2. The Auto-Cuckoo filter has no delete; eviction is brute force -
    let params = FilterParams::paper_default();
    let measured = brute_force_eviction(params, 25, 3);
    let _ = write!(
        out,
        "\nAuto-Cuckoo filter (l=1024, b=8, MNK=4): no delete operation.\n  \
         brute-force eviction expectation: b*l = {} fills\n  \
         measured over 25 trials: {:.0} fills on average\n  \
         deterministic eviction set for MNK=4: b^(MNK+1) = {} addresses\n",
        brute_force_expected_fills(&params),
        measured.mean_fills,
        reverse_eviction_set_size(&params)
    );

    // --- 3. Insertions never fail -----------------------------------------
    let mut auto = CuckooFilter::auto(params)?;
    for i in 0..100_000u64 {
        auto.query(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    }
    let _ = write!(
        out,
        "\nafter 100k insertions into an 8192-entry Auto-Cuckoo filter:\n  occupancy {:.1}%, autonomic deletions {}, zero insertion failures by construction\n",
        auto.occupancy() * 100.0,
        auto.stats_snapshot().autonomic_deletions
    );
    write_stdout(&out);
    Ok(())
}
