//! A single filter entry: the fPrint Array and Data Array fields of Fig. 5.
//!
//! Hardware layout per entry (paper §VII-D): 1 valid bit, `f`-bit fingerprint,
//! 2-bit saturating `Security` counter. The `addr_tally` field is *simulation
//! bookkeeping only* (used by the Fig. 4 collision census) and is documented
//! as not being part of the hardware.

/// One entry of the filter matrix.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::Entry;
///
/// let mut e = Entry::occupied(0x0abc);
/// assert!(e.is_valid());
/// assert_eq!(e.security(), 0);
/// e.bump_security(3);
/// e.bump_security(3);
/// e.bump_security(3);
/// e.bump_security(3); // saturates
/// assert_eq!(e.security(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Entry {
    valid: bool,
    fingerprint: u16,
    security: u8,
    addr_tally: u32,
}

impl Entry {
    /// An empty (invalid) entry.
    #[must_use]
    pub fn vacant() -> Self {
        Self::default()
    }

    /// A freshly inserted entry holding `fingerprint` with `Security = 0`
    /// and an address tally of one.
    #[must_use]
    pub fn occupied(fingerprint: u16) -> Self {
        Self {
            valid: true,
            fingerprint,
            security: 0,
            addr_tally: 1,
        }
    }

    /// Whether the entry holds a record.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The stored fingerprint. Meaningless when invalid.
    #[must_use]
    pub fn fingerprint(&self) -> u16 {
        self.fingerprint
    }

    /// Current `Security` counter value.
    #[must_use]
    pub fn security(&self) -> u8 {
        self.security
    }

    /// Whether this valid entry matches `fingerprint`.
    #[must_use]
    pub fn matches(&self, fingerprint: u16) -> bool {
        self.valid && self.fingerprint == fingerprint
    }

    /// Increments `Security`, saturating at `threshold`, and returns the new
    /// value. The collision census counts merges separately, through
    /// [`note_collision`](Self::note_collision).
    pub fn bump_security(&mut self, threshold: u8) -> u8 {
        debug_assert!(self.valid, "bump_security on vacant entry");
        if self.security < threshold {
            self.security += 1;
        }
        self.security
    }

    /// Records that an additional (presumed distinct) address coalesced into
    /// this entry. Simulation bookkeeping for the Fig. 4 census.
    pub fn note_collision(&mut self) {
        self.addr_tally = self.addr_tally.saturating_add(1);
    }

    /// Number of addresses that have been coalesced into this entry since it
    /// was (re)inserted: 1 means no fingerprint collision.
    #[must_use]
    pub fn addr_tally(&self) -> u32 {
        self.addr_tally
    }

    /// Invalidates the entry, returning its previous contents.
    pub fn evict(&mut self) -> Entry {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacant_entry_is_invalid_and_matches_nothing() {
        let e = Entry::vacant();
        assert!(!e.is_valid());
        assert!(!e.matches(0));
        assert!(!e.matches(42));
        assert_eq!(e.security(), 0);
        assert_eq!(e.addr_tally(), 0);
    }

    #[test]
    fn occupied_entry_matches_its_fingerprint_only() {
        let e = Entry::occupied(0x7ff);
        assert!(e.matches(0x7ff));
        assert!(!e.matches(0x7fe));
        assert_eq!(e.addr_tally(), 1);
    }

    #[test]
    fn security_saturates_at_threshold() {
        let mut e = Entry::occupied(1);
        assert_eq!(e.bump_security(3), 1);
        assert_eq!(e.bump_security(3), 2);
        assert_eq!(e.bump_security(3), 3);
        assert_eq!(e.bump_security(3), 3);
        assert_eq!(e.security(), 3);
    }

    #[test]
    fn security_saturates_at_lower_thresholds_too() {
        let mut e = Entry::occupied(1);
        assert_eq!(e.bump_security(1), 1);
        assert_eq!(e.bump_security(1), 1);
    }

    #[test]
    fn evict_leaves_vacant_and_returns_old() {
        let mut e = Entry::occupied(9);
        e.bump_security(3);
        let old = e.evict();
        assert!(old.is_valid());
        assert_eq!(old.fingerprint(), 9);
        assert_eq!(old.security(), 1);
        assert!(!e.is_valid());
    }

    #[test]
    fn collision_tally_counts_merges() {
        let mut e = Entry::occupied(5);
        e.note_collision();
        e.note_collision();
        assert_eq!(e.addr_tally(), 3);
    }
}
