//! A simple in-order core model driven by an address stream.

use crate::hierarchy::Hierarchy;
use crate::observer::TrafficObserver;
use crate::types::{AccessKind, Addr, CoreId, Cycle, L1_LATENCY};

/// One memory access plus the non-memory work preceding it.
///
/// `think_cycles` models the instructions between memory operations: the
/// core retires them at one instruction per cycle before issuing the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address touched.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Non-memory instructions (= cycles) executed before this access.
    pub think_cycles: Cycle,
}

impl Access {
    /// A read with no preceding compute.
    #[must_use]
    pub fn read(addr: Addr) -> Self {
        Self {
            addr,
            kind: AccessKind::Read,
            think_cycles: 0,
        }
    }

    /// A write with no preceding compute.
    #[must_use]
    pub fn write(addr: Addr) -> Self {
        Self {
            addr,
            kind: AccessKind::Write,
            think_cycles: 0,
        }
    }

    /// Sets the compute gap before the access.
    #[must_use]
    pub fn after(mut self, think_cycles: Cycle) -> Self {
        self.think_cycles = think_cycles;
        self
    }
}

/// A deterministic source of memory accesses (a workload).
///
/// Returning `None` means the workload is exhausted; the core then idles.
///
/// Sources handed to a [`Core`] or [`System`](crate::System) must be `Send`
/// (`Box<dyn AccessSource + Send>`): whole systems are then `Send`, so sweep
/// harnesses can fan independent simulations across host threads. The trait
/// itself carries no `Send` bound — non-`Send` sources still work standalone.
pub trait AccessSource {
    /// Produces the next access, or `None` when done.
    fn next_access(&mut self) -> Option<Access>;

    /// Appends up to `max` accesses to `buf`, stopping early if the source
    /// runs dry. Appending nothing means the workload is exhausted.
    ///
    /// The default implementation loops [`next_access`](Self::next_access);
    /// generators override it to amortize per-access overhead (RNG state
    /// loads, bounds setup) across the whole batch. An override must produce
    /// the *identical* access sequence as repeated `next_access` calls —
    /// the golden suites pin the stream either path produces.
    fn refill(&mut self, buf: &mut Vec<Access>, max: usize) {
        for _ in 0..max {
            match self.next_access() {
                Some(access) => buf.push(access),
                None => break,
            }
        }
    }
}

impl<F> AccessSource for F
where
    F: FnMut() -> Option<Access>,
{
    fn next_access(&mut self) -> Option<Access> {
        self()
    }
}

/// How many accesses a core pulls from its source per refill: large enough
/// to amortize the generator's per-call overhead.
const BATCH: usize = 64;

/// A private hit run ahead of the schedule and not yet committed.
#[derive(Debug, Clone, Copy, Default)]
struct PendingHit {
    /// Local clock when the hit's step began: its schedule key's clock.
    start: Cycle,
    /// Instructions retired before the hit.
    retired: u64,
    /// The L1 set and way it touches. `u32` holds any set a machine can
    /// build: 2^32 sets would take 32 GiB of fingerprint words alone.
    set: u32,
    way: u32,
}

/// An in-order, blocking core: one outstanding memory access at a time,
/// IPC = 1 for non-memory instructions.
pub struct Core {
    id: CoreId,
    source: Box<dyn AccessSource + Send>,
    /// Pre-drawn accesses from the source ([`AccessSource::refill`]); the
    /// cursor `batch_pos` marks the next unconsumed entry. Allocated at the
    /// first refill, so a core replaced before it runs allocates nothing.
    batch: Vec<Access>,
    batch_pos: usize,
    /// Local clock: when the core can issue its next instruction.
    now: Cycle,
    /// Instructions retired so far (memory + non-memory).
    retired: u64,
    exhausted: bool,
    /// Private hits run ahead of the schedule, in program order: the first
    /// `pending_len` entries are the batch accesses just before
    /// `batch_pos`. Committed before the core's next in-order step.
    pending: [PendingHit; BATCH],
    pending_len: usize,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("now", &self.now)
            .field("retired", &self.retired)
            .field("exhausted", &self.exhausted)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core fed by `source`.
    #[must_use]
    pub fn new(id: CoreId, source: Box<dyn AccessSource + Send>) -> Self {
        Self {
            id,
            source,
            batch: Vec::new(),
            batch_pos: 0,
            now: 0,
            retired: 0,
            exhausted: false,
            pending: [PendingHit::default(); BATCH],
            pending_len: 0,
        }
    }

    /// Core identifier.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Current local time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the source ran dry.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Executes the next access (compute gap + memory operation), after
    /// committing any private hits run ahead of it.
    ///
    /// Returns `false` when the source is exhausted.
    pub fn step<O: TrafficObserver + ?Sized>(
        &mut self,
        hierarchy: &mut Hierarchy,
        observer: &mut O,
    ) -> bool {
        self.commit_hits(hierarchy);
        let Some(access) = self.pull_access() else {
            return false;
        };
        self.now += access.think_cycles;
        self.retired += access.think_cycles; // 1 instruction per think cycle
        let result = hierarchy.access(self.id, access.addr, access.kind, self.now, observer);
        self.now += result.latency;
        self.retired += 1; // the memory instruction itself
        true
    }

    /// Runs the core's next accesses ahead of the schedule while each is a
    /// [private hit](Hierarchy::private_hit), recording them instead of
    /// touching the hierarchy. Stops before the first other access, at the
    /// end of the batch, once `quota` instructions are retired, or before a
    /// step that would start at or after `due`, the observer's next
    /// prefetch release time.
    #[inline]
    pub(crate) fn run_ahead(&mut self, hierarchy: &Hierarchy, due: Cycle, quota: u64) {
        let (mut pos, mut now, mut retired) = (self.batch_pos, self.now, self.retired);
        while pos < self.batch.len() && now < due && retired < quota {
            let access = self.batch[pos];
            let Some((set, way)) = hierarchy.private_hit(self.id, access.addr, access.kind) else {
                break;
            };
            self.pending[self.pending_len] = PendingHit {
                start: now,
                retired,
                set: set as u32,
                way: way as u32,
            };
            self.pending_len += 1;
            pos += 1;
            now += access.think_cycles + L1_LATENCY;
            retired += access.think_cycles + 1;
        }
        (self.batch_pos, self.now, self.retired) = (pos, now, retired);
    }

    /// Applies the hits run ahead to the hierarchy in program order: their
    /// L1 replacement touches and hit and stall counts.
    pub(crate) fn commit_hits(&mut self, hierarchy: &mut Hierarchy) {
        if self.pending_len > 0 {
            let hits = &self.pending[..self.pending_len];
            hierarchy.commit_private_hits(
                self.id,
                hits.iter().map(|h| (h.set as usize, h.way as usize)),
            );
            self.pending_len = 0;
        }
    }

    /// Index of the first pending hit that starts at or after `from`
    /// (`pending_len` if none does); starts never decrease.
    fn first_hit_from(&self, from: Cycle) -> usize {
        self.pending[..self.pending_len].partition_point(|h| h.start < from)
    }

    /// Drops every pending hit that starts at or after `from`. Returns
    /// whether it dropped any.
    pub(crate) fn drop_hits_from(&mut self, from: Cycle) -> bool {
        let k = self.first_hit_from(from);
        let drop = k < self.pending_len;
        if drop {
            self.truncate_hits(k);
        }
        drop
    }

    /// Re-probes the pending hits that start at or after `from` and drops
    /// the first that is no longer a private hit, with every hit after it.
    /// Returns whether it dropped any.
    pub(crate) fn recheck_hits_from(&mut self, hierarchy: &Hierarchy, from: Cycle) -> bool {
        let base = self.batch_pos - self.pending_len;
        let stale = (self.first_hit_from(from)..self.pending_len).find(|&k| {
            let access = self.batch[base + k];
            hierarchy
                .private_hit(self.id, access.addr, access.kind)
                .is_none()
        });
        if let Some(k) = stale {
            self.truncate_hits(k);
        }
        stale.is_some()
    }

    /// Drops pending hit `k` and every hit after it: the core resumes at
    /// hit `k`'s start, with its clock, retired count and batch position.
    fn truncate_hits(&mut self, k: usize) {
        let hit = self.pending[k];
        self.batch_pos -= self.pending_len - k;
        self.now = hit.start;
        self.retired = hit.retired;
        self.pending_len = k;
    }

    /// Takes the next access from the pre-drawn batch (refilled from the
    /// source when empty); marks the core exhausted when both run dry.
    #[inline]
    fn pull_access(&mut self) -> Option<Access> {
        if self.batch_pos == self.batch.len() {
            self.refill_batch();
            if self.batch.is_empty() {
                self.exhausted = true;
                return None;
            }
        }
        let access = self.batch[self.batch_pos];
        self.batch_pos += 1;
        Some(access)
    }

    /// The once-per-[`BATCH`] slow path of [`pull_access`](Self::pull_access),
    /// kept out of line so the per-access fast path stays compact.
    #[cold]
    fn refill_batch(&mut self) {
        self.batch.clear();
        self.batch.reserve_exact(BATCH);
        self.batch_pos = 0;
        self.source.refill(&mut self.batch, BATCH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::observer::NullObserver;

    struct FixedSource(Vec<Access>);

    impl AccessSource for FixedSource {
        fn next_access(&mut self) -> Option<Access> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    #[test]
    fn access_builders() {
        let a = Access::read(Addr(0x40)).after(10);
        assert_eq!(a.kind, AccessKind::Read);
        assert_eq!(a.think_cycles, 10);
        let w = Access::write(Addr(0x80));
        assert!(w.kind.is_write());
        assert_eq!(w.think_cycles, 0);
    }

    #[test]
    fn core_advances_clock_by_think_plus_latency() {
        let mut h = Hierarchy::new(SystemConfig::small_test());
        let mut obs = NullObserver;
        let src = FixedSource(vec![Access::read(Addr(0x40)).after(5)]);
        let mut core = Core::new(CoreId(0), Box::new(src));
        assert!(core.step(&mut h, &mut obs));
        // 5 think + 235 memory latency.
        assert_eq!(core.now(), 5 + 235);
        assert_eq!(core.retired(), 6);
    }

    #[test]
    fn core_exhausts_when_source_runs_dry() {
        let mut h = Hierarchy::new(SystemConfig::small_test());
        let mut obs = NullObserver;
        let src = FixedSource(vec![Access::read(Addr(0x40))]);
        let mut core = Core::new(CoreId(0), Box::new(src));
        assert!(core.step(&mut h, &mut obs));
        assert!(!core.step(&mut h, &mut obs));
        assert!(core.is_exhausted());
    }

    #[test]
    fn closure_is_an_access_source() {
        let mut count = 0;
        let mut src = move || {
            count += 1;
            if count <= 2 {
                Some(Access::read(Addr(0x100)))
            } else {
                None
            }
        };
        assert!(src.next_access().is_some());
        assert!(src.next_access().is_some());
        assert!(src.next_access().is_none());
    }
}
