//! Method environments: what a [`Behavior`] sees while it runs under
//! message passing (at the object's home, or on a replica) and under
//! cache-coherent shared memory (on the invoking processor).

use proteus::coherence::Access;
use proteus::{CoherenceSystem, Cycles, Network, ProcId};

use crate::object::{Behavior, MethodEnv, ObjectTable};
use crate::rng::SplitMix64;
use crate::types::Goid;

/// Create an object at `home`, or at a random data processor.
fn create(
    objects: &mut ObjectTable,
    rng: &mut SplitMix64,
    data_procs: &[ProcId],
    behavior: Box<dyn Behavior>,
    home: Option<ProcId>,
) -> Goid {
    let home = home.unwrap_or_else(|| {
        assert!(
            !data_procs.is_empty(),
            "create(None) requires configured data_procs"
        );
        data_procs[rng.below(data_procs.len() as u64) as usize]
    });
    objects.create(behavior, home)
}

/// Environment for message-passing execution (at home or on a replica).
pub(super) struct MpEnv<'a> {
    pub(super) user: Cycles,
    pub(super) replica_read: bool,
    /// Bytes written by the method — the delta footprint primary-backup
    /// replication ships to the backup (0 when failover is off or the
    /// method only reads).
    pub(super) wrote_bytes: u64,
    pub(super) objects: &'a mut ObjectTable,
    pub(super) rng: &'a mut SplitMix64,
    pub(super) data_procs: &'a [ProcId],
}

impl MethodEnv for MpEnv<'_> {
    fn compute(&mut self, cycles: Cycles) {
        self.user += cycles;
    }
    fn read(&mut self, _offset: u64, _len: u64) {
        // Local memory at the object's home: covered by the method's
        // compute() charges.
    }
    fn write(&mut self, _offset: u64, len: u64) {
        assert!(
            !self.replica_read,
            "write through a read-only replica view (method wrongly marked read_only)"
        );
        self.wrote_bytes += len;
    }
    fn lock(&mut self) {
        // The home processor serves one activation at a time: mutual
        // exclusion is structural under message passing.
    }
    fn unlock(&mut self) {}
    fn create(&mut self, behavior: Box<dyn Behavior>, home: Option<ProcId>) -> Goid {
        assert!(
            !self.replica_read,
            "object creation through a read-only replica view"
        );
        create(self.objects, self.rng, self.data_procs, behavior, home)
    }
    fn rng(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// Environment for shared-memory execution on the invoking processor.
pub(super) struct SmEnv<'a> {
    pub(super) proc: ProcId,
    pub(super) base: u64,
    pub(super) size: u64,
    pub(super) goid: Goid,
    pub(super) logical_start: Cycles,
    pub(super) elapsed: Cycles,
    pub(super) user: Cycles,
    pub(super) mem_stall: Cycles,
    pub(super) lock_stall: Cycles,
    /// Bytes written through explicit `write()` calls (excludes internal
    /// lock-word traffic) — the footprint primary-backup replication ships.
    pub(super) wrote_bytes: u64,
    pub(super) objects: &'a mut ObjectTable,
    pub(super) coherence: &'a mut CoherenceSystem,
    pub(super) net: &'a mut Network,
    pub(super) rng: &'a mut SplitMix64,
    pub(super) data_procs: &'a [ProcId],
}

impl SmEnv<'_> {
    fn mem(&mut self, offset: u64, len: u64, kind: Access) {
        debug_assert!(
            offset + len <= self.size,
            "field access out of object bounds"
        );
        let at = self.logical_start + self.elapsed;
        let out = self.coherence.access_range(
            self.proc,
            self.base + offset,
            len.max(1),
            kind,
            self.net,
            at,
        );
        self.elapsed += out.latency;
        self.mem_stall += out.latency;
    }
}

impl MethodEnv for SmEnv<'_> {
    fn compute(&mut self, cycles: Cycles) {
        self.elapsed += cycles;
        self.user += cycles;
    }
    fn read(&mut self, offset: u64, len: u64) {
        self.mem(offset, len, Access::Read);
    }
    fn write(&mut self, offset: u64, len: u64) {
        self.wrote_bytes += len;
        self.mem(offset, len, Access::Write);
    }
    fn lock(&mut self) {
        let t_now = self.logical_start + self.elapsed;
        let free_at = self.objects.entry(self.goid).lock_free_at;
        let stalled_here = free_at > t_now;
        if stalled_here {
            let stall = free_at - t_now;
            // Test-and-set spinning: while waiting, this processor re-probes
            // the lock word with atomic read-modify-writes. Each probe is an
            // ownership transfer — it books real protocol traffic, occupies
            // the line (serializing contended handoffs), and steals the line
            // from the holder so the next critical section starts with a
            // miss. This is the coherence activity that throttles
            // write-shared objects in the paper's SM runs. The probes'
            // latency is subsumed by the stall itself.
            let costs = self.coherence.costs();
            let (interval, max_reads) = (costs.spin_interval, costs.max_spin_reads);
            let n = ((stall.get() / interval.get().max(1)) + 1).min(u64::from(max_reads));
            for i in 0..n {
                let at = t_now + interval * i;
                let _ = self
                    .coherence
                    .access(self.proc, self.base, Access::Write, self.net, at);
            }
            self.elapsed += stall;
            self.lock_stall += stall;
        }
        // Winning test-and-set on the lock word (first word of the object):
        // a real coherence write, queued behind any spin-read burst.
        let was_stalled = stalled_here;
        self.mem(0, 8, Access::Write);
        if was_stalled {
            // Spinner interference on the critical section (see
            // CoherenceCosts::contended_lock_penalty).
            let penalty = self.coherence.costs().contended_lock_penalty;
            self.elapsed += penalty;
            self.lock_stall += penalty;
        }
        // Reserve the window; unlock() extends it to the true release time.
        self.objects.entry_mut(self.goid).lock_free_at = self.logical_start + self.elapsed;
    }
    fn unlock(&mut self) {
        self.mem(0, 8, Access::Write);
        self.objects.entry_mut(self.goid).lock_free_at = self.logical_start + self.elapsed;
    }
    fn create(&mut self, behavior: Box<dyn Behavior>, home: Option<ProcId>) -> Goid {
        create(self.objects, self.rng, self.data_procs, behavior, home)
    }
    fn rng(&mut self) -> u64 {
        self.rng.next_u64()
    }
}
