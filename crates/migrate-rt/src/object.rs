//! Objects: the unit of data placement.
//!
//! Prelude is object-based; instance methods always execute at the object
//! (§3.1) under message passing, or on the invoking processor with the
//! object's fields pulled through the cache under shared memory. A
//! [`Behavior`] is written once against the [`MethodEnv`] abstraction and
//! runs unmodified under every scheme — the paper's portability argument.

use std::any::Any;

use proteus::coherence::make_addr;
use proteus::{Cycles, ProcId};

use crate::types::{Goid, MethodId, Word, WordVec};

/// The environment a method body executes in. Implementations differ by
/// scheme: under message passing, field accesses are local and free (the
/// method is already at the object); under shared memory they are metered
/// cache accesses; on a replica, writes are forbidden.
pub trait MethodEnv {
    /// Charge `cycles` of user-code computation.
    fn compute(&mut self, cycles: Cycles);

    /// Read `len` bytes starting at byte `offset` within the object.
    fn read(&mut self, offset: u64, len: u64);

    /// Write `len` bytes starting at byte `offset` within the object.
    fn write(&mut self, offset: u64, len: u64);

    /// Acquire the object's lock. Under shared memory this models the
    /// test-and-set on the object's lock word, including spin stall when the
    /// lock is held; under message passing the home processor's serial
    /// service already provides mutual exclusion and this is free.
    fn lock(&mut self);

    /// Release the object's lock.
    fn unlock(&mut self);

    /// Create a new object of `size_bytes`, homed at `home` or (if `None`)
    /// at a deterministic pseudo-random data processor. Used by B-tree
    /// splits.
    fn create(&mut self, behavior: Box<dyn Behavior>, home: Option<ProcId>) -> Goid;

    /// Deterministic pseudo-random value (seeded per run).
    fn rng(&mut self) -> u64;
}

/// Application object state + methods. `Any` lets tests and app-side
/// checks view an object's state by its concrete type
/// ([`ObjectTable::state`]).
pub trait Behavior: Any {
    /// Execute `method` with `args`, producing result words. All effects on
    /// the machine go through `env`. Up to four result words ride inline
    /// with no heap allocation (build them from an array: `[a, b].into()`).
    fn invoke(&mut self, method: MethodId, args: &[Word], env: &mut dyn MethodEnv) -> WordVec;

    /// In-memory size of the object in bytes (determines how many cache
    /// lines it spans under shared memory).
    fn size_bytes(&self) -> u64;
}

/// Directory entry for one object, in 40 bytes.
pub struct ObjectEntry {
    /// Home processor (where the object's memory lives and, under message
    /// passing, where its methods run).
    pub home: ProcId,
    /// Offset of the object's memory in its home's 4 GB address space (lock
    /// word at offset 0 of its first line); see [`ObjectEntry::base_addr`].
    pub offset: u32,
    /// Size in bytes.
    pub size_bytes: u32,
    /// The object's state/methods. `None` transiently while a method is
    /// executing on it (taken out to satisfy the borrow checker; reentrant
    /// invocation is not supported and would be a bug in the app).
    pub behavior: Option<Box<dyn Behavior>>,
    /// Whether the application marked this object for software replication.
    pub replicated: bool,
    /// Shared-memory lock window: the lock word is free again at this time.
    pub lock_free_at: Cycles,
}

impl ObjectEntry {
    /// Base global address of the object's memory.
    #[inline]
    pub fn base_addr(&self) -> u64 {
        make_addr(self.home, u64::from(self.offset))
    }
}

/// The fewest entries the object table grows by when it is full.
const MIN_GROWTH: usize = 16;

/// The global object table (GOID → entry). GOIDs are dense indices.
pub struct ObjectTable {
    entries: Vec<ObjectEntry>,
    /// Each home's bump-allocation offset, indexed by processor.
    next_offset: Vec<u64>,
    /// The cache line size objects are aligned to.
    line_bytes: u64,
}

impl ObjectTable {
    /// An empty table for a machine of `processors` homes whose caches have
    /// `line_bytes`-byte lines.
    pub fn new(processors: u32, line_bytes: u64) -> ObjectTable {
        ObjectTable {
            entries: Vec::new(),
            next_offset: vec![0; processors as usize],
            line_bytes,
        }
    }

    /// Allocate `size` bytes of `home`'s memory, starting on a fresh line,
    /// and return their offset in it. Panics if the home's 4 GB address
    /// space is exhausted: past it, addresses would alias the next home's
    /// memory.
    fn place(&mut self, home: ProcId, size: u64) -> u32 {
        let offset = &mut self.next_offset[home.index()];
        let base = *offset;
        *offset += size.next_multiple_of(self.line_bytes);
        assert!(
            *offset <= 1 << 32 && size < 1 << 32,
            "P{} has no memory left for a {size}-byte object",
            home.0
        );
        base as u32
    }

    /// Number of objects created.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no objects exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Create an object at `home`, returning its GOID. Memory is allocated
    /// contiguously in the home node's address space, aligned to the cache
    /// line so distinct objects never share a cache line (no false sharing
    /// between objects; fields within one object may share lines, as on the
    /// real machine).
    pub fn create(&mut self, behavior: Box<dyn Behavior>, home: ProcId) -> Goid {
        let size = behavior.size_bytes().max(8);
        let offset = self.place(home, size);
        let len = self.entries.len();
        let goid = Goid(len as u64);
        if len == self.entries.capacity() {
            // Grow by an eighth rather than doubling, so a table of 128 or
            // more objects is at most an eighth empty slots; never past the
            // power of two that doubling reaches, so the table is never the
            // larger one.
            let grown = (len + (len / 8).max(MIN_GROWTH)).min((len + 1).next_power_of_two());
            self.entries.reserve_exact(grown - len);
        }
        self.entries.push(ObjectEntry {
            home,
            offset,
            // `place` bounds the size below 4 GB.
            size_bytes: size as u32,
            behavior: Some(behavior),
            replicated: false,
            lock_free_at: Cycles::ZERO,
        });
        goid
    }

    /// Make room for `additional` more objects, exactly: for set-up code
    /// that knows how many it is about to create.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Re-home an object at `new_home`, allocating fresh line-aligned memory
    /// in the new home's address space (the old allocation is simply
    /// abandoned — its owner is dead). Used by failover promotion: when a
    /// processor is declared dead, each object it homed flips to its backup
    /// and needs a real address there so shared-memory traffic stays
    /// realistic.
    pub fn rehome(&mut self, goid: Goid, new_home: ProcId) {
        let size = self.entry(goid).size_bytes;
        let offset = self.place(new_home, u64::from(size));
        let entry = self.entry_mut(goid);
        entry.home = new_home;
        entry.offset = offset;
        entry.lock_free_at = Cycles::ZERO;
    }

    /// Mark an object as software-replicated (read-only methods may be
    /// served by a local replica when the scheme enables replication).
    pub fn set_replicated(&mut self, goid: Goid, replicated: bool) {
        self.entry_mut(goid).replicated = replicated;
    }

    /// Immutable entry access.
    pub fn entry(&self, goid: Goid) -> &ObjectEntry {
        &self.entries[goid.0 as usize]
    }

    /// Mutable entry access.
    pub fn entry_mut(&mut self, goid: Goid) -> &mut ObjectEntry {
        &mut self.entries[goid.0 as usize]
    }

    /// Home processor of an object.
    pub fn home(&self, goid: Goid) -> ProcId {
        self.entry(goid).home
    }

    /// Take the behavior out for invocation (put it back with
    /// [`ObjectTable::put_behavior`]). Panics on reentrant invocation.
    pub fn take_behavior(&mut self, goid: Goid) -> Box<dyn Behavior> {
        self.entry_mut(goid)
            .behavior
            .take()
            .expect("reentrant method invocation on object")
    }

    /// Return a behavior after invocation.
    pub fn put_behavior(&mut self, goid: Goid, behavior: Box<dyn Behavior>) {
        let slot = &mut self.entry_mut(goid).behavior;
        debug_assert!(slot.is_none(), "behavior slot already occupied");
        *slot = Some(behavior);
    }

    /// Immutable typed view of an object's state, for tests and app-side
    /// verification (e.g. checking B-tree invariants after a run).
    pub fn state<T: 'static>(&self, goid: Goid) -> Option<&T> {
        self.entry(goid)
            .behavior
            .as_ref()
            .and_then(|b| (&**b as &dyn Any).downcast_ref::<T>())
    }

    /// Mutable typed view of an object's state, for setup-time adjustments
    /// and tests. Panics if a method is currently executing on the object.
    pub fn state_mut<T: 'static>(&mut self, goid: Goid) -> Option<&mut T> {
        self.entry_mut(goid)
            .behavior
            .as_mut()
            .and_then(|b| (&mut **b as &mut dyn Any).downcast_mut::<T>())
    }

    /// GOIDs of all objects, in creation order.
    pub fn goids(&self) -> impl Iterator<Item = Goid> + '_ {
        (0..self.entries.len() as u64).map(Goid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus::coherence::home_of_addr;

    struct Dummy {
        size: u64,
        hits: u32,
    }

    impl Behavior for Dummy {
        fn invoke(&mut self, _m: MethodId, args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
            self.hits += 1;
            env.compute(Cycles(1));
            [args.iter().sum()].into()
        }
        fn size_bytes(&self) -> u64 {
            self.size
        }
    }

    #[test]
    fn create_assigns_dense_goids_and_homes() {
        let mut t = ObjectTable::new(4, 16);
        let a = t.create(Box::new(Dummy { size: 24, hits: 0 }), ProcId(1));
        let b = t.create(Box::new(Dummy { size: 8, hits: 0 }), ProcId(2));
        assert_eq!(a, Goid(0));
        assert_eq!(b, Goid(1));
        assert_eq!(t.home(a), ProcId(1));
        assert_eq!(t.home(b), ProcId(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn addresses_are_line_aligned_and_home_encoded() {
        let mut t = ObjectTable::new(4, 16);
        let a = t.create(Box::new(Dummy { size: 24, hits: 0 }), ProcId(3));
        let b = t.create(Box::new(Dummy { size: 8, hits: 0 }), ProcId(3));
        let ea = t.entry(a);
        let eb = t.entry(b);
        assert_eq!(home_of_addr(ea.base_addr()), ProcId(3));
        assert_eq!(ea.base_addr() % 16, 0);
        // 24 bytes round to 32; next object starts one line later.
        assert_eq!(eb.base_addr() - ea.base_addr(), 32);
    }

    #[test]
    fn objects_align_to_the_configured_line_size() {
        const LINE: u64 = 64;
        let mut t = ObjectTable::new(4, LINE);
        let objects: Vec<Goid> = (0..4)
            .map(|_| t.create(Box::new(Dummy { size: 8, hits: 0 }), ProcId(1)))
            .collect();
        let lines: Vec<u64> = objects
            .iter()
            .map(|&g| t.entry(g).base_addr() / LINE)
            .collect();
        assert_eq!(lines, [0, 1, 2, 3].map(|l| lines[0] + l));
        let moved = t.create(Box::new(Dummy { size: 72, hits: 0 }), ProcId(2));
        t.rehome(moved, ProcId(1));
        assert_eq!(t.entry(moved).base_addr() / LINE, lines[0] + 4);
    }

    #[test]
    #[should_panic(expected = "P2 has no memory left")]
    fn a_home_past_its_address_space_is_rejected() {
        let mut t = ObjectTable::new(4, 16);
        t.create(
            Box::new(Dummy {
                size: (1 << 32) + 1,
                hits: 0,
            }),
            ProcId(2),
        );
    }

    #[test]
    fn objects_on_different_homes_do_not_collide() {
        let mut t = ObjectTable::new(4, 16);
        let a = t.create(Box::new(Dummy { size: 16, hits: 0 }), ProcId(0));
        let b = t.create(Box::new(Dummy { size: 16, hits: 0 }), ProcId(1));
        assert_ne!(t.entry(a).base_addr(), t.entry(b).base_addr());
    }

    #[test]
    fn take_put_round_trip() {
        let mut t = ObjectTable::new(4, 16);
        let g = t.create(Box::new(Dummy { size: 8, hits: 0 }), ProcId(0));
        let b = t.take_behavior(g);
        t.put_behavior(g, b);
        assert!(t.state::<Dummy>(g).is_some());
    }

    #[test]
    #[should_panic(expected = "reentrant")]
    fn reentrant_take_panics() {
        let mut t = ObjectTable::new(4, 16);
        let g = t.create(Box::new(Dummy { size: 8, hits: 0 }), ProcId(0));
        let _b = t.take_behavior(g);
        let _ = t.take_behavior(g);
    }

    #[test]
    fn typed_state_downcast() {
        let mut t = ObjectTable::new(4, 16);
        let g = t.create(Box::new(Dummy { size: 8, hits: 5 }), ProcId(0));
        assert_eq!(t.state::<Dummy>(g).unwrap().hits, 5);
        assert!(t.state::<u32>(g).is_none());
        t.state_mut::<Dummy>(g).unwrap().hits = 9;
        assert_eq!(t.state::<Dummy>(g).unwrap().hits, 9);
        assert!(t.state_mut::<u32>(g).is_none());
    }

    #[test]
    fn replication_flag() {
        let mut t = ObjectTable::new(4, 16);
        let g = t.create(Box::new(Dummy { size: 8, hits: 0 }), ProcId(0));
        assert!(!t.entry(g).replicated);
        t.set_replicated(g, true);
        assert!(t.entry(g).replicated);
    }

    #[test]
    fn rehome_moves_home_and_reallocates_address() {
        let mut t = ObjectTable::new(4, 16);
        let g = t.create(Box::new(Dummy { size: 24, hits: 0 }), ProcId(0));
        // Pre-existing allocation at the new home; rehome must not collide.
        let other = t.create(Box::new(Dummy { size: 16, hits: 0 }), ProcId(2));
        t.rehome(g, ProcId(2));
        assert_eq!(t.home(g), ProcId(2));
        let e = t.entry(g);
        assert_eq!(home_of_addr(e.base_addr()), ProcId(2));
        assert_eq!(e.base_addr() % 16, 0);
        assert_ne!(e.base_addr(), t.entry(other).base_addr());
        // State survives the move.
        assert!(t.state::<Dummy>(g).is_some());
    }

    #[test]
    fn the_table_grows_by_an_eighth() {
        let mut t = ObjectTable::new(4, 16);
        let mut growths = 0;
        for n in 1..=5_000 {
            let capacity = t.entries.capacity();
            t.create(Box::new(Dummy { size: 8, hits: 0 }), ProcId(n % 4));
            growths += usize::from(t.entries.capacity() != capacity);
            let slack = t.entries.capacity() - t.len();
            assert!(
                slack <= (t.len() / 8).max(MIN_GROWTH),
                "{n} objects in {} slots",
                t.entries.capacity()
            );
            assert!(t.entries.capacity() <= t.len().next_power_of_two());
        }
        assert!(growths > 20, "{growths} growth steps");
    }

    #[test]
    fn an_entry_takes_40_bytes() {
        assert_eq!(std::mem::size_of::<ObjectEntry>(), 40);
    }

    #[test]
    fn minimum_size_is_one_word() {
        let mut t = ObjectTable::new(4, 16);
        let g = t.create(Box::new(Dummy { size: 0, hits: 0 }), ProcId(0));
        assert_eq!(t.entry(g).size_bytes, 8);
    }
}
