//! The distributed B-tree application (§4.2 of the paper).
//!
//! A simplified version of Wang's distributed B-tree (no `delete`,
//! B-link-style right-sibling pointers for split tolerance): nodes are
//! objects scattered randomly across the data processors; `lookup` and
//! `insert` operations descend root→leaf. The paper builds a 10 000-key tree
//! with fanout ≤ 100 over 48 processors and drives it with 16 requester
//! threads.
//!
//! Every operation starts by reading the root, which makes the root's home
//! processor the bottleneck for message-passing schemes — the paper's *root
//! bottleneck*. Software replication of the root ("w/repl." rows of Tables
//! 1–4, multi-version memory in the paper) serves those reads from a local
//! replica and moves the bottleneck one level down.
//!
//! Node methods scan their key array linearly; under shared memory that
//! drags whole nodes through the cache line by line, which is what gives
//! cache-coherent shared memory its large bandwidth appetite in Table 2.

use std::collections::BTreeSet;

use migrate_rt::{
    Annotation, Behavior, Frame, Invoke, MachineConfig, MethodEnv, MethodId, RunMetrics, Runner,
    Scheme, StepCtx, StepResult, System, Word, WordVec,
};
use proteus::rng::SplitMix64;
use proteus::{Cycles, ProcId};

use crate::workload::{initial_keys, KeyStream, OpSource, Requester};
use crate::Goid;

/// Method id: descend one level (read-only; replica-servable at the root).
pub const M_DESCEND: MethodId = MethodId(0);
/// Method id: insert a key into a leaf.
pub const M_INSERT: MethodId = MethodId(1);
/// Method id: add a (separator, child) pair to an internal node after a
/// split below it.
pub const M_ADD_CHILD: MethodId = MethodId(2);

/// Result tag: reached a leaf; `r[1]` is 1 if the key is present.
pub const R_LEAF: Word = 0;
/// Result tag: descend into child `r[1]`.
pub const R_CHILD: Word = 1;
/// Result tag: key range moved right; retry at node `r[1]` (B-link).
pub const R_MOVED: Word = 2;
/// Result tag: operation applied; `r[1]` is 1 if the tree changed.
pub const R_OK: Word = 3;
/// Result tag: node split; new sibling `r[1]`, separator `r[2]` must be
/// added to the parent.
pub const R_SPLIT: Word = 4;

/// A B-tree node object (leaf or internal), B-link style.
///
/// Memory layout for shared-memory metering: lock word at byte 0, header
/// (count, high key, right link) at 8..32, the key array at 32, and the
/// child array after the maximal key array. A fanout-100 node spans ~100
/// cache lines; a linear key scan under shared memory touches every line
/// holding live keys.
///
/// On the host a node is a small header and one block of words, allocated
/// when the node is created and never regrown: `fanout + 1` key words (a
/// node holds one key too many between an insert and its split) and, for
/// an internal node, `fanout + 2` child words after them.
pub struct BTreeNode {
    /// Upper bound (exclusive) of this node's key range; `u64::MAX` at the
    /// right edge of its level.
    high_key: u64,
    /// Right sibling at the same level (B-link pointer).
    right: Option<Goid>,
    /// Cycles of user code per visit, before the per-key scan cost.
    compute: u32,
    /// The key words, then an internal node's child words. Keys are sorted;
    /// for internal nodes they are separators: child `i` covers keys
    /// `< keys[i]`, child `count` the rest.
    block: Box<[u64]>,
    /// Live keys; an internal node has one more live child.
    count: u16,
    leaf: bool,
    /// Only the root grows in place (its GOID must remain stable so
    /// replication and the application handle stay valid).
    is_root: bool,
}

const HDR: u64 = 32;

/// A zeroed block for a node of `fanout`: `fanout + 1` key words, and
/// `fanout + 2` child words after them in an internal node.
fn new_block(fanout: usize, leaf: bool) -> Box<[u64]> {
    let words = if leaf { fanout + 1 } else { 2 * fanout + 3 };
    vec![0; words].into_boxed_slice()
}

impl BTreeNode {
    /// An empty node of `fanout`, at the right edge of its level, in a
    /// fresh block.
    fn empty(fanout: usize, leaf: bool, compute: u32) -> BTreeNode {
        BTreeNode {
            high_key: u64::MAX,
            right: None,
            compute,
            block: new_block(fanout, leaf),
            count: 0,
            leaf,
            is_root: false,
        }
    }

    /// A leaf of `fanout` holding `keys`.
    fn leaf(fanout: usize, keys: &[u64], compute: u32) -> BTreeNode {
        let mut node = BTreeNode::empty(fanout, true, compute);
        node.block[..keys.len()].copy_from_slice(keys);
        node.count = keys.len() as u16;
        node
    }

    /// An internal node of `fanout` whose children are `children`, each
    /// after the first led by its low key (the separator before it).
    fn internal(fanout: usize, children: &[(u64, Goid)], compute: u32) -> BTreeNode {
        let mut node = BTreeNode::empty(fanout, false, compute);
        let base = node.child_base();
        for (i, &(low, child)) in children.iter().enumerate() {
            if i > 0 {
                node.block[i - 1] = low;
            }
            node.block[base + i] = child.0;
        }
        node.count = (children.len() - 1) as u16;
        node
    }

    /// Maximum keys per node (the paper's "at most one hundred children or
    /// keys"), read off the block's length.
    fn fanout(&self) -> usize {
        if self.leaf {
            self.block.len() - 1
        } else {
            (self.block.len() - 3) / 2
        }
    }

    /// The live keys, sorted.
    pub fn keys(&self) -> &[u64] {
        &self.block[..usize::from(self.count)]
    }

    /// The live children's GOID words, left to right; `None` for a leaf.
    pub fn children(&self) -> Option<&[u64]> {
        let base = self.child_base();
        (!self.leaf).then(|| &self.block[base..=base + usize::from(self.count)])
    }

    /// `true` if this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Where the child words start in the block.
    fn child_base(&self) -> usize {
        self.fanout() + 1
    }

    /// Bytes of the key array from `pos` to the last live key.
    fn tail_bytes(&self, pos: usize) -> u64 {
        (usize::from(self.count) - pos) as u64 * 8
    }

    /// Put `key` at `pos`, moving the keys after it up by one.
    fn insert_key(&mut self, pos: usize, key: u64) {
        let count = usize::from(self.count);
        self.block.copy_within(pos..count, pos + 1);
        self.block[pos] = key;
        self.count += 1;
    }

    fn scan(&self, env: &mut dyn MethodEnv) {
        // Linear scan of the live key region + header: ~5 cycles per key of
        // compare-and-branch, plus the fixed method body. This is why the
        // §4.2 fanout-10 variant services activations faster ("activations
        // accessing smaller nodes require less time to service").
        let count = u64::from(self.count);
        env.read(8, 24);
        env.read(HDR, count.max(1) * 8);
        env.compute(Cycles(u64::from(self.compute) + count * 5));
    }

    /// Index of the child covering `key`.
    fn child_index(&self, key: u64) -> usize {
        self.keys().partition_point(|&k| k <= key)
    }

    fn moved_right(&self, key: u64) -> Option<Goid> {
        self.right.filter(|_| key >= self.high_key)
    }

    fn descend(&mut self, key: u64, env: &mut dyn MethodEnv) -> WordVec {
        self.scan(env);
        if let Some(r) = self.moved_right(key) {
            return [R_MOVED, r.0].into();
        }
        match self.children() {
            Some(children) => {
                let idx = self.child_index(key);
                env.read(HDR + (self.fanout() as u64) * 8 + idx as u64 * 8, 8);
                [R_CHILD, children[idx]].into()
            }
            None => [R_LEAF, u64::from(self.keys().binary_search(&key).is_ok())].into(),
        }
    }

    /// Lock and scan the node for a mutation at `key`. If `key`'s range has
    /// moved right, the lock is released again and the B-link retry reply
    /// is returned.
    fn lock_for(&mut self, key: u64, env: &mut dyn MethodEnv) -> Option<WordVec> {
        env.lock();
        self.scan(env);
        let r = self.moved_right(key)?;
        env.unlock();
        Some([R_MOVED, r.0].into())
    }

    fn insert_leaf(&mut self, key: u64, env: &mut dyn MethodEnv) -> WordVec {
        if !self.is_leaf() {
            // Only the root changes level: it was a leaf when this insert's
            // descent read it and has grown in place since. Descend again.
            return self.descend(key, env);
        }
        if let Some(moved) = self.lock_for(key, env) {
            return moved;
        }
        let Err(pos) = self.keys().binary_search(&key) else {
            env.unlock();
            return [R_OK, 0].into();
        };
        self.insert_key(pos, key);
        // Shift the tail of the key array.
        env.write(HDR + pos as u64 * 8, self.tail_bytes(pos));
        self.settle(env)
    }

    fn add_child(&mut self, sep: u64, child: Goid, env: &mut dyn MethodEnv) -> WordVec {
        assert!(!self.is_leaf(), "M_ADD_CHILD on a leaf");
        if let Some(moved) = self.lock_for(sep, env) {
            return moved;
        }
        let pos = self.keys().partition_point(|&k| k < sep);
        // The children after `pos` move up by one, then the keys.
        let base = self.child_base();
        let last = base + usize::from(self.count);
        self.block
            .copy_within(base + pos + 1..=last, base + pos + 2);
        self.block[base + pos + 1] = child.0;
        self.insert_key(pos, sep);
        env.write(HDR + pos as u64 * 8, self.tail_bytes(pos));
        env.write(
            HDR + (self.fanout() as u64) * 8 + (pos + 1) as u64 * 8,
            self.tail_bytes(pos),
        );
        self.settle(env)
    }

    /// Finish a locked mutation: an overfull node splits (the root grows in
    /// place instead), then the lock is released.
    fn settle(&mut self, env: &mut dyn MethodEnv) -> WordVec {
        let out = if usize::from(self.count) <= self.fanout() {
            [R_OK, 1].into()
        } else if self.is_root {
            self.grow_root(env)
        } else {
            self.split(env)
        };
        env.unlock();
        out
    }

    /// Halve an overfull node: the upper half moves into a new node that
    /// takes over this node's high key and right link; this node keeps the
    /// lower half in its own block. Returns the separator between the
    /// halves with the upper node. A leaf's separator is the upper half's
    /// first key, which stays in the leaf; an internal node's separator
    /// leaves both halves, since it moves up.
    fn split_upper(&mut self) -> (u64, BTreeNode) {
        let count = usize::from(self.count);
        let mid = count / 2;
        let sep = self.block[mid];
        let first = if self.leaf { mid } else { mid + 1 };
        let mut upper = BTreeNode::empty(self.fanout(), self.leaf, self.compute);
        upper.block[..count - first].copy_from_slice(&self.block[first..count]);
        if !self.leaf {
            let base = self.child_base();
            upper.block[base..=base + count - first]
                .copy_from_slice(&self.block[base + first..=base + count]);
        }
        upper.count = (count - first) as u16;
        upper.high_key = self.high_key;
        upper.right = self.right;
        self.count = mid as u16;
        (sep, upper)
    }

    /// Split a non-root node: keep the lower half, move the upper half to a
    /// new right sibling, and report the separator for the parent.
    fn split(&mut self, env: &mut dyn MethodEnv) -> WordVec {
        let (sep, upper) = self.split_upper();
        // Write both halves' headers.
        env.write(8, 24);
        let sibling = env.create(Box::new(upper), None);
        self.high_key = sep;
        self.right = Some(sibling);
        [R_SPLIT, sibling.0, sep].into()
    }

    /// The root grows in place: its halves move into two fresh children
    /// (the lower one takes the root's old block) and the root becomes (or
    /// stays) internal with a single separator, in a new internal block.
    /// The GOID of the root never changes.
    fn grow_root(&mut self, env: &mut dyn MethodEnv) -> WordVec {
        let (sep, upper) = self.split_upper();
        let right = env.create(Box::new(upper), None);
        let fanout = self.fanout();
        let lower = BTreeNode {
            high_key: sep,
            right: Some(right),
            compute: self.compute,
            block: std::mem::replace(&mut self.block, new_block(fanout, false)),
            count: self.count,
            leaf: self.leaf,
            is_root: false,
        };
        let left = env.create(Box::new(lower), None);
        self.leaf = false;
        self.count = 1;
        self.block[0] = sep;
        let base = self.child_base();
        self.block[base..=base + 1].copy_from_slice(&[left.0, right.0]);
        env.write(8, 24);
        env.write(HDR, 8);
        [R_OK, 1].into()
    }
}

impl Behavior for BTreeNode {
    fn invoke(&mut self, method: MethodId, args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        match method {
            M_DESCEND => self.descend(args[0], env),
            M_INSERT => self.insert_leaf(args[0], env),
            M_ADD_CHILD => self.add_child(args[0], Goid(args[1]), env),
            other => panic!("unknown B-tree method {other:?}"),
        }
    }
    fn size_bytes(&self) -> u64 {
        // lock + header + key array + child array.
        HDR + (self.fanout() as u64 + 1) * 8 * 2
    }
}

// ---------------------------------------------------------------------
// Operation frame
// ---------------------------------------------------------------------

#[derive(Debug)]
enum OpPhase {
    Descend,
    InsertLeaf,
    Ascend { sep: u64, child: Goid },
    Finished(Word),
}

/// One B-tree operation (lookup or insert): the migratable activation.
///
/// The descent call sites carry the migration annotation and are marked
/// read-only, so under "w/repl." schemes the root read is served by the
/// local replica; under CM schemes the frame hops level to level and the
/// result short-circuits home.
pub struct BTreeOp {
    key: u64,
    insert: bool,
    current: Goid,
    /// Ancestors visited, nearest last — consumed when splits propagate up.
    /// Paths in the paper's trees hold at most four ancestors, so they stay
    /// in the `WordVec`'s inline words; a deeper tree spills to the heap,
    /// once per operation box, since the requester's next operation keeps
    /// the buffer.
    path: WordVec,
    phase: OpPhase,
    annotation: Annotation,
}

impl BTreeOp {
    /// A lookup (or insert) of `key` starting at `root`, with `annotation`
    /// at every node visit (`Annotation::Migrate` is the paper's static
    /// choice; `Annotation::Auto` hands it to the adaptive policy).
    pub fn new(root: Goid, key: u64, insert: bool, annotation: Annotation) -> BTreeOp {
        BTreeOp {
            key,
            insert,
            current: root,
            path: WordVec::new(),
            phase: OpPhase::Descend,
            annotation,
        }
    }

    fn invoke(&self, method: MethodId, args: impl Into<WordVec>) -> Invoke {
        Invoke::new(self.current, method, args, self.annotation)
    }
}

impl Frame for BTreeOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        match &self.phase {
            OpPhase::Descend => StepResult::Invoke(self.invoke(M_DESCEND, [self.key]).reading()),
            OpPhase::InsertLeaf => StepResult::Invoke(self.invoke(M_INSERT, [self.key])),
            OpPhase::Ascend { sep, child } => {
                StepResult::Invoke(self.invoke(M_ADD_CHILD, [*sep, child.0]))
            }
            OpPhase::Finished(v) => StepResult::Return([*v].into()),
        }
    }

    fn on_result(&mut self, r: &[Word]) {
        match (&self.phase, r[0]) {
            (OpPhase::Descend | OpPhase::InsertLeaf | OpPhase::Ascend { .. }, R_MOVED) => {
                self.current = Goid(r[1]);
            }
            (OpPhase::Descend | OpPhase::InsertLeaf, R_CHILD) => {
                self.path.push(self.current.0);
                self.current = Goid(r[1]);
                self.phase = OpPhase::Descend;
            }
            (OpPhase::Descend, R_LEAF) => {
                if self.insert {
                    self.phase = OpPhase::InsertLeaf;
                } else {
                    self.phase = OpPhase::Finished(r[1]);
                }
            }
            (OpPhase::InsertLeaf | OpPhase::Ascend { .. }, R_OK) => {
                self.phase = OpPhase::Finished(r[1]);
            }
            (OpPhase::InsertLeaf | OpPhase::Ascend { .. }, R_SPLIT) => {
                let parent = self
                    .path
                    .pop()
                    .expect("splits cannot escape the root (the root grows in place)");
                self.current = Goid(parent);
                self.phase = OpPhase::Ascend {
                    sep: r[2],
                    child: Goid(r[1]),
                };
            }
            (phase, tag) => panic!("unexpected result tag {tag} in phase {phase:?}"),
        }
    }

    fn live_words(&self) -> u64 {
        // key, op kind, current node, phase + the ancestor path.
        5 + self.path.len() as u64
    }

    fn is_operation(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "btree-op"
    }
}

/// A B-tree requester's operations: lookups and inserts drawn from a key
/// stream, each starting at the root.
struct Requests {
    root: Goid,
    stream: KeyStream,
}

impl OpSource for Requests {
    type Op = BTreeOp;

    fn next_op(&mut self, annotation: Annotation, spare: Option<Box<BTreeOp>>) -> Box<BTreeOp> {
        let req = self.stream.next_request();
        let op = BTreeOp::new(self.root, req.key, req.insert, annotation);
        match spare {
            // The spare's ancestor buffer is kept, so a box whose path once
            // spilled past the inline words never allocates for it again.
            Some(mut spare) => {
                let mut path = std::mem::take(&mut spare.path);
                path.clear();
                *spare = BTreeOp { path, ..op };
                spare
            }
            None => Box::new(op),
        }
    }
}

// ---------------------------------------------------------------------
// Experiment
// ---------------------------------------------------------------------

/// Configuration of a B-tree experiment (one row of Tables 1–4).
#[derive(Clone, Debug)]
pub struct BTreeExperiment {
    /// Keys pre-loaded before measurement (10 000 in the paper).
    pub initial_keys: u64,
    /// Maximum keys/children per node (100, or 10 for the §4.2 variant).
    pub fanout: usize,
    /// Processors holding tree nodes (48 in the paper).
    pub data_procs: u32,
    /// Requesting threads, each on its own processor (16 in the paper).
    pub requesters: u32,
    /// Think time between requests (0 or 10 000).
    pub think: Cycles,
    /// The scheme under test.
    pub scheme: Scheme,
    /// Inserts per 1000 requests (the rest are lookups).
    pub insert_permille: u32,
    /// Key space for the workload.
    pub key_space: u64,
    /// Cycles of user code per node visit (before the per-key scan cost).
    pub node_compute: u64,
    /// Override the scheme-derived runtime cost model (ablations).
    pub cost_override: Option<migrate_rt::CostModel>,
    /// Optional cap on requests per thread (`None` = run to the horizon).
    pub requests_per_thread: Option<u64>,
    /// Placement/workload seed.
    pub seed: u64,
    /// Enable the runtime's cycle-accounting audit (see
    /// `migrate_rt::MachineConfig::audit`).
    pub audit: bool,
    /// Deterministic fault plan (`None` = perfect network, the default).
    pub faults: Option<proteus::FaultPlan>,
    /// Failure detection + primary-backup replication (off by default; the
    /// disabled path is byte-identical to a build without failover).
    pub failover: migrate_rt::FailoverConfig,
    /// Call-site annotation on every node visit (`Migrate` = the paper's
    /// static choice, the default; `Auto` = adaptive dispatch).
    pub annotation: Annotation,
}

impl BTreeExperiment {
    /// The paper's configuration: 10 000 keys, fanout ≤ 100, nodes random
    /// over 48 processors, 16 requesters.
    pub fn paper(think: u64, scheme: Scheme) -> BTreeExperiment {
        BTreeExperiment {
            initial_keys: 10_000,
            fanout: 100,
            data_procs: 48,
            requesters: 16,
            think: Cycles(think),
            scheme,
            insert_permille: 500,
            key_space: 1 << 32,
            node_compute: 120,
            cost_override: None,
            requests_per_thread: None,
            seed: 0xB7EE,
            audit: false,
            faults: None,
            failover: migrate_rt::FailoverConfig::default(),
            annotation: Annotation::Migrate,
        }
    }

    /// Build the machine and bulk-load the tree. Returns the runner and the
    /// root GOID.
    pub fn build(&self) -> (Runner, Goid) {
        let processors = self.data_procs + self.requesters;
        let mut cfg = MachineConfig::new(processors, self.scheme);
        cfg.seed = self.seed;
        cfg.cost_override = self.cost_override;
        cfg.audit = self.audit;
        cfg.faults = self.faults.clone();
        cfg.failover = self.failover.clone();
        cfg.data_procs = (0..self.data_procs).map(ProcId).collect();
        // Replicas live at the requesters (the processors that read the
        // root), as in multi-version memory.
        cfg.replica_procs = (self.data_procs..processors).map(ProcId).collect();
        let mut runner = Runner::new(cfg);

        let keys = initial_keys(self.initial_keys, self.key_space);
        let root = bulk_load(
            &mut runner.system,
            &keys,
            self.fanout,
            self.node_compute,
            self.data_procs,
            self.seed,
        );

        for r in 0..self.requesters {
            let stream = self.key_stream(r);
            let mut requester = Requester::new(Requests { root, stream }, self.think);
            requester.annotation = self.annotation;
            if let Some(cap) = self.requests_per_thread {
                requester.max_requests = cap;
            }
            runner.spawn(ProcId(self.data_procs + r), Box::new(requester));
        }
        (runner, root)
    }

    /// The requests of requester `r` (`0..requesters`), in issue order. A
    /// capped run issues the first `requests_per_thread` of them, which is
    /// what an exact oracle over a drained run replays.
    pub fn key_stream(&self, r: u32) -> KeyStream {
        KeyStream::new(
            self.seed ^ (0x9E37 + u64::from(r) * 0x1234_5678),
            self.key_space,
            self.insert_permille,
        )
    }

    /// The key set a capped run holds once it drains with every requester
    /// alive: the initial keys plus the insert keys among each requester's
    /// first `requests_per_thread` requests. An annotation, a scheme or a
    /// fault plan changes when keys land, never this set.
    pub fn drained_keys(&self) -> BTreeSet<u64> {
        let cap = self.requests_per_thread.expect("only a capped run drains");
        let mut keys = BTreeSet::from_iter(initial_keys(self.initial_keys, self.key_space));
        for r in 0..self.requesters {
            let mut stream = self.key_stream(r);
            let requests = (0..cap).map(|_| stream.next_request());
            keys.extend(requests.filter(|req| req.insert).map(|req| req.key));
        }
        keys
    }

    /// Build, warm up, and measure one table row.
    pub fn run(&self, warmup: Cycles, window: Cycles) -> RunMetrics {
        let (mut runner, _root) = self.build();
        runner.run(warmup, window)
    }
}

/// Bulk-load a B-link tree from sorted distinct keys, filling nodes to
/// two-thirds so early inserts do not split immediately. Nodes are placed
/// on uniformly random data processors (the paper: "laid out randomly
/// across forty-eight processors"); the root is marked replicated.
pub fn bulk_load(
    system: &mut System,
    sorted_keys: &[u64],
    fanout: usize,
    node_compute: u64,
    data_procs: u32,
    seed: u64,
) -> Goid {
    assert!(fanout >= 4, "fanout too small");
    assert!(
        fanout < usize::from(u16::MAX),
        "fanout too large for a u16 key count"
    );
    let node_compute = u32::try_from(node_compute).expect("node compute fits 32 bits");
    assert!(!sorted_keys.is_empty(), "cannot load an empty tree");
    assert!(
        sorted_keys.windows(2).all(|w| w[0] < w[1]),
        "keys must be sorted+distinct"
    );
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
    let fill = (fanout * 2 / 3).max(2);
    let mut level = place_level(
        system,
        &mut rng,
        data_procs,
        sorted_keys
            .chunks(fill)
            .map(|c| (c[0], BTreeNode::leaf(fanout, c, node_compute))),
    );
    // Upper levels, `fill` children per node, until the survivors fit in
    // one node, which gathers them under the root. Stopping at `fanout`
    // (not the fill factor) keeps the root as wide as possible: the paper's
    // fanout-10 tree had a four-child root, and root arity is what bounds
    // post-replication parallelism.
    while level.len() > 1 {
        let width = if level.len() > fanout { fill } else { fanout };
        let parents = level
            .chunks(width)
            .map(|group| (group[0].0, BTreeNode::internal(fanout, group, node_compute)));
        level = place_level(system, &mut rng, data_procs, parents);
    }
    let root = level[0].1;
    // The root grows in place (stable GOID) and is eligible for software
    // replication under the "w/repl." schemes.
    system.with_object_mut::<BTreeNode, _>(root, |node| node.is_root = true);
    system.set_replicated(root, true);
    root
}

/// Place one level of a bulk-loaded tree. `nodes` yields each node with
/// its low key, left to right; they are placed right to left, each on a
/// random data processor, so every right link names a placed node and each
/// high key is the next node's low key. The object
/// table makes room for the whole level first. Returns the level's
/// `(low key, GOID)` pairs, left to right.
fn place_level(
    system: &mut System,
    rng: &mut SplitMix64,
    data_procs: u32,
    nodes: impl DoubleEndedIterator<Item = (u64, BTreeNode)> + ExactSizeIterator,
) -> Vec<(u64, Goid)> {
    system.reserve_objects(nodes.len());
    let mut placed: Vec<(u64, Goid)> = Vec::with_capacity(nodes.len());
    for (low, mut node) in nodes.rev() {
        if let Some(&(next_low, next)) = placed.last() {
            node.high_key = next_low;
            node.right = Some(next);
        }
        let home = ProcId(rng.below(u64::from(data_procs)) as u32);
        placed.push((low, system.create_object(Box::new(node), home, false)));
    }
    placed.reverse();
    placed
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

/// Structural statistics of a loaded/mutated tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeStats {
    /// Total keys in leaves.
    pub keys: u64,
    /// Tree height (1 = root is a leaf).
    pub height: u32,
    /// Number of nodes reachable from the root.
    pub nodes: u64,
    /// Children of the root.
    pub root_children: usize,
}

/// Walk each level's B-link chain from its leftmost node and check: every
/// node's block is one of the root's fanout and of its kind, and its key
/// count fits the fanout; sorted distinct keys in every node, each below
/// the node's own high key, an unbounded high key only at the end of a
/// chain, and each level's keys sorted left to right. Returns stats. A
/// child's keys are not checked against its parent's separators.
pub fn verify_tree(system: &System, root: Goid) -> Result<TreeStats, String> {
    let objects = system.objects();
    let node = |g: Goid| -> Result<&BTreeNode, String> {
        objects
            .state::<BTreeNode>(g)
            .ok_or_else(|| format!("{g:?} is not a B-tree node"))
    };
    let fanout = node(root)?.fanout();

    let mut nodes = 0u64;
    let mut keys = 0u64;
    let mut height = 0u32;

    // Walk level by level starting from the root's leftmost chain.
    let mut leftmost = Some(root);
    let mut level_index = 0u32;
    while let Some(first) = leftmost {
        height += 1;
        let mut cursor = Some(first);
        let mut last_key: Option<u64> = None;
        let mut is_leaf_level = false;
        while let Some(g) = cursor {
            let n = node(g)?;
            nodes += 1;
            is_leaf_level = n.is_leaf();
            if n.fanout() != fanout {
                let kind = if n.is_leaf() { "leaf" } else { "internal" };
                return Err(format!(
                    "{g:?}: a {}-word block is no fanout-{fanout} {kind} block",
                    n.block.len()
                ));
            }
            if usize::from(n.count) > fanout {
                return Err(format!("{g:?}: overfull ({} keys)", n.count));
            }
            let node_keys = n.keys();
            if !node_keys.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("{g:?}: keys not sorted/distinct"));
            }
            if let Some(k) = node_keys.last() {
                if *k >= n.high_key {
                    return Err(format!("{g:?}: key {k} >= high key {}", n.high_key));
                }
            }
            if let Some(prev) = last_key {
                if let Some(first_key) = node_keys.first() {
                    if *first_key < prev {
                        return Err(format!("{g:?}: level order violated at key {first_key}"));
                    }
                }
            }
            last_key = node_keys.last().copied().or(last_key);
            if n.is_leaf() {
                keys += node_keys.len() as u64;
            }
            if n.right.is_none() && n.high_key != u64::MAX {
                return Err(format!("{g:?}: rightmost node with bounded high key"));
            }
            cursor = n.right;
        }
        if is_leaf_level {
            break;
        }
        leftmost = node(first)?.children().map(|c| Goid(c[0]));
        level_index += 1;
        if level_index > 64 {
            return Err("tree too deep: cycle suspected".to_string());
        }
    }

    let root_node = node(root)?;
    Ok(TreeStats {
        keys,
        height,
        nodes,
        root_children: root_node.children().map_or(0, <[u64]>::len),
    })
}

/// Pure structural lookup (oracle for tests): follows children and right
/// links exactly like the simulated operation, without cost accounting.
pub fn lookup_pure(system: &System, root: Goid, key: u64) -> bool {
    let objects = system.objects();
    let mut current = root;
    for _ in 0..1_000 {
        let n = objects.state::<BTreeNode>(current).expect("node exists");
        if key >= n.high_key {
            current = n.right.expect("bounded node has right link");
            continue;
        }
        match n.children() {
            Some(children) => current = Goid(children[n.child_index(key)]),
            None => return n.keys().binary_search(&key).is_ok(),
        }
    }
    panic!("lookup did not terminate");
}

#[cfg(test)]
mod tests {
    use super::*;
    use migrate_rt::MessageKind;

    #[test]
    fn driver_writes_its_next_operation_into_the_returned_box() {
        let ctx = StepCtx {
            now: Cycles::ZERO,
            proc: ProcId(0),
        };
        let stream = KeyStream::new(7, 1 << 20, 500);
        let mut expected = stream.clone();
        let requests = Requests {
            root: Goid(1),
            stream,
        };
        let mut requester = Requester::new(requests, Cycles::ZERO);
        let (mut ops, mut paths) = (Vec::new(), Vec::new());
        while ops.len() < 3 {
            match requester.step(&ctx) {
                StepResult::Call(mut op) => {
                    ops.push(&*op as *const dyn Frame as *const ());
                    let req = expected.next_request();
                    let issued = (&*op as &dyn std::any::Any)
                        .downcast_ref::<BTreeOp>()
                        .unwrap();
                    assert_eq!((issued.key, issued.insert), (req.key, req.insert));
                    assert_eq!(issued.current, Goid(1), "stale operation");
                    assert!(issued.path.is_empty(), "stale operation");
                    paths.push(issued.path.as_ptr());
                    // Six levels: five ancestors spill past the inline words.
                    for child in 2..7 {
                        op.on_result(&[R_CHILD, child]);
                    }
                    op.on_result(&[R_LEAF, 9]);
                    requester.recycle_child(op);
                    assert!(requester.holds_spare(), "the operation box was not kept");
                }
                StepResult::Sleep(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            ops.iter().all(|&op| op == ops[0]),
            "the operation box was not reused"
        );
        // The first operation's path starts inline; its spill is handed on
        // to the next operations, which refill it without reallocating.
        assert_ne!(
            paths[0], paths[1],
            "the spilled ancestor buffer was dropped"
        );
        assert_eq!(paths[1], paths[2], "the ancestor buffer was not kept");
    }

    /// The effects a node method has on its object, in call order.
    #[derive(Debug, PartialEq, Eq)]
    enum Effect {
        Lock,
        Unlock,
        Write(u64, u64),
        Create(Goid),
    }

    /// A `MethodEnv` that records a method's effects and keeps the nodes it
    /// creates, numbering them from `g100`. Reads and compute are free.
    #[derive(Default)]
    struct Recorder {
        effects: Vec<Effect>,
        created: Vec<BTreeNode>,
    }

    impl MethodEnv for Recorder {
        fn compute(&mut self, _cycles: Cycles) {}
        fn read(&mut self, _offset: u64, _len: u64) {}
        fn write(&mut self, offset: u64, len: u64) {
            self.effects.push(Effect::Write(offset, len));
        }
        fn lock(&mut self) {
            self.effects.push(Effect::Lock);
        }
        fn unlock(&mut self) {
            self.effects.push(Effect::Unlock);
        }
        fn create(&mut self, behavior: Box<dyn Behavior>, home: Option<ProcId>) -> Goid {
            assert_eq!(home, None, "split halves take a random home");
            let node = (behavior as Box<dyn std::any::Any>)
                .downcast::<BTreeNode>()
                .expect("a B-tree node");
            let goid = Goid(100 + self.created.len() as u64);
            self.created.push(*node);
            self.effects.push(Effect::Create(goid));
            goid
        }
        fn rng(&mut self) -> u64 {
            0
        }
    }

    type Shape = (Vec<u64>, Option<Vec<Goid>>, u64, Option<Goid>, bool);

    fn shape(n: &BTreeNode) -> Shape {
        (
            n.keys().to_vec(),
            n.children().map(|c| c.iter().copied().map(Goid).collect()),
            n.high_key,
            n.right,
            n.is_root,
        )
    }

    /// A node of fanout 4 and compute 10 holding `keys` and, if internal,
    /// `children`, with the given high key and right link.
    fn node(
        keys: &[u64],
        children: Option<Vec<Goid>>,
        high_key: u64,
        right: Option<Goid>,
    ) -> BTreeNode {
        let mut n = match children {
            None => BTreeNode::leaf(4, keys, 10),
            Some(children) => {
                let lows = std::iter::once(0).chain(keys.iter().copied());
                let group: Vec<(u64, Goid)> = lows.zip(children).collect();
                BTreeNode::internal(4, &group, 10)
            }
        };
        n.high_key = high_key;
        n.right = right;
        n
    }

    /// Run one overflowing mutation on `n`; returns the reply, the effects
    /// and the created nodes' shapes.
    fn overflow(
        n: &mut BTreeNode,
        method: MethodId,
        args: &[Word],
    ) -> (WordVec, Vec<Effect>, Vec<Shape>) {
        let mut env = Recorder::default();
        let reply = n.invoke(method, args, &mut env);
        let created = env.created.iter().map(shape).collect();
        (reply, env.effects, created)
    }

    fn goids(g: &[u64]) -> Option<Vec<Goid>> {
        Some(g.iter().copied().map(Goid).collect())
    }

    #[test]
    fn the_four_split_shapes() {
        use Effect::*;
        const MAX: u64 = u64::MAX;

        // A leaf split keeps the lower half; the upper half, led by the
        // separator, moves right and inherits the high key and right link.
        let mut leaf = node(&[10, 20, 30, 40], None, 50, Some(Goid(7)));
        let (reply, effects, created) = overflow(&mut leaf, M_INSERT, &[25]);
        assert_eq!(&reply[..], &[R_SPLIT, 100, 25]);
        assert_eq!(
            effects,
            [
                Lock,
                Write(HDR + 16, 24),
                Write(8, 24),
                Create(Goid(100)),
                Unlock
            ]
        );
        assert_eq!(
            shape(&leaf),
            (vec![10, 20], None, 25, Some(Goid(100)), false)
        );
        assert_eq!(
            created,
            [(vec![25, 30, 40], None, 50, Some(Goid(7)), false)]
        );

        // An internal split moves its middle key up and out of both halves.
        let mut inner = node(
            &[10, 20, 30, 40],
            goids(&[1, 2, 3, 4, 5]),
            50,
            Some(Goid(7)),
        );
        let (reply, effects, created) = overflow(&mut inner, M_ADD_CHILD, &[35, 9]);
        assert_eq!(&reply[..], &[R_SPLIT, 100, 30]);
        assert_eq!(
            effects,
            [
                Lock,
                Write(HDR + 24, 16),
                Write(HDR + 64, 16),
                Write(8, 24),
                Create(Goid(100)),
                Unlock
            ]
        );
        assert_eq!(
            shape(&inner),
            (vec![10, 20], goids(&[1, 2, 3]), 30, Some(Goid(100)), false)
        );
        assert_eq!(
            created,
            [(vec![35, 40], goids(&[4, 9, 5]), 50, Some(Goid(7)), false)]
        );

        // A leaf root grows in place: the upper half is created first, then
        // the lower half linked to it, then the root's headers are written.
        let mut root = node(&[10, 20, 30, 40], None, MAX, None);
        root.is_root = true;
        let (reply, effects, created) = overflow(&mut root, M_INSERT, &[50]);
        assert_eq!(&reply[..], &[R_OK, 1]);
        assert_eq!(
            effects,
            [
                Lock,
                Write(HDR + 32, 8),
                Create(Goid(100)),
                Create(Goid(101)),
                Write(8, 24),
                Write(HDR, 8),
                Unlock
            ]
        );
        assert_eq!(
            shape(&root),
            (vec![30], goids(&[101, 100]), MAX, None, true)
        );
        assert_eq!(
            created,
            [
                (vec![30, 40, 50], None, MAX, None, false),
                (vec![10, 20], None, 30, Some(Goid(100)), false),
            ]
        );

        // An internal root grows the same way, its separator moving up.
        let mut root = node(&[10, 20, 30, 40], goids(&[1, 2, 3, 4, 5]), MAX, None);
        root.is_root = true;
        let (reply, effects, created) = overflow(&mut root, M_ADD_CHILD, &[45, 9]);
        assert_eq!(&reply[..], &[R_OK, 1]);
        assert_eq!(
            effects,
            [
                Lock,
                Write(HDR + 32, 8),
                Write(HDR + 72, 8),
                Create(Goid(100)),
                Create(Goid(101)),
                Write(8, 24),
                Write(HDR, 8),
                Unlock,
            ]
        );
        assert_eq!(
            shape(&root),
            (vec![30], goids(&[101, 100]), MAX, None, true)
        );
        assert_eq!(
            created,
            [
                (vec![40, 45], goids(&[4, 5, 9]), MAX, None, false),
                (vec![10, 20], goids(&[1, 2, 3]), 30, Some(Goid(100)), false),
            ]
        );
    }

    /// Where a node's block lives and how many words it holds.
    fn block_of(n: &BTreeNode) -> (*const u64, usize) {
        (n.block.as_ptr(), n.block.len())
    }

    #[test]
    fn a_node_is_a_48_byte_header_and_one_block() {
        assert_eq!(std::mem::size_of::<BTreeNode>(), 48);
        assert_eq!(block_of(&node(&[1], None, u64::MAX, None)).1, 5);
        assert_eq!(block_of(&node(&[1], goids(&[1, 2]), u64::MAX, None)).1, 11);
    }

    #[test]
    fn inserts_up_to_one_key_past_the_fanout_keep_the_block() {
        // A leaf fills to its fanout, then takes the fanout + 1st key and
        // splits, keeping its lower half in the same block.
        let mut leaf = node(&[10], None, 100, None);
        let block = block_of(&leaf);
        for key in [20, 30, 40, 50] {
            let reply = leaf.invoke(M_INSERT, &[key], &mut Recorder::default());
            assert_eq!(block_of(&leaf), block, "insert of {key} moved the block");
            assert_eq!(reply[0], if key == 50 { R_SPLIT } else { R_OK });
        }
        assert_eq!(leaf.keys(), [10, 20]);

        // An internal node the same, keys and children both.
        let mut inner = node(&[10], goids(&[1, 2]), 100, None);
        let block = block_of(&inner);
        for (sep, child) in [(20, 3), (30, 4), (40, 5), (50, 6)] {
            let reply = inner.invoke(M_ADD_CHILD, &[sep, child], &mut Recorder::default());
            assert_eq!(block_of(&inner), block, "adding {sep} moved the block");
            assert_eq!(reply[0], if sep == 50 { R_SPLIT } else { R_OK });
        }
        assert_eq!(inner.keys(), [10, 20]);
        assert_eq!(inner.children(), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn splits_and_root_growth_allocate_blocks_of_the_exact_size() {
        // Runs one overflowing mutation; returns the node's block before
        // and after, and the created nodes' blocks.
        let run = |mut n: BTreeNode, is_root: bool, method: MethodId, args: &[Word]| {
            n.is_root = is_root;
            let before = block_of(&n);
            let mut env = Recorder::default();
            n.invoke(method, args, &mut env);
            let created: Vec<_> = env.created.iter().map(block_of).collect();
            (before, block_of(&n), created)
        };
        let leaf = || node(&[10, 20, 30, 40], None, u64::MAX, None);
        let inner = || node(&[10, 20, 30, 40], goids(&[1, 2, 3, 4, 5]), u64::MAX, None);

        // Fanout 4: a leaf block holds 5 keys, an internal one 5 keys and
        // 6 children. A split keeps its block and allocates one of the same
        // size for the upper half.
        let (before, after, created) = run(leaf(), false, M_INSERT, &[25]);
        assert_eq!((after, created.len(), created[0].1), (before, 1, 5));
        let (before, after, created) = run(inner(), false, M_ADD_CHILD, &[35, 9]);
        assert_eq!((after, created.len(), created[0].1), (before, 1, 11));

        // A growing root allocates the upper child's block and its own new
        // internal one, and hands its old block to the lower child.
        let (before, after, created) = run(leaf(), true, M_INSERT, &[50]);
        assert_eq!((after.1, created.len(), created[0].1), (11, 2, 5));
        assert_eq!(created[1], before);
        let (before, after, created) = run(inner(), true, M_ADD_CHILD, &[45, 9]);
        assert_eq!((after.1, created.len(), created[0].1), (11, 2, 11));
        assert_eq!(created[1], before);
    }

    #[test]
    fn verify_tree_checks_the_key_count_against_the_block() {
        let check = |root: BTreeNode, child: Option<BTreeNode>| {
            let mut runner = Runner::new(MachineConfig::new(2, Scheme::rpc()));
            let system = &mut runner.system;
            let mut root = root;
            if let Some(child) = child {
                let g = system.create_object(Box::new(child), ProcId(1), false);
                root.block[root.child_base()] = g.0;
            }
            let g = system.create_object(Box::new(root), ProcId(0), false);
            verify_tree(&runner.system, g)
        };
        let leaf = |count: u16| {
            let mut n = node(&[1, 2, 3, 4], None, u64::MAX, None);
            n.count = count;
            n
        };
        assert_eq!(check(leaf(4), None).map(|s| s.keys), Ok(4));
        // A fanout + 1st key fits the block but is one too many at rest.
        assert_eq!(check(leaf(5), None), Err("g0: overfull (5 keys)".into()));
        // A count past the block is reported, not read.
        assert_eq!(check(leaf(9), None), Err("g0: overfull (9 keys)".into()));
        // A child whose block is of another fanout, or of the other kind.
        let root = || node(&[], goids(&[0]), u64::MAX, None);
        let wide = BTreeNode::leaf(5, &[1], 10);
        assert_eq!(
            check(root(), Some(wide)),
            Err("g0: a 6-word block is no fanout-4 leaf block".into())
        );
        let mut internal_sized = BTreeNode::leaf(4, &[1], 10);
        internal_sized.block = new_block(4, false);
        assert_eq!(
            check(root(), Some(internal_sized)),
            Err("g0: a 11-word block is no fanout-4 leaf block".into())
        );
    }

    #[test]
    fn an_insert_that_finds_its_leaf_root_grown_descends_again() {
        // The descent read the root as a leaf; the root then grew in place.
        let mut op = BTreeOp::new(Goid(4), 25, true, Annotation::Migrate);
        op.on_result(&[R_LEAF, 0]);
        let mut root = node(&[30], goids(&[101, 100]), u64::MAX, None);
        root.is_root = true;
        let mut env = Recorder::default();
        let reply = root.invoke(M_INSERT, &[25], &mut env);
        assert_eq!(&reply[..], &[R_CHILD, 101]);
        assert!(env.effects.is_empty(), "a descent only reads");
        op.on_result(&reply);
        assert_eq!((op.current, &op.path[..]), (Goid(101), &[4][..]));
        let ctx = StepCtx {
            now: Cycles::ZERO,
            proc: ProcId(0),
        };
        match op.step(&ctx) {
            StepResult::Invoke(i) => assert_eq!((i.target, i.method), (Goid(101), M_DESCEND)),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn small(scheme: Scheme) -> BTreeExperiment {
        BTreeExperiment {
            initial_keys: 500,
            fanout: 10,
            data_procs: 8,
            requesters: 4,
            think: Cycles::ZERO,
            scheme,
            insert_permille: 500,
            key_space: 1 << 20,
            node_compute: 100,
            cost_override: None,
            requests_per_thread: None,
            seed: 42,
            audit: false,
            faults: None,
            failover: migrate_rt::FailoverConfig::default(),
            annotation: Annotation::Migrate,
        }
    }

    #[test]
    fn bulk_load_paper_shape() {
        let exp = BTreeExperiment::paper(0, Scheme::rpc());
        let (runner, root) = exp.build();
        let stats = verify_tree(&runner.system, root).expect("valid tree");
        assert_eq!(stats.keys, 10_000);
        assert_eq!(stats.height, 3, "root / internals / leaves");
        // The paper observed a root with three children at fanout 100.
        assert!(
            (2..=4).contains(&stats.root_children),
            "root children {}",
            stats.root_children
        );
    }

    #[test]
    fn bulk_load_fanout10_is_deeper() {
        let exp = BTreeExperiment {
            fanout: 10,
            ..BTreeExperiment::paper(0, Scheme::rpc())
        };
        let (runner, root) = exp.build();
        let stats = verify_tree(&runner.system, root).expect("valid tree");
        assert_eq!(stats.keys, 10_000);
        assert!(stats.height >= 5, "height {}", stats.height);
        // §4.2 reports four root children; exact arity depends on the
        // loader's fill factor — what matters is that the root is wider
        // than the fanout-100 tree's, giving more post-replication
        // parallelism (the effect behind the §4.2 crossover).
        assert!(
            (3..=10).contains(&stats.root_children),
            "root children {}",
            stats.root_children
        );
    }

    #[test]
    fn lookups_find_loaded_keys() {
        let (runner, root) = small(Scheme::rpc()).build();
        let keys = initial_keys(500, 1 << 20);
        for k in keys.iter().step_by(37) {
            assert!(lookup_pure(&runner.system, root, *k), "key {k}");
            assert!(!lookup_pure(&runner.system, root, k + 1), "key {}", k + 1);
        }
    }

    #[test]
    fn simulated_ops_mutate_tree_correctly() {
        let (mut runner, root) = small(Scheme::computation_migration()).build();
        let before = verify_tree(&runner.system, root).unwrap();
        runner.run_until(Cycles(2_000_000));
        let after = verify_tree(&runner.system, root).expect("tree stays valid");
        assert!(
            after.keys > before.keys,
            "inserts must land: {} -> {}",
            before.keys,
            after.keys
        );
    }

    #[test]
    fn tree_valid_under_every_scheme() {
        for scheme in [
            Scheme::shared_memory(),
            Scheme::rpc(),
            Scheme::computation_migration(),
            Scheme::computation_migration().with_replication(),
            Scheme::rpc().with_replication().with_hardware(),
        ] {
            let (mut runner, root) = small(scheme).build();
            runner.run_until(Cycles(1_000_000));
            let stats = verify_tree(&runner.system, root)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.label()));
            assert!(stats.keys >= 500, "{}", scheme.label());
        }
    }

    #[test]
    fn splits_occur_and_propagate() {
        // Insert-heavy workload on a tiny tree must split nodes (and keep
        // the tree valid).
        let mut exp = small(Scheme::computation_migration());
        exp.insert_permille = 1000;
        exp.initial_keys = 50;
        let (mut runner, root) = exp.build();
        let before = verify_tree(&runner.system, root).unwrap();
        runner.run_until(Cycles(3_000_000));
        let after = verify_tree(&runner.system, root).unwrap();
        assert!(after.nodes > before.nodes, "splits create nodes");
        assert!(after.keys > before.keys + 50, "many inserts landed");
    }

    #[test]
    fn root_grows_in_place() {
        // Drive enough inserts to split the root; its GOID must survive.
        let mut exp = small(Scheme::rpc());
        exp.initial_keys = 8;
        exp.fanout = 4;
        exp.insert_permille = 1000;
        let (mut runner, root) = exp.build();
        let h_before = verify_tree(&runner.system, root).unwrap().height;
        runner.run_until(Cycles(4_000_000));
        let stats = verify_tree(&runner.system, root).expect("root still valid");
        assert!(stats.height > h_before, "tree must grow taller");
    }

    #[test]
    fn cm_descent_migrates_per_level() {
        let exp = BTreeExperiment {
            insert_permille: 0, // pure lookups for a clean count
            ..small(Scheme::computation_migration())
        };
        let (mut runner, root) = exp.build();
        let height = verify_tree(&runner.system, root).unwrap().height as f64;
        let m = runner.run(Cycles(100_000), Cycles(400_000));
        assert!(m.ops > 0);
        let per_op = m.migrations as f64 / m.ops as f64;
        // One migration per level, fewer when consecutive nodes happen to
        // share a processor.
        assert!(
            per_op <= height + 0.1 && per_op >= height - 1.5,
            "migrations/op {per_op} for height {height}"
        );
    }

    #[test]
    fn replication_relieves_root_traffic() {
        let plain = small(Scheme::computation_migration());
        let repl = small(Scheme::computation_migration().with_replication());
        let m_plain = plain.run(Cycles(100_000), Cycles(400_000));
        let m_repl = repl.run(Cycles(100_000), Cycles(400_000));
        assert!(m_plain.ops > 0 && m_repl.ops > 0);
        // Replication must reduce migrations per op (root hop removed).
        let plain_per = m_plain.migrations as f64 / m_plain.ops as f64;
        let repl_per = m_repl.migrations as f64 / m_repl.ops as f64;
        assert!(repl_per < plain_per, "repl {repl_per} vs plain {plain_per}");
    }

    #[test]
    fn root_writes_broadcast_replica_updates() {
        let mut exp = small(Scheme::rpc().with_replication());
        exp.initial_keys = 8;
        exp.fanout = 4;
        exp.insert_permille = 1000;
        let (mut runner, _root) = exp.build();
        let m = runner.run(Cycles::ZERO, Cycles(3_000_000));
        // Root growth happened at least once → replica updates flowed.
        assert!(
            m.message_kinds
                .get(&MessageKind::ReplicaUpdate)
                .copied()
                .unwrap_or(0)
                > 0,
            "{:?}",
            m.message_kinds
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut runner, root) = small(Scheme::computation_migration()).build();
            let m = runner.run(Cycles(50_000), Cycles(300_000));
            let stats = verify_tree(&runner.system, root).unwrap();
            (m.ops, m.messages, stats.keys, stats.nodes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adaptive_annotation_learns_to_migrate_descents() {
        // Descents hop across randomly-placed nodes (multiple remote
        // accesses per op), so the policy must converge on migration — with
        // the busy==charged audit green throughout.
        let mut exp = small(Scheme::computation_migration());
        exp.annotation = Annotation::Auto;
        exp.audit = true;
        let m = exp.run(Cycles(100_000), Cycles(400_000));
        assert!(m.ops > 0);
        assert!(m.migrations > 0, "the policy must learn to migrate");
        let p = m.policy.expect("policy active under Auto + CM");
        assert!(p.migrate_decisions > 0);
        assert!(p.episodes > 0);
        assert!(m.audit.is_some(), "audit green under Annotation::Auto");
    }

    #[test]
    fn adaptive_annotation_inert_under_rpc_scheme() {
        // The scheme forbids migration, so Auto degenerates to RPC and the
        // policy engine is never even consulted.
        let mut exp = small(Scheme::rpc());
        exp.annotation = Annotation::Auto;
        let m = exp.run(Cycles(100_000), Cycles(400_000));
        assert!(m.ops > 0);
        assert_eq!(m.migrations, 0);
        assert!(m.policy.is_none());
    }
}
