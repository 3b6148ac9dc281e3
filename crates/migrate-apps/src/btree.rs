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

use std::any::Any;

use migrate_rt::{
    Annotation, Behavior, Frame, Invoke, MachineConfig, MethodEnv, MethodId, RunMetrics, Runner,
    Scheme, StepCtx, StepResult, System, Word, WordVec,
};
use proteus::rng::SplitMix64;
use proteus::{Cycles, ProcId};

use crate::workload::{initial_keys, KeyStream};
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
pub struct BTreeNode {
    /// Upper bound (exclusive) of this node's key range; `u64::MAX` at the
    /// right edge of its level.
    pub high_key: u64,
    /// Right sibling at the same level (B-link pointer).
    pub right: Option<Goid>,
    /// Sorted keys. For internal nodes these are separators:
    /// `children[i]` covers keys `< keys[i]`, `children[len]` the rest.
    pub keys: Vec<u64>,
    /// `None` for leaves.
    pub children: Option<Vec<Goid>>,
    /// Only the root grows in place (its GOID must remain stable so
    /// replication and the application handle stay valid).
    pub is_root: bool,
    /// Maximum keys per node (the paper's "at most one hundred children or
    /// keys").
    pub fanout: usize,
    compute: u64,
}

const HDR: u64 = 32;

impl BTreeNode {
    /// A fresh leaf.
    pub fn leaf(
        keys: Vec<u64>,
        high_key: u64,
        right: Option<Goid>,
        fanout: usize,
        compute: u64,
    ) -> Self {
        BTreeNode {
            high_key,
            right,
            keys,
            children: None,
            is_root: false,
            fanout,
            compute,
        }
    }

    /// `true` if this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }

    fn scan(&self, env: &mut dyn MethodEnv) {
        // Linear scan of the live key region + header: ~5 cycles per key of
        // compare-and-branch, plus the fixed method body. This is why the
        // §4.2 fanout-10 variant services activations faster ("activations
        // accessing smaller nodes require less time to service").
        env.read(8, 24);
        env.read(HDR, (self.keys.len().max(1) as u64) * 8);
        env.compute(Cycles(self.compute + self.keys.len() as u64 * 5));
    }

    /// Index of the child covering `key`.
    fn child_index(&self, key: u64) -> usize {
        self.keys.partition_point(|&k| k <= key)
    }

    fn moved_right(&self, key: u64) -> Option<Goid> {
        if key >= self.high_key {
            self.right
        } else {
            None
        }
    }

    fn descend(&mut self, key: u64, env: &mut dyn MethodEnv) -> WordVec {
        self.scan(env);
        if let Some(r) = self.moved_right(key) {
            return [R_MOVED, r.0].into();
        }
        match &self.children {
            Some(children) => {
                let idx = self.child_index(key);
                env.read(HDR + (self.fanout as u64) * 8 + idx as u64 * 8, 8);
                [R_CHILD, children[idx].0].into()
            }
            None => {
                let found = self.keys.binary_search(&key).is_ok();
                [R_LEAF, u64::from(found)].into()
            }
        }
    }

    fn insert_leaf(&mut self, key: u64, env: &mut dyn MethodEnv) -> WordVec {
        assert!(self.is_leaf(), "M_INSERT on an internal node");
        env.lock();
        self.scan(env);
        if let Some(r) = self.moved_right(key) {
            env.unlock();
            return [R_MOVED, r.0].into();
        }
        match self.keys.binary_search(&key) {
            Ok(_) => {
                env.unlock();
                [R_OK, 0].into()
            }
            Err(pos) => {
                self.keys.insert(pos, key);
                // Shift the tail of the key array.
                env.write(HDR + pos as u64 * 8, (self.keys.len() - pos) as u64 * 8);
                if self.keys.len() <= self.fanout {
                    env.unlock();
                    return [R_OK, 1].into();
                }
                let out = if self.is_root {
                    self.grow_root(env)
                } else {
                    self.split(env)
                };
                env.unlock();
                out
            }
        }
    }

    fn add_child(&mut self, sep: u64, child: Goid, env: &mut dyn MethodEnv) -> WordVec {
        assert!(!self.is_leaf(), "M_ADD_CHILD on a leaf");
        env.lock();
        self.scan(env);
        if let Some(r) = self.moved_right(sep) {
            env.unlock();
            return [R_MOVED, r.0].into();
        }
        let pos = self.keys.partition_point(|&k| k < sep);
        self.keys.insert(pos, sep);
        self.children
            .as_mut()
            .expect("internal node")
            .insert(pos + 1, child);
        env.write(HDR + pos as u64 * 8, (self.keys.len() - pos) as u64 * 8);
        env.write(
            HDR + (self.fanout as u64) * 8 + (pos + 1) as u64 * 8,
            (self.keys.len() - pos) as u64 * 8,
        );
        if self.keys.len() <= self.fanout {
            env.unlock();
            return [R_OK, 1].into();
        }
        let out = if self.is_root {
            self.grow_root(env)
        } else {
            self.split(env)
        };
        env.unlock();
        out
    }

    /// Split a non-root node: keep the lower half, move the upper half to a
    /// new right sibling, and report the separator for the parent.
    fn split(&mut self, env: &mut dyn MethodEnv) -> WordVec {
        let (sep, sibling) = match &mut self.children {
            None => {
                let mid = self.keys.len() / 2;
                let upper = self.keys.split_off(mid);
                let sep = upper[0];
                let node = BTreeNode {
                    high_key: self.high_key,
                    right: self.right,
                    keys: upper,
                    children: None,
                    is_root: false,
                    fanout: self.fanout,
                    compute: self.compute,
                };
                (sep, node)
            }
            Some(children) => {
                let mid = self.keys.len() / 2;
                // keys[mid] moves up; upper keys/children move right.
                let upper_keys = self.keys.split_off(mid + 1);
                let sep = self.keys.pop().expect("separator");
                let upper_children = children.split_off(mid + 1);
                let node = BTreeNode {
                    high_key: self.high_key,
                    right: self.right,
                    keys: upper_keys,
                    children: Some(upper_children),
                    is_root: false,
                    fanout: self.fanout,
                    compute: self.compute,
                };
                (sep, node)
            }
        };
        // Write both halves' headers.
        env.write(8, 24);
        let new_goid = env.create(Box::new(sibling), None);
        self.high_key = sep;
        self.right = Some(new_goid);
        [R_SPLIT, new_goid.0, sep].into()
    }

    /// The root grows in place: its contents move into two fresh children
    /// and the root becomes (or stays) internal with a single separator.
    /// The GOID of the root never changes.
    fn grow_root(&mut self, env: &mut dyn MethodEnv) -> WordVec {
        let mid = self.keys.len() / 2;
        let (sep, left, right) = match &mut self.children {
            None => {
                let upper = self.keys.split_off(mid);
                let sep = upper[0];
                let lower = std::mem::take(&mut self.keys);
                let right = BTreeNode {
                    high_key: self.high_key,
                    right: None,
                    keys: upper,
                    children: None,
                    is_root: false,
                    fanout: self.fanout,
                    compute: self.compute,
                };
                let left = BTreeNode {
                    high_key: sep,
                    right: None, // patched below once the right GOID exists
                    keys: lower,
                    children: None,
                    is_root: false,
                    fanout: self.fanout,
                    compute: self.compute,
                };
                (sep, left, right)
            }
            Some(children) => {
                let upper_keys = self.keys.split_off(mid + 1);
                let sep = self.keys.pop().expect("separator");
                let lower_keys = std::mem::take(&mut self.keys);
                let upper_children = children.split_off(mid + 1);
                let lower_children = std::mem::take(children);
                let right = BTreeNode {
                    high_key: self.high_key,
                    right: None,
                    keys: upper_keys,
                    children: Some(upper_children),
                    is_root: false,
                    fanout: self.fanout,
                    compute: self.compute,
                };
                let left = BTreeNode {
                    high_key: sep,
                    right: None,
                    keys: lower_keys,
                    children: Some(lower_children),
                    is_root: false,
                    fanout: self.fanout,
                    compute: self.compute,
                };
                (sep, left, right)
            }
        };
        let right_goid = env.create(Box::new(right), None);
        let mut left = left;
        left.right = Some(right_goid);
        let left_goid = env.create(Box::new(left), None);
        self.keys = vec![sep];
        self.children = Some(vec![left_goid, right_goid]);
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
        HDR + (self.fanout as u64 + 1) * 8 * 2
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
    /// in the `WordVec`'s inline words; a deeper tree spills to the heap.
    path: WordVec,
    phase: OpPhase,
    annotation: Annotation,
}

impl BTreeOp {
    /// A lookup (or insert) of `key` starting at `root`, with the paper's
    /// static migration annotation at every node visit.
    pub fn new(root: Goid, key: u64, insert: bool) -> BTreeOp {
        BTreeOp::annotated(root, key, insert, Annotation::Migrate)
    }

    /// Like [`BTreeOp::new`] with an explicit call-site annotation
    /// (`Annotation::Auto` hands the choice to the adaptive policy).
    pub fn annotated(root: Goid, key: u64, insert: bool, annotation: Annotation) -> BTreeOp {
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
        Invoke {
            annotation: self.annotation,
            ..Invoke::rpc(self.current, method, args)
        }
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
            (OpPhase::Descend, R_MOVED) | (OpPhase::InsertLeaf, R_MOVED) => {
                self.current = Goid(r[1]);
            }
            (OpPhase::Descend, R_CHILD) => {
                self.path.push(self.current.0);
                self.current = Goid(r[1]);
            }
            (OpPhase::Descend, R_LEAF) => {
                if self.insert {
                    self.phase = OpPhase::InsertLeaf;
                } else {
                    self.phase = OpPhase::Finished(r[1]);
                }
            }
            (OpPhase::InsertLeaf, R_OK) | (OpPhase::Ascend { .. }, R_OK) => {
                self.phase = OpPhase::Finished(r[1]);
            }
            (OpPhase::InsertLeaf, R_SPLIT) | (OpPhase::Ascend { .. }, R_SPLIT) => {
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
            (OpPhase::Ascend { .. }, R_MOVED) => {
                self.current = Goid(r[1]);
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

/// The request driver: think, issue one lookup/insert, repeat.
pub struct BTreeDriver {
    root: Goid,
    think: Cycles,
    stream: KeyStream,
    thinking: bool,
    /// Operations completed by this driver.
    pub completed: u64,
    /// Stop after this many requests (`u64::MAX` = run to the horizon).
    /// Capped drivers halt, letting the machine drain to quiescence.
    pub max_requests: u64,
    /// Call-site annotation stamped on every node visit the spawned
    /// operations make (`Migrate` reproduces the paper's static choice;
    /// `Auto` hands it to the adaptive policy).
    pub annotation: Annotation,
    /// The last operation's box, handed back when it finished: the next
    /// operation is written into it instead of a new allocation.
    spare: Option<Box<BTreeOp>>,
}

impl BTreeDriver {
    /// A driver drawing requests from `stream`.
    pub fn new(root: Goid, think: Cycles, stream: KeyStream) -> BTreeDriver {
        BTreeDriver {
            root,
            think,
            stream,
            thinking: false,
            completed: 0,
            max_requests: u64::MAX,
            annotation: Annotation::Migrate,
            spare: None,
        }
    }
}

impl Frame for BTreeDriver {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.completed >= self.max_requests {
            return StepResult::Halt;
        }
        if !self.thinking {
            self.thinking = true;
            return StepResult::Sleep(self.think);
        }
        self.thinking = false;
        let req = self.stream.next_request();
        let op = BTreeOp::annotated(self.root, req.key, req.insert, self.annotation);
        StepResult::Call(match self.spare.take() {
            Some(mut spare) => {
                *spare = op;
                spare
            }
            None => Box::new(op),
        })
    }
    fn on_result(&mut self, _r: &[Word]) {
        self.completed += 1;
    }
    fn recycle_child(&mut self, child: Box<dyn Frame>) {
        if let Ok(op) = (child as Box<dyn Any>).downcast() {
            self.spare = Some(op);
        }
    }
    fn live_words(&self) -> u64 {
        4
    }
    fn label(&self) -> &'static str {
        "btree-driver"
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

    /// The §4.2 variant: nodes constrained to at most ten keys/children.
    pub fn paper_fanout10(think: u64, scheme: Scheme) -> BTreeExperiment {
        BTreeExperiment {
            fanout: 10,
            ..BTreeExperiment::paper(think, scheme)
        }
    }

    /// Build the machine and bulk-load the tree. Returns the runner and the
    /// root GOID.
    pub fn build(&self) -> (Runner, Goid) {
        let processors = self.data_procs + self.requesters;
        let mut cfg = MachineConfig::new(processors, self.scheme);
        cfg.seed = self.seed;
        cfg.cost_override = self.cost_override.clone();
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
            let stream = KeyStream::new(
                self.seed ^ (0x9E37 + u64::from(r) * 0x1234_5678),
                self.key_space,
                self.insert_permille,
            );
            let mut driver = BTreeDriver::new(root, self.think, stream);
            driver.annotation = self.annotation;
            if let Some(cap) = self.requests_per_thread {
                driver.max_requests = cap;
            }
            runner.spawn(ProcId(self.data_procs + r), Box::new(driver));
        }
        (runner, root)
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
    assert!(!sorted_keys.is_empty(), "cannot load an empty tree");
    assert!(
        sorted_keys.windows(2).all(|w| w[0] < w[1]),
        "keys must be sorted+distinct"
    );
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
    let fill = (fanout * 2 / 3).max(2);
    let mut place = |system: &mut System, node: BTreeNode| -> Goid {
        let home = ProcId(rng.below(u64::from(data_procs)) as u32);
        system.create_object(Box::new(node), home, false)
    };

    // Level 0: leaves. Track each node's (low_key, goid) for the parents.
    let mut level: Vec<(u64, Goid)> = Vec::new();
    let chunks: Vec<&[u64]> = sorted_keys.chunks(fill).collect();
    let mut prev: Option<Goid> = None;
    // Build right-to-left so right links point at existing nodes.
    for (i, chunk) in chunks.iter().enumerate().rev() {
        let high_key = chunks.get(i + 1).map(|next| next[0]).unwrap_or(u64::MAX);
        let node = BTreeNode::leaf(chunk.to_vec(), high_key, prev, fanout, node_compute);
        let goid = place(system, node);
        prev = Some(goid);
        level.push((chunk[0], goid));
    }
    level.reverse();

    // Upper levels until the survivors fit in a single root. Stopping at
    // `fanout` (not the fill factor) keeps the root as wide as possible:
    // the paper's fanout-10 tree had a four-child root, and root arity is
    // what bounds post-replication parallelism.
    while level.len() > fanout {
        let groups: Vec<&[(u64, Goid)]> = level.chunks(fill).collect();
        let mut next_level: Vec<(u64, Goid)> = Vec::new();
        let mut prev: Option<Goid> = None;
        for (i, group) in groups.iter().enumerate().rev() {
            let high_key = groups.get(i + 1).map(|g| g[0].0).unwrap_or(u64::MAX);
            let keys: Vec<u64> = group.iter().skip(1).map(|&(low, _)| low).collect();
            let children: Vec<Goid> = group.iter().map(|&(_, g)| g).collect();
            let node = BTreeNode {
                high_key,
                right: prev,
                keys,
                children: Some(children),
                is_root: false,
                fanout,
                compute: node_compute,
            };
            let goid = place(system, node);
            prev = Some(goid);
            next_level.push((group[0].0, goid));
        }
        next_level.reverse();
        level = next_level;
    }

    let root = if level.len() == 1 {
        level[0].1
    } else {
        // Gather the surviving top-level nodes under one wide root.
        let keys: Vec<u64> = level.iter().skip(1).map(|&(low, _)| low).collect();
        let children: Vec<Goid> = level.iter().map(|&(_, g)| g).collect();
        let node = BTreeNode {
            high_key: u64::MAX,
            right: None,
            keys,
            children: Some(children),
            is_root: false, // set below
            fanout,
            compute: node_compute,
        };
        place(system, node)
    };
    // The root grows in place (stable GOID) and is eligible for software
    // replication under the "w/repl." schemes.
    system.with_object_mut::<BTreeNode, _>(root, |node| {
        node.is_root = true;
        node.high_key = u64::MAX;
        node.right = None;
    });
    system.set_replicated(root, true);
    root
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

/// Walk the tree and check every invariant: sorted distinct keys per node,
/// separator bounds, B-link ordering, fanout bounds, and that the leaf
/// level's left-to-right key sequence is globally sorted. Returns stats.
pub fn verify_tree(system: &System, root: Goid) -> Result<TreeStats, String> {
    let objects = system.objects();
    let node = |g: Goid| -> Result<&BTreeNode, String> {
        objects
            .state::<BTreeNode>(g)
            .ok_or_else(|| format!("{g:?} is not a B-tree node"))
    };

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
            if !n.keys.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("{g:?}: keys not sorted/distinct"));
            }
            if n.keys.len() > n.fanout {
                return Err(format!("{g:?}: overfull ({} keys)", n.keys.len()));
            }
            if let Some(k) = n.keys.last() {
                if *k >= n.high_key {
                    return Err(format!("{g:?}: key {k} >= high key {}", n.high_key));
                }
            }
            if let Some(prev) = last_key {
                if let Some(first_key) = n.keys.first() {
                    if *first_key < prev {
                        return Err(format!("{g:?}: level order violated at key {first_key}"));
                    }
                }
            }
            last_key = n.keys.last().copied().or(last_key);
            if n.is_leaf() {
                keys += n.keys.len() as u64;
            } else {
                let children = n.children.as_ref().expect("internal");
                if children.len() != n.keys.len() + 1 {
                    return Err(format!(
                        "{g:?}: {} children for {} keys",
                        children.len(),
                        n.keys.len()
                    ));
                }
            }
            if n.right.is_none() && n.high_key != u64::MAX {
                return Err(format!("{g:?}: rightmost node with bounded high key"));
            }
            cursor = n.right;
        }
        if is_leaf_level {
            break;
        }
        let n = node(first)?;
        leftmost = n.children.as_ref().and_then(|c| c.first().copied());
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
        root_children: root_node.children.as_ref().map_or(0, Vec::len),
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
        match &n.children {
            Some(children) => current = children[n.child_index(key)],
            None => return n.keys.binary_search(&key).is_ok(),
        }
    }
    panic!("lookup did not terminate");
}

#[cfg(test)]
mod tests {
    use super::*;
    use migrate_rt::MessageKind;

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
    fn driver_writes_its_next_operation_into_the_returned_box() {
        let ctx = StepCtx {
            now: Cycles::ZERO,
            proc: ProcId(0),
        };
        let stream = KeyStream::new(7, 1 << 20, 500);
        let mut driver = BTreeDriver::new(Goid(1), Cycles::ZERO, stream);
        let mut ops = Vec::new();
        while ops.len() < 2 {
            match driver.step(&ctx) {
                StepResult::Call(mut op) => {
                    ops.push(&*op as *const dyn Frame as *const ());
                    op.on_result(&[R_LEAF, 9]);
                    driver.recycle_child(op);
                    assert!(driver.spare.is_some(), "the operation box was not kept");
                }
                StepResult::Sleep(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(ops[0], ops[1], "the operation box was not reused");
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
        let exp = BTreeExperiment::paper_fanout10(0, Scheme::rpc());
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
