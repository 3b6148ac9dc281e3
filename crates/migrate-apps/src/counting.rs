//! The counting-network application (§4.1 of the paper).
//!
//! A counting network supports "shared counting": many threads draw values
//! from a shared range with far less contention than a single locked
//! counter. It is built from *balancers* — two-by-two switches that route
//! incoming tokens alternately to their two outputs. The paper uses an
//! eight-by-eight bitonic counting network: six stages of four balancers,
//! laid out one balancer per processor on twenty-four processors, with
//! requesting threads on their own processors.
//!
//! A request traverses six balancers and then reads its output wire's
//! counter: `value = width · count + position`. Under computation migration the
//! traversal *hops* processor to processor with the activation (one message
//! per stage, plus one short-circuited return); under RPC each stage costs a
//! request/reply pair; under shared memory the balancers are write-shared
//! cache lines that ping-pong between requesters.

use std::sync::Arc;

use migrate_rt::{
    Annotation, Behavior, Frame, Invoke, MachineConfig, MethodEnv, MethodId, RunMetrics, Runner,
    Scheme, StepCtx, StepResult, Word, WordVec,
};
use proteus::{Cycles, ProcId};

use crate::workload::{boxed, OpSource, Requester};
use crate::Goid;

/// Method id: traverse a balancer.
pub const M_TRAVERSE: MethodId = MethodId(0);
/// Method id: draw a value from an output counter.
pub const M_NEXT_VALUE: MethodId = MethodId(1);

// ---------------------------------------------------------------------
// Wiring
// ---------------------------------------------------------------------

/// The static wiring of a bitonic balancing network of power-of-two width:
/// which wire pairs meet a balancer at each layer, plus the output order.
///
/// This is the recursive construction of Aspnes, Herlihy and Shavit:
/// `Bitonic[2k]` is two `Bitonic[k]` halves followed by `Merger[2k]`, where
/// the merger recursively routes the even outputs of one half with the odd
/// outputs of the other and finishes with a layer of adjacent balancers.
/// Because the merger interleaves sub-merger outputs, the network's *output
/// sequence* y₀…y_{w−1} is a permutation of the physical wires
/// ([`Wiring::output_order`]); the step property holds in output order.
/// Width 8 yields the paper's six layers of four balancers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wiring {
    width: u32,
    /// For each layer, the balancer wire pairs `(top, bottom)`: the
    /// balancer's first token exits on `top`.
    layers: Vec<Vec<(u32, u32)>>,
    /// `output_order[i]` = physical wire carrying output position `i`.
    output_order: Vec<u32>,
}

/// Zip two equal-depth sub-networks into parallel layers.
fn zip_layers(a: Vec<Vec<(u32, u32)>>, b: Vec<Vec<(u32, u32)>>) -> Vec<Vec<(u32, u32)>> {
    debug_assert_eq!(a.len(), b.len(), "sub-networks must have equal depth");
    a.into_iter()
        .zip(b)
        .map(|(mut la, lb)| {
            la.extend(lb);
            la.sort_unstable();
            la
        })
        .collect()
}

/// AHS `Merger[2k]` on output sequences `a` and `b` of two balanced
/// sub-networks. Returns (layers, output order).
fn merger(a: &[u32], b: &[u32]) -> (Vec<Vec<(u32, u32)>>, Vec<u32>) {
    let k = a.len();
    debug_assert_eq!(k, b.len());
    if k == 1 {
        return (vec![vec![(a[0], b[0])]], vec![a[0], b[0]]);
    }
    let even = |s: &[u32]| -> Vec<u32> { s.iter().copied().step_by(2).collect() };
    let odd = |s: &[u32]| -> Vec<u32> { s.iter().copied().skip(1).step_by(2).collect() };
    let (la, oa) = merger(&even(a), &odd(b));
    let (lb, ob) = merger(&odd(a), &even(b));
    let mut layers = zip_layers(la, lb);
    let mut fin = Vec::with_capacity(k);
    let mut out = Vec::with_capacity(2 * k);
    for i in 0..k {
        fin.push((oa[i], ob[i]));
        out.push(oa[i]);
        out.push(ob[i]);
    }
    fin.sort_unstable();
    layers.push(fin);
    (layers, out)
}

/// AHS `Bitonic[w]` on the given physical wires.
fn bitonic_network(wires: &[u32]) -> (Vec<Vec<(u32, u32)>>, Vec<u32>) {
    let n = wires.len();
    if n == 1 {
        return (Vec::new(), wires.to_vec());
    }
    let (top, bottom) = wires.split_at(n / 2);
    let (lt, ot) = bitonic_network(top);
    let (lb, ob) = bitonic_network(bottom);
    let mut layers = zip_layers(lt, lb);
    let (ml, out) = merger(&ot, &ob);
    layers.extend(ml);
    (layers, out)
}

impl Wiring {
    /// Periodic counting network of `width` wires (power of two, ≥ 2):
    /// `log w` identical *blocks* of `log w` layers each (Dowd et al.'s
    /// balanced blocks; Aspnes, Herlihy and Shavit prove the periodic
    /// network counts). Layer `j` of a block pairs wire `i` with
    /// `i XOR ((w − 1) >> j)`. Deeper than bitonic (`log²w` vs
    /// `log w (log w + 1)/2` layers) but with a perfectly regular structure.
    pub fn periodic(width: u32) -> Wiring {
        assert!(width.is_power_of_two() && width >= 2, "width must be 2^k");
        let k = width.trailing_zeros();
        let mut layers = Vec::new();
        for _block in 0..k {
            for j in 0..k {
                let mask = (width - 1) >> j;
                let mut layer = Vec::new();
                for i in 0..width {
                    let partner = i ^ mask;
                    if partner > i {
                        layer.push((i, partner));
                    }
                }
                layers.push(layer);
            }
        }
        Wiring {
            width,
            layers,
            // The periodic network's outputs are in natural wire order.
            output_order: (0..width).collect(),
        }
    }

    /// Bitonic counting network of `width` wires (power of two, ≥ 2).
    pub fn bitonic(width: u32) -> Wiring {
        assert!(width.is_power_of_two() && width >= 2, "width must be 2^k");
        let wires: Vec<u32> = (0..width).collect();
        let (layers, output_order) = bitonic_network(&wires);
        Wiring {
            width,
            layers,
            output_order,
        }
    }

    /// Network width (wires).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of layers (stages).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Balancers in one layer.
    pub fn layer(&self, l: usize) -> &[(u32, u32)] {
        &self.layers[l]
    }

    /// Total balancer count.
    pub fn balancers(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Index (within layer `l`) of the balancer attached to `wire`.
    pub fn balancer_of(&self, l: usize, wire: u32) -> usize {
        self.layers[l]
            .iter()
            .position(|&(a, b)| a == wire || b == wire)
            .expect("every wire meets exactly one balancer per layer")
    }

    /// The network's output order: position `i` of the output sequence is
    /// carried by physical wire `output_order()[i]`.
    pub fn output_order(&self) -> &[u32] {
        &self.output_order
    }

    /// Output position of a physical wire.
    pub fn position_of(&self, wire: u32) -> usize {
        self.output_order
            .iter()
            .position(|&w| w == wire)
            .expect("wire in range")
    }

    /// Pure token walk: push `tokens` sequential tokens entering on
    /// `entries[i % entries.len()]` through fresh toggles; returns the exit
    /// count per *output position*. This is the oracle the property tests
    /// compare the simulated network against.
    pub fn pure_counts(&self, tokens: u64, entries: &[u32]) -> Vec<u64> {
        assert!(!entries.is_empty());
        let mut toggles: Vec<Vec<bool>> =
            self.layers.iter().map(|l| vec![false; l.len()]).collect();
        let mut out = vec![0u64; self.width as usize];
        for t in 0..tokens {
            let mut wire = entries[(t % entries.len() as u64) as usize];
            for (l, layer) in self.layers.iter().enumerate() {
                let b = self.balancer_of(l, wire);
                let (top, bottom) = layer[b];
                let toggle = &mut toggles[l][b];
                wire = if *toggle { bottom } else { top };
                *toggle = !*toggle;
            }
            out[self.position_of(wire)] += 1;
        }
        out
    }
}

/// The step property: sorted non-increasing counts differing by at most one
/// end-to-end — the defining output condition of a counting network.
pub fn has_step_property(counts: &[u64]) -> bool {
    // 0 <= counts[i] - counts[j] <= 1 for all i < j: adjacent
    // non-increasing plus a global spread of at most one.
    counts.windows(2).all(|w| w[0] >= w[1])
        && counts.iter().max().unwrap_or(&0) - counts.iter().min().unwrap_or(&0) <= 1
}

// ---------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------

/// A balancer object: toggle state plus its two output wires.
///
/// Memory layout (for shared-memory metering): lock word at 0, toggle at 8,
/// output wires at 16; 32 bytes total (two cache lines).
pub struct Balancer {
    /// Current toggle: `false` routes to the top output.
    pub toggle: bool,
    /// Top output wire.
    pub top: u32,
    /// Bottom output wire.
    pub bottom: u32,
    /// Tokens routed (diagnostics).
    pub traversals: u64,
}

impl Behavior for Balancer {
    fn invoke(&mut self, method: MethodId, _args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        assert_eq!(method, M_TRAVERSE, "balancers only traverse");
        env.lock();
        env.read(8, 8); // toggle
        env.compute(Cycles(BALANCER_COMPUTE));
        let out = if self.toggle { self.bottom } else { self.top };
        self.toggle = !self.toggle;
        self.traversals += 1;
        env.write(8, 8);
        env.unlock();
        env.read(16, 8); // output wire table (read-mostly)
        [Word::from(out)].into()
    }
    fn size_bytes(&self) -> u64 {
        32
    }
}

/// An output-wire counter: hands out `width·count + position`, where
/// `position` is the wire's rank in the network's output sequence.
pub struct OutputCounter {
    /// Values drawn so far from this wire.
    pub count: u64,
    /// This counter's rank in the output sequence (not the physical wire).
    pub position: u32,
    width: u32,
}

impl Behavior for OutputCounter {
    fn invoke(&mut self, method: MethodId, _args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        assert_eq!(method, M_NEXT_VALUE, "counters only draw values");
        env.lock();
        env.read(8, 8);
        env.compute(Cycles(COUNTER_COMPUTE));
        let value = self.count * u64::from(self.width) + u64::from(self.position);
        self.count += 1;
        env.write(8, 8);
        env.unlock();
        [value].into()
    }
    fn size_bytes(&self) -> u64 {
        16
    }
}

// ---------------------------------------------------------------------
// Network spec (wiring + object placement)
// ---------------------------------------------------------------------

/// The instantiated network: wiring plus the GOIDs of every balancer and
/// counter. Shared by all traversal frames via `Arc` (static program text in
/// the paper's terms — it is not part of a frame's live state).
pub struct CountingSpec {
    /// The wiring.
    pub wiring: Wiring,
    /// `balancers[layer][index]` → balancer object.
    pub balancers: Vec<Vec<Goid>>,
    /// `counters[wire]` → output counter object.
    pub counters: Vec<Goid>,
}

impl CountingSpec {
    /// The balancer a token on `wire` meets at `layer`.
    pub fn balancer_at(&self, layer: usize, wire: u32) -> Goid {
        self.balancers[layer][self.wiring.balancer_of(layer, wire)]
    }

    /// Counter GOIDs in output-sequence order (the order the step property
    /// is stated in).
    pub fn counters_in_output_order(&self) -> Vec<Goid> {
        self.wiring
            .output_order()
            .iter()
            .map(|&w| self.counters[w as usize])
            .collect()
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// One request: traverse all layers, then draw from the output counter.
///
/// This is the *annotated procedure* of the paper: every instance-method
/// call site carries the migration annotation, so under a CM scheme the
/// activation hops balancer to balancer and the value returns straight home;
/// under RPC/SM schemes the same frame runs with those mechanisms.
pub struct TraverseOp {
    spec: Arc<CountingSpec>,
    wire: u32,
    layer: u32,
    value: Option<Word>,
    hop_charged: bool,
    annotation: Annotation,
}

impl TraverseOp {
    /// A request entering on `wire`, with `annotation` at every hop
    /// (`Annotation::Migrate` is the paper's static choice;
    /// `Annotation::Auto` hands it to the adaptive policy).
    pub fn new(spec: Arc<CountingSpec>, wire: u32, annotation: Annotation) -> TraverseOp {
        TraverseOp {
            spec,
            wire,
            layer: 0,
            value: None,
            hop_charged: false,
            annotation,
        }
    }
}

impl Frame for TraverseOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if let Some(v) = self.value {
            return StepResult::Return([v].into());
        }
        // Frame-local bookkeeping at each hop (wire arithmetic, loop
        // control): the rest of the paper's ~150 cycles of user code per
        // migration beyond the balancer method itself.
        if !self.hop_charged {
            self.hop_charged = true;
            return StepResult::Compute(Cycles(STEP_COMPUTE));
        }
        let inv = if (self.layer as usize) < self.spec.wiring.depth() {
            let balancer = self.spec.balancer_at(self.layer as usize, self.wire);
            let args = [Word::from(self.wire)];
            Invoke::new(balancer, M_TRAVERSE, args, self.annotation)
        } else {
            let counter = self.spec.counters[self.wire as usize];
            Invoke::new(counter, M_NEXT_VALUE, [], self.annotation)
        };
        StepResult::Invoke(inv)
    }

    fn on_result(&mut self, results: &[Word]) {
        self.hop_charged = false;
        if (self.layer as usize) < self.spec.wiring.depth() {
            self.wire = results[0] as u32;
            self.layer += 1;
        } else {
            self.value = Some(results[0]);
        }
    }

    fn live_words(&self) -> u64 {
        // wire, layer, value slot, network reference.
        4
    }

    fn is_operation(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "counting-traverse"
    }
}

/// A counting requester's operations: traversals entering on one wire.
pub struct Traversals {
    /// The network the tokens traverse.
    pub spec: Arc<CountingSpec>,
    /// The wire every token enters on.
    pub entry_wire: u32,
}

impl OpSource for Traversals {
    type Op = TraverseOp;

    fn next_op(
        &mut self,
        annotation: Annotation,
        spare: Option<Box<TraverseOp>>,
    ) -> Box<TraverseOp> {
        boxed(
            spare,
            TraverseOp::new(self.spec.clone(), self.entry_wire, annotation),
        )
    }
}

// ---------------------------------------------------------------------
// Experiment
// ---------------------------------------------------------------------

/// Which counting-network construction to instantiate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Topology {
    /// The paper's eight-by-eight bitonic network.
    #[default]
    Bitonic,
    /// The periodic network (extension; same width, `log²w` layers).
    Periodic,
}

/// Network width: the paper's eight-by-eight network.
const WIDTH: u32 = 8;
/// Cycles of user code per balancer traversal.
const BALANCER_COMPUTE: u64 = 140;
/// Cycles of user code per counter draw.
const COUNTER_COMPUTE: u64 = 60;
/// Cycles of frame-local bookkeeping per hop of a traversal.
const STEP_COMPUTE: u64 = 10;

/// Configuration of a counting-network experiment (one Figure 2/3 point).
#[derive(Clone, Debug)]
pub struct CountingExperiment {
    /// Network construction (the paper uses bitonic).
    pub topology: Topology,
    /// Number of requesting threads, each on its own processor.
    pub requesters: u32,
    /// Think time between requests (0 or 10 000 in the paper).
    pub think: Cycles,
    /// The scheme under test.
    pub scheme: Scheme,
    /// Optional cap on requests per thread (`None` = run to the horizon).
    /// Capped requesters halt, letting the network drain to quiescence — the
    /// precondition for the exact step property.
    pub requests_per_thread: Option<u64>,
    /// Override the coherence protocol's contention costs (ablations).
    pub coherence_override: Option<proteus::CoherenceCosts>,
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
    /// Call-site annotation on every hop (`Migrate` = the paper's static
    /// choice, the default; `Auto` = adaptive dispatch).
    pub annotation: Annotation,
}

impl CountingExperiment {
    /// The paper's configuration: eight-by-eight network, one balancer per
    /// processor, `requesters` threads on separate processors.
    pub fn paper(requesters: u32, think: u64, scheme: Scheme) -> CountingExperiment {
        CountingExperiment {
            topology: Topology::Bitonic,
            requesters,
            think: Cycles(think),
            scheme,
            requests_per_thread: None,
            coherence_override: None,
            seed: 0xC0DE,
            audit: false,
            faults: None,
            failover: migrate_rt::FailoverConfig::default(),
            annotation: Annotation::Migrate,
        }
    }

    /// Build the machine: balancers on processors `0..balancers`, one each;
    /// counters co-located with their feeding last-layer balancer;
    /// requesters on dedicated processors after the balancers.
    pub fn build(&self) -> (Runner, Arc<CountingSpec>) {
        let wiring = match self.topology {
            Topology::Bitonic => Wiring::bitonic(WIDTH),
            Topology::Periodic => Wiring::periodic(WIDTH),
        };
        let balancer_procs = wiring.balancers() as u32;
        let processors = balancer_procs + self.requesters;
        let mut cfg = MachineConfig::new(processors, self.scheme);
        cfg.seed = self.seed;
        cfg.data_procs = (0..balancer_procs).map(ProcId).collect();
        cfg.audit = self.audit;
        cfg.faults = self.faults.clone();
        cfg.failover = self.failover.clone();
        if let Some(coh) = self.coherence_override {
            cfg.coherence = coh;
        }
        let mut runner = Runner::new(cfg);

        // One balancer per processor, numbered layer-major (the paper's
        // one-balancer-per-processor layout).
        let mut balancers = Vec::new();
        let mut proc = 0u32;
        for l in 0..wiring.depth() {
            let mut layer_goids = Vec::new();
            for &(top, bottom) in wiring.layer(l) {
                let goid = runner.system.create_object(
                    Box::new(Balancer {
                        toggle: false,
                        top,
                        bottom,
                        traversals: 0,
                    }),
                    ProcId(proc),
                    false,
                );
                layer_goids.push(goid);
                proc += 1;
            }
            balancers.push(layer_goids);
        }

        // Counters live with the last-layer balancer that feeds them;
        // `counters[w]` is the counter for *physical* wire w, whose value
        // stream is determined by the wire's output position.
        let last = wiring.depth() - 1;
        let counters = (0..WIDTH)
            .map(|wire| {
                let feeder = wiring.balancer_of(last, wire);
                let feeder_proc = ProcId((balancer_procs - WIDTH / 2) + feeder as u32);
                runner.system.create_object(
                    Box::new(OutputCounter {
                        count: 0,
                        position: wiring.position_of(wire) as u32,
                        width: WIDTH,
                    }),
                    feeder_proc,
                    false,
                )
            })
            .collect();

        let spec = Arc::new(CountingSpec {
            wiring,
            balancers,
            counters,
        });

        for r in 0..self.requesters {
            let traversals = Traversals {
                spec: spec.clone(),
                entry_wire: r % WIDTH,
            };
            let mut requester = Requester::new(traversals, self.think);
            requester.annotation = self.annotation;
            if let Some(cap) = self.requests_per_thread {
                requester.max_requests = cap;
            }
            runner.spawn(ProcId(balancer_procs + r), Box::new(requester));
        }
        (runner, spec)
    }

    /// Build, warm up, and measure. The paper's Figure 2/3 points use a
    /// machine-scale warm-up and measurement window.
    pub fn run(&self, warmup: Cycles, window: Cycles) -> RunMetrics {
        let (mut runner, _spec) = self.build();
        runner.run(warmup, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use migrate_rt::MessageKind;

    #[test]
    fn driver_writes_its_next_traversal_into_the_returned_box() {
        let ctx = StepCtx {
            now: Cycles::ZERO,
            proc: ProcId(0),
        };
        let next_call = |requester: &mut dyn Frame| loop {
            match requester.step(&ctx) {
                StepResult::Call(frame) => return frame,
                StepResult::Sleep(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        };
        let (_runner, spec) = CountingExperiment::paper(1, 0, Scheme::rpc()).build();
        let hops = spec.wiring.depth() + 1;
        let traversals = Traversals {
            spec,
            entry_wire: 3,
        };
        let mut requester = Requester::new(traversals, Cycles::ZERO);
        let mut first = next_call(&mut requester);
        for _ in 0..hops {
            first.on_result(&[5]);
        }
        let at = &*first as *const dyn Frame as *const ();
        requester.recycle_child(first);
        assert!(requester.holds_spare(), "the traversal box was not kept");
        let second = next_call(&mut requester);
        assert_eq!(
            &*second as *const dyn Frame as *const (), at,
            "the traversal box was not reused"
        );
        let op = (second as Box<dyn std::any::Any>)
            .downcast::<TraverseOp>()
            .unwrap();
        assert_eq!((op.wire, op.layer, op.value), (3, 0, None), "stale state");
    }

    #[test]
    fn bitonic_8_matches_paper_geometry() {
        let w = Wiring::bitonic(8);
        assert_eq!(w.depth(), 6, "six-stage pipeline");
        assert!(w.layers.iter().all(|l| l.len() == 4), "four balancers each");
        assert_eq!(w.balancers(), 24, "one per processor on 24 processors");
    }

    #[test]
    fn every_wire_meets_one_balancer_per_layer() {
        let w = Wiring::bitonic(8);
        for l in 0..w.depth() {
            let mut seen = vec![0u32; 8];
            for &(a, b) in w.layer(l) {
                seen[a as usize] += 1;
                seen[b as usize] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "layer {l}: {seen:?}");
        }
    }

    #[test]
    fn pure_walk_has_step_property() {
        let w = Wiring::bitonic(8);
        for tokens in [1u64, 7, 8, 64, 100, 1000] {
            let counts = w.pure_counts(tokens, &[0, 1, 2, 3, 4, 5, 6, 7]);
            assert!(has_step_property(&counts), "{tokens} tokens: {counts:?}");
            assert_eq!(counts.iter().sum::<u64>(), tokens);
        }
    }

    #[test]
    fn pure_walk_single_entry_still_counts() {
        let w = Wiring::bitonic(8);
        let counts = w.pure_counts(16, &[3]);
        assert_eq!(counts.iter().sum::<u64>(), 16);
        assert!(has_step_property(&counts), "{counts:?}");
    }

    #[test]
    fn step_property_checker() {
        assert!(has_step_property(&[2, 2, 1, 1]));
        assert!(!has_step_property(&[3, 1, 1, 1]));
        assert!(has_step_property(&[1, 1, 1, 1]));
        assert!(!has_step_property(&[0, 1, 1, 1])); // counts must not ascend
    }

    #[test]
    fn wider_networks_also_count() {
        for width in [2u32, 4, 16] {
            let w = Wiring::bitonic(width);
            let entries: Vec<u32> = (0..width).collect();
            let counts = w.pure_counts(5 * u64::from(width) + 3, &entries);
            assert!(has_step_property(&counts), "width {width}: {counts:?}");
        }
    }

    /// Drive the simulated network with one sequential thread and compare
    /// the output-wire counts against the pure oracle.
    #[test]
    fn simulated_network_matches_pure_oracle() {
        // One sequential thread: the simulated toggles and counters must
        // replay the pure token walk exactly.
        let exp = CountingExperiment::paper(1, 0, Scheme::computation_migration());
        let (mut runner, spec) = exp.build();
        runner.run_until(Cycles(2_000_000));
        let sim_counts: Vec<u64> = spec
            .counters_in_output_order()
            .iter()
            .map(|&g| {
                runner
                    .system
                    .objects()
                    .state::<OutputCounter>(g)
                    .unwrap()
                    .count
            })
            .collect();
        let total: u64 = sim_counts.iter().sum();
        assert!(total > 10, "driver made progress: {total}");
        let pure = spec.wiring.pure_counts(total, &[0]);
        assert_eq!(sim_counts, pure, "sim vs oracle for {total} tokens");
        assert!(has_step_property(&sim_counts), "{sim_counts:?}");
    }

    #[test]
    fn values_drawn_are_distinct_across_threads() {
        // Under CM with several threads, total values drawn equals total
        // counter increments (no lost updates).
        let exp = CountingExperiment::paper(8, 0, Scheme::computation_migration());
        let (mut runner, spec) = exp.build();
        let m = runner.run(Cycles(50_000), Cycles(200_000));
        let drawn: u64 = spec
            .counters
            .iter()
            .map(|&g| {
                runner
                    .system
                    .objects()
                    .state::<OutputCounter>(g)
                    .unwrap()
                    .count
            })
            .sum();
        assert!(m.ops > 0);
        assert!(
            drawn >= m.ops,
            "counter draws {drawn} >= window ops {}",
            m.ops
        );
    }

    #[test]
    fn cm_traversal_migrates_per_stage() {
        let exp = CountingExperiment::paper(4, 0, Scheme::computation_migration());
        let (mut runner, _spec) = exp.build();
        let m = runner.run(Cycles(50_000), Cycles(200_000));
        assert!(m.ops > 0);
        // ~6 migrations per op (first balancer may be remote, counter is
        // co-located with the final balancer).
        let per_op = m.migrations as f64 / m.ops as f64;
        assert!((5.0..7.5).contains(&per_op), "migrations/op {per_op}");
        assert!(m.message_kinds.contains_key(&MessageKind::OperationReturn));
    }

    #[test]
    fn rpc_traversal_uses_request_reply_pairs() {
        let exp = CountingExperiment::paper(4, 0, Scheme::rpc());
        let (mut runner, _spec) = exp.build();
        let m = runner.run(Cycles(50_000), Cycles(200_000));
        assert!(m.ops > 0);
        assert_eq!(m.migrations, 0);
        let per_op = m.message_kinds[&MessageKind::RpcRequest] as f64 / m.ops as f64;
        // 6 balancers + 1 counter ≈ 7 requests per op.
        assert!((6.0..8.5).contains(&per_op), "requests/op {per_op}");
    }

    #[test]
    fn sm_network_has_no_runtime_messages() {
        let exp = CountingExperiment::paper(4, 0, Scheme::shared_memory());
        let (mut runner, _spec) = exp.build();
        let m = runner.run(Cycles(50_000), Cycles(200_000));
        assert!(m.ops > 0);
        assert!(m.message_kinds.is_empty(), "{:?}", m.message_kinds);
        assert!(m.cache_hit_rate > 0.0);
    }

    #[test]
    fn think_time_throttles_throughput() {
        let fast = CountingExperiment::paper(8, 0, Scheme::computation_migration())
            .run(Cycles(50_000), Cycles(300_000));
        let slow = CountingExperiment::paper(8, 10_000, Scheme::computation_migration())
            .run(Cycles(50_000), Cycles(300_000));
        assert!(
            fast.throughput_per_1000 > 1.5 * slow.throughput_per_1000,
            "fast {} slow {}",
            fast.throughput_per_1000,
            slow.throughput_per_1000
        );
    }
}
