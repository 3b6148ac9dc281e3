//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes *which* faults a run should experience: message
//! drops, duplicates, extra delays, transient processor stalls, and
//! crash-restarts, each expressed as a permille probability. A
//! [`FaultInjector`] turns the plan into concrete per-message decisions
//! ([`MessageFate`]) using a splitmix64 stream keyed on the plan's seed, the
//! injector's own call counter, the simulated time, and the message route.
//! The same plan applied to the same simulation therefore replays the exact
//! same fault history — fault runs are as deterministic as fault-free ones.
//!
//! Fault injection is entirely opt-in: nothing in this module runs unless a
//! simulation constructs an injector, so the fault-free path stays bit-exact
//! and zero-cost.

use crate::ids::ProcId;
use crate::rng::splitmix64;
use crate::time::Cycles;
use crate::trace::{TraceEvent, Tracer};

/// A declarative description of the faults to inject, all probabilities in
/// permille (0..=1000). The default plan injects nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the decision stream; two runs with the same plan and the
    /// same simulation history make identical decisions.
    pub seed: u64,
    /// Probability (‰) that a message is silently dropped.
    pub drop_permille: u32,
    /// Probability (‰) that a message is delivered twice.
    pub duplicate_permille: u32,
    /// Probability (‰) that a message is delayed by up to [`FaultPlan::max_delay`].
    /// Delays reorder messages relative to later traffic on the same route.
    pub delay_permille: u32,
    /// Upper bound on an injected delay.
    pub max_delay: Cycles,
    /// Probability (‰) that a message arrival triggers a transient stall of
    /// the receiving processor.
    pub stall_permille: u32,
    /// Duration of an injected stall.
    pub stall_cycles: Cycles,
    /// Probability (‰) that a message arrival triggers a crash-restart of the
    /// receiving processor: the processor loses arriving messages until it
    /// comes back [`FaultPlan::crash_cycles`] later.
    pub crash_permille: u32,
    /// Outage length of a crash-restart.
    pub crash_cycles: Cycles,
    /// Permanent fail-stop: `Some((proc, t))` kills processor `proc` at cycle
    /// `t` — it never restarts, unlike the transient crash-restart windows
    /// above. This is a *scheduled* fault, not a probabilistic one: it is
    /// consumed by the runtime at startup and draws nothing from the
    /// per-message decision stream, so adding or removing a kill never
    /// reshuffles the transient fault history of a seed.
    pub kill: Option<(ProcId, Cycles)>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn disabled() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_permille: 0,
            duplicate_permille: 0,
            delay_permille: 0,
            max_delay: Cycles::ZERO,
            stall_permille: 0,
            stall_cycles: Cycles::ZERO,
            crash_permille: 0,
            crash_cycles: Cycles::ZERO,
            kill: None,
        }
    }

    /// A moderately hostile but recoverable plan: a few percent of messages
    /// dropped, duplicated or delayed, occasional stalls and rare
    /// crash-restarts. Used by the fault-sweep tests and
    /// `experiments --faults <seed>`.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_permille: 60,
            duplicate_permille: 30,
            delay_permille: 60,
            max_delay: Cycles(4_000),
            stall_permille: 10,
            stall_cycles: Cycles(2_000),
            crash_permille: 4,
            crash_cycles: Cycles(8_000),
            kill: None,
        }
    }

    /// A plan whose only fault is a permanent fail-stop of `victim` at `at`.
    /// Used by the failover chaos sweep (`experiments --failover`).
    pub fn fail_stop(victim: ProcId, at: Cycles) -> FaultPlan {
        FaultPlan {
            kill: Some((victim, at)),
            ..FaultPlan::disabled()
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

/// The injector's verdict on one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageFate {
    /// The message never arrives.
    pub dropped: bool,
    /// Extra delay added to the arrival (zero when not delayed).
    pub delay: Cycles,
    /// When `Some(extra)`, a second copy arrives `extra` cycles after the
    /// first.
    pub duplicate: Option<Cycles>,
    /// When `Some(d)`, the receiving processor stalls for `d` on arrival.
    pub stall: Option<Cycles>,
    /// When `Some(d)`, the receiving processor crash-restarts on arrival and
    /// loses arriving messages for `d`.
    pub crash: Option<Cycles>,
}

impl MessageFate {
    /// The fate of a message under a disabled plan: delivered untouched.
    pub fn delivered() -> MessageFate {
        MessageFate {
            dropped: false,
            delay: Cycles::ZERO,
            duplicate: None,
            stall: None,
            crash: None,
        }
    }
}

/// Counters of the decisions an injector has made.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages a fate was drawn for.
    pub decisions: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Messages duplicated.
    pub duplicates: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Crash-restarts injected.
    pub crashes: u64,
}

/// Draws deterministic [`MessageFate`]s from a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    calls: u64,
    stats: FaultStats,
    tracer: Tracer,
}

impl FaultInjector {
    /// Build an injector for `plan`.
    ///
    /// Panics if any permille exceeds 1000, or if `drop_permille` is 1000 —
    /// a plan that drops *every* message livelocks any retry protocol.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        assert!(
            plan.drop_permille < 1000,
            "dropping every message livelocks"
        );
        for p in [
            plan.duplicate_permille,
            plan.delay_permille,
            plan.stall_permille,
            plan.crash_permille,
        ] {
            assert!(p <= 1000, "permille probability out of range: {p}");
        }
        FaultInjector {
            plan,
            calls: 0,
            stats: FaultStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; every injected fault is recorded (source `"fault"`).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decisions made so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Reset the decision counters (the decision *stream* keeps advancing, so
    /// a measurement window sees fresh counters but an unbroken history).
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// Draw `permille`-biased bit number `draw` for this call.
    fn hit(&self, key: u64, draw: u64, permille: u32) -> bool {
        if permille == 0 {
            return false;
        }
        (splitmix64(key ^ draw.wrapping_mul(0xA076_1D64_78BD_642F)) % 1000) < u64::from(permille)
    }

    /// Bounded value in `0..=max` for bit number `draw` of this call.
    fn bounded(&self, key: u64, draw: u64, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        splitmix64(key ^ draw.wrapping_mul(0xD6E8_FEB8_6659_FD93)) % (max + 1)
    }

    /// Decide the fate of one message sent at `now` from `src` to `dst`.
    ///
    /// Every call consumes exactly one position in the decision stream
    /// regardless of which faults fire, so a change in one fault's
    /// probability does not reshuffle the others.
    pub fn fate(&mut self, now: Cycles, src: ProcId, dst: ProcId) -> MessageFate {
        let route = (u64::from(src.0) << 32) | u64::from(dst.0);
        let key = splitmix64(self.plan.seed ^ self.calls.wrapping_mul(0x2545_F491_4F6C_DD1D))
            ^ now.get().wrapping_mul(0x9E6C_63D0_876A_8B03)
            ^ route;
        self.calls += 1;
        self.stats.decisions += 1;

        let mut fate = MessageFate::delivered();
        if self.hit(key, 1, self.plan.drop_permille) {
            fate.dropped = true;
            self.stats.drops += 1;
            self.trace(now, "drop", src, dst, 0);
        }
        // Independent draws: a dropped message still consumes the duplicate
        // and delay draws (keeps the stream aligned) but they are moot.
        if self.hit(key, 2, self.plan.duplicate_permille) && !fate.dropped {
            let extra = 1 + self.bounded(key, 3, self.plan.max_delay.get().max(99));
            fate.duplicate = Some(Cycles(extra));
            self.stats.duplicates += 1;
            self.trace(now, "duplicate", src, dst, extra);
        }
        if self.hit(key, 4, self.plan.delay_permille) && !fate.dropped {
            let d = 1 + self.bounded(key, 5, self.plan.max_delay.get().saturating_sub(1));
            fate.delay = Cycles(d);
            self.stats.delays += 1;
            self.trace(now, "delay", src, dst, d);
        }
        if self.hit(key, 6, self.plan.crash_permille) {
            fate.crash = Some(self.plan.crash_cycles);
            self.stats.crashes += 1;
            self.trace(now, "crash", src, dst, self.plan.crash_cycles.get());
        } else if self.hit(key, 7, self.plan.stall_permille) {
            fate.stall = Some(self.plan.stall_cycles);
            self.stats.stalls += 1;
            self.trace(now, "stall", src, dst, self.plan.stall_cycles.get());
        }
        fate
    }

    fn trace(&self, now: Cycles, kind: &'static str, src: ProcId, dst: ProcId, amount: u64) {
        self.tracer.emit_with(|| TraceEvent {
            at: now,
            source: "fault",
            kind,
            proc: Some(dst),
            detail: format!("src={} dst={} amount={}", src.0, dst.0, amount),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fates(plan: FaultPlan, n: u64) -> Vec<MessageFate> {
        let mut inj = FaultInjector::new(plan);
        (0..n)
            .map(|i| {
                inj.fate(
                    Cycles(i * 37),
                    ProcId((i % 5) as u32),
                    ProcId((i % 7) as u32),
                )
            })
            .collect()
    }

    #[test]
    fn disabled_plan_touches_nothing() {
        let all = fates(FaultPlan::disabled(), 500);
        assert!(all.iter().all(|f| *f == MessageFate::delivered()));
    }

    #[test]
    fn same_seed_same_history() {
        let a = fates(FaultPlan::chaos(7), 2_000);
        let b = fates(FaultPlan::chaos(7), 2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = fates(FaultPlan::chaos(1), 2_000);
        let b = fates(FaultPlan::chaos(2), 2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn chaos_rates_are_in_the_right_ballpark() {
        let mut inj = FaultInjector::new(FaultPlan::chaos(42));
        for i in 0..20_000u64 {
            inj.fate(Cycles(i * 13), ProcId(0), ProcId(1));
        }
        let s = inj.stats().clone();
        assert_eq!(s.decisions, 20_000);
        // 60‰ of 20 000 is 1 200; allow wide slack, just not degenerate.
        assert!((600..2_400).contains(&s.drops), "drops {}", s.drops);
        assert!(s.duplicates > 100, "duplicates {}", s.duplicates);
        assert!(s.delays > 100, "delays {}", s.delays);
        assert!(s.crashes > 0 && s.crashes < s.stalls + s.drops);
    }

    #[test]
    fn delays_are_bounded_by_the_plan() {
        let plan = FaultPlan {
            delay_permille: 1000,
            max_delay: Cycles(50),
            ..FaultPlan::disabled()
        };
        let mut inj = FaultInjector::new(plan);
        for i in 0..500u64 {
            let f = inj.fate(Cycles(i), ProcId(0), ProcId(1));
            assert!(
                f.delay.get() >= 1 && f.delay.get() <= 50,
                "delay {:?}",
                f.delay
            );
        }
    }

    #[test]
    fn stats_reset_keeps_the_stream_moving() {
        let mut inj = FaultInjector::new(FaultPlan::chaos(3));
        let first = inj.fate(Cycles(0), ProcId(0), ProcId(1));
        inj.reset_stats();
        assert_eq!(inj.stats(), &FaultStats::default());
        // The next call is call #1, not a replay of call #0.
        let second = inj.fate(Cycles(0), ProcId(0), ProcId(1));
        let mut fresh = FaultInjector::new(FaultPlan::chaos(3));
        assert_eq!(fresh.fate(Cycles(0), ProcId(0), ProcId(1)), first);
        assert_eq!(fresh.fate(Cycles(0), ProcId(0), ProcId(1)), second);
    }

    #[test]
    fn kill_is_active_but_never_perturbs_the_decision_stream() {
        // A kill-only plan engages the recovery machinery (the runtime
        // builds its transport layer for any plan) yet makes zero
        // probabilistic decisions...
        let plan = FaultPlan::fail_stop(ProcId(3), Cycles(10_000));
        let all = fates(plan, 500);
        assert!(all.iter().all(|f| *f == MessageFate::delivered()));

        // ...and adding a kill to a chaos plan leaves the transient fault
        // history of that seed byte-for-byte unchanged.
        let plain = fates(FaultPlan::chaos(9), 2_000);
        let killed = fates(
            FaultPlan {
                kill: Some((ProcId(1), Cycles(77))),
                ..FaultPlan::chaos(9)
            },
            2_000,
        );
        assert_eq!(plain, killed);
    }

    #[test]
    #[should_panic(expected = "livelocks")]
    fn dropping_everything_is_rejected() {
        FaultInjector::new(FaultPlan {
            drop_permille: 1000,
            ..FaultPlan::disabled()
        });
    }

    #[test]
    fn fault_decisions_are_traced() {
        let plan = FaultPlan {
            drop_permille: 999,
            ..FaultPlan::disabled()
        };
        let mut inj = FaultInjector::new(plan);
        let (tracer, sink) = Tracer::ring(64);
        inj.set_tracer(tracer);
        for i in 0..20u64 {
            inj.fate(Cycles(i), ProcId(0), ProcId(1));
        }
        let s = sink.borrow();
        assert!(s.recorded() > 0);
        assert!(s.events().all(|e| e.source == "fault"));
    }
}
