//! Adaptive dispatch: decide RPC vs. computation migration online, per
//! call site.
//!
//! The paper chooses the mechanism with a *static* per-call-site annotation
//! (§3.1) and names dynamic selection as the key open problem: "deciding
//! when to migrate ... could be made dynamically based on reference
//! patterns" (§7). Its rule of thumb is equally explicit: migration wins
//! when a frame makes *multiple* remote accesses, RPC wins when it makes
//! one. This module learns that rule at runtime.
//!
//! Each call site annotated [`Annotation::Auto`] gets a sliding window of
//! *episode samples*. An episode is one operation executed by a frame
//! entered at that site; its sample is the number of data accesses the
//! operation made to objects homed away from the thread's home processor —
//! exactly the accesses that would each cost an RPC round trip had the
//! frame stayed home. The window mean is therefore an online estimate of
//! the paper's "number of remote accesses per operation", measured in a
//! way that is *stable under the policy's own decisions*: an access to a
//! remote-homed object counts as remote whether the frame reached it by
//! RPC or executed next to it after migrating, so choosing migration does
//! not erase the evidence that migration was right (no oscillation).
//!
//! At each remote `Auto` dispatch the engine compares the site's window
//! mean against a threshold: migrate once the mean reaches
//! `MIGRATE_AT_MILLI`, fall back to RPC when it decays below
//! `RPC_BELOW_MILLI` (the gap is hysteresis so a borderline site does not
//! flip every episode). An empty window chooses RPC — the paper's default
//! mechanism. Decisions and window updates are charged to the audited
//! `policy.decide` / `policy.update` cost categories, so the busy==charged
//! accounting identity holds under the adaptive scheme exactly as it does
//! under the static ones.
//!
//! The engine is deterministic: sites live in a list in first-seen order,
//! found by the static site label's address (or, for a copy of the label at
//! another address, its text), samples are integers, and the threshold
//! compare is integer arithmetic — same seed, same byte-identical artifacts.
//!
//! [`Annotation::Auto`]: crate::mechanism::Annotation::Auto

use crate::mechanism::site_row;

/// Episodes remembered per call site (the sliding window length).
const WINDOW: usize = 32;

/// Migrate once the window's mean remote-access count, in thousandths,
/// reaches this value: mean ≥ 1.5 encodes the paper's "multiple remote
/// accesses ⇒ migrate" heuristic.
const MIGRATE_AT_MILLI: u64 = 1500;

/// Once migrating, fall back to RPC only when the mean decays below this
/// value (hysteresis; at most [`MIGRATE_AT_MILLI`]).
const RPC_BELOW_MILLI: u64 = 1200;

/// Counters of adaptive-dispatch activity in a measurement window (`Some`
/// in [`crate::RunMetrics`] exactly when the policy engine was consulted
/// at least once over the run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Policy consultations at `Auto` dispatch points.
    pub decisions: u64,
    /// Decisions that chose computation migration.
    pub migrate_decisions: u64,
    /// Decisions that chose RPC.
    pub rpc_decisions: u64,
    /// Mode changes (RPC→migrate or migrate→RPC) across all sites.
    pub flips: u64,
    /// Episode samples folded into sliding windows.
    pub episodes: u64,
    /// Distinct call sites tracked (lifetime of the run, not the window).
    pub sites: u64,
    /// Samples currently held across all site windows (lifetime state).
    pub window_occupancy: u64,
}

/// One call site's sliding window plus its current mode.
#[derive(Clone, Debug)]
struct SiteState {
    /// Ring buffer of the last [`WINDOW`] episode samples.
    ring: Vec<u32>,
    /// Next ring slot to overwrite.
    next: usize,
    /// Samples currently held ([`WINDOW`] once the window has filled).
    filled: usize,
    /// Running sum of the held samples.
    sum: u64,
    /// Current mode: `true` = migrate, `false` = RPC.
    migrating: bool,
}

impl SiteState {
    fn new() -> SiteState {
        SiteState {
            ring: vec![0; WINDOW],
            next: 0,
            filled: 0,
            sum: 0,
            migrating: false,
        }
    }

    fn push(&mut self, sample: u32) {
        if self.filled == WINDOW {
            self.sum -= u64::from(self.ring[self.next]);
        } else {
            self.filled += 1;
        }
        self.ring[self.next] = sample;
        self.sum += u64::from(sample);
        self.next = (self.next + 1) % WINDOW;
    }

    /// Window mean in thousandths (0 for an empty window).
    fn mean_milli(&self) -> u64 {
        if self.filled == 0 {
            0
        } else {
            self.sum * 1000 / self.filled as u64
        }
    }
}

/// Outcome of one policy consultation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct PolicyDecision {
    /// `true`: migrate the activation; `false`: plain RPC.
    pub(crate) migrate: bool,
    /// Whether this consultation changed the site's mode.
    pub(crate) flipped: bool,
}

/// The per-call-site adaptive dispatch engine owned by a
/// [`crate::System`], which builds it the first time an `Auto` dispatch
/// consults or feeds it — so schemes that never dispatch an `Auto` invoke
/// carry no engine and no `policy` metrics. Sliding windows persist across
/// [`crate::System::reset_window`] (the decision stream continues, like
/// the fault injector's); only the [`PolicyStats`] counters reset.
#[derive(Clone, Debug, Default)]
pub(crate) struct PolicyEngine {
    sites: Vec<(&'static str, SiteState)>,
    stats: PolicyStats,
}

impl PolicyEngine {
    /// `site`'s window, created empty the first time the site is seen.
    fn site(&mut self, site: &'static str) -> &mut SiteState {
        site_row(&mut self.sites, site, SiteState::new)
    }

    /// Decide the mechanism for one remote `Auto` dispatch from `site`.
    pub(crate) fn decide(&mut self, site: &'static str) -> PolicyDecision {
        let s = self.site(site);
        let mean = s.mean_milli();
        let migrate = if s.migrating {
            mean >= RPC_BELOW_MILLI
        } else {
            mean >= MIGRATE_AT_MILLI
        };
        let flipped = migrate != s.migrating;
        s.migrating = migrate;
        self.stats.decisions += 1;
        if migrate {
            self.stats.migrate_decisions += 1;
        } else {
            self.stats.rpc_decisions += 1;
        }
        if flipped {
            self.stats.flips += 1;
        }
        PolicyDecision { migrate, flipped }
    }

    /// Fold one finished episode's remote-access count into `site`'s window.
    pub(crate) fn record_episode(&mut self, site: &'static str, remote_accesses: u32) {
        self.site(site).push(remote_accesses);
        self.stats.episodes += 1;
    }

    /// Window counters, with the lifetime occupancy figures filled in.
    pub(crate) fn stats(&self) -> PolicyStats {
        let mut stats = self.stats.clone();
        stats.sites = self.sites.len() as u64;
        stats.window_occupancy = self.sites.iter().map(|(_, s)| s.filled as u64).sum();
        stats
    }

    /// Reset the window counters; sliding windows and modes persist so the
    /// measurement window replays identically whether or not a warm-up
    /// preceded it.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = PolicyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_chooses_rpc() {
        let mut e = PolicyEngine::default();
        let d = e.decide("site");
        assert!(!d.migrate, "no evidence yet: default to RPC");
        assert!(!d.flipped);
        assert_eq!(e.stats().decisions, 1);
    }

    #[test]
    fn multiple_remote_accesses_flip_to_migrate() {
        let mut e = PolicyEngine::default();
        for _ in 0..4 {
            e.record_episode("site", 3);
        }
        let d = e.decide("site");
        assert!(d.migrate, "mean 3.0 >= 1.5 must migrate");
        assert!(d.flipped, "first migrate decision is a mode change");
        let d = e.decide("site");
        assert!(d.migrate && !d.flipped, "mode is sticky");
    }

    #[test]
    fn locality_loss_decays_back_to_rpc() {
        let mut e = PolicyEngine::default();
        for _ in 0..WINDOW {
            e.record_episode("site", 3);
        }
        assert!(e.decide("site").migrate);
        // A window of local episodes pushes the old evidence out.
        for _ in 0..WINDOW {
            e.record_episode("site", 0);
        }
        let d = e.decide("site");
        assert!(!d.migrate, "window full of local episodes must fall back");
        assert!(d.flipped);
    }

    #[test]
    fn hysteresis_holds_the_mode_between_thresholds() {
        // Mean 1.25 is inside the hysteresis band [1.2, 1.5).
        let band = |migrating: bool| {
            let mut e = PolicyEngine::default();
            if migrating {
                for _ in 0..WINDOW {
                    e.record_episode("s", 2);
                }
                assert!(e.decide("s").migrate);
            }
            // A full window of the pattern 1, 1, 2, 1.
            for sample in [1, 1, 2, 1].into_iter().cycle().take(WINDOW) {
                e.record_episode("s", sample);
            }
            assert_eq!(e.site("s").mean_milli(), 1250);
            e.decide("s").migrate
        };
        assert!(band(true), "a migrating site stays migrating at mean 1.25");
        assert!(!band(false), "an RPC site stays RPC at mean 1.25");
    }

    #[test]
    fn sites_are_independent() {
        let mut e = PolicyEngine::default();
        for _ in 0..4 {
            e.record_episode("hot", 5);
            e.record_episode("cold", 0);
        }
        assert!(e.decide("hot").migrate);
        assert!(!e.decide("cold").migrate);
        let stats = e.stats();
        assert_eq!(stats.sites, 2);
        assert_eq!(stats.episodes, 8);
        assert_eq!(stats.window_occupancy, 8);
        assert_eq!(stats.decisions, 2);
        assert_eq!(stats.migrate_decisions, 1);
        assert_eq!(stats.rpc_decisions, 1);
    }

    #[test]
    fn a_label_copy_at_another_address_shares_the_window() {
        let copy: &'static str = Box::leak(String::from("site").into_boxed_str());
        assert!(!std::ptr::eq(copy, "site"));
        let mut e = PolicyEngine::default();
        for _ in 0..4 {
            e.record_episode("site", 3);
        }
        assert!(
            e.decide(copy).migrate,
            "the copy reads the original's window"
        );
        for _ in 0..4 {
            e.record_episode(copy, 3);
        }
        let stats = e.stats();
        assert_eq!(stats.sites, 1);
        assert_eq!(stats.window_occupancy, 8);
        assert!(!e.decide("site").flipped, "one mode for both addresses");
    }

    #[test]
    fn reset_stats_keeps_the_windows() {
        let mut e = PolicyEngine::default();
        for _ in 0..8 {
            e.record_episode("site", 3);
        }
        assert!(e.decide("site").migrate);
        e.reset_stats();
        let stats = e.stats();
        assert_eq!(stats.decisions, 0, "counters reset");
        assert_eq!(stats.episodes, 0);
        assert_eq!(stats.window_occupancy, 8, "window state persists");
        assert!(e.decide("site").migrate, "mode persists too");
        assert!(!e.decide("site").flipped);
    }

    #[test]
    fn ring_evicts_oldest_sample() {
        let mut s = SiteState::new();
        for v in 1..=WINDOW as u32 + 1 {
            s.push(v);
        }
        assert_eq!(s.filled, WINDOW);
        // 1 was pushed out: the window holds 2..=WINDOW + 1.
        let held = (2..=WINDOW as u64 + 1).sum::<u64>();
        assert_eq!(s.sum, held);
        assert_eq!(s.mean_milli(), held * 1000 / WINDOW as u64);
    }
}
