//! A fixed reference computation that measures how fast the host runs at the
//! moment, so pass times can be reported at a fixed host speed.
//!
//! On a shared virtual machine the host's speed drifts by 15–35% over tens of
//! seconds, in CPU time as well as in wall time. Timing this computation
//! (in CPU time, see `clock.rs`) beside every pass and scaling the pass's
//! host times by `NOMINAL_S / reference` removes most of that drift. The
//! computation is the benchmark's own code, independent of the program, so
//! no change to the program changes its speed. It does the kind of work the
//! simulator's event loop does: a binary-heap event queue, hash-map updates,
//! small allocations and data-dependent branches, over a working set that
//! fits the core's own caches. (A variant that also chased pointers through
//! a 4 MiB table followed the simulator's speed less closely: it is more
//! sensitive to contention for the shared cache than the simulator is.)

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::clock::cpu_timed;

/// CPU seconds the reference computation takes on the host the benchmark
/// was tuned on (a 2-vCPU KVM guest on an Intel Xeon), roughly. Scaled
/// times read as CPU seconds on that host.
pub const NOMINAL_S: f64 = 0.04;

/// Events the reference queue dispatches per call.
const EVENTS: u64 = 400_000;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run the reference computation once. Returns a checksum so that it is not
/// optimised away; it is the same on every call.
fn kernel() -> u64 {
    let mut rng = 0x5EED_u64;
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut objects: HashMap<u32, Vec<u64>> = HashMap::new();
    for id in 0..256u32 {
        queue.push(Reverse((splitmix(&mut rng) % 1_000, id)));
    }
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let Reverse((now, id)) = queue.pop().expect("the queue never empties");
        sum = sum.wrapping_add(splitmix(&mut rng) & 0xff);
        let entry = objects.entry(id.wrapping_mul(31) % 4096).or_default();
        if sum & 3 == 0 {
            entry.clear();
        }
        entry.push(sum);
        let delay = if sum & 1 == 0 {
            10 + sum % 90
        } else {
            200 + sum % 800
        };
        queue.push(Reverse((now + delay, id)));
    }
    sum ^ objects.len() as u64
}

/// CPU seconds the reference computation takes: run once on each of
/// `threads` threads at the same time, the mean of their times. Passes keep
/// that many threads busy, so this samples the same processors.
pub fn reference_s(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let (_, cpu_s) = cpu_timed(|| std::hint::black_box(kernel()));
                    cpu_s
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}
