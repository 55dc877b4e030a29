//! The host-speed reference the gated metrics are normalised by.
//!
//! On a shared VM the speed of a vCPU follows the host: the clock the
//! package runs at and the other tenants on the same physical cores change
//! it from one minute to the next, and CPU time keeps that change. So after
//! every timed segment of a workload (one engine run, one set-up) each
//! worker runs a few blocks of fixed reference work, the benchmark's own
//! code that no change to ctbia can move, and times each block by its
//! thread's CPU clock. A phase's reference speed is one block over the
//! median block time, and its CPU seconds count as
//! `speed / NOMINAL_BLOCKS_PER_S` *reference seconds*. A host that runs
//! twice as slow takes twice the CPU seconds for a segment and halves the
//! speed, so the segment's reference time stays put; a program change that
//! makes the segment faster lowers it.
//!
//! The reference is shaped like the simulator's inner loop so that it
//! feels contention the same way: an 8-way LRU tag store (reset per block,
//! as `Machine::reset` clears the simulated caches) probed by a seeded
//! address stream, mostly over a hot region, with a word of a 64 KB backing
//! array read and written per access. Of the variants tried on a 2-vCPU
//! VM, this one tracked the workloads best: over six `sim-spill` runs whose
//! CPU time per pass spread by 0.15 (IQR/median), the normalised figure
//! spread by 0.07; with a 1.5 MB tag store and a 1 MB array it spread by
//! 0.10, and normalising each engine run by the rounds just before and
//! after it, rather than by the whole phase, gave 0.11–0.14.

use crate::exec::par_map;
use crate::outcome::process_cpu_s;
use crate::stats::median;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The reference speed that defines a reference second: about what a
/// 2-vCPU KVM guest on a 2.1 GHz Intel Xeon (Sapphire Rapids) host
/// measures, so that there a reference second is close to a CPU second.
pub const NOMINAL_BLOCKS_PER_S: f64 = 1600.0;

/// Reference blocks each worker runs per measurement.
const BLOCKS_PER_WORKER: usize = 8;

const SETS: usize = 128;
const WAYS: usize = 8;
const ACCESSES: u64 = 40_000;
/// Backing words (64 KB) and the hot prefix most accesses fall in (8 KB).
const WORDS: u64 = 1 << 13;
const HOT_WORDS: u64 = 1 << 10;

/// One worker's reference state, allocated once so a measurement does not
/// page-fault.
struct Scratch {
    tags: Vec<[u64; WAYS]>,
    stamps: Vec<[u32; WAYS]>,
    memory: Vec<u64>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            tags: vec![[u64::MAX; WAYS]; SETS],
            stamps: vec![[0; WAYS]; SETS],
            memory: vec![0; WORDS as usize],
        }
    }

    /// One block of reference work; returns a checksum of it.
    fn block(&mut self, seed: u64) -> u64 {
        self.tags.fill([u64::MAX; WAYS]);
        self.stamps.fill([0; WAYS]);
        let mut x = seed | 1;
        let mut sum = 0u64;
        for t in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let word = if x & 3 != 0 {
                (x >> 8) % HOT_WORDS
            } else {
                (x >> 8) % WORDS
            };
            let line = word >> 3;
            let set = (line % SETS as u64) as usize;
            let tag = line / SETS as u64;
            let stamp = t as u32;
            match self.tags[set].iter().position(|&w| w == tag) {
                Some(way) => self.stamps[set][way] = stamp,
                None => {
                    let (victim, _) = self.stamps[set]
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, s)| *s)
                        .expect("ways");
                    self.tags[set][victim] = tag;
                    self.stamps[set][victim] = stamp;
                    sum = sum.wrapping_add(1);
                }
            }
            let slot = &mut self.memory[word as usize];
            *slot = slot.wrapping_add(x);
            sum = sum.wrapping_add(*slot >> 60);
        }
        black_box(sum)
    }
}

/// Times segments of work and measures the host's reference speed
/// between them.
pub struct RefClock {
    scratch: Vec<Mutex<Scratch>>,
    /// CPU seconds of every reference block run in the current phase.
    blocks: Vec<f64>,
}

impl RefClock {
    /// A clock whose reference runs on `workers` threads at once, so both
    /// of a 2-vCPU VM's vCPUs are sampled, and a first measurement.
    pub fn new(workers: usize) -> RefClock {
        let mut clock = RefClock {
            scratch: (0..workers.max(1))
                .map(|_| Mutex::new(Scratch::new()))
                .collect(),
            blocks: Vec::new(),
        };
        clock.measure();
        clock
    }

    /// Runs a round of reference blocks, timing each by its thread's CPU
    /// clock.
    fn measure(&mut self) {
        let times = par_map(&self.scratch, self.scratch.len(), |w, s| {
            let mut s = s.lock().expect("reference scratch");
            (0..BLOCKS_PER_WORKER as u64)
                .map(|b| {
                    let t = thread_cpu_s();
                    black_box(s.block(b << 8 | w as u64));
                    thread_cpu_s() - t
                })
                .collect::<Vec<f64>>()
        });
        self.blocks.extend(times.into_iter().flatten());
    }

    /// Runs `f`, then a round of reference blocks; returns `f`'s result,
    /// its CPU time (every thread of the process) and its wall time, in
    /// seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let wall = Instant::now();
        let t = process_cpu_s();
        let r = f();
        let cpu = process_cpu_s() - t;
        let wall = wall.elapsed().as_secs_f64();
        self.measure();
        (r, cpu, wall)
    }

    /// Starts a new phase of the run (set-up, then the timed passes): the
    /// reference speed of each is measured over its own segments, since
    /// the host can change speed between them.
    pub fn next_phase(&mut self) {
        self.blocks.clear();
    }

    /// The host's reference speed over the phase so far: blocks per CPU
    /// second at the median block time. A block is short enough that most
    /// run undisturbed; the median drops those a tick or a cold cache hit.
    pub fn blocks_per_s(&self) -> f64 {
        1.0 / median(&self.blocks)
    }

    /// `cpu_s` CPU seconds in reference seconds at the phase's reference
    /// speed.
    pub fn ref_s(&self, cpu_s: f64) -> f64 {
        cpu_s * self.blocks_per_s() / NOMINAL_BLOCKS_PER_S
    }
}

/// CPU seconds the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    crate::outcome::cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_deterministic() {
        let a = Scratch::new().block(7);
        assert_eq!(a, Scratch::new().block(7));
        assert_ne!(a, Scratch::new().block(8));
    }

    #[test]
    fn reference_seconds_scale_with_cpu_seconds() {
        let mut clock = RefClock::new(1);
        let ((), cpu, wall) = clock.time(|| {
            let t = thread_cpu_s();
            while thread_cpu_s() - t < 0.01 {}
        });
        assert!(cpu >= 0.01 && wall > 0.0);
        assert_eq!(clock.blocks.len(), 2 * BLOCKS_PER_WORKER);
        assert!(clock.blocks_per_s() > 0.0);
        assert_eq!(clock.ref_s(2.0), 2.0 * clock.ref_s(1.0));
    }
}
