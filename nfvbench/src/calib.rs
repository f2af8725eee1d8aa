//! Host-speed calibration.
//!
//! A shared host runs this benchmark at speeds that drift by tens of
//! percent over seconds to minutes: other tenants share the cores, caches
//! and memory, and the clock frequency moves. A fixed probe, owned by the
//! benchmark and never touched by the program under test, is timed
//! between the program's calls. Each call's time is divided by the host's
//! slowdown around it (the probe's local median over its nominal time),
//! so the reported times are those of a host on which the probe takes its
//! nominal time. A change to the program moves the calls, not the probe,
//! so it shows in full.
//!
//! The probe matches the bottleneck of the timed calls: a cache-resident
//! heap sort for the Waxman planners, whose network fits in the caches;
//! for `Online_CP` on the n = 5 120 fat-tree, whose slowdowns follow the
//! memory system instead, a walk whose address translation spans a
//! working set of the size of that planner's state; and for set-up, which
//! builds networks and requests out of many small heap objects, a run of
//! small allocations: on the Waxman workloads raw set-up time drifted by
//! +-20% between one-second windows, and by +-2-5% once divided by the
//! allocation probe's slowdown (the heap sort's left +-15%).

use crate::stats::median;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the cache probe sorts through a binary heap.
const HEAP_KEYS: usize = 1024;
/// Vectors the allocation probe builds, each of 1 to [`ALLOC_MAX_LEN`]
/// `u64`s: about 70 KiB, below glibc's 128 KiB trim threshold, so the
/// freed memory is reused rather than handed back and faulted in again
/// (a 550 KiB probe was bimodal across processes for that reason).
const ALLOC_VECS: usize = 500;
/// See [`ALLOC_VECS`].
const ALLOC_MAX_LEN: u64 = 32;
/// Entries (`u32`) of the memory probe's buffer: 16 MiB.
const CHASE_ENTRIES: usize = 4 << 20;
/// Dependent loads per memory probe.
const CHASE_STEPS: usize = 4096;
/// Probes on each side of a call that set its local slowdown.
pub const WINDOW: usize = 8;

/// A calibration probe.
#[derive(Debug)]
pub enum Probe {
    /// Heap-sorts a fixed pseudo-random key sequence in cache.
    Cache,
    /// Builds, then frees, a fixed sequence of short vectors.
    Alloc,
    /// Chases a random cyclic permutation through a 16 MiB buffer.
    Memory(Vec<u32>),
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn chase(next: &[u32]) -> u32 {
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    at
}

impl Probe {
    /// The memory probe, with its buffer laid out as one random cycle,
    /// built in place by Sattolo's shuffle.
    #[must_use]
    pub fn memory() -> Probe {
        let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1D;
        for i in (1..CHASE_ENTRIES).rev() {
            next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        Probe::Memory(next)
    }

    /// Bytes the probe keeps resident.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        match self {
            Probe::Cache | Probe::Alloc => 0,
            Probe::Memory(next) => std::mem::size_of_val(next.as_slice()),
        }
    }

    /// Nominal probe time (ns), about its median on a 2-vCPU Xeon host;
    /// the reported times are scaled to a host where the probe takes this.
    #[must_use]
    pub fn nominal_ns(&self) -> f64 {
        match self {
            Probe::Cache => 40_000.0,
            Probe::Alloc => 30_000.0,
            Probe::Memory(_) => 60_000.0,
        }
    }

    /// Times one probe (ns). The memory probe first walks its chase once
    /// untimed, so the timed walk finds the lines cached and measures
    /// the address translation of a 16 MiB working set.
    #[must_use]
    pub fn time_ns(&self) -> f64 {
        if let Probe::Memory(next) = self {
            black_box(chase(next));
        }
        let t0 = Instant::now();
        match self {
            Probe::Cache => {
                let mut heap = BinaryHeap::with_capacity(HEAP_KEYS);
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                for _ in 0..HEAP_KEYS {
                    heap.push(black_box(xorshift(&mut x)));
                }
                let mut acc = 0u64;
                while let Some(k) = heap.pop() {
                    acc = acc.rotate_left(5) ^ k;
                }
                black_box(acc);
            }
            Probe::Alloc => {
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                let vecs: Vec<Vec<u64>> = (0..ALLOC_VECS)
                    .map(|_| (0..xorshift(&mut x) % ALLOC_MAX_LEN + 1).collect())
                    .collect();
                black_box(vecs);
            }
            Probe::Memory(next) => {
                black_box(chase(next));
            }
        }
        t0.elapsed().as_secs_f64() * 1e9
    }

    /// The host's slowdown around each of `probes` (ns): the median of
    /// the probes within `window` on either side, over the nominal time.
    #[must_use]
    pub fn slowdowns(&self, probes: &[f64], window: usize) -> Vec<f64> {
        (0..probes.len())
            .map(|i| {
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(probes.len());
                median(&probes[lo..hi]) / self.nominal_ns()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdowns_take_local_medians() {
        let probes = [40_000.0, 40_000.0, 400_000.0, 80_000.0, 80_000.0];
        let s = Probe::Cache.slowdowns(&probes, 1);
        assert_eq!(s, vec![1.0, 1.0, 2.0, 2.0, 2.0]);
        assert!(Probe::Cache.time_ns() > 0.0);
        assert!(Probe::Alloc.time_ns() > 0.0);
    }

    #[test]
    fn memory_probe_is_one_cycle() {
        let Probe::Memory(next) = Probe::memory() else {
            unreachable!()
        };
        let (mut at, mut steps) = (next[0], 1usize);
        while at != 0 {
            at = next[at as usize];
            steps += 1;
        }
        assert_eq!(steps, CHASE_ENTRIES);
    }
}
