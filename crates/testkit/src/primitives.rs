//! Sorting and prefix-sum primitives.
//!
//! Fact 1 of the paper (from Goodrich et al. / Pietracaprina et al.): sorting
//! and (segmented) prefix sums over `n` items can be performed in
//! `O(log_{M_L} n)` rounds in `MR(M_T, M_L)` with `M_T = Θ(n)`. The paper uses
//! these primitives to argue that a Δ-growing step takes `O(1)` rounds
//! regardless of the number of active clusters.
//!
//! The implementations here execute on the engine's simulated machines
//! (chunk-per-machine, merged results) and charge the round cost dictated by
//! [`crate::MrConfig::primitive_rounds`].

use rayon::prelude::*;

use crate::engine::MrEngine;

/// Sorts `items` using a chunk-per-machine sample-sort style plan and returns
/// the sorted vector.
///
/// Each simulated machine sorts its contiguous chunk in parallel; the sorted
/// runs are then merged. The engine is charged `primitive_rounds(n)` rounds
/// and `n` messages (the shuffle of the items).
pub fn sort<T: Ord + Send + Sync + Copy>(engine: &MrEngine, items: Vec<T>) -> Vec<T> {
    let n = items.len();
    charge(engine, n);
    if n <= 1 {
        return items;
    }
    let machines = engine.config().num_machines.max(1);
    let chunk = n.div_ceil(machines);
    engine.tracker().record_local_items(chunk as u64);

    // Local sort per machine.
    let mut runs: Vec<Vec<T>> = engine.install(|| {
        items
            .par_chunks(chunk)
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_unstable();
                v
            })
            .collect()
    });

    // Merge the sorted runs pairwise until one remains.
    while runs.len() > 1 {
        runs = engine.install(|| {
            runs.par_chunks(2)
                .map(|pair| match pair {
                    [a] => a.clone(),
                    [a, b] => merge(a, b),
                    _ => unreachable!("chunks(2) yields 1 or 2 runs"),
                })
                .collect()
        });
    }
    runs.pop().unwrap_or_default()
}

fn merge<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Exclusive prefix sum: `out[i] = values[0] + … + values[i-1]`, `out[0] = 0`.
///
/// Computed block-per-machine with a carry pass over the per-machine totals;
/// charged as one sorting-class primitive.
pub fn prefix_sum(engine: &MrEngine, values: &[u64]) -> Vec<u64> {
    let n = values.len();
    charge(engine, n);
    if n == 0 {
        return Vec::new();
    }
    let machines = engine.config().num_machines.max(1);
    let chunk = n.div_ceil(machines);
    engine.tracker().record_local_items(chunk as u64);

    // Local exclusive scans plus per-chunk totals.
    let locals: Vec<(Vec<u64>, u64)> = engine.install(|| {
        values
            .par_chunks(chunk)
            .map(|c| {
                let mut scan = Vec::with_capacity(c.len());
                let mut acc = 0u64;
                for &v in c {
                    scan.push(acc);
                    acc += v;
                }
                (scan, acc)
            })
            .collect()
    });

    // Carry-in per chunk (sequential over the machine count).
    let mut carries = Vec::with_capacity(locals.len());
    let mut acc = 0u64;
    for (_, total) in &locals {
        carries.push(acc);
        acc += total;
    }

    // Apply carries.
    let mut out = Vec::with_capacity(n);
    for ((scan, _), carry) in locals.into_iter().zip(carries) {
        out.extend(scan.into_iter().map(|v| v + carry));
    }
    out
}

fn charge(engine: &MrEngine, n: usize) {
    let rounds = engine.config().primitive_rounds(n);
    engine.tracker().add_rounds(rounds);
    engine.tracker().add_messages(n as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MrConfig;

    fn engine(machines: usize) -> MrEngine {
        MrEngine::new(MrConfig::with_machines(machines))
    }

    #[test]
    fn sort_matches_std_sort() {
        let e = engine(4);
        let items: Vec<i64> =
            (0..5000).map(|i| ((i * 2654435761u64) % 10_000) as i64 - 5000).collect();
        let mut expected = items.clone();
        expected.sort_unstable();
        assert_eq!(sort(&e, items), expected);
        assert!(e.metrics().rounds >= 1);
    }

    #[test]
    fn sort_handles_tiny_inputs() {
        let e = engine(8);
        assert_eq!(sort(&e, Vec::<u32>::new()), Vec::<u32>::new());
        assert_eq!(sort(&e, vec![42u32]), vec![42]);
        assert_eq!(sort(&e, vec![2u32, 1]), vec![1, 2]);
    }

    #[test]
    fn sort_strict_mode_charges_more_rounds() {
        let loose = MrEngine::new(MrConfig::with_machines(2).with_local_memory(16));
        let strict = MrEngine::new(MrConfig::with_machines(2).with_local_memory(16).strict());
        let items: Vec<u32> = (0..4096).rev().collect();
        sort(&loose, items.clone());
        sort(&strict, items);
        assert_eq!(loose.metrics().rounds, 1);
        assert!(strict.metrics().rounds >= 3);
    }

    #[test]
    fn prefix_sum_matches_sequential() {
        let e = engine(4);
        let values: Vec<u64> = (1..=1000).collect();
        let result = prefix_sum(&e, &values);
        let mut expected = Vec::with_capacity(values.len());
        let mut acc = 0;
        for &v in &values {
            expected.push(acc);
            acc += v;
        }
        assert_eq!(result, expected);
    }

    #[test]
    fn prefix_sum_empty_and_single() {
        let e = engine(3);
        assert!(prefix_sum(&e, &[]).is_empty());
        assert_eq!(prefix_sum(&e, &[7]), vec![0]);
    }
}
