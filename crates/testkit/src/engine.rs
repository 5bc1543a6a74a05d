//! A literal executor for MapReduce rounds on simulated machines.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};

use parking_lot::Mutex;
use rayon::prelude::*;

use cldiam_mr::{CostMetrics, CostTracker};

use crate::config::MrConfig;

/// Load observed on one simulated machine during a round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineLoad {
    /// Machine index in `0..num_machines`.
    pub machine: usize,
    /// Key-value items assigned to the machine in the round.
    pub items: usize,
    /// Distinct keys reduced on the machine.
    pub keys: usize,
}

/// Summary of one executed round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Number of input key-value pairs.
    pub input_items: usize,
    /// Number of key-value pairs produced by the reducers.
    pub output_items: usize,
    /// Per-machine loads.
    pub machine_loads: Vec<MachineLoad>,
    /// `true` if some machine exceeded the configured `M_L`.
    pub local_memory_exceeded: bool,
}

/// The round executor.
///
/// Key-value pairs are hash-partitioned over [`MrConfig::num_machines`]
/// simulated machines; each machine groups its pairs by key and applies the
/// reducer to every group. Machines execute concurrently on a dedicated
/// thread pool sized to the machine count (real OS threads since the PR that
/// made the vendored rayon a genuine executor), which is how the scalability
/// experiment (Figure 4) varies the degree of parallelism. Per-machine
/// outputs and [`MachineLoad`] accumulators are collected in machine order —
/// never in completion order — so round results and metrics are identical at
/// any thread count.
///
/// Cost accounting per round: one round, `input_items` messages (the pairs
/// shuffled into the round), and the largest per-machine item count as peak
/// local memory. Node updates are the responsibility of the reducer authors
/// (see [`CostTracker::add_node_updates`]).
pub struct MrEngine {
    config: MrConfig,
    tracker: CostTracker,
    pool: rayon::ThreadPool,
    history: Mutex<Vec<RoundStats>>,
}

impl MrEngine {
    /// Creates an engine with the given platform configuration.
    ///
    /// # Panics
    ///
    /// Panics if the rayon thread pool cannot be created.
    pub fn new(config: MrConfig) -> Self {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(config.num_machines.max(1))
            .thread_name(|i| format!("mr-machine-{i}"))
            .build()
            .expect("failed to build MR thread pool");
        MrEngine { config, tracker: CostTracker::new(), pool, history: Mutex::new(Vec::new()) }
    }

    /// Creates an engine with the default configuration (16 machines).
    pub fn with_default_config() -> Self {
        Self::new(MrConfig::default())
    }

    /// The platform configuration.
    pub fn config(&self) -> &MrConfig {
        &self.config
    }

    /// The cost tracker charged by this engine (and shared with algorithm
    /// implementations that want to charge additional node updates).
    pub fn tracker(&self) -> &CostTracker {
        &self.tracker
    }

    /// Snapshot of the accumulated cost metrics.
    pub fn metrics(&self) -> CostMetrics {
        self.tracker.snapshot()
    }

    /// Per-round statistics of every round executed so far.
    pub fn history(&self) -> Vec<RoundStats> {
        self.history.lock().clone()
    }

    /// Runs the thread pool sized to the simulated machine count; algorithm
    /// crates use this to execute their shared-memory parallel loops with the
    /// same degree of parallelism as the simulated platform.
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        self.pool.install(op)
    }

    /// Executes one MapReduce round.
    ///
    /// The reducer receives each key together with all values that share it
    /// and emits an arbitrary number of output pairs, which are returned (and
    /// typically fed to the next round).
    pub fn run_round<K, V, K2, V2, R>(&self, pairs: Vec<(K, V)>, reducer: R) -> Vec<(K2, V2)>
    where
        K: Hash + Eq + Send,
        V: Send,
        K2: Send,
        V2: Send,
        R: Fn(&K, Vec<V>) -> Vec<(K2, V2)> + Sync,
    {
        let machines = self.config.num_machines.max(1);
        let input_items = pairs.len();

        // Shuffle: hash-partition pairs to machines. Buckets are pre-sized to
        // the balanced share so large rounds do not regrow them repeatedly.
        let per_machine = input_items / machines + 1;
        let mut buckets: Vec<Vec<(K, V)>> =
            (0..machines).map(|_| Vec::with_capacity(per_machine)).collect();
        for (k, v) in pairs {
            let mut hasher = DefaultHasher::new();
            k.hash(&mut hasher);
            let machine = (hasher.finish() % machines as u64) as usize;
            buckets[machine].push((k, v));
        }

        // Reduce: every machine groups by key and applies the reducer.
        let results: Vec<(MachineLoad, Vec<(K2, V2)>)> = self.pool.install(|| {
            buckets
                .into_par_iter()
                .enumerate()
                .map(|(machine, bucket)| {
                    let items = bucket.len();
                    // Fixed-seed hasher: group iteration order (and therefore
                    // the order of the round's output pairs) is a pure
                    // function of the input, not of a per-process random
                    // state. Sized to the machine's item count up front (an
                    // upper bound on its distinct keys) so grouping a large
                    // round never rehashes.
                    let mut groups: HashMap<K, Vec<V>, BuildHasherDefault<DefaultHasher>> =
                        HashMap::with_capacity_and_hasher(items, BuildHasherDefault::default());
                    for (k, v) in bucket {
                        groups.entry(k).or_default().push(v);
                    }
                    let keys = groups.len();
                    let mut out = Vec::with_capacity(keys);
                    for (k, vs) in groups {
                        out.extend(reducer(&k, vs));
                    }
                    (MachineLoad { machine, items, keys }, out)
                })
                .collect()
        });

        let mut machine_loads = Vec::with_capacity(machines);
        let mut output = Vec::with_capacity(results.iter().map(|(_, out)| out.len()).sum());
        let mut peak = 0usize;
        for (load, out) in results {
            peak = peak.max(load.items);
            machine_loads.push(load);
            output.extend(out);
        }
        // Chunk-ordered recombination delivers the loads already in machine
        // order; the determinism tests rely on this invariant.
        debug_assert!(machine_loads.windows(2).all(|pair| pair[0].machine < pair[1].machine));

        let stats = RoundStats {
            input_items,
            output_items: output.len(),
            machine_loads,
            local_memory_exceeded: peak > self.config.local_memory_items,
        };

        self.tracker.add_round();
        self.tracker.add_messages(input_items as u64);
        self.tracker.record_local_items(peak as u64);
        self.history.lock().push(stats);

        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(machines: usize) -> MrEngine {
        MrEngine::new(MrConfig::with_machines(machines))
    }

    #[test]
    fn word_count_round() {
        let e = engine(4);
        let pairs: Vec<(String, u64)> =
            ["a", "b", "a", "c", "a", "b"].iter().map(|s| (s.to_string(), 1u64)).collect();
        let mut counts = e.run_round(pairs, |k, vs| vec![(k.clone(), vs.iter().sum::<u64>())]);
        counts.sort();
        assert_eq!(counts, vec![("a".to_string(), 3), ("b".to_string(), 2), ("c".to_string(), 1)]);
        let m = e.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.messages, 6);
    }

    #[test]
    fn chained_rounds_accumulate_rounds() {
        let e = engine(2);
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 10, 1u64)).collect();
        let sums = e.run_round(pairs, |&k, vs| vec![(k % 2, vs.iter().sum::<u64>())]);
        let total = e.run_round(sums, |_, vs| vec![((), vs.iter().sum::<u64>())]);
        assert_eq!(total.len(), 2); // one output pair per parity key
        assert_eq!(total.iter().map(|&(_, v)| v).sum::<u64>(), 100);
        assert_eq!(e.metrics().rounds, 2);
        assert_eq!(e.history().len(), 2);
    }

    #[test]
    fn reducer_sees_all_values_of_a_key() {
        let e = engine(3);
        let pairs: Vec<(u8, u8)> = vec![(1, 10), (1, 20), (1, 30), (2, 5)];
        let out = e.run_round(pairs, |&k, vs| {
            if k == 1 {
                assert_eq!(vs.len(), 3);
            } else {
                assert_eq!(vs.len(), 1);
            }
            vec![(k, vs.len() as u8)]
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn local_memory_violation_is_flagged() {
        let e = MrEngine::new(MrConfig::with_machines(1).with_local_memory(4));
        let pairs: Vec<(u8, u8)> = (0..10).map(|i| (0u8, i)).collect();
        e.run_round(pairs, |_, vs| vec![(0u8, vs.len() as u8)]);
        let history = e.history();
        assert!(history[0].local_memory_exceeded);
        assert_eq!(history[0].input_items, 10);
    }

    #[test]
    fn machine_loads_cover_all_items() {
        let e = engine(4);
        let pairs: Vec<(u32, u32)> = (0..1000).map(|i| (i, i)).collect();
        e.run_round(pairs, |&k, _| vec![(k, ())]);
        let history = e.history();
        let total: usize = history[0].machine_loads.iter().map(|l| l.items).sum();
        assert_eq!(total, 1000);
        assert_eq!(history[0].machine_loads.len(), 4);
        assert!(e.metrics().peak_local_items >= 250);
    }

    #[test]
    fn install_runs_on_engine_pool() {
        let e = engine(3);
        let sum: u64 = e.install(|| (0..1000u64).into_par_iter().sum());
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn empty_round_still_counts() {
        let e = engine(2);
        let out: Vec<(u8, u8)> = e.run_round(Vec::<(u8, u8)>::new(), |_, _| Vec::new());
        assert!(out.is_empty());
        assert_eq!(e.metrics().rounds, 1);
        assert_eq!(e.metrics().messages, 0);
    }
}
