//! Seeded input generators for every workload.
//!
//! Each generator is a pure function of the seed (and of its size
//! arguments): the same seed gives the same operations, in the same
//! order, on every host. The program under test receives only what these
//! functions produce.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_spec::namespace::{NsOp, ShardRouter};
use skewbound_spec::queue::QueueOp;
use skewbound_spec::register::{RmwKind, RmwOp};
use skewbound_spec::seqspec::OpClass;

/// The linearizability checker's taken-set is a 128-bit mask, so no key
/// may carry more operations than this.
pub const KEY_CAP: u64 = 128;

/// Paced workload: consecutive arrivals share a key in blocks of this
/// many (whichever connection each is sent on).
pub const PACED_KEY_OPS: u64 = 96;

/// Saturated workload: a session moves to a fresh key after this many
/// operations. Each key is shared by one session per connection, so a
/// key carries at most `SESSION_KEY_OPS × connections ≤ KEY_CAP` ops.
pub const SESSION_KEY_OPS: u64 = 60;

// Both workloads keep every key within the checker's cap (the saturated
// one with up to two connections sharing a key).
const _: () = assert!(PACED_KEY_OPS <= KEY_CAP && 2 * SESSION_KEY_OPS <= KEY_CAP);

/// Keys at and above this value are reserved for set-up probes.
pub const PROBE_KEY_BASE: u64 = 1 << 40;

/// A SplitMix64 finaliser over three words: a stateless, random-access
/// stream so that op `k` of session `s` needs no generator state.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The 1:1:1 queue mix: enqueue (MOP), dequeue (OOP), peek (AOP).
fn queue_op(draw: u64, value: i64) -> QueueOp<i64> {
    match draw % 3 {
        0 => QueueOp::Enqueue(value),
        1 => QueueOp::Dequeue,
        _ => QueueOp::Peek,
    }
}

/// One open-loop arrival of the paced workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, µs after the start of the measured window.
    pub due_micros: u64,
    /// Namespace key.
    pub key: u64,
    /// The queue operation.
    pub op: QueueOp<i64>,
}

/// A Poisson arrival stream at `rate` ops/s over `micros` µs. The count
/// is fixed at `rate × micros` and the arrival times are sorted uniform
/// draws — a Poisson process conditioned on its count — so the offered
/// rate is the same for every seed.
pub fn paced_schedule(seed: u64, rate: f64, micros: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1, 0));
    let count = (rate * micros as f64 / 1e6).round() as usize;
    let mut times: Vec<u64> = (0..count)
        .map(|_| (unit(&mut rng) * micros as f64) as u64)
        .collect();
    times.sort_unstable();
    times
        .into_iter()
        .enumerate()
        .map(|(i, due_micros)| Arrival {
            due_micros,
            key: i as u64 / PACED_KEY_OPS,
            op: queue_op(rng.next_u64(), i as i64),
        })
        .collect()
}

/// The closed-loop sessions of the saturated workload: `per_conn`
/// sessions on each of `conns` connections, each an endless op stream.
#[derive(Debug, Clone, Copy)]
pub struct Sessions {
    pub seed: u64,
    pub conns: usize,
    pub per_conn: usize,
}

impl Sessions {
    pub fn count(&self) -> usize {
        self.conns * self.per_conn
    }

    /// The connection session `s` runs on.
    pub fn conn(&self, s: usize) -> usize {
        s % self.conns
    }

    /// Op `k` of session `s`, with its key. Sessions `p·conns ..
    /// p·conns + conns` (one per connection) share their keys.
    pub fn op(&self, s: usize, k: u64) -> (u64, QueueOp<i64>) {
        let pair = (s / self.conns) as u64;
        let key = pair + self.per_conn as u64 * (k / SESSION_KEY_OPS);
        let value = ((s as i64) << 32) | k as i64;
        (key, queue_op(mix(self.seed, s as u64, k), value))
    }
}

/// Shape of one sim-shard round.
#[derive(Debug, Clone, Copy)]
pub struct ShardShape {
    /// Shards per round.
    pub shards: usize,
    /// Every `generic_every`-th shard runs the generic replica with
    /// single OOP ops; the others run the batched replica.
    pub generic_every: usize,
    /// Replica processes per shard.
    pub processes: u32,
    /// Invocations each process issues (batches or single ops).
    pub invocations: usize,
    /// Ops per batch on batched shards.
    pub batch: usize,
    /// Namespace keys per shard, on average.
    pub keys_per_shard: u64,
}

/// One shard's pre-generated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardScript {
    /// Class-pure batches (AOP reads or MOP writes) for the batched
    /// replica, per process.
    Batched(Vec<Vec<Vec<NsOp<RmwOp>>>>),
    /// Single read-modify-write ops (OOP) for the generic replica, per
    /// process.
    Generic(Vec<Vec<NsOp<RmwOp>>>),
}

impl ShardShape {
    pub fn is_generic(&self, shard: usize) -> bool {
        shard % self.generic_every == self.generic_every - 1
    }

    /// Inputs of every shard of one round. Keys are the shard's own
    /// (by [`ShardRouter`]), dealt round-robin from a seeded offset so
    /// that per-key counts stay even.
    pub fn scripts(&self, seed: u64) -> Vec<ShardScript> {
        let router = ShardRouter::new(self.shards);
        let total = self.keys_per_shard * self.shards as u64;
        (0..self.shards)
            .map(|shard| {
                let keys = router.keys_in_shard(shard, total);
                let mut rng = StdRng::seed_from_u64(mix(seed, 2, shard as u64));
                let mut cursor = rng.gen_range(0..keys.len());
                let mut next_key = move || {
                    cursor = (cursor + 1) % keys.len();
                    keys[cursor]
                };
                let procs = 0..self.processes;
                if self.is_generic(shard) {
                    ShardScript::Generic(
                        procs
                            .map(|_| {
                                (0..self.invocations)
                                    .map(|_| NsOp::new(next_key(), RmwOp::Rmw(rmw_kind(&mut rng))))
                                    .collect()
                            })
                            .collect(),
                    )
                } else {
                    ShardScript::Batched(
                        procs
                            .map(|_| {
                                (0..self.invocations)
                                    .map(|_| {
                                        let write = rng.gen_bool(0.5);
                                        (0..self.batch)
                                            .map(|_| {
                                                let op = if write {
                                                    RmwOp::Write(rng.gen_range(0..1_000))
                                                } else {
                                                    RmwOp::Read
                                                };
                                                NsOp::new(next_key(), op)
                                            })
                                            .collect()
                                    })
                                    .collect()
                            })
                            .collect(),
                    )
                }
            })
            .collect()
    }
}

fn rmw_kind(rng: &mut StdRng) -> RmwKind {
    match rng.gen_range(0..3) {
        0 => RmwKind::FetchAdd(rng.gen_range(1..10)),
        1 => RmwKind::CompareAndSwap {
            expect: rng.gen_range(0..4),
            new: rng.gen_range(0..1_000),
        },
        _ => RmwKind::Swap(rng.gen_range(0..1_000)),
    }
}

/// One model-checking query: a fixed-shape register script whose probe
/// operation has class `probe`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub probe: OpClass,
    pub script: Vec<(ProcessId, SimTime, RmwOp)>,
}

/// `count` queries cycling through the three probe classes. Two writes
/// race at time 0; the probe runs at process 2 while they propagate, and
/// a final read at process 0 observes the outcome. Only the written
/// values depend on the seed, so every query of a class explores the
/// same number of schedules.
pub fn mc_queries(seed: u64, count: usize, d: u64) -> Vec<Query> {
    let pid = ProcessId::new;
    let t = SimTime::from_ticks;
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 3, i as u64));
            let (probe, op) = match i % 3 {
                0 => (OpClass::PureAccessor, RmwOp::Read),
                1 => (OpClass::PureMutator, RmwOp::Write(rng.gen_range(0..1_000))),
                _ => (
                    OpClass::Other,
                    RmwOp::Rmw(RmwKind::FetchAdd(rng.gen_range(1..10))),
                ),
            };
            Query {
                probe,
                script: vec![
                    (pid(0), t(0), RmwOp::Write(rng.gen_range(0..1_000))),
                    (pid(1), t(0), RmwOp::Write(rng.gen_range(0..1_000))),
                    (pid(2), t(d / 2), op),
                    (pid(0), t(4 * d), RmwOp::Read),
                ],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use skewbound_spec::namespace::Namespace;
    use skewbound_spec::queue::Queue;
    use skewbound_spec::register::RmwRegister;
    use skewbound_spec::seqspec::SequentialSpec;

    use super::*;

    fn class_shares(classes: impl Iterator<Item = OpClass>) -> BTreeMap<String, f64> {
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut total = 0.0;
        for c in classes {
            *counts.entry(format!("{c:?}")).or_default() += 1.0;
            total += 1.0;
        }
        counts.values_mut().for_each(|v| *v /= total);
        counts
    }

    fn assert_thirds(shares: &BTreeMap<String, f64>) {
        assert_eq!(shares.len(), 3, "{shares:?}");
        for (class, share) in shares {
            assert!((share - 1.0 / 3.0).abs() < 0.02, "{class}: {share}");
        }
    }

    #[test]
    fn same_seed_same_streams() {
        assert_eq!(
            paced_schedule(7, 16.0, 60_000_000),
            paced_schedule(7, 16.0, 60_000_000)
        );
        assert_ne!(
            paced_schedule(7, 16.0, 60_000_000),
            paced_schedule(8, 16.0, 60_000_000)
        );
        let a = Sessions {
            seed: 7,
            conns: 2,
            per_conn: 16,
        };
        let b = Sessions {
            seed: 7,
            conns: 2,
            per_conn: 16,
        };
        for s in 0..a.count() {
            for k in 0..200 {
                assert_eq!(a.op(s, k), b.op(s, k));
            }
        }
        let shape = test_shape();
        assert_eq!(shape.scripts(7), shape.scripts(7));
        assert_ne!(shape.scripts(7), shape.scripts(8));
        assert_eq!(mc_queries(7, 9, 9_000), mc_queries(7, 9, 9_000));
    }

    #[test]
    fn paced_keys_stay_under_the_checker_cap() {
        let mut per_key: BTreeMap<u64, u64> = BTreeMap::new();
        for a in paced_schedule(3, 50.0, 100_000_000) {
            *per_key.entry(a.key).or_default() += 1;
        }
        assert!(per_key.values().all(|&n| n <= PACED_KEY_OPS.min(KEY_CAP)));
    }

    #[test]
    fn session_keys_stay_under_the_checker_cap() {
        // However far each session gets, a key sees at most
        // SESSION_KEY_OPS ops from each of the sessions sharing it.
        for conns in [1, 2] {
            let s = Sessions {
                seed: 5,
                conns,
                per_conn: 8,
            };
            let mut per_key: BTreeMap<u64, BTreeMap<usize, u64>> = BTreeMap::new();
            for session in 0..s.count() {
                for k in 0..(300 + 17 * session as u64) {
                    let (key, _) = s.op(session, k);
                    *per_key.entry(key).or_default().entry(session).or_default() += 1;
                }
            }
            for sessions in per_key.values() {
                assert!(sessions.len() <= conns);
                assert!(sessions.values().sum::<u64>() <= KEY_CAP);
                let conns_used: Vec<usize> = sessions.keys().map(|&x| s.conn(x)).collect();
                let mut dedup = conns_used.clone();
                dedup.dedup();
                assert_eq!(
                    dedup, conns_used,
                    "two sessions of one key share a connection"
                );
            }
        }
    }

    fn test_shape() -> ShardShape {
        ShardShape {
            shards: 8,
            generic_every: 4,
            processes: 3,
            invocations: 30,
            batch: 8,
            keys_per_shard: 24,
        }
    }

    #[test]
    fn shard_keys_stay_in_shard_and_under_the_cap() {
        let shape = test_shape();
        let router = ShardRouter::new(shape.shards);
        for (shard, script) in shape.scripts(11).into_iter().enumerate() {
            let ops: Vec<NsOp<RmwOp>> = match script {
                ShardScript::Batched(p) => p.into_iter().flatten().flatten().collect(),
                ShardScript::Generic(p) => p.into_iter().flatten().collect(),
            };
            let mut per_key: BTreeMap<u64, u64> = BTreeMap::new();
            for op in &ops {
                assert_eq!(router.route(op.key), shard);
                *per_key.entry(op.key).or_default() += 1;
            }
            assert!(per_key.values().all(|&n| n <= KEY_CAP), "{per_key:?}");
        }
    }

    #[test]
    fn class_mixes_match_their_declared_shares() {
        let spec = Namespace::new(Queue::<i64>::new());
        let paced = paced_schedule(9, 100.0, 300_000_000);
        assert_thirds(&class_shares(
            paced
                .iter()
                .map(|a| spec.class(&NsOp::new(a.key, a.op.clone()))),
        ));
        let s = Sessions {
            seed: 9,
            conns: 2,
            per_conn: 16,
        };
        let spec = &spec;
        assert_thirds(&class_shares((0..s.count()).flat_map(|session| {
            (0..1_000).map(move |k| {
                let (key, op) = s.op(session, k);
                spec.class(&NsOp::new(key, op))
            })
        })));

        // Batched shards: AOP and MOP batches half and half, each batch
        // class-pure; generic shards: OOP only.
        let reg = RmwRegister::default();
        let mut batch_classes = Vec::new();
        for script in test_shape().scripts(9) {
            match script {
                ShardScript::Batched(procs) => {
                    for batch in procs.iter().flatten() {
                        let c = reg.class(&batch[0].op);
                        assert!(batch.iter().all(|op| reg.class(&op.op) == c));
                        batch_classes.push(c);
                    }
                }
                ShardScript::Generic(procs) => {
                    assert!(procs
                        .iter()
                        .flatten()
                        .all(|op| reg.class(&op.op) == OpClass::Other));
                }
            }
        }
        let shares = class_shares(batch_classes.into_iter());
        assert_eq!(shares.len(), 2);
        assert!(
            shares.values().all(|s| (s - 0.5).abs() < 0.05),
            "{shares:?}"
        );

        let queries = mc_queries(9, 30, 9_000);
        assert_thirds(&class_shares(queries.iter().map(|q| q.probe)));
        for q in &queries {
            assert_eq!(reg.class(&q.script[2].2), q.probe);
        }
    }

    #[test]
    fn paced_schedule_has_the_declared_mean_rate() {
        let (rate, secs) = (16.0, 2_000.0);
        let arrivals = paced_schedule(21, rate, (secs * 1e6) as u64);
        assert_eq!(arrivals.len() as f64, rate * secs);
        assert!(arrivals
            .windows(2)
            .all(|w| w[0].due_micros <= w[1].due_micros));
        // Exponential gaps: mean 1/rate, and standard deviation equal to
        // the mean.
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1].due_micros - w[0].due_micros) as f64 / 1e6)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((mean * rate - 1.0).abs() < 0.01, "{mean}");
        assert!((sd / mean - 1.0).abs() < 0.05, "{sd} vs {mean}");
    }
}
