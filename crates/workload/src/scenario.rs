//! The experiment driver: replay a message/query mix against an index.
//!
//! Implements the paper's measurement protocol (§VII-A): objects report at
//! frequency `f`, queries arrive at a fixed interval, and the reported
//! metric is the amortised time `(T_u + T_q)/n_q` — update handling plus
//! query processing, divided by the number of queries. Wall-clock time is
//! measured on the host; time the index spent merely *emulating* device
//! work is subtracted and the simulated device time added in its place
//! (the hybrid clock described in DESIGN.md).

use std::sync::Arc;
use std::time::Instant;

use ggrid::api::{MovingObjectIndex, SimCosts};
use ggrid::message::{ObjectId, Timestamp};
use roadnet::graph::{Distance, Graph};
use roadnet::EdgePosition;

use crate::moto::{Moto, MotoConfig};
use crate::queries::QueryStream;

/// Configuration of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    pub moto: MotoConfig,
    pub k: usize,
    /// Interval between queries in ms.
    pub query_interval_ms: u64,
    pub num_queries: usize,
    /// Warm-up horizon before the first query (lets every object report at
    /// least once).
    pub warmup_ms: u64,
    pub query_seed: u64,
    /// Route arrivals through the index's thread-buffered ingest path
    /// (`ingest_buffered` + a `flush_ingest` barrier before each query)
    /// instead of the direct `ingest_batch` group commit. Indexes without a
    /// buffered path fall back to `ingest_batch` via the trait default, so
    /// answers are identical either way.
    pub buffered_ingest: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            moto: MotoConfig::default(),
            k: 16,
            query_interval_ms: 1000,
            num_queries: 10,
            warmup_ms: 1100,
            query_seed: 99,
            buffered_ingest: false,
        }
    }
}

/// Measured outcome of a scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    pub index_name: &'static str,
    pub messages: usize,
    pub queries: usize,
    /// Wall-clock spent in `handle_update` calls (ns).
    pub update_wall_ns: u64,
    /// Wall-clock spent in `knn` calls (ns).
    pub query_wall_ns: u64,
    /// Host time the index spent emulating device work (ns) — already
    /// included in the wall figures above, to be replaced by `sim`.
    pub emulated_ns: u64,
    /// Simulated device costs accrued during the run.
    pub sim: SimCosts,
    /// Every query's answer, for exactness checks.
    pub answers: Vec<Vec<(ObjectId, Distance)>>,
    /// Reference (ground-truth) answers computed from reported positions.
    pub reference: Vec<Vec<(ObjectId, Distance)>>,
}

impl ScenarioReport {
    /// The hybrid clock total: wall time minus emulation, plus simulated
    /// device time (ns).
    pub fn total_ns(&self) -> u64 {
        (self.update_wall_ns + self.query_wall_ns)
            .saturating_sub(self.emulated_ns)
            .saturating_add(self.sim.total_time().0)
    }

    /// The paper's amortised metric `(T_u + T_q)/n_q` in ns per query.
    pub fn amortized_ns_per_query(&self) -> u64 {
        self.total_ns() / self.queries.max(1) as u64
    }

    /// Fraction of queries whose answer distances match the reference.
    pub fn accuracy(&self) -> f64 {
        if self.answers.is_empty() {
            return 1.0;
        }
        let good = self
            .answers
            .iter()
            .zip(&self.reference)
            .filter(|(a, r)| {
                a.iter().map(|x| x.1).collect::<Vec<_>>()
                    == r.iter().map(|x| x.1).collect::<Vec<_>>()
            })
            .count();
        good as f64 / self.answers.len() as f64
    }
}

/// Replay a scenario against `index`. `t_delta_ms` is the freshness horizon
/// the index was configured with (used for the reference answers).
pub fn run_scenario(
    graph: &Arc<Graph>,
    index: &mut dyn MovingObjectIndex,
    config: &ScenarioConfig,
    t_delta_ms: u64,
    compute_reference: bool,
) -> ScenarioReport {
    let mut moto = Moto::new(graph.clone(), &config.moto);
    let mut stream = QueryStream::new(
        config.k,
        config.query_interval_ms,
        Timestamp(config.warmup_ms),
        config.query_seed,
    );

    let sim_before = index.sim_costs();
    let emu_before = index.emulated_host_ns();
    let mut update_wall_ns = 0u64;
    let mut query_wall_ns = 0u64;
    let mut messages = 0usize;
    let mut answers = Vec::with_capacity(config.num_queries);
    let mut reference = Vec::with_capacity(config.num_queries);

    // Latest reported position per object — the ground truth an exact
    // snapshot index must answer from.
    let mut reported: std::collections::HashMap<ObjectId, (EdgePosition, Timestamp)> =
        std::collections::HashMap::new();

    for _ in 0..config.num_queries {
        let (qt, qpos, k) = stream.draw(graph);
        let batch = moto.advance_to(qt);
        // Everything that arrived since the last query is one group commit
        // (batched ingest); indexes without a batch path fall back to
        // per-message handling via the trait default.
        let updates: Vec<(ObjectId, EdgePosition, Timestamp)> = batch
            .iter()
            .map(|m| (m.object, m.position, m.time))
            .collect();
        let t0 = Instant::now();
        if config.buffered_ingest {
            index.ingest_buffered(&updates);
            // Queries must observe every buffered message; the barrier is
            // part of the measured update cost.
            index.flush_ingest();
        } else {
            index.ingest_batch(&updates);
        }
        update_wall_ns += t0.elapsed().as_nanos() as u64;
        messages += batch.len();
        if compute_reference {
            for m in &batch {
                reported.insert(m.object, (m.position, m.time));
            }
        }

        let t0 = Instant::now();
        let ans = index.knn(qpos, k, qt);
        query_wall_ns += t0.elapsed().as_nanos() as u64;

        if compute_reference {
            let horizon = qt.saturating_sub_ms(t_delta_ms);
            let objs: Vec<(u64, EdgePosition)> = reported
                .iter()
                .filter(|(_, &(_, t))| t >= horizon)
                .map(|(&o, &(p, _))| (o.0, p))
                .collect();
            let want = roadnet::dijkstra::reference_knn(graph, qpos, &objs, k);
            reference.push(want.into_iter().map(|(o, d)| (ObjectId(o), d)).collect());
        }
        answers.push(ans);
    }

    ScenarioReport {
        index_name: index.name(),
        messages,
        queries: config.num_queries,
        update_wall_ns,
        query_wall_ns,
        emulated_ns: index.emulated_host_ns() - emu_before,
        sim: index.sim_costs().since(&sim_before),
        answers,
        reference,
    }
}

/// Configuration of a standing-query (subscription) scenario: a fixed set
/// of riders subscribes once, then the fleet keeps moving and every tick is
/// one `ingest_batch` followed by one `tick_subscriptions`.
#[derive(Clone, Debug)]
pub struct SubscriptionScenarioConfig {
    pub moto: MotoConfig,
    /// Number of standing queries registered after warm-up.
    pub num_subscribers: usize,
    pub k: usize,
    /// Interval between ticks in ms (one group commit per tick).
    pub tick_interval_ms: u64,
    pub num_ticks: usize,
    /// Warm-up horizon before subscribing (lets every object report once).
    pub warmup_ms: u64,
    pub query_seed: u64,
    /// Check every maintained answer against a fresh `knn` after each tick
    /// (exactness audit; adds query work outside the measured totals).
    pub verify: bool,
}

impl Default for SubscriptionScenarioConfig {
    fn default() -> Self {
        Self {
            moto: MotoConfig::default(),
            num_subscribers: 8,
            k: 8,
            tick_interval_ms: 500,
            num_ticks: 10,
            warmup_ms: 1100,
            query_seed: 99,
            verify: false,
        }
    }
}

/// Accumulated outcome of a subscription scenario run.
#[derive(Clone, Debug, Default)]
pub struct SubscriptionScenarioReport {
    pub subscribers: usize,
    pub ticks: usize,
    pub messages: usize,
    /// Sums of the per-tick [`ggrid::subscription::SubscriptionTickReport`]
    /// fields across the run.
    pub dirty_cells: u64,
    pub invalidated: u64,
    pub repaired_delta: u64,
    pub repaired_full: u64,
    pub skipped: u64,
    /// Maintained answers that disagreed with a fresh query (always 0 when
    /// `verify` is off; must be 0 when it is on).
    pub mismatches: u64,
    /// The subscribers' standing positions, for driving an external
    /// re-query-everything baseline over the same workload.
    pub subscriber_positions: Vec<EdgePosition>,
}

impl SubscriptionScenarioReport {
    /// Fraction of (subscription, tick) pairs that needed no re-evaluation.
    pub fn avoided_rate(&self) -> f64 {
        let total = self.skipped + self.invalidated;
        if total == 0 {
            return 0.0;
        }
        self.skipped as f64 / total as f64
    }
}

/// Replay a subscription scenario against a [`GGridServer`](ggrid::GGridServer). The server is
/// typed concretely — standing queries are a G-Grid capability, not part of
/// the generic [`MovingObjectIndex`] trait.
pub fn run_subscription_scenario(
    graph: &Arc<Graph>,
    server: &mut ggrid::GGridServer,
    config: &SubscriptionScenarioConfig,
) -> SubscriptionScenarioReport {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut moto = Moto::new(graph.clone(), &config.moto);
    let mut report = SubscriptionScenarioReport::default();

    // Warm-up wave, then register the standing queries.
    let mut now = Timestamp(config.warmup_ms);
    let warm = moto.advance_to(now);
    let updates: Vec<(ObjectId, EdgePosition, Timestamp)> = warm
        .iter()
        .map(|m| (m.object, m.position, m.time))
        .collect();
    server.ingest_batch(&updates);
    report.messages += updates.len();

    let mut rng = SmallRng::seed_from_u64(config.query_seed);
    let mut subs = Vec::with_capacity(config.num_subscribers);
    for _ in 0..config.num_subscribers {
        let q = crate::queries::random_position(graph, &mut rng);
        subs.push((server.subscribe_knn(q, config.k, now), q));
        report.subscriber_positions.push(q);
    }
    report.subscribers = subs.len();

    for _ in 0..config.num_ticks {
        now = Timestamp(now.0 + config.tick_interval_ms);
        let wave = moto.advance_to(now);
        let updates: Vec<(ObjectId, EdgePosition, Timestamp)> = wave
            .iter()
            .map(|m| (m.object, m.position, m.time))
            .collect();
        server.ingest_batch(&updates);
        report.messages += updates.len();

        let tick = server.tick_subscriptions(now);
        report.ticks += 1;
        report.dirty_cells += tick.dirty_cells as u64;
        report.invalidated += tick.invalidated as u64;
        report.repaired_delta += tick.repaired_delta as u64;
        report.repaired_full += tick.repaired_full as u64;
        report.skipped += tick.skipped as u64;

        if config.verify {
            for &(id, q) in &subs {
                let maintained = server
                    .subscription_result(id)
                    .expect("subscription is live")
                    .to_vec();
                if maintained != server.knn(q, config.k, now) {
                    report.mismatches += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggrid::{GGridConfig, GGridServer};
    use roadnet::gen;

    fn small_scenario() -> ScenarioConfig {
        ScenarioConfig {
            moto: MotoConfig {
                num_objects: 30,
                update_period_ms: 200,
                seed: 3,
                ..Default::default()
            },
            k: 4,
            query_interval_ms: 300,
            num_queries: 6,
            warmup_ms: 250,
            query_seed: 17,
            buffered_ingest: false,
        }
    }

    #[test]
    fn ggrid_scenario_is_exact() {
        let graph = Arc::new(gen::toy(13));
        let mut server = GGridServer::new(
            (*graph).clone(),
            GGridConfig {
                eta: 4,
                bucket_capacity: 16,
                ..Default::default()
            },
        );
        let report = run_scenario(&graph, &mut server, &small_scenario(), 10_000, true);
        assert_eq!(report.queries, 6);
        assert!(report.messages > 0);
        assert_eq!(report.accuracy(), 1.0, "G-Grid answers must be exact");
        assert!(report.total_ns() > 0);
    }

    #[test]
    fn buffered_scenario_matches_batched() {
        let graph = Arc::new(gen::toy(13));
        let config = GGridConfig {
            eta: 4,
            bucket_capacity: 16,
            ..Default::default()
        };
        let mut batched = GGridServer::new((*graph).clone(), config.clone());
        let mut buffered = GGridServer::new((*graph).clone(), config);
        let base = small_scenario();
        let a = run_scenario(&graph, &mut batched, &base, 10_000, true);
        let cfg = ScenarioConfig {
            buffered_ingest: true,
            ..base
        };
        let b = run_scenario(&graph, &mut buffered, &cfg, 10_000, true);
        assert_eq!(a.accuracy(), 1.0);
        assert_eq!(b.accuracy(), 1.0);
        assert_eq!(
            a.answers, b.answers,
            "buffered ingest must not change answers"
        );
    }

    #[test]
    fn subscription_scenario_is_exact() {
        let graph = Arc::new(gen::toy(13));
        let mut server = GGridServer::new(
            (*graph).clone(),
            GGridConfig {
                eta: 4,
                bucket_capacity: 16,
                ..Default::default()
            },
        );
        let config = SubscriptionScenarioConfig {
            moto: MotoConfig {
                num_objects: 30,
                update_period_ms: 200,
                seed: 3,
                ..Default::default()
            },
            num_subscribers: 4,
            k: 4,
            tick_interval_ms: 300,
            num_ticks: 8,
            warmup_ms: 250,
            query_seed: 17,
            verify: true,
        };
        let report = run_subscription_scenario(&graph, &mut server, &config);
        assert_eq!(report.subscribers, 4);
        assert_eq!(report.ticks, 8);
        assert!(report.messages > 0);
        assert_eq!(report.mismatches, 0, "maintained answers must stay exact");
        assert_eq!(
            report.skipped + report.invalidated,
            (report.subscribers * report.ticks) as u64
        );
        assert_eq!(server.subscriptions_active(), 4);
    }

    #[test]
    fn sparse_waves_skip_untouched_subscriptions() {
        // Dense uniform objects give every rider a tight guard; a long
        // reporting period means each tick dirties only a few cells, so
        // most standing queries must be skipped outright.
        let graph = Arc::new(gen::grid_city(&gen::GridCityParams {
            rows: 12,
            cols: 12,
            edge_ratio: 2.5,
            weight_range: (5, 40),
            seed: 21,
        }));
        let mut server = GGridServer::new(
            (*graph).clone(),
            GGridConfig {
                eta: 4,
                // Slow reporters must stay live, else guards balloon.
                t_delta_ms: 1_000_000,
                ..Default::default()
            },
        );
        let config = SubscriptionScenarioConfig {
            moto: MotoConfig {
                num_objects: 300,
                update_period_ms: 40_000,
                seed: 9,
                ..Default::default()
            },
            num_subscribers: 12,
            k: 3,
            tick_interval_ms: 250,
            num_ticks: 6,
            warmup_ms: 40_500,
            query_seed: 5,
            verify: true,
        };
        let report = run_subscription_scenario(&graph, &mut server, &config);
        assert_eq!(report.mismatches, 0);
        assert!(
            report.skipped > report.invalidated,
            "sparse waves should skip most subscriptions: {report:?}"
        );
    }

    #[test]
    fn report_math_consistent() {
        let graph = Arc::new(gen::toy(13));
        let mut server = GGridServer::new(
            (*graph).clone(),
            GGridConfig {
                eta: 4,
                ..Default::default()
            },
        );
        let report = run_scenario(&graph, &mut server, &small_scenario(), 10_000, false);
        assert!(report.reference.is_empty());
        assert_eq!(report.answers.len(), report.queries);
        assert_eq!(
            report.amortized_ns_per_query(),
            report.total_ns() / report.queries as u64
        );
    }
}
