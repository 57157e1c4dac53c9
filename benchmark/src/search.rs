//! The two search workloads: the paper's island search with the surrogate
//! in-process (`search_inproc`) and with every surrogate call made over
//! the wire to an `hwpr-serve` server (`search_served`).

use crate::report::Outcome;
use crate::setup::{self, stream, subseed, System, MODEL_NAME, PLATFORM};
use crate::stats::{median, quantile};
use crate::{trace, Result};
use hwpr_hwmodel::SimBenchConfig;
use hwpr_moo::normalized_hypervolume;
use hwpr_nasbench::{Architecture, SearchSpaceId};
use hwpr_search::{
    ArchiveMember, CacheEntry, Evaluator, Fitness, HwPrNasEvaluator, IslandConfig, IslandSearch,
    SearchClock, SearchError, SharedObjectives,
};
use hwpr_serve::protocol::{self, PredictKind, MAX_FRAME, STATUS_OK};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fewest searches a run times, however short `--seconds` is.
const MIN_SEARCHES: usize = 5;
/// Islands of one search (each island's evaluator has its own cache or
/// connection).
const ISLANDS: usize = 2;

/// The paper's 150-population × 250-generation budget split over two
/// islands of 75; migration every 10 generations, 2 migrants, otherwise
/// the `IslandConfig::small` defaults.
fn island_config(seed: u64) -> IslandConfig {
    let mut config = IslandConfig::small(SearchSpaceId::NasBench201).with_seed(seed);
    config.islands = ISLANDS;
    config.population = 75;
    config.generations = 250;
    config.migration_every = 10;
    config.migrants = 2;
    config
}

/// Ground truth for scoring search results: the true objectives of all
/// 15 625 NAS-Bench-201 architectures under the table's accuracy model,
/// their Pareto front, and the reference point (full-space nadir × 1.1).
struct Oracle {
    objectives: Vec<Vec<f64>>,
    front: Vec<Vec<f64>>,
    reference: Vec<f64>,
}

impl Oracle {
    fn new(table_seed: u64) -> Result<Self> {
        let full = hwpr_hwmodel::SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: None,
            seed: table_seed,
        });
        let mut objectives = vec![Vec::new(); full.len()];
        for entry in full.entries() {
            objectives[entry.arch().index() as usize] = entry.objectives(setup::DATASET, PLATFORM);
        }
        let front = hwpr_moo::pareto_front(&objectives)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|i| objectives[i].clone())
            .collect();
        let mut reference = vec![f64::NEG_INFINITY; 2];
        for point in &objectives {
            for (r, &v) in reference.iter_mut().zip(point) {
                *r = r.max(v);
            }
        }
        for r in &mut reference {
            *r *= 1.1;
        }
        Ok(Self {
            objectives,
            front,
            reference,
        })
    }

    /// Normalised hypervolume of the archive's *true* objectives.
    fn nhv(&self, archive: &[ArchiveMember]) -> f64 {
        let points: Vec<&Vec<f64>> = archive
            .iter()
            .map(|m| &self.objectives[m.arch.index() as usize])
            .collect();
        normalized_hypervolume(&points, &self.front, &self.reference).unwrap_or(f64::NAN)
    }
}

/// Evaluator-boundary counters of one search, shared by its islands.
#[derive(Default)]
struct EvalStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    rows: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Forwards every [`Evaluator`] method to `inner` unchanged, timing
/// `evaluate` and counting rows and cache outcomes at the boundary.
struct Metered<E> {
    inner: E,
    stats: Arc<EvalStats>,
}

impl<E: Evaluator> Evaluator for Metered<E> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn evaluate(
        &mut self,
        archs: &[Architecture],
        clock: &mut SearchClock,
    ) -> hwpr_search::Result<Fitness> {
        let before = self.inner.cache_stats().unwrap_or_default();
        let started = Instant::now();
        let fitness = self.inner.evaluate(archs, clock);
        let nanos = started.elapsed().as_nanos() as u64;
        let after = self.inner.cache_stats().unwrap_or_default();
        let s = &self.stats;
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.nanos.fetch_add(nanos, Ordering::Relaxed);
        s.rows.fetch_add(archs.len() as u64, Ordering::Relaxed);
        s.hits.fetch_add(after.0 - before.0, Ordering::Relaxed);
        s.misses.fetch_add(after.1 - before.1, Ordering::Relaxed);
        fitness
    }

    fn calls_per_arch(&self) -> usize {
        self.inner.calls_per_arch()
    }

    fn calls_made(&self) -> Option<u64> {
        self.inner.calls_made()
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        self.inner.cache_stats()
    }

    fn evaluate_scores_into(
        &mut self,
        archs: &[Architecture],
        clock: &mut SearchClock,
        out: &mut Vec<f64>,
    ) -> hwpr_search::Result<bool> {
        self.inner.evaluate_scores_into(archs, clock, out)
    }

    fn cache_snapshot(&self) -> Vec<CacheEntry> {
        self.inner.cache_snapshot()
    }

    fn restore_cache(&mut self, entries: &[CacheEntry]) {
        self.inner.restore_cache(entries);
    }
}

/// Client-side wire counters of the served workload.
#[derive(Default)]
struct WireStats {
    /// One sample per round trip (a Scores + Objectives request pair).
    rtt_us: Mutex<Vec<f64>>,
    requests: AtomicU64,
    rows: AtomicU64,
}

/// The served objectives of one architecture: the `(accuracy %, latency
/// ms)` reply turned into the minimisation vector `[100 − acc, lat]`.
pub fn served_objectives(accuracy: f64, latency: f64) -> Vec<f64> {
    vec![100.0 - accuracy, latency]
}

/// An island evaluator whose surrogate lives behind `hwpr-serve`: it
/// dedupes each batch against a client-side memo keyed like
/// `HwPrNasEvaluator`'s cache (so it infers the same rows), sends the
/// misses as a Scores and an Objectives request back to back on its own
/// connection, and matches the replies by request id.
struct ServedEvaluator {
    stream: TcpStream,
    payload: Vec<u8>,
    wire: Vec<u8>,
    frame: Vec<u8>,
    next_id: u64,
    memo: HashMap<String, (f64, SharedObjectives)>,
    hits: u64,
    misses: u64,
    stats: Arc<WireStats>,
}

impl ServedEvaluator {
    fn connect(addr: SocketAddr, stats: Arc<WireStats>) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            payload: Vec::new(),
            wire: Vec::new(),
            frame: Vec::new(),
            next_id: 1,
            memo: HashMap::new(),
            hits: 0,
            misses: 0,
            stats,
        })
    }

    fn encode(&mut self, kind: PredictKind, archs: &[Architecture]) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        protocol::encode_predict(
            &mut self.payload,
            kind,
            id,
            MODEL_NAME,
            PLATFORM.name(),
            archs,
        );
        protocol::write_frame(&mut self.wire, &self.payload).expect("writing to a Vec succeeds");
        id
    }

    /// One round trip: scores and objectives for `archs`.
    fn predict(&mut self, archs: &[Architecture]) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let started = Instant::now();
        self.wire.clear();
        let scores_id = self.encode(PredictKind::Scores, archs);
        let objectives_id = self.encode(PredictKind::Objectives, archs);
        self.stream
            .write_all(&self.wire)
            .map_err(|e| e.to_string())?;
        let mut scores = Vec::with_capacity(archs.len());
        let mut pairs = Vec::with_capacity(archs.len());
        for _ in 0..2 {
            if !protocol::read_frame(&mut self.stream, &mut self.frame, MAX_FRAME)
                .map_err(|e| e.to_string())?
            {
                return Err("server closed the connection".into());
            }
            let head = protocol::decode_response_head(&self.frame)?;
            if head.status != STATUS_OK {
                return Err(format!(
                    "status {}: {}",
                    head.status,
                    protocol::decode_error_message(head.body)
                ));
            }
            if head.request_id == scores_id {
                protocol::decode_scores(head.body, &mut scores)?;
            } else if head.request_id == objectives_id {
                protocol::decode_objectives(head.body, &mut pairs)?;
            } else {
                return Err(format!("reply to unknown request {}", head.request_id));
            }
        }
        if scores.len() != archs.len() || pairs.len() != archs.len() {
            return Err(format!(
                "short reply: {} scores, {} objectives for {} rows",
                scores.len(),
                pairs.len(),
                archs.len()
            ));
        }
        self.stats
            .rtt_us
            .lock()
            .expect("no thread panics holding the wire stats")
            .push(started.elapsed().as_secs_f64() * 1e6);
        self.stats.requests.fetch_add(2, Ordering::Relaxed);
        self.stats
            .rows
            .fetch_add(2 * archs.len() as u64, Ordering::Relaxed);
        let objectives = pairs
            .iter()
            .map(|&(acc, lat)| served_objectives(acc, lat))
            .collect();
        Ok((scores, objectives))
    }
}

impl Evaluator for ServedEvaluator {
    fn name(&self) -> String {
        "HW-PR-NAS (served)".to_string()
    }

    fn evaluate(
        &mut self,
        archs: &[Architecture],
        _clock: &mut SearchClock,
    ) -> hwpr_search::Result<Fitness> {
        // the same boundary span the in-process evaluator opens
        let _span = hwpr_obs::span("search.eval");
        let mut scores = vec![0.0f64; archs.len()];
        let mut objectives: Vec<Option<SharedObjectives>> = vec![None; archs.len()];
        let mut miss_archs: Vec<Architecture> = Vec::new();
        let mut miss_index: Vec<usize> = Vec::new();
        let mut miss_keys: Vec<String> = Vec::new();
        let mut miss_slot: HashMap<String, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for (i, arch) in archs.iter().enumerate() {
            let key = arch.to_arch_string();
            if let Some(&slot) = miss_slot.get(&key) {
                self.hits += 1;
                dups.push((i, slot));
            } else if let Some((score, objs)) = self.memo.get(&key) {
                self.hits += 1;
                scores[i] = *score;
                objectives[i] = Some(Arc::clone(objs));
            } else {
                self.misses += 1;
                miss_slot.insert(key.clone(), miss_index.len());
                miss_index.push(i);
                miss_archs.push(arch.clone());
                miss_keys.push(key);
            }
        }
        if !miss_archs.is_empty() {
            let (miss_scores, miss_objs) =
                self.predict(&miss_archs).map_err(SearchError::Surrogate)?;
            for (slot, (score, objs)) in miss_scores.into_iter().zip(miss_objs).enumerate() {
                let objs = Arc::new(objs);
                let i = miss_index[slot];
                scores[i] = score;
                objectives[i] = Some(Arc::clone(&objs));
                self.memo
                    .insert(std::mem::take(&mut miss_keys[slot]), (score, objs));
            }
            for (i, slot) in dups {
                let j = miss_index[slot];
                scores[i] = scores[j];
                objectives[i] = objectives[j].clone();
            }
        }
        let objectives = objectives
            .into_iter()
            .map(|o| o.expect("every architecture resolved from the memo or a reply"))
            .collect();
        Ok(Fitness::Ranked { scores, objectives })
    }

    fn calls_per_arch(&self) -> usize {
        1
    }

    fn calls_made(&self) -> Option<u64> {
        Some(self.misses)
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        Some((self.hits, self.misses))
    }
}

/// Where a search's surrogate runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Backend {
    InProcess,
    Served,
}

/// One timed search.
struct SearchRun {
    index: usize,
    wall_ms: f64,
    archive: Vec<ArchiveMember>,
    stats: Arc<EvalStats>,
}

/// Runs search `index` of the run seeded by `seed`, through the server
/// at `served` or, without one, in-process.
fn search_once(
    system: &System,
    served: Option<SocketAddr>,
    wire: &Arc<WireStats>,
    seed: u64,
    index: usize,
) -> Result<SearchRun> {
    let stats = Arc::new(EvalStats::default());
    let mut evaluators: Vec<Option<Box<dyn Evaluator + Send>>> = Vec::with_capacity(ISLANDS);
    for _ in 0..ISLANDS {
        let evaluator: Box<dyn Evaluator + Send> = match served {
            None => Box::new(Metered {
                inner: HwPrNasEvaluator::new(Arc::clone(&system.model), PLATFORM),
                stats: Arc::clone(&stats),
            }),
            Some(addr) => Box::new(Metered {
                inner: ServedEvaluator::connect(addr, Arc::clone(wire))?,
                stats: Arc::clone(&stats),
            }),
        };
        evaluators.push(Some(evaluator));
    }
    let search = IslandSearch::new(island_config(subseed(seed, stream::SEARCH + index as u64)))
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let result = search.run(|id| evaluators[id].take().expect("one evaluator per island"));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let result = result.map_err(|e| e.to_string())?;
    Ok(SearchRun {
        index,
        wall_ms,
        archive: result.archive,
        stats,
    })
}

/// Bit-level archive equality: same architectures, same objective bits.
fn same_archive(a: &[ArchiveMember], b: &[ArchiveMember]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.arch == y.arch
                && x.objectives.len() == y.objectives.len()
                && x.objectives
                    .iter()
                    .zip(&y.objectives)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn sum(runs: &[SearchRun], field: impl Fn(&EvalStats) -> &AtomicU64) -> f64 {
    runs.iter()
        .map(|r| field(&r.stats).load(Ordering::Relaxed) as f64)
        .sum()
}

/// The search workloads (README.md says what each stresses).
pub fn run(backend: Backend, seed: u64, seconds: f64, traced: bool) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    let system = setup::surrogate_system(backend == Backend::Served, &mut outcome)?;
    let oracle = Oracle::new(system.table_seed)?;
    let server = system.server.as_ref().map(hwpr_serve::Server::addr);
    let wire = Arc::new(WireStats::default());

    // measured phase: consecutive seeded searches until the time is up
    let started = Instant::now();
    let mut runs: Vec<SearchRun> = Vec::new();
    let mut index = 0;
    while index < MIN_SEARCHES || started.elapsed().as_secs_f64() < seconds {
        match search_once(&system, server, &wire, seed, index) {
            Ok(run) => {
                outcome.op(true);
                runs.push(run);
            }
            Err(e) => {
                eprintln!("search {index} failed: {e}");
                outcome.op(false);
            }
        }
        index += 1;
    }
    let measured_s = started.elapsed().as_secs_f64();
    outcome.set("peak_rss_mb", crate::provenance::peak_rss_mb());

    let wall: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
    let nhv: Vec<f64> = runs.iter().map(|r| oracle.nhv(&r.archive)).collect();
    outcome.set("op_ms_p50", median(&wall));
    outcome.set("op_ms_p90", quantile(&wall, 0.9));
    outcome.set("quality", median(&nhv));
    let n = runs.len().max(1) as f64;
    let calls = sum(&runs, |s| &s.calls);
    let rows = sum(&runs, |s| &s.rows);
    let hits = sum(&runs, |s| &s.hits);
    let misses = sum(&runs, |s| &s.misses);
    let eval_ms = sum(&runs, |s| &s.nanos) / 1e6;
    let lanes = ISLANDS.min(crate::provenance::nproc()) as f64;
    outcome.set("search.eval_calls", calls / n);
    outcome.set("search.eval_ms", eval_ms / n);
    outcome.set(
        "search.eval_share",
        eval_ms / (wall.iter().sum::<f64>() * lanes),
    );
    outcome.set("search.rows", rows / n);
    outcome.set("search.surrogate_rows", misses / n);
    outcome.set("search.cache_hit_ratio", hits / (hits + misses));
    if backend == Backend::Served {
        let rtt = wire
            .rtt_us
            .lock()
            .expect("no thread panics holding the wire stats")
            .clone();
        let requests = wire.requests.load(Ordering::Relaxed) as f64;
        outcome.set("serve.rtt_us_p50", median(&rtt));
        outcome.set("serve.rtt_us_p90", quantile(&rtt, 0.9));
        outcome.set(
            "serve.rows_per_request",
            wire.rows.load(Ordering::Relaxed) as f64 / requests,
        );
        outcome.set("serve.goodput_rps", requests / measured_s);
    }

    // correctness, outside the timed windows
    outcome.check(
        "every archive is non-empty",
        runs.iter().all(|r| !r.archive.is_empty()),
    );
    outcome.check(
        "every normalised hypervolume is in (0, 1]",
        nhv.iter().all(|&v| v > 0.0 && v <= 1.0),
    );
    match backend {
        Backend::InProcess => {
            let same = match runs.first() {
                Some(first) => search_once(&system, None, &wire, seed, first.index)
                    .is_ok_and(|again| same_archive(&again.archive, &first.archive)),
                None => false,
            };
            outcome.check("a rerun of the first seed reproduces its archive", same);
        }
        Backend::Served => {
            for served in runs.iter().take(2) {
                let i = served.index;
                let local = search_once(&system, None, &wire, seed, i);
                let (same, rows_match) = match &local {
                    Ok(local) => (
                        same_archive(&local.archive, &served.archive),
                        local.stats.misses.load(Ordering::Relaxed)
                            == served.stats.misses.load(Ordering::Relaxed),
                    ),
                    Err(_) => (false, false),
                };
                outcome.check(
                    format!("served archive {i} equals the in-process one"),
                    same,
                );
                outcome.check(
                    format!("search {i} infers the same rows served and in-process"),
                    rows_match,
                );
            }
        }
    }

    if traced {
        let n_traced = (runs.len() / 10).max(1);
        let capture = trace::start();
        // a fresh server, so its root span opens inside the capture
        let traced_server = match backend {
            Backend::Served => Some(system.start_server()?),
            Backend::InProcess => None,
        };
        let addr = traced_server.as_ref().map(hwpr_serve::Server::addr);
        let mut traced_ms = Vec::with_capacity(n_traced);
        for i in 0..n_traced {
            let run = search_once(&system, addr, &Arc::new(WireStats::default()), seed, i)?;
            traced_ms.push(run.wall_ms);
        }
        drop(traced_server);
        let folded = capture.finish();
        folded.record(&mut outcome, n_traced as f64);
        trace::record_overhead(&mut outcome, &traced_ms, &wall);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};

    fn tiny_model() -> (Arc<HwPrNas>, Vec<Architecture>) {
        let bench = setup::table(SearchSpaceId::NasBench201, 48, 3);
        let data = SurrogateDataset::from_simbench(&bench, setup::DATASET, PLATFORM).unwrap();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let archs = data.samples().iter().map(|s| s.arch.clone()).collect();
        (Arc::new(model), archs)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn served_conversion_matches_predict_full_bits() {
        let (model, archs) = tiny_model();
        let (_, full) = model.predict_full(&archs, PLATFORM).unwrap();
        let pairs = model.predict_objectives(&archs, PLATFORM).unwrap();
        assert_eq!(full.len(), pairs.len());
        for (direct, &(acc, lat)) in full.iter().zip(&pairs) {
            assert_eq!(bits(direct), bits(&served_objectives(acc, lat)));
        }
    }

    #[test]
    fn served_evaluator_matches_the_in_process_evaluator() {
        let (model, archs) = tiny_model();
        let registry = Arc::new(hwpr_serve::ModelRegistry::new());
        registry.publish(MODEL_NAME, Arc::clone(&model));
        let server =
            hwpr_serve::Server::start(registry, hwpr_serve::ServeConfig::default()).unwrap();
        let wire = Arc::new(WireStats::default());
        let mut served = ServedEvaluator::connect(server.addr(), Arc::clone(&wire)).unwrap();
        let mut local = HwPrNasEvaluator::new(model, PLATFORM);
        // a repeat inside the batch and a second, fully memoised batch
        let mut batch = archs[..12].to_vec();
        batch.push(archs[3].clone());
        for _ in 0..2 {
            let mut clock = SearchClock::unbounded();
            let a = served.evaluate(&batch, &mut clock).unwrap();
            let b = local.evaluate(&batch, &mut clock).unwrap();
            let (
                Fitness::Ranked {
                    scores: sa,
                    objectives: oa,
                },
                Fitness::Ranked {
                    scores: sb,
                    objectives: ob,
                },
            ) = (a, b)
            else {
                panic!("both evaluators return ranked fitness");
            };
            assert_eq!(bits(&sa), bits(&sb));
            for (x, y) in oa.iter().zip(&ob) {
                assert_eq!(bits(x), bits(y));
            }
        }
        assert_eq!(served.cache_stats(), local.cache_stats());
        assert_eq!(wire.requests.load(Ordering::Relaxed), 2);
    }
}
