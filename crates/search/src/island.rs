//! The sharded island-model MOEA: N islands evolving in parallel with
//! ring migration, a global Pareto archive, and checkpoint/resume.
//!
//! # Topology and determinism
//!
//! Each island owns everything it touches during an epoch — population,
//! fitness, selection buffers (with their
//! [`MooWorkspace`](hwpr_moo::MooWorkspace)), [`SplitMix64`] RNG stream,
//! evaluator (with its own `ScoreCache` shard) — so an island's
//! trajectory between migration points is a pure function of its own
//! state. A generation is the selection step every engine shares (see
//! the crate docs); the island adds the migration ring around it.
//! Epochs of `migration_every` generations run the islands across worker
//! lanes (`workers`); at the epoch barrier every island pushes one
//! [`Emigration`] message onto a lock-free channel, the coordinator
//! drains and **sorts the messages by island id**, and only then mutates
//! shared state: the global archive merge and the ring migration
//! (island *i* receives the top elites of island *i − 1 mod N*). The
//! result is therefore a pure function of `(config, seed)` — bit-
//! identical at 1, 2 or 8 worker lanes, which the cross-lane-count
//! differential test proves. The *logical* island count is part of the
//! configuration: changing it changes the search (different populations,
//! different migration ring), deterministically so.
//!
//! # Checkpoint/resume
//!
//! On a configurable epoch cadence the full search state — archive,
//! per-island population/fitness/RNG/cache — is written as a versioned
//! JSON snapshot (the `persist.rs` conventions: a `version` field
//! checked on load, shortest-roundtrip floats so every `f64` survives
//! exactly). [`IslandSearch::resume`] rebuilds the state and continues;
//! a run killed at generation G and resumed finishes bit-identical to an
//! uninterrupted one (proven by a differential test).

use crate::channel::MigrationChannel;
use crate::clock::SearchClock;
use crate::evaluator::{CacheEntry, Evaluator, SharedObjectives};
use crate::rng::SplitMix64;
use crate::select::{self, FitnessBuffer, Scratch, Variation};
use crate::{Result, SearchError};
use hwpr_moo::{nadir_reference_point, IncrementalHv2, ParetoArchive};
use hwpr_nasbench::{Architecture, SearchSpaceId};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::select::FitnessKind;

/// Configuration of the island search. Serialisable: checkpoints embed
/// the config so a resume cannot silently run different settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandConfig {
    /// Number of logical islands (each with its own population).
    pub islands: usize,
    /// Population size **per island**.
    pub population: usize,
    /// Generations each island runs in total.
    pub generations: usize,
    /// Epoch length: generations between migrations (`K`).
    pub migration_every: usize,
    /// Elites each island emits per migration (`E`).
    pub migrants: usize,
    /// Probability of mutating each offspring.
    pub mutation_rate: f64,
    /// Probability of producing an offspring by crossover.
    pub crossover_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Search spaces to sample from.
    pub spaces: Vec<SearchSpaceId>,
    /// RNG seed; island `i` runs stream `i` of this seed.
    pub seed: u64,
    /// Executor lanes. `0` = one per island up to the machine
    /// parallelism. **Never affects results**, only wall-clock.
    pub workers: usize,
    /// Write a snapshot every this many epochs (`0` = off).
    pub checkpoint_every: usize,
    /// Snapshot destination (required when `checkpoint_every > 0`).
    pub checkpoint_path: Option<String>,
}

impl IslandConfig {
    /// A small configuration for tests and smoke runs.
    pub fn small(space: SearchSpaceId) -> Self {
        Self {
            islands: 2,
            population: 8,
            generations: 6,
            migration_every: 2,
            migrants: 2,
            mutation_rate: 0.9,
            crossover_rate: 0.5,
            tournament: 2,
            spaces: vec![space],
            seed: 0,
            workers: 0,
            checkpoint_every: 0,
            checkpoint_path: None,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn variation(&self) -> Variation {
        Variation {
            population: self.population,
            tournament: self.tournament,
            crossover_rate: self.crossover_rate,
            mutation_rate: self.mutation_rate,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.islands == 0 {
            return Err(SearchError::Config("at least one island required".into()));
        }
        if self.population < 2 {
            return Err(SearchError::Config(
                "island population must be at least 2".into(),
            ));
        }
        if self.migration_every == 0 {
            return Err(SearchError::Config(
                "migration interval must be positive".into(),
            ));
        }
        if self.migrants >= self.population {
            return Err(SearchError::Config(
                "migrants must be fewer than the island population".into(),
            ));
        }
        if self.tournament == 0 {
            return Err(SearchError::Config(
                "tournament size must be positive".into(),
            ));
        }
        if self.spaces.is_empty() {
            return Err(SearchError::Config(
                "at least one search space required".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) || !(0.0..=1.0).contains(&self.crossover_rate)
        {
            return Err(SearchError::Config("rates must be in [0, 1]".into()));
        }
        if self.checkpoint_every > 0 && self.checkpoint_path.is_none() {
            return Err(SearchError::Config(
                "checkpoint_every needs a checkpoint_path".into(),
            ));
        }
        Ok(())
    }
}

/// One island: the complete state its epoch evolves.
struct Island {
    id: usize,
    rng: SplitMix64,
    population: Vec<Architecture>,
    fitness: FitnessBuffer,
    evaluator: Box<dyn Evaluator + Send>,
    clock: SearchClock,
    scratch: Scratch,
    evaluations: u64,
}

/// One elite travelling the migration ring, fitness attached so the
/// destination island does not re-evaluate it.
struct Migrant {
    arch: Architecture,
    score: f64,
    objectives: Option<SharedObjectives>,
}

/// What an island pushes onto the channel at the epoch barrier.
struct Emigration {
    from: usize,
    elites: Vec<Migrant>,
    /// The island's current non-dominated front (for the global archive).
    front: Vec<(Architecture, Vec<f64>)>,
}

impl Island {
    /// Advances the island one generation through the shared
    /// [`select::generation`] step on its own SplitMix64 stream.
    fn step(&mut self, cfg: &IslandConfig) -> Result<()> {
        select::generation(
            &cfg.variation(),
            &mut self.rng,
            &mut self.population,
            &mut self.fitness,
            self.evaluator.as_mut(),
            &mut self.clock,
            &mut self.scratch,
        )?;
        self.evaluations += cfg.population as u64;
        Ok(())
    }

    /// The epoch-barrier message: top-`migrants` elites by selection key
    /// (crowded rank for objective fitness) plus the island's current
    /// non-dominated front.
    fn emigration(&mut self, cfg: &IslandConfig) -> Result<Emigration> {
        let Island {
            id,
            population,
            fitness,
            scratch,
            ..
        } = self;
        let keys = select::tournament_keys(
            fitness,
            &mut scratch.moo,
            &mut scratch.fronts,
            &mut scratch.keys,
        )?;
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by(|&a, &b| keys[b].total_cmp(&keys[a]).then_with(|| a.cmp(&b)));
        let elites = order
            .iter()
            .take(cfg.migrants)
            .map(|&i| Migrant {
                arch: population[i].clone(),
                score: if fitness.has_scores() {
                    fitness.scores[i]
                } else {
                    keys[i]
                },
                objectives: fitness
                    .has_objectives()
                    .then(|| Arc::clone(&fitness.objectives[i])),
            })
            .collect();
        let mut front = Vec::new();
        if fitness.has_objectives() {
            for &i in scratch.moo.pareto_front(&fitness.objectives)? {
                front.push((
                    population[i].clone(),
                    fitness.objectives[i].as_ref().clone(),
                ));
            }
        }
        Ok(Emigration {
            from: *id,
            elites,
            front,
        })
    }

    /// Applies one incoming elite batch: duplicates of current members
    /// are skipped; accepted migrants replace the worst members by
    /// selection key (worst-first, deterministic tie-break). Returns the
    /// number accepted.
    fn immigrate(&mut self, migrants: &[Migrant]) -> Result<u64> {
        if migrants.is_empty() {
            return Ok(0);
        }
        // worst-first replacement order over the current population
        let scratch = &mut self.scratch;
        let keys = select::tournament_keys(
            &self.fitness,
            &mut scratch.moo,
            &mut scratch.fronts,
            &mut scratch.keys,
        )?;
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]).then_with(|| a.cmp(&b)));
        let mut slots = order.into_iter();
        self.scratch.seen.clear();
        for a in &self.population {
            self.scratch.seen.insert((a.space(), a.index()));
        }
        let mut accepted = 0;
        for m in migrants {
            let key = (m.arch.space(), m.arch.index());
            if !self.scratch.seen.insert(key) {
                continue;
            }
            let Some(slot) = slots.next() else { break };
            self.population[slot] = m.arch.clone();
            if self.fitness.has_scores() {
                self.fitness.scores[slot] = m.score;
            }
            if self.fitness.has_objectives() {
                let objs = m.objectives.as_ref().ok_or_else(|| {
                    SearchError::Config("migrant missing objectives for this fitness kind".into())
                })?;
                self.fitness.objectives[slot] = Arc::clone(objs);
            }
            accepted += 1;
        }
        Ok(accepted)
    }
}

/// A single island driven generation-by-generation. Benchmark and
/// allocation-test surface only — the stable API is [`IslandSearch`].
#[doc(hidden)]
pub struct IslandHarness {
    config: IslandConfig,
    island: Island,
}

impl IslandHarness {
    /// Builds island 0 of `config` and evaluates its initial population.
    #[doc(hidden)]
    pub fn new(config: IslandConfig, evaluator: Box<dyn Evaluator + Send>) -> Result<Self> {
        let config = IslandConfig {
            islands: 1,
            ..config
        };
        config.validate()?;
        let mut slot = Some(evaluator);
        let mut state = fresh_state(&config, |_| slot.take().expect("one island"))?;
        let island = state.islands.remove(0);
        Ok(Self { config, island })
    }

    /// Runs one generation (selection, variation, evaluation, survivor
    /// selection) — the warm inner loop the counting-allocator harness
    /// measures.
    #[doc(hidden)]
    pub fn step(&mut self) -> Result<()> {
        self.island.step(&self.config)
    }

    /// Evaluations performed so far.
    #[doc(hidden)]
    pub fn evaluations(&self) -> u64 {
        self.island.evaluations
    }
}

/// One member of the final global archive.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveMember {
    /// The architecture.
    pub arch: Architecture,
    /// Its minimisation objectives.
    pub objectives: Vec<f64>,
}

/// Outcome of an island search run.
#[derive(Debug, Clone)]
pub struct IslandSearchResult {
    /// Final population of every island, in island order.
    pub populations: Vec<Vec<Architecture>>,
    /// The global non-dominated archive (sorted by objectives).
    pub archive: Vec<ArchiveMember>,
    /// Exact hypervolume of the archive against the run's fixed
    /// reference point (2-objective runs only).
    pub hypervolume: Option<f64>,
    /// Generations each island completed.
    pub generations: usize,
    /// Epochs (migration periods) completed.
    pub epochs: usize,
    /// Total architecture evaluations across all islands.
    pub evaluations: u64,
    /// Migrants accepted across all migrations.
    pub migrants_accepted: u64,
    /// Evaluator display name.
    pub evaluator: String,
    /// Wall-clock duration of the run (excludes pre-resume time).
    pub wall_time: Duration,
}

/// Snapshot format version (checked on load).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Versioned on-disk form of a paused island search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The run's configuration (a resume replays exactly this).
    pub config: IslandConfig,
    /// Completed epochs.
    pub epoch: usize,
    /// Completed generations per island.
    pub generations_done: usize,
    /// Per-island state, in island order.
    pub islands: Vec<IslandSnapshot>,
    /// Every architecture ever accepted into the archive (tag-indexed).
    pub elites: Vec<EliteSnapshot>,
    /// Current archive members as tags into `elites`, in archive
    /// (lexicographic-objective) order.
    pub archive_tags: Vec<u64>,
    /// The fixed hypervolume reference point, once established.
    pub hv_reference: Option<Vec<f64>>,
    /// Migrants accepted so far.
    pub migrants_accepted: u64,
}

/// One archived elite in a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EliteSnapshot {
    /// The architecture.
    pub arch: Architecture,
    /// Its minimisation objectives.
    pub objectives: Vec<f64>,
}

/// Per-island state in a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IslandSnapshot {
    /// Island id (ring position).
    pub id: usize,
    /// SplitMix64 state word.
    pub rng_state: u64,
    /// Current population.
    pub population: Vec<Architecture>,
    /// Fitness shape carried by this island.
    pub kind: FitnessKind,
    /// Population scores (empty for objective-only fitness).
    pub scores: Vec<f64>,
    /// Population objectives (empty for score-only fitness).
    pub objectives: Vec<Vec<f64>>,
    /// The evaluator's memo-cache shard, sorted by key.
    pub cache: Vec<CacheEntry>,
    /// Simulated seconds charged so far.
    pub simulated_s: f64,
    /// Evaluations performed so far.
    pub evaluations: u64,
}

/// Full in-flight state of a run between epochs.
struct RunState {
    islands: Vec<Island>,
    epoch: usize,
    generations_done: usize,
    archive: ParetoArchive,
    elites: Vec<(Architecture, Vec<f64>)>,
    hv: Option<IncrementalHv2>,
    hv_reference: Option<Vec<f64>>,
    migrants_accepted: u64,
}

/// The island-model search (see the [module docs](self)).
#[derive(Debug)]
pub struct IslandSearch {
    config: IslandConfig,
}

impl IslandSearch {
    /// Creates a search with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Config`] for degenerate settings.
    pub fn new(config: IslandConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &IslandConfig {
        &self.config
    }

    /// Runs the search. `factory` builds one evaluator per island
    /// (islands own their evaluators — give each its own cache shard, or
    /// share one `Arc<ScoreCache>`; either way results are identical
    /// because the model is deterministic).
    ///
    /// # Errors
    ///
    /// Propagates evaluator and snapshot-write failures.
    pub fn run<F>(&self, factory: F) -> Result<IslandSearchResult>
    where
        F: FnMut(usize) -> Box<dyn Evaluator + Send>,
    {
        let span = hwpr_obs::span("search.islands");
        let state = fresh_state(&self.config, factory)?;
        run_state(&self.config, state, &span)
    }

    /// Continues a checkpointed run to completion. The snapshot's
    /// embedded config governs; `factory` rebuilds the per-island
    /// evaluators (their cache shards are restored from the snapshot).
    /// The finished result is bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Config`] for an unsupported snapshot
    /// version or malformed state, such as a score-cache key that is not
    /// an architecture string; propagates evaluator failures.
    pub fn resume<F>(snapshot: &SearchSnapshot, factory: F) -> Result<IslandSearchResult>
    where
        F: FnMut(usize) -> Box<dyn Evaluator + Send>,
    {
        let config = snapshot.config.clone();
        config.validate()?;
        let span = hwpr_obs::span("search.islands");
        let state = restore_state(snapshot, factory)?;
        run_state(&config, state, &span)
    }

    /// Reads and version-checks a snapshot written during a run.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Config`] on I/O/parse failure or a version
    /// mismatch.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<SearchSnapshot> {
        let snapshot: SearchSnapshot = hwpr_core::persist::read_json_file(path)
            .map_err(|e| SearchError::Config(format!("snapshot: {e}")))?;
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SearchError::Config(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                snapshot.version
            )));
        }
        Ok(snapshot)
    }
}

fn fresh_state<F>(config: &IslandConfig, mut factory: F) -> Result<RunState>
where
    F: FnMut(usize) -> Box<dyn Evaluator + Send>,
{
    let mut islands = Vec::with_capacity(config.islands);
    for id in 0..config.islands {
        let mut rng = SplitMix64::stream(config.seed, id as u64);
        let population: Vec<Architecture> = (0..config.population)
            .map(|i| {
                let space = config.spaces[i % config.spaces.len()];
                Architecture::random(space, &mut rng)
            })
            .collect();
        let mut evaluator = factory(id);
        let mut clock = SearchClock::unbounded();
        let batch = evaluator.evaluate(&population, &mut clock)?;
        let mut fitness = FitnessBuffer::default();
        fitness.absorb(batch, population.len())?;
        let evaluations = population.len() as u64;
        islands.push(Island {
            id,
            rng,
            population,
            fitness,
            evaluator,
            clock,
            scratch: Scratch::default(),
            evaluations,
        });
    }
    Ok(RunState {
        islands,
        epoch: 0,
        generations_done: 0,
        archive: ParetoArchive::new(),
        elites: Vec::new(),
        hv: None,
        hv_reference: None,
        migrants_accepted: 0,
    })
}

fn restore_state<F>(snapshot: &SearchSnapshot, mut factory: F) -> Result<RunState>
where
    F: FnMut(usize) -> Box<dyn Evaluator + Send>,
{
    if snapshot.version != SNAPSHOT_VERSION {
        return Err(SearchError::Config(format!(
            "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
            snapshot.version
        )));
    }
    if snapshot.islands.len() != snapshot.config.islands {
        return Err(SearchError::Config(
            "snapshot island count disagrees with its config".into(),
        ));
    }
    // a cache key that is not an architecture string is malformed state:
    // reject it here rather than let an evaluator panic or drop it
    for entry in snapshot.islands.iter().flat_map(|isl| &isl.cache) {
        entry.arch()?;
    }
    let mut islands = Vec::with_capacity(snapshot.islands.len());
    for isl in &snapshot.islands {
        let mut evaluator = factory(isl.id);
        evaluator.restore_cache(&isl.cache);
        let mut clock = SearchClock::unbounded();
        clock.charge_simulated(isl.simulated_s);
        let fitness = FitnessBuffer {
            kind: Some(isl.kind),
            scores: isl.scores.clone(),
            objectives: isl.objectives.iter().cloned().map(Arc::new).collect(),
        };
        islands.push(Island {
            id: isl.id,
            rng: SplitMix64::from_state(isl.rng_state),
            population: isl.population.clone(),
            fitness,
            evaluator,
            clock,
            scratch: Scratch::default(),
            evaluations: isl.evaluations,
        });
    }
    let elites: Vec<(Architecture, Vec<f64>)> = snapshot
        .elites
        .iter()
        .map(|e| (e.arch.clone(), e.objectives.clone()))
        .collect();
    let mut archive = ParetoArchive::new();
    for &tag in &snapshot.archive_tags {
        let (_, objs) = elites
            .get(tag as usize)
            .ok_or_else(|| SearchError::Config("snapshot archive tag out of range".into()))?;
        archive.insert(objs, tag)?;
    }
    let mut hv = None;
    if let Some(reference) = &snapshot.hv_reference {
        if reference.len() == 2 {
            let mut archive_hv = IncrementalHv2::new(reference)?;
            for member in archive.members() {
                let (x, y) = (member.objectives[0], member.objectives[1]);
                if x <= reference[0] && y <= reference[1] {
                    archive_hv.insert(x, y)?;
                }
            }
            hv = Some(archive_hv);
        }
    }
    Ok(RunState {
        islands,
        epoch: snapshot.epoch,
        generations_done: snapshot.generations_done,
        archive,
        elites,
        hv,
        hv_reference: snapshot.hv_reference.clone(),
        migrants_accepted: snapshot.migrants_accepted,
    })
}

/// Worker lanes for this run: the `workers` override, else one lane per
/// island up to the machine parallelism. Purely an executor choice —
/// results do not depend on it.
fn effective_workers(config: &IslandConfig) -> usize {
    let lanes = if config.workers > 0 {
        config.workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    lanes.min(config.islands).max(1)
}

/// Advances one island through a whole epoch and pushes its barrier
/// message; the worker-lane body.
fn advance_island(
    island: &mut Island,
    config: &IslandConfig,
    generations: usize,
    channel: &MigrationChannel<Emigration>,
    root: hwpr_obs::SpanContext,
) -> Result<()> {
    let id = island.id;
    let _span = hwpr_obs::span_with_parent_labeled("search.island", root, || id.to_string());
    for _ in 0..generations {
        let timer = crate::telemetry::island_gen_timer();
        island.step(config)?;
        timer.finish();
    }
    channel.push(island.emigration(config)?);
    Ok(())
}

fn run_state(
    config: &IslandConfig,
    mut state: RunState,
    span: &hwpr_obs::Span,
) -> Result<IslandSearchResult> {
    let root = span.context();
    let started = Instant::now();
    let lanes = effective_workers(config);
    while state.generations_done < config.generations {
        let gens = config
            .migration_every
            .min(config.generations - state.generations_done);
        let channel = MigrationChannel::new();
        if lanes <= 1 {
            for island in &mut state.islands {
                advance_island(island, config, gens, &channel, root)?;
            }
        } else {
            let chunk = state.islands.len().div_ceil(lanes);
            std::thread::scope(|scope| -> Result<()> {
                let mut handles = Vec::new();
                for islands in state.islands.chunks_mut(chunk) {
                    let channel = &channel;
                    handles.push(scope.spawn(move || -> Result<()> {
                        for island in islands {
                            advance_island(island, config, gens, channel, root)?;
                        }
                        Ok(())
                    }));
                }
                for handle in handles {
                    handle.join().expect("island worker panicked")?;
                }
                Ok(())
            })?;
        }
        state.generations_done += gens;

        // the only shared-state mutations of the epoch happen here, on
        // the coordinator, in island-id order — lane-count independent
        let mut messages = channel.drain();
        messages.sort_unstable_by_key(|m| m.from);
        fold_fronts(&mut state, &messages)?;
        if state.generations_done < config.generations {
            let _span = hwpr_obs::span("search.migration");
            let n = state.islands.len();
            let mut accepted = 0;
            for i in 0..n {
                let source = (i + n - 1) % n;
                let elites = &messages[source].elites;
                accepted += state.islands[i].immigrate(elites)?;
            }
            if hwpr_obs::enabled() && accepted > 0 {
                hwpr_obs::metrics::registry()
                    .counter("search.migrants")
                    .add(accepted);
            }
            state.migrants_accepted += accepted;
        }
        state.epoch += 1;
        record_epoch(&state);

        if config.checkpoint_every > 0
            && state.generations_done < config.generations
            && state.epoch.is_multiple_of(config.checkpoint_every)
        {
            let path = config
                .checkpoint_path
                .as_ref()
                .expect("validated: checkpoint_every needs a path");
            let _span = hwpr_obs::span("search.checkpoint");
            let snapshot = snapshot_state(config, &state);
            hwpr_core::persist::write_json_file(&snapshot, path)
                .map_err(|e| SearchError::Config(format!("checkpoint: {e}")))?;
        }
    }

    let hypervolume = state.hv.as_mut().map(IncrementalHv2::recompute);
    let archive = state
        .archive
        .members()
        .iter()
        .map(|m| ArchiveMember {
            arch: state.elites[m.tag as usize].0.clone(),
            objectives: m.objectives.clone(),
        })
        .collect();
    Ok(IslandSearchResult {
        populations: state.islands.iter().map(|i| i.population.clone()).collect(),
        archive,
        hypervolume,
        generations: state.generations_done,
        epochs: state.epoch,
        evaluations: state.islands.iter().map(|i| i.evaluations).sum(),
        migrants_accepted: state.migrants_accepted,
        evaluator: state
            .islands
            .first()
            .map_or_else(String::new, |i| i.evaluator.name()),
        wall_time: started.elapsed(),
    })
}

/// Folds every island's epoch front into the global archive (messages
/// arrive pre-sorted by island id) and maintains the incremental
/// hypervolume for two-objective runs.
fn fold_fronts(state: &mut RunState, messages: &[Emigration]) -> Result<()> {
    // fix the hypervolume reference from the first merged front set
    if state.hv_reference.is_none() {
        let points: Vec<Vec<f64>> = messages
            .iter()
            .flat_map(|m| m.front.iter().map(|(_, objs)| objs.clone()))
            .collect();
        if !points.is_empty() && points[0].len() == 2 {
            let spread = points
                .iter()
                .flat_map(|p| p.iter().map(|v| v.abs()))
                .fold(0.0f64, f64::max);
            if let Ok(reference) = nadir_reference_point(&points, 0.1 * spread.max(1e-9)) {
                state.hv = IncrementalHv2::new(&reference).ok();
                state.hv_reference = Some(reference);
            }
        }
    }
    for message in messages {
        for (arch, objs) in &message.front {
            let tag = state.elites.len() as u64;
            if state.archive.insert(objs, tag)? {
                state.elites.push((arch.clone(), objs.clone()));
                if let (Some(hv), Some(reference)) = (&mut state.hv, &state.hv_reference) {
                    // points past the fixed reference are clipped out of
                    // the hypervolume, matching the generation telemetry
                    if objs[0] <= reference[0] && objs[1] <= reference[1] {
                        hv.insert(objs[0], objs[1])?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Emits the `search.epoch` run record (a no-op with telemetry off).
fn record_epoch(state: &RunState) {
    if !hwpr_obs::enabled() {
        return;
    }
    let hv = state.hv.as_ref().map(IncrementalHv2::hypervolume);
    hwpr_obs::record_with("search.epoch", || {
        let mut fields = vec![
            hwpr_obs::field("epoch", state.epoch as u64),
            hwpr_obs::field("generations", state.generations_done as u64),
            hwpr_obs::field("archive_size", state.archive.len() as u64),
            hwpr_obs::field("migrants", state.migrants_accepted),
            hwpr_obs::field(
                "evaluations",
                state.islands.iter().map(|i| i.evaluations).sum::<u64>(),
            ),
        ];
        if let Some(hv) = hv {
            fields.push(hwpr_obs::field("hypervolume", hv));
        }
        fields
    });
}

/// The current state as a versioned snapshot document.
fn snapshot_state(config: &IslandConfig, state: &RunState) -> SearchSnapshot {
    SearchSnapshot {
        version: SNAPSHOT_VERSION,
        config: config.clone(),
        epoch: state.epoch,
        generations_done: state.generations_done,
        islands: state
            .islands
            .iter()
            .map(|island| IslandSnapshot {
                id: island.id,
                rng_state: island.rng.state(),
                population: island.population.clone(),
                kind: island.fitness.kind.expect("evaluated before any epoch"),
                scores: island.fitness.scores.clone(),
                objectives: island
                    .fitness
                    .objectives
                    .iter()
                    .map(|o| o.as_ref().clone())
                    .collect(),
                cache: island.evaluator.cache_snapshot(),
                simulated_s: island.clock.simulated_elapsed().as_secs_f64(),
                evaluations: island.evaluations,
            })
            .collect(),
        elites: state
            .elites
            .iter()
            .map(|(arch, objectives)| EliteSnapshot {
                arch: arch.clone(),
                objectives: objectives.clone(),
            })
            .collect(),
        archive_tags: state.archive.members().iter().map(|m| m.tag).collect(),
        hv_reference: state.hv_reference.clone(),
        migrants_accepted: state.migrants_accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ScoreEvaluator;
    use hwpr_nasbench::SearchSpaceId;

    fn score_factory() -> Box<dyn Evaluator + Send> {
        // a pure function of the architecture: deterministic, cheap, and
        // different across the space
        Box::new(ScoreEvaluator::from_fn(
            "index-score",
            Box::new(|archs| {
                Ok(archs
                    .iter()
                    .map(|a| (a.index() % 9973) as f64 / 9973.0)
                    .collect())
            }),
        ))
    }

    /// Objective-vector evaluator: two antagonistic pure functions of the
    /// architecture index, exercising the NSGA-II survivor path and the
    /// global archive merge.
    struct ObjectiveEvaluator;

    impl Evaluator for ObjectiveEvaluator {
        fn name(&self) -> String {
            "index-objectives".to_string()
        }

        fn evaluate(
            &mut self,
            archs: &[Architecture],
            _clock: &mut SearchClock,
        ) -> Result<crate::evaluator::Fitness> {
            let objs = archs
                .iter()
                .map(|a| {
                    let x = (a.index() % 9973) as f64 / 9973.0;
                    Arc::new(vec![x, (1.0 - x) * (1.0 + (a.index() % 7) as f64 * 0.01)])
                })
                .collect();
            Ok(crate::evaluator::Fitness::Objectives(objs))
        }

        fn calls_per_arch(&self) -> usize {
            1
        }
    }

    fn base_config() -> IslandConfig {
        IslandConfig {
            islands: 3,
            generations: 5,
            ..IslandConfig::small(SearchSpaceId::NasBench201)
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_settings() {
        let ok = base_config();
        assert!(IslandSearch::new(ok.clone()).is_ok());
        for breakage in [
            |c: &mut IslandConfig| c.islands = 0,
            |c: &mut IslandConfig| c.population = 1,
            |c: &mut IslandConfig| c.migration_every = 0,
            |c: &mut IslandConfig| c.migrants = c.population,
            |c: &mut IslandConfig| c.tournament = 0,
            |c: &mut IslandConfig| c.spaces.clear(),
            |c: &mut IslandConfig| c.mutation_rate = 1.5,
            |c: &mut IslandConfig| c.checkpoint_every = 1,
        ] {
            let mut cfg = ok.clone();
            breakage(&mut cfg);
            assert!(
                matches!(IslandSearch::new(cfg), Err(SearchError::Config(_))),
                "degenerate config accepted"
            );
        }
    }

    #[test]
    fn score_fitness_search_runs_and_improves() {
        let cfg = base_config();
        let result = IslandSearch::new(cfg.clone())
            .unwrap()
            .run(|_| score_factory())
            .unwrap();
        assert_eq!(result.populations.len(), cfg.islands);
        assert!(result.populations.iter().all(|p| p.len() == cfg.population));
        assert_eq!(result.generations, cfg.generations);
        assert_eq!(result.epochs, cfg.generations.div_ceil(cfg.migration_every));
        assert!(result.evaluations > 0);
        // score-only fitness has no objective vectors: no archive, no hv
        assert!(result.archive.is_empty());
        assert!(result.hypervolume.is_none());
        assert_eq!(result.evaluator, "index-score");
    }

    #[test]
    fn objective_fitness_fills_the_global_archive() {
        let result = IslandSearch::new(base_config())
            .unwrap()
            .run(|_| Box::new(ObjectiveEvaluator))
            .unwrap();
        assert!(!result.archive.is_empty(), "archive never populated");
        // archive members are mutually non-dominated and sorted
        for pair in result.archive.windows(2) {
            assert!(pair[0].objectives <= pair[1].objectives);
        }
        let hv = result.hypervolume.expect("2-objective run records hv");
        assert!(hv.is_finite() && hv >= 0.0);
    }

    #[test]
    fn results_are_identical_across_worker_lane_counts() {
        let runs: Vec<IslandSearchResult> = [1, 2, 8]
            .into_iter()
            .map(|workers| {
                let cfg = IslandConfig {
                    workers,
                    ..base_config()
                };
                IslandSearch::new(cfg)
                    .unwrap()
                    .run(|_| Box::new(ObjectiveEvaluator))
                    .unwrap()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].populations, other.populations);
            assert_eq!(runs[0].archive, other.archive);
            assert_eq!(runs[0].hypervolume, other.hypervolume);
            assert_eq!(runs[0].migrants_accepted, other.migrants_accepted);
        }
    }

    #[test]
    fn migration_spreads_elites_round_the_ring() {
        // with migration every generation and identical scoring, elites
        // must actually move: accepted migrants is non-zero
        let cfg = IslandConfig {
            migration_every: 1,
            generations: 6,
            ..base_config()
        };
        let result = IslandSearch::new(cfg)
            .unwrap()
            .run(|_| score_factory())
            .unwrap();
        assert!(result.migrants_accepted > 0, "no migrant ever accepted");
    }
}
