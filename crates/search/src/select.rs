//! The selection policy of Algorithm 1, shared by every search engine:
//! the flattened fitness buffer, the parent-selection keys, tournament
//! selection, the elitist survivor rule and the generation step built
//! from them.
//!
//! [`Moea`](crate::Moea) (ChaCha8 stream) and each island of
//! [`IslandSearch`](crate::IslandSearch) ([`SplitMix64`](crate::SplitMix64)
//! stream) advance through the same [`generation`], monomorphised per
//! RNG; [`random_search`](crate::random_search) accumulates through
//! [`FitnessBuffer::absorb`] and keeps its best through
//! [`survivors_into`].

use crate::clock::SearchClock;
use crate::evaluator::{Evaluator, Fitness, SharedObjectives};
use crate::{Result, SearchError};
use hwpr_moo::{Fronts, MooWorkspace};
use hwpr_nasbench::{Architecture, SearchSpaceId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

/// Which [`Fitness`] shape a population carries (fixed by the
/// evaluator's first batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitnessKind {
    /// Scalar scores only.
    Scores,
    /// Objective vectors only.
    Objectives,
    /// Scores plus predicted objectives (the HW-PR-NAS evaluator).
    Ranked,
}

/// Flattened fitness storage: one growable buffer per component, so the
/// per-generation merge/filter reuses capacity instead of rebuilding
/// [`Fitness`] values.
#[derive(Debug, Default)]
pub(crate) struct FitnessBuffer {
    pub(crate) kind: Option<FitnessKind>,
    pub(crate) scores: Vec<f64>,
    pub(crate) objectives: Vec<SharedObjectives>,
}

impl FitnessBuffer {
    /// Appends an evaluator's answer for `archs` architectures, fixing
    /// the fitness kind on the first batch and rejecting a different kind
    /// on any later one. A batch of the wrong length is rejected whole,
    /// before it can misalign the buffer with the population.
    pub(crate) fn absorb(&mut self, fitness: Fitness, archs: usize) -> Result<()> {
        let (kind, columns) = match &fitness {
            Fitness::Scores(s) => (FitnessKind::Scores, [s.len(); 2]),
            Fitness::Objectives(o) => (FitnessKind::Objectives, [o.len(); 2]),
            Fitness::Ranked { scores, objectives } => {
                (FitnessKind::Ranked, [scores.len(), objectives.len()])
            }
        };
        if columns != [archs; 2] {
            return Err(short_batch(columns[0].min(columns[1]), archs));
        }
        match self.kind {
            None => self.kind = Some(kind),
            Some(k) if k == kind => {}
            Some(k) => {
                return Err(SearchError::Config(format!(
                    "evaluator changed fitness kind mid-search ({k:?} -> {kind:?})"
                )));
            }
        }
        match fitness {
            Fitness::Scores(s) => self.scores.extend(s),
            Fitness::Objectives(o) => self.objectives.extend(o),
            Fitness::Ranked { scores, objectives } => {
                self.scores.extend(scores);
                self.objectives.extend(objectives);
            }
        }
        Ok(())
    }

    fn clear(&mut self) {
        self.scores.clear();
        self.objectives.clear();
    }

    pub(crate) fn has_scores(&self) -> bool {
        matches!(self.kind, Some(FitnessKind::Scores | FitnessKind::Ranked))
    }

    pub(crate) fn has_objectives(&self) -> bool {
        matches!(
            self.kind,
            Some(FitnessKind::Objectives | FitnessKind::Ranked)
        )
    }

    fn kind(&self) -> Result<FitnessKind> {
        self.kind
            .ok_or_else(|| SearchError::Config("population selected before evaluation".into()))
    }
}

fn short_batch(answered: usize, archs: usize) -> SearchError {
    SearchError::Surrogate(format!(
        "evaluator answered {answered} of {archs} architectures"
    ))
}

/// The variation operators' settings: how many offspring a generation
/// breeds and how.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Variation {
    /// Offspring per generation, and the survivor count.
    pub(crate) population: usize,
    /// Tournament size for parent selection.
    pub(crate) tournament: usize,
    /// Probability of producing an offspring by crossover.
    pub(crate) crossover_rate: f64,
    /// Probability of mutating each offspring.
    pub(crate) mutation_rate: f64,
}

/// Reusable selection buffers: after the first generation every
/// collection here has its high-water capacity and the warm generation
/// step allocates nothing (proven by the counting-allocator harness).
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) moo: MooWorkspace,
    pub(crate) fronts: Fronts,
    pub(crate) keys: Vec<f64>,
    pub(crate) seen: HashSet<(SearchSpaceId, u128)>,
    pub(crate) keep: Vec<usize>,
    offspring: Vec<Architecture>,
    offspring_scores: Vec<f64>,
    pool: Vec<usize>,
    order: Vec<usize>,
    unique_objs: Vec<SharedObjectives>,
    next_population: Vec<Architecture>,
    next_fitness: FitnessBuffer,
}

/// Parent-selection keys (higher = fitter): the scores themselves, or
/// `-(rank) + crowding tie-break` from non-dominated sorting for
/// objective-only fitness (the comparisons the paper counts as
/// two-surrogate overhead), computed into `keys`.
pub(crate) fn tournament_keys<'a>(
    fitness: &'a FitnessBuffer,
    moo: &mut MooWorkspace,
    fronts: &mut Fronts,
    keys: &'a mut Vec<f64>,
) -> Result<&'a [f64]> {
    if fitness.kind()? != FitnessKind::Objectives {
        return Ok(&fitness.scores);
    }
    let objectives = &fitness.objectives;
    moo.fast_non_dominated_sort_into(objectives, fronts)?;
    keys.clear();
    keys.resize(objectives.len(), 0.0);
    for rank in 0..fronts.len() {
        let front = fronts.front(rank);
        let crowd = moo.crowding_distance_of(objectives, front)?;
        for (slot, &i) in front.iter().enumerate() {
            let tie = 1.0 - 1.0 / (1.0 + crowd[slot].min(1e12));
            keys[i] = -(rank as f64) + tie * 0.5;
        }
    }
    Ok(keys)
}

/// Tournament selection: the fittest of `size` uniform draws.
pub(crate) fn tournament<R: Rng>(keys: &[f64], size: usize, rng: &mut R) -> usize {
    let mut best = rng.gen_range(0..keys.len());
    for _ in 1..size {
        let challenger = rng.gen_range(0..keys.len());
        if keys[challenger] > keys[best] {
            best = challenger;
        }
    }
    best
}

/// Elitist survivor selection over `merged` (aligned with `fitness`)
/// into `scratch.keep`. Duplicate architectures are removed first so the
/// population cannot collapse onto copies of the score maximiser; then
/// the best `k` survive:
///
/// - scores: top-k by score;
/// - ranked: the score gates front membership (only the top `k + k/4 + 1`
///   scores enter the pool), and crowding on the same call's predicted
///   objectives trims the margin, so coverage rather than score noise
///   decides the last slots;
/// - objectives: NSGA-II — whole fronts, the last one cut by crowding.
///
/// `sort_unstable` with explicit index tie-breaks gives the stable-sort
/// order without the stable sort's scratch allocation.
pub(crate) fn survivors_into(
    merged: &[Architecture],
    fitness: &FitnessBuffer,
    k: usize,
    scratch: &mut Scratch,
) -> Result<()> {
    let Scratch {
        moo,
        fronts,
        seen,
        keep,
        pool,
        order,
        unique_objs,
        ..
    } = scratch;
    let kind = fitness.kind()?;
    seen.clear();
    pool.clear();
    pool.extend((0..merged.len()).filter(|&i| seen.insert((merged[i].space(), merged[i].index()))));
    keep.clear();
    match kind {
        FitnessKind::Scores => {
            let scores = &fitness.scores;
            pool.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
            keep.extend(pool.iter().take(k));
        }
        FitnessKind::Ranked => {
            let scores = &fitness.scores;
            pool.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
            pool.truncate(k + k / 4 + 1);
            if pool.len() <= k {
                keep.extend(pool.iter());
                return Ok(());
            }
            let crowd = moo.crowding_distance_of(&fitness.objectives, pool)?;
            order.clear();
            order.extend(0..pool.len());
            order.sort_unstable_by(|&a, &b| crowd[b].total_cmp(&crowd[a]).then_with(|| a.cmp(&b)));
            keep.extend(order.iter().take(k).map(|&slot| pool[slot]));
        }
        FitnessKind::Objectives => {
            unique_objs.clear();
            unique_objs.extend(pool.iter().map(|&i| Arc::clone(&fitness.objectives[i])));
            moo.fast_non_dominated_sort_into(&*unique_objs, fronts)?;
            for rank in 0..fronts.len() {
                let front = fronts.front(rank);
                if keep.len() + front.len() <= k {
                    keep.extend(front.iter().map(|&i| pool[i]));
                } else {
                    // fill the remainder with the most spread-out members
                    let crowd = moo.crowding_distance_of(&*unique_objs, front)?;
                    order.clear();
                    order.extend(0..front.len());
                    order.sort_unstable_by(|&a, &b| {
                        crowd[b].total_cmp(&crowd[a]).then_with(|| a.cmp(&b))
                    });
                    let room = k - keep.len();
                    keep.extend(order.iter().take(room).map(|&slot| pool[front[slot]]));
                    break;
                }
            }
        }
    }
    Ok(())
}

/// Advances a population one generation: tournament selection,
/// crossover + mutation, offspring evaluation, elitist survivor
/// selection over `P ∪ Q`. Returns the offspring evaluation's latency in
/// milliseconds when telemetry is on. Allocation-free when warm
/// (buffer-reusing evaluator, telemetry off).
///
/// # Errors
///
/// Propagates evaluator failures; returns [`SearchError::Config`] when
/// the evaluator answers with a different fitness kind than before.
pub(crate) fn generation<R: Rng>(
    variation: &Variation,
    rng: &mut R,
    population: &mut Vec<Architecture>,
    fitness: &mut FitnessBuffer,
    evaluator: &mut dyn Evaluator,
    clock: &mut SearchClock,
    scratch: &mut Scratch,
) -> Result<Option<f64>> {
    let kind = fitness.kind()?;
    let keys = tournament_keys(
        fitness,
        &mut scratch.moo,
        &mut scratch.fronts,
        &mut scratch.keys,
    )?;

    // offspring via tournament + crossover + mutation
    scratch.offspring.clear();
    for _ in 0..variation.population {
        let a = tournament(keys, variation.tournament, rng);
        let child = if rng.gen_bool(variation.crossover_rate) {
            let b = tournament(keys, variation.tournament, rng);
            population[a]
                .crossover(&population[b], rng)
                .unwrap_or_else(|| population[a].clone())
        } else {
            population[a].clone()
        };
        let child = if rng.gen_bool(variation.mutation_rate) {
            child.mutate(rng)
        } else {
            child
        };
        scratch.offspring.push(child);
    }

    // evaluate straight into P's buffer, which becomes P ∪ Q: the
    // buffer-reusing scores fast path, else the boxed path
    let timer = crate::telemetry::eval_timer();
    scratch.offspring_scores.clear();
    let fast = kind == FitnessKind::Scores
        && evaluator.evaluate_scores_into(
            &scratch.offspring,
            clock,
            &mut scratch.offspring_scores,
        )?;
    if fast {
        if scratch.offspring_scores.len() != scratch.offspring.len() {
            return Err(short_batch(
                scratch.offspring_scores.len(),
                scratch.offspring.len(),
            ));
        }
        fitness.scores.extend_from_slice(&scratch.offspring_scores);
    } else {
        let batch = evaluator.evaluate(&scratch.offspring, clock)?;
        fitness.absorb(batch, scratch.offspring.len())?;
    }
    let eval_ms = timer.finish();
    population.append(&mut scratch.offspring);

    // elitist survivor selection over P ∪ Q, compacted through the swap
    // buffers (no reallocation)
    survivors_into(population, fitness, variation.population, scratch)?;
    let next = &mut scratch.next_population;
    next.clear();
    next.extend(scratch.keep.iter().map(|&i| population[i].clone()));
    std::mem::swap(population, next);
    let next = &mut scratch.next_fitness;
    next.clear();
    if fitness.has_scores() {
        next.scores
            .extend(scratch.keep.iter().map(|&i| fitness.scores[i]));
    }
    if fitness.has_objectives() {
        next.objectives.extend(
            scratch
                .keep
                .iter()
                .map(|&i| Arc::clone(&fitness.objectives[i])),
        );
    }
    std::mem::swap(&mut fitness.scores, &mut next.scores);
    std::mem::swap(&mut fitness.objectives, &mut next.objectives);
    Ok(eval_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::share_objectives;
    use rand::seq::SliceRandom as _;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn archs(n: u64) -> Vec<Architecture> {
        (0..n)
            .map(|i| Architecture::nb201_from_index(i).unwrap())
            .collect()
    }

    fn survivors(merged: &[Architecture], fitness: Fitness, k: usize) -> Vec<usize> {
        let mut buffer = FitnessBuffer::default();
        let n = fitness.len();
        buffer.absorb(fitness, n).unwrap();
        let mut scratch = Scratch::default();
        survivors_into(merged, &buffer, k, &mut scratch).unwrap();
        scratch.keep
    }

    fn ranked(scores: Vec<f64>, objectives: Vec<Vec<f64>>) -> Fitness {
        Fitness::Ranked {
            scores,
            objectives: share_objectives(objectives),
        }
    }

    #[test]
    fn top_scores_survive_in_descending_order() {
        let mut scores: Vec<f64> = (0..10).map(|i| i as f64).collect();
        scores.shuffle(&mut ChaCha8Rng::seed_from_u64(0));
        let top = survivors(&archs(10), Fitness::Scores(scores.clone()), 3);
        let vals: Vec<f64> = top.iter().map(|&i| scores[i]).collect();
        assert_eq!(vals, vec![9.0, 8.0, 7.0]);
    }

    #[test]
    fn dominated_point_is_dropped() {
        let objs = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![5.0, 5.0],
        ];
        let keep = survivors(&archs(4), Fitness::Objectives(share_objectives(objs)), 3);
        assert_eq!(keep.len(), 3);
        assert!(!keep.contains(&3), "dominated point survived");
    }

    #[test]
    fn ranked_selection_keeps_objective_corners() {
        // 6 candidates, k = 4: the score pool (k + 25 %) admits all six,
        // and the crowding pass must keep the two corner trade-offs
        let scores = vec![1.0, 0.99, 0.98, 0.97, 0.96, 0.95];
        let objectives = (0..6).map(|i| vec![i as f64, 5.0 - i as f64]).collect();
        let keep = survivors(&archs(6), ranked(scores, objectives), 4);
        assert_eq!(keep.len(), 4);
        assert!(keep.contains(&0), "low-error corner evicted");
        assert!(keep.contains(&5), "low-latency corner evicted");
    }

    #[test]
    fn ranked_selection_pool_is_score_gated() {
        // 12 candidates, k = 4: pool = top 6 scores; anything below the
        // score cut can never be selected, however spread out it is
        let mut scores = vec![0.0; 12];
        for (i, s) in scores.iter_mut().enumerate().take(6) {
            *s = 10.0 - i as f64;
        }
        // extreme objectives on a low-scored candidate
        let mut objectives: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, i as f64]).collect();
        objectives[11] = vec![-1000.0, 1000.0];
        let keep = survivors(&archs(12), ranked(scores, objectives), 4);
        assert!(
            !keep.contains(&11),
            "score-gated pool admitted a low-score candidate"
        );
    }

    #[test]
    fn ranked_selection_prefers_high_scores_first() {
        // with more candidates than the pool, only the top scores enter
        // the diversity pool at all
        let mut scores = vec![0.0; 10];
        scores[3] = 5.0;
        scores[6] = 4.0;
        let objectives = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let keep = survivors(&archs(10), ranked(scores, objectives), 1);
        // pool = top-2 scores {3, 6}; crowding over 2 points keeps both at
        // infinity, truncation keeps the first by crowding order
        assert_eq!(keep.len(), 1);
        assert!(keep[0] == 3 || keep[0] == 6);
    }

    #[test]
    fn duplicate_architectures_are_evicted() {
        let arch = Architecture::nb201_from_index(5).unwrap();
        let merged = vec![arch.clone(), arch.clone(), arch];
        let keep = survivors(&merged, Fitness::Scores(vec![3.0, 2.0, 1.0]), 3);
        assert_eq!(keep, vec![0], "duplicates must collapse to one entry");
    }

    #[test]
    fn a_short_offspring_batch_is_an_error_not_a_panic() {
        let mut evaluator = crate::evaluator::ScoreEvaluator::from_fn(
            "short",
            Box::new(|archs| Ok(vec![1.0; archs.len().min(4)])),
        );
        let mut population = archs(4);
        let mut fitness = FitnessBuffer::default();
        fitness.absorb(Fitness::Scores(vec![1.0; 4]), 4).unwrap();
        let variation = Variation {
            population: 4,
            tournament: 2,
            crossover_rate: 0.5,
            mutation_rate: 0.9,
        };
        let grown = Variation {
            population: 8,
            ..variation
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut clock = SearchClock::unbounded();
        let mut scratch = Scratch::default();
        let mut step = |variation: &Variation| {
            generation(
                variation,
                &mut rng,
                &mut population,
                &mut fitness,
                &mut evaluator,
                &mut clock,
                &mut scratch,
            )
        };
        assert!(step(&variation).is_ok());
        let err = step(&grown).unwrap_err();
        assert!(matches!(err, SearchError::Surrogate(_)), "{err:?}");
    }

    #[test]
    fn a_second_batch_of_another_kind_is_rejected() {
        let mut buffer = FitnessBuffer::default();
        buffer.absorb(Fitness::Scores(vec![1.0]), 1).unwrap();
        let err = buffer
            .absorb(Fitness::Objectives(share_objectives(vec![vec![1.0]])), 1)
            .unwrap_err();
        assert!(matches!(err, SearchError::Config(_)), "{err:?}");
        assert_eq!(buffer.scores, vec![1.0], "rejected batch was absorbed");
    }

    #[test]
    fn a_batch_of_the_wrong_length_is_rejected_whole() {
        let mut buffer = FitnessBuffer::default();
        let err = buffer.absorb(Fitness::Scores(vec![1.0]), 2).unwrap_err();
        assert!(matches!(err, SearchError::Surrogate(_)), "{err:?}");
        // a ranked batch whose two columns disagree is short too
        let lopsided = ranked(vec![1.0, 2.0], vec![vec![0.0, 1.0]]);
        assert!(buffer.absorb(lopsided, 2).is_err());
        assert!(buffer.kind.is_none() && buffer.scores.is_empty());
    }
}
