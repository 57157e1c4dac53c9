//! Proves the zero-allocation properties of the hot paths: once its
//! arenas, buffer pools and caches are warm, (a) a training step,
//! (b) a frozen-engine inference pass and (c) the workspace-backed MOO
//! kernels each perform zero heap allocations.
//!
//! Gated behind the `alloc-count` feature because it installs a global
//! allocator; run with `cargo test -p hwpr-bench --features alloc-count`.

#![cfg(feature = "alloc-count")]

use hwpr_bench::alloc_count::{allocations, CountingAllocator};
use hwpr_bench::train_step::{step_data, FusedTrainer, StepConfig};
use hwpr_bench::{fixture_archs, fixture_model, fixture_objectives};
use hwpr_hwmodel::Platform;
use hwpr_moo::{Fronts, IncrementalHv2, MooWorkspace};
use hwpr_nasbench::SearchSpaceId;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counter is process-wide, so two proofs running at once
/// would see each other's allocations. Every test holds this lock for its
/// whole body.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The allocation count once no thread has allocated for a few
/// milliseconds. The lock keeps proofs apart, but not the test harness:
/// when a proof finishes and releases the lock, the harness thread
/// reports it and spawns the next test's thread, and that work may
/// overlap the next proof. Every measured window opens here.
fn settled_allocations() -> u64 {
    let mut seen = allocations();
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let now = allocations();
        if now == seen {
            break;
        }
        seen = now;
    }
    seen
}

#[test]
fn steady_state_train_step_is_allocation_free() {
    let _serial = serial();
    let config = StepConfig::tiny();
    let data = step_data(&config);
    let mut trainer = FusedTrainer::new(&config);
    // warm-up: grows the node arena, buffer pools, gradient buffers and
    // AdamW moments to their steady-state footprint
    for _ in 0..5 {
        trainer.step(&data);
    }
    let before = settled_allocations();
    let mut loss = 0.0;
    for _ in 0..3 {
        loss += trainer.step(&data);
    }
    let after = allocations();
    assert!(loss.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state training steps performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_moo_workspace_calls_are_allocation_free() {
    let _serial = serial();
    // both dispatch paths: the 2-D sweep and the M >= 3 CSR + WFG route
    let points2 = fixture_objectives(256, 2);
    let points3 = fixture_objectives(128, 3);
    let reference2 = vec![101.0, 101.0];
    let reference3 = vec![101.0, 101.0, 101.0];
    let mut ws = MooWorkspace::new();
    let mut fronts = Fronts::new();
    let mut checksum = 0.0f64;
    // warm-up: grows every scratch buffer (objective arena, CSR edges,
    // sort orders, WFG level pool) to its steady-state footprint
    for _ in 0..3 {
        ws.fast_non_dominated_sort_into(&points2, &mut fronts)
            .unwrap();
        ws.fast_non_dominated_sort_into(&points3, &mut fronts)
            .unwrap();
        ws.pareto_ranks(&points2).unwrap();
        ws.pareto_front(&points3).unwrap();
        ws.crowding_distance(&points2).unwrap();
        checksum += ws.hypervolume(&points2, &reference2).unwrap();
        checksum += ws.hypervolume(&points3, &reference3).unwrap();
    }
    let before = settled_allocations();
    for _ in 0..3 {
        ws.fast_non_dominated_sort_into(&points2, &mut fronts)
            .unwrap();
        checksum += fronts.front(0).len() as f64;
        ws.fast_non_dominated_sort_into(&points3, &mut fronts)
            .unwrap();
        checksum += ws.pareto_ranks(&points2).unwrap().len() as f64;
        checksum += ws.pareto_front(&points3).unwrap().len() as f64;
        checksum += ws.crowding_distance(&points2).unwrap()[0];
        checksum += ws.hypervolume(&points2, &reference2).unwrap();
        checksum += ws.hypervolume(&points3, &reference3).unwrap();
    }
    let after = allocations();
    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "warm MOO workspace calls performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_incremental_hv2_is_allocation_free() {
    let _serial = serial();
    let points = fixture_objectives(512, 2);
    let mut archive = IncrementalHv2::new(&[101.0, 101.0]).unwrap();
    // warm-up: the staircase grows to its steady-state capacity, which
    // `clear` retains
    archive.reset_from(&points).unwrap();
    let before = settled_allocations();
    archive.clear();
    let mut accepted = 0u64;
    for p in &points {
        if archive.insert(p[0], p[1]).unwrap() {
            accepted += 1;
        }
    }
    let hv = archive.recompute();
    let after = allocations();
    assert!(hv.is_finite() && accepted > 0);
    assert_eq!(
        after - before,
        0,
        "warm incremental-hv inserts performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_island_generation_loop_is_allocation_free() {
    let _serial = serial();
    use hwpr_search::island::{IslandConfig, IslandHarness};
    use hwpr_search::{Evaluator, Fitness, SearchClock};

    /// Scores-kind evaluator with an allocation-free buffer-reusing fast
    /// path, so the measurement isolates the island machinery itself —
    /// tournament selection, crossover/mutation, the dedup set and the
    /// survivor sorts. (The frozen engine's own warm-path zero-allocation
    /// property is pinned separately above; it cannot hold for an
    /// evolving population, whose fresh offspring each pay a one-time
    /// encoding.)
    struct IndexScoreEvaluator;

    impl Evaluator for IndexScoreEvaluator {
        fn name(&self) -> String {
            "index-scores".to_string()
        }

        fn evaluate(
            &mut self,
            archs: &[hwpr_nasbench::Architecture],
            _clock: &mut SearchClock,
        ) -> hwpr_search::Result<Fitness> {
            Ok(Fitness::Scores(
                archs
                    .iter()
                    .map(|a| (a.index() % 9973) as f64 / 9973.0)
                    .collect(),
            ))
        }

        fn evaluate_scores_into(
            &mut self,
            archs: &[hwpr_nasbench::Architecture],
            _clock: &mut SearchClock,
            out: &mut Vec<f64>,
        ) -> hwpr_search::Result<bool> {
            out.clear();
            out.extend(archs.iter().map(|a| (a.index() % 9973) as f64 / 9973.0));
            Ok(true)
        }

        fn calls_per_arch(&self) -> usize {
            1
        }
    }

    let config = IslandConfig {
        population: 24,
        generations: usize::MAX,
        ..IslandConfig::small(SearchSpaceId::NasBench201)
    };
    let mut harness =
        IslandHarness::new(config, Box::new(IndexScoreEvaluator)).expect("harness builds");
    // warm-up: offspring/fitness/selection buffers reach their
    // steady-state footprint
    for _ in 0..5 {
        harness.step().expect("warm-up step");
    }
    let before = settled_allocations();
    for _ in 0..3 {
        harness.step().expect("measured step");
    }
    let after = allocations();
    assert!(harness.evaluations() > 0);
    assert_eq!(
        after - before,
        0,
        "warm island generation steps performed {} heap allocations",
        after - before
    );
}

#[test]
fn warm_serving_loop_is_allocation_free() {
    let _serial = serial();
    use hwpr_serve::{
        BatchQueue, ModelRegistry, Pending, PredictKind, ReplySink, ServeConfig, WorkerState,
    };
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Reply transport that reuses one buffer — stands in for the TCP
    /// sink so the measurement covers the queue + worker + engine loop
    /// without socket noise.
    struct BufferSink {
        last: std::sync::Mutex<Vec<u8>>,
        frames: std::sync::atomic::AtomicU64,
    }

    impl ReplySink for BufferSink {
        fn send(&self, frame: &[u8]) {
            let mut last = self.last.lock().expect("sink lock");
            last.clear();
            last.extend_from_slice(frame);
            self.frames
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    let registry = ModelRegistry::new();
    let nas = Arc::new(fixture_model(32));
    nas.freeze_with_batch(16);
    registry.publish("default", nas);
    let model = registry.get("default").expect("published");
    let archs = fixture_archs(SearchSpaceId::NasBench201, 24);
    let config = ServeConfig {
        max_batch: 64,
        request_timeout: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let queue = BatchQueue::new(&config);
    let mut worker = WorkerState::new(&config, hwpr_obs::SpanContext::NONE);
    let sink = Arc::new(BufferSink {
        last: std::sync::Mutex::new(Vec::new()),
        frames: std::sync::atomic::AtomicU64::new(0),
    });

    // uneven interleaved-client windows, so the coalesced forward and
    // the per-request reply split both get exercised; the last one is an
    // Objectives twin of the first, which rides that batch and reuses
    // its staged rows
    let windows: [(PredictKind, std::ops::Range<usize>); 4] = [
        (PredictKind::Scores, 0..7),
        (PredictKind::Scores, 7..12),
        (PredictKind::Scores, 12..24),
        (PredictKind::Objectives, 0..7),
    ];
    // one connection's pipelined frames, admitted as one group; the
    // group buffer is reused across rounds like the server's reader does
    let mut group = Vec::with_capacity(windows.len());
    let mut round = |request_id: u64| {
        for (i, (kind, window)) in windows.iter().enumerate() {
            let mut buf = queue.take_arch_buf();
            buf.extend_from_slice(&archs[window.clone()]);
            group.push(Pending {
                request_id: request_id + i as u64,
                kind: *kind,
                model: Arc::clone(&model),
                slot: 0,
                archs: buf,
                reply: Arc::clone(&sink) as Arc<dyn ReplySink>,
                arrived: Instant::now(),
            });
        }
        assert_eq!(queue.push(&mut group), windows.len(), "queue has room");
        let mut batches = 0;
        while worker.try_run_once(&queue) {
            batches += 1;
        }
        assert_eq!(batches, 1, "every window, twin included, shares one batch");
    };
    // warm-up: queue ring, arch pool, admission group, worker
    // staging/offset/output/frame buffers and the engine arena reach
    // steady state
    for r in 0..5 {
        round(r * 10);
    }
    let before = settled_allocations();
    for r in 5..8 {
        round(r * 10);
    }
    let after = allocations();
    assert_eq!(
        sink.frames.load(std::sync::atomic::Ordering::Relaxed),
        8 * windows.len() as u64,
        "every request must have been answered"
    );
    assert_eq!(
        after - before,
        0,
        "warm serving loop performed {} heap allocations",
        after - before
    );
}

#[test]
fn steady_state_frozen_inference_is_allocation_free() {
    let _serial = serial();
    let model = fixture_model(32);
    let archs = fixture_archs(SearchSpaceId::NasBench201, 40);
    let mut scores = Vec::new();
    // chunk size 16 leaves an uneven final chunk of 8, so both chunk
    // shapes get warmed into the arena's buffer pool
    model.freeze_with_batch(16);
    // warm-up: encodes the architectures into the cache, grows the
    // arena's pool/scratch and the output buffer to steady state
    for _ in 0..3 {
        scores.clear();
        model
            .predict_scores_into(&archs, Platform::EdgeGpu, &mut scores)
            .unwrap();
    }
    let before = settled_allocations();
    let mut sum = 0.0;
    for _ in 0..3 {
        scores.clear();
        model
            .predict_scores_into(&archs, Platform::EdgeGpu, &mut scores)
            .unwrap();
        sum += scores.iter().sum::<f64>();
    }
    let after = allocations();
    assert!(sum.is_finite());
    assert_eq!(scores.len(), archs.len());
    assert_eq!(
        after - before,
        0,
        "steady-state inference performed {} heap allocations",
        after - before
    );
}
