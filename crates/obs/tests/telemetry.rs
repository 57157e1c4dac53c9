//! Integration tests for the telemetry pipeline: span nesting and timing,
//! histogram bucket placement, JSONL round-trips and concurrent metric
//! updates.

use hwpr_obs::metrics::{Counter, Histogram, Registry};
use hwpr_obs::sink::MemorySink;
use hwpr_obs::{Event, Recorder, Value};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The recorder slot is process-global; tests that install one serialise
/// on this lock so they never observe each other's events.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with a fresh [`MemorySink`] installed and returns the events
/// it captured.
fn with_memory_sink(f: impl FnOnce()) -> Vec<Event> {
    let _guard = recorder_lock();
    let sink = Arc::new(MemorySink::new());
    hwpr_obs::install(Arc::clone(&sink) as Arc<dyn Recorder>);
    f();
    hwpr_obs::shutdown();
    sink.events()
}

#[test]
fn spans_nest_and_time_monotonically() {
    let events = with_memory_sink(|| {
        let _outer = hwpr_obs::span("t.outer");
        let _inner = hwpr_obs::span("t.inner");
    });
    assert_eq!(events.len(), 4, "2 starts + 2 ends: {events:?}");

    let find_start = |name: &str| {
        events
            .iter()
            .find_map(|e| match e {
                Event::SpanStart {
                    id,
                    parent,
                    name: n,
                    t_us,
                    ..
                } if n == name => Some((*id, *parent, *t_us)),
                _ => None,
            })
            .expect("span start present")
    };
    let find_end = |name: &str| {
        events
            .iter()
            .find_map(|e| match e {
                Event::SpanEnd {
                    id,
                    parent,
                    name: n,
                    t_us,
                    dur_us,
                    ..
                } if n == name => Some((*id, *parent, *t_us, *dur_us)),
                _ => None,
            })
            .expect("span end present")
    };

    let (outer_id, outer_parent, outer_t) = find_start("t.outer");
    let (inner_id, inner_parent, inner_t) = find_start("t.inner");
    assert_eq!(outer_parent, 0, "outer span must be a root");
    assert_eq!(inner_parent, outer_id, "inner span must nest under outer");
    assert_ne!(inner_id, outer_id);
    assert!(inner_t >= outer_t, "children start after their parent");

    let (end_inner_id, _, inner_end_t, inner_dur) = find_end("t.inner");
    let (end_outer_id, _, outer_end_t, outer_dur) = find_end("t.outer");
    assert_eq!(end_inner_id, inner_id);
    assert_eq!(end_outer_id, outer_id);
    // monotonic timing: ends at or after the start, outer covers inner
    assert!(inner_end_t >= inner_t);
    assert!(outer_end_t >= inner_end_t, "drop order: inner ends first");
    assert!(outer_dur >= inner_dur, "outer span contains the inner one");

    // the whole event stream is time-ordered
    let times: Vec<u64> = events.iter().map(Event::t_us).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
}

#[test]
fn span_restores_parent_after_drop() {
    let events = with_memory_sink(|| {
        let _outer = hwpr_obs::span("t.root");
        {
            let _a = hwpr_obs::span("t.first_child");
        }
        {
            let _b = hwpr_obs::span("t.second_child");
        }
    });
    let root_id = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart { id, name, .. } if name == "t.root" => Some(*id),
            _ => None,
        })
        .expect("root start");
    // both siblings report the root as parent: dropping the first child
    // restored the thread's current span
    for child in ["t.first_child", "t.second_child"] {
        let parent = events
            .iter()
            .find_map(|e| match e {
                Event::SpanStart { parent, name, .. } if name == child => Some(*parent),
                _ => None,
            })
            .expect("child start");
        assert_eq!(parent, root_id, "{child} must hang off the root span");
    }
}

#[test]
fn span_context_propagates_across_threads() {
    let events = with_memory_sink(|| {
        let root = hwpr_obs::span("t.fanout");
        let ctx = root.context();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let _worker = hwpr_obs::span_with_parent("t.worker", ctx);
                    let _inner = hwpr_obs::span("t.worker_inner");
                });
            }
        });
    });
    let root_id = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart { id, name, .. } if name == "t.fanout" => Some(*id),
            _ => None,
        })
        .expect("root start");
    // every worker span hangs off the spawning thread's span, and the
    // workers' own children nest under the worker (thread-local nesting
    // keeps working under an explicit parent)
    let worker_starts: Vec<(u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart {
                id,
                parent,
                name,
                tid,
                ..
            } if name == "t.worker" => Some((*id, *parent, *tid)),
            _ => None,
        })
        .collect();
    assert_eq!(worker_starts.len(), 4);
    for (_, parent, _) in &worker_starts {
        assert_eq!(*parent, root_id, "worker must parent to the fan-out span");
    }
    // the four workers ran on distinct threads with distinct lane ids,
    // none of them the root's lane
    let root_tid = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart { name, tid, .. } if name == "t.fanout" => Some(*tid),
            _ => None,
        })
        .unwrap();
    let mut worker_tids: Vec<u64> = worker_starts.iter().map(|(_, _, tid)| *tid).collect();
    worker_tids.sort_unstable();
    worker_tids.dedup();
    assert_eq!(worker_tids.len(), 4, "one lane per worker thread");
    assert!(!worker_tids.contains(&root_tid));
    for (worker_id, _, worker_tid) in &worker_starts {
        let inner = events
            .iter()
            .find_map(|e| match e {
                Event::SpanStart {
                    parent, name, tid, ..
                } if name == "t.worker_inner" && tid == worker_tid => Some(*parent),
                _ => None,
            })
            .expect("worker inner span");
        assert_eq!(inner, *worker_id, "inner span nests under its worker");
    }
    // the capture is one connected tree: one root, no orphans
    let stats = hwpr_obs::trace::stats(&events);
    assert_eq!(stats.roots, 1, "{stats:?}");
    assert_eq!(stats.orphans, 0, "{stats:?}");
    assert_eq!(stats.spans, 9, "1 root + 4 workers + 4 inners");
    assert_eq!(stats.threads, 5, "main + 4 workers");
}

#[test]
fn jsonl_spec_creates_missing_directories_and_opens_with_trace_meta() {
    let _guard = recorder_lock();
    let dir = std::env::temp_dir().join(format!("hwpr-obs-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("deeply/nested/run.jsonl");
    let spec = hwpr_obs::TelemetrySpec::Jsonl(path.clone());
    assert!(spec.install_or_warn(), "nested dirs must be created");
    {
        let _probe = hwpr_obs::span("t.config_probe");
    }
    hwpr_obs::shutdown();
    let text = std::fs::read_to_string(&path).expect("run record written");
    let events = hwpr_obs::report::parse_jsonl(&text).expect("valid JSONL");
    // the capture opens with the run-identifying trace.meta record
    assert!(
        matches!(&events[0], Event::Record { name, fields, .. }
            if name == "trace.meta"
                && fields.iter().any(|(k, _)| k == "trace_id")
                && fields.iter().any(|(k, _)| k == "pid")),
        "{events:?}"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "t.config_probe")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_jsonl_spec_degrades_to_a_warning() {
    let _guard = recorder_lock();
    // /proc/version exists and is definitely not a directory, so creating
    // a file beneath it must fail on any Linux runner
    let spec = hwpr_obs::TelemetrySpec::Jsonl("/proc/version/nope/run.jsonl".into());
    assert!(spec.install().is_err(), "sanity: the path is unwritable");
    assert!(!spec.install_or_warn(), "degrades instead of panicking");
    assert!(
        !hwpr_obs::enabled(),
        "telemetry stays off after the failure"
    );
}

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
    let h = Histogram::new("t.bounds", &Histogram::exponential_bounds(1.0, 10.0, 3));
    assert_eq!(h.bounds(), &[1.0, 10.0, 100.0]);
    h.observe(1.0); // boundary value: lower bucket
    h.observe(10.0); // boundary value: second bucket
    h.observe(100.0); // boundary value: third bucket
    h.observe(100.0001); // just past the last bound: overflow
    assert_eq!(h.bucket_counts(), vec![1, 1, 1, 1]);
    assert_eq!(h.count(), 4);
}

#[test]
fn every_event_kind_round_trips_through_jsonl() {
    // non-integral floats by design: the vendored JSON shim re-parses
    // integral floats as integers, which the numeric getters coerce back,
    // but exact Event equality needs fractional values
    let events = vec![
        Event::SpanStart {
            id: 7,
            parent: 3,
            name: "search.moea".into(),
            label: None,
            tid: 1,
            t_us: 12,
        },
        Event::SpanEnd {
            id: 7,
            parent: 3,
            name: "search.moea".into(),
            label: Some("f16".into()),
            tid: 2,
            t_us: 90,
            dur_us: 78,
        },
        Event::Counter {
            name: "tensor.gemm.calls".into(),
            value: 42,
            t_us: 100,
        },
        Event::Gauge {
            name: "autograd.pool.reuse_ratio".into(),
            value: 0.875,
            t_us: 100,
        },
        Event::Hist {
            name: "search.eval_ms".into(),
            count: 3,
            sum: 7.5,
            bounds: vec![0.5, 2.5],
            counts: vec![1, 1, 1],
            t_us: 101,
        },
        Event::Warn {
            message: "invalid HWPR_SCALE".into(),
            t_us: 5,
        },
        Event::Record {
            name: "train.epoch".into(),
            t_us: 200,
            fields: vec![
                ("epoch".into(), Value::UInt(3)),
                ("loss".into(), Value::Float(0.25)),
                ("note".into(), Value::String("ok".into())),
            ],
        },
    ];
    let jsonl: String = events
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect::<Vec<_>>()
        .join("");
    let parsed = hwpr_obs::report::parse_jsonl(&jsonl).expect("well-formed JSONL");
    assert_eq!(parsed, events);
}

#[test]
fn concurrent_counter_updates_are_never_lost() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Registry::default();
    let counter = registry.register_counter(Counter::new("t.concurrent"));
    let histogram = registry.register_histogram(Histogram::new("t.conc_hist", &[0.5]));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = Arc::clone(&counter);
            let histogram = Arc::clone(&histogram);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    // alternate buckets so both slots and the CAS'd sum
                    // see contention
                    histogram.observe(if (i + t as u64).is_multiple_of(2) {
                        0.25
                    } else {
                        1.0
                    });
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(histogram.count(), THREADS as u64 * PER_THREAD);
    let buckets = histogram.bucket_counts();
    assert_eq!(buckets.iter().sum::<u64>(), THREADS as u64 * PER_THREAD);
    assert_eq!(buckets[0], THREADS as u64 * PER_THREAD / 2);
    let expected_sum = (THREADS as u64 * PER_THREAD / 2) as f64 * (0.25 + 1.0);
    assert!(
        (histogram.sum() - expected_sum).abs() < 1e-6,
        "lost CAS update: {} != {expected_sum}",
        histogram.sum()
    );
}

#[test]
fn registry_snapshot_feeds_the_event_stream() {
    let events = with_memory_sink(|| {
        let registry = hwpr_obs::metrics::registry();
        registry.counter("t.snapshot.counter").add(5);
        registry.gauge("t.snapshot.gauge").set(1.5);
        registry.emit();
    });
    assert!(events.iter().any(
        |e| matches!(e, Event::Counter { name, value, .. } if name == "t.snapshot.counter" && *value >= 5)
    ));
    assert!(events.iter().any(
        |e| matches!(e, Event::Gauge { name, value, .. } if name == "t.snapshot.gauge" && *value == 1.5)
    ));
}
