//! `serve_open`: independent users of one shared surrogate service —
//! open-loop Poisson traffic on one connection, one writer thread sending
//! on schedule and one reader thread matching replies by request id.

use crate::report::Outcome;
use crate::setup::{self, stream, subseed, System, MODEL_NAME, PLATFORM};
use crate::stats::{median, quantile, windowed_p99};
use crate::{trace, Result};
use hwpr_nasbench::{Architecture, SearchSpaceId};
use hwpr_search::SplitMix64;
use hwpr_serve::protocol::{self, PredictKind, MAX_FRAME, STATUS_OK};
use rand::RngCore;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Offered load, requests per second.
const RATE: f64 = 4_000.0;
/// Share of requests that are "wide": a batch of [`WIDE_ROWS`]
/// architectures asking for objectives. The rest ask for the score of one
/// architecture; the two kinds never coalesce together.
const WIDE_SHARE: f64 = 0.1;
const WIDE_ROWS: usize = 16;
/// Requests scheduled in the first second warm the server and are
/// checked but not timed.
const WARMUP_S: f64 = 1.0;
/// Window length of the windowed p99s.
const WINDOW_S: f64 = 2.0;
/// Every `SAMPLE_EVERY`-th reply is compared bit for bit with direct
/// inference.
const SAMPLE_EVERY: usize = 100;

/// A pre-generated arrival schedule: send times and architectures as
/// indices into the 15 625 NAS-Bench-201 cells, so the load generator's
/// own buffers stay small next to the server's.
#[derive(Debug, PartialEq)]
pub struct Schedule {
    /// Send time of each request, ns after the start.
    pub send_ns: Vec<u64>,
    /// Whether each request is wide.
    pub wide: Vec<bool>,
    /// Request `i`'s architectures are `arch[first[i]..first[i + 1]]`.
    pub first: Vec<u32>,
    pub arch: Vec<u16>,
}

impl Schedule {
    /// Poisson arrivals at `rate` per second for `seconds`, seeded.
    pub fn poisson(seed: u64, rate: f64, seconds: f64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let cells = SearchSpaceId::NasBench201.size() as f64;
        let mut schedule = Schedule {
            send_ns: Vec::new(),
            wide: Vec::new(),
            first: vec![0],
            arch: Vec::new(),
        };
        let mut t = 0.0;
        loop {
            t += -(1.0 - unit()).ln() / rate;
            if t >= seconds {
                return schedule;
            }
            let wide = unit() < WIDE_SHARE;
            let rows = if wide { WIDE_ROWS } else { 1 };
            for _ in 0..rows {
                schedule.arch.push((unit() * cells) as u16);
            }
            schedule.send_ns.push((t * 1e9) as u64);
            schedule.wide.push(wide);
            schedule.first.push(schedule.arch.len() as u32);
        }
    }

    pub fn len(&self) -> usize {
        self.send_ns.len()
    }

    /// The architectures of request `i`.
    pub fn archs(&self, i: usize) -> Vec<Architecture> {
        self.arch[self.first[i] as usize..self.first[i + 1] as usize]
            .iter()
            .map(|&a| Architecture::nb201_from_index(a as u64).expect("index below 15 625"))
            .collect()
    }
}

/// What one open-loop run observed, per request.
struct Observed {
    /// Actual send time, ns after the start (`u64::MAX`: never sent).
    sent_ns: Vec<u64>,
    /// Reply time, ns after the start (`u64::MAX`: no reply).
    recv_ns: Vec<u64>,
    /// Whether the reply was OK with the requested row count.
    ok: Vec<bool>,
    /// OK replies that failed to decode or carried the wrong row count.
    malformed: usize,
    /// `(request, reply value bits)` for every sampled request.
    samples: Vec<(usize, Vec<u64>)>,
}

/// Sends `schedule` to `addr` open-loop and collects every reply.
fn drive(addr: SocketAddr, schedule: &Schedule) -> Result<Observed> {
    let n = schedule.len();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream;
    let start = Instant::now() + Duration::from_millis(10);
    let since_start = move || Instant::now().saturating_duration_since(start).as_nanos() as u64;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent_ns = vec![u64::MAX; n];
            let mut payload = Vec::new();
            let mut wire = Vec::new();
            for (i, sent) in sent_ns.iter_mut().enumerate() {
                let due = start + Duration::from_nanos(schedule.send_ns[i]);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let kind = if schedule.wide[i] {
                    PredictKind::Objectives
                } else {
                    PredictKind::Scores
                };
                let archs = schedule.archs(i);
                protocol::encode_predict(
                    &mut payload,
                    kind,
                    i as u64,
                    MODEL_NAME,
                    PLATFORM.name(),
                    &archs,
                );
                wire.clear();
                protocol::write_frame(&mut wire, &payload).expect("writing to a Vec succeeds");
                *sent = since_start();
                if writer.write_all(&wire).is_err() {
                    *sent = u64::MAX;
                    break;
                }
            }
            sent_ns
        });
        let mut recv_ns = vec![u64::MAX; n];
        let mut ok = vec![false; n];
        let mut malformed = 0;
        let mut samples = Vec::new();
        let mut frame = Vec::new();
        let mut scores = Vec::new();
        let mut pairs = Vec::new();
        for _ in 0..n {
            match protocol::read_frame(&mut reader, &mut frame, MAX_FRAME) {
                Ok(true) => {}
                _ => break,
            }
            let at = since_start();
            let Ok(head) = protocol::decode_response_head(&frame) else {
                continue;
            };
            let i = head.request_id as usize;
            if i >= n || recv_ns[i] != u64::MAX {
                continue;
            }
            recv_ns[i] = at;
            if head.status != STATUS_OK {
                continue;
            }
            let rows = (schedule.first[i + 1] - schedule.first[i]) as usize;
            let decoded = if schedule.wide[i] {
                pairs.clear();
                protocol::decode_objectives(head.body, &mut pairs).map(|()| pairs.len())
            } else {
                scores.clear();
                protocol::decode_scores(head.body, &mut scores).map(|()| scores.len())
            };
            ok[i] = decoded == Ok(rows);
            if !ok[i] {
                malformed += 1;
            } else if i.is_multiple_of(SAMPLE_EVERY) {
                let bits = if schedule.wide[i] {
                    pairs
                        .iter()
                        .flat_map(|&(a, l)| [a.to_bits(), l.to_bits()])
                        .collect()
                } else {
                    scores.iter().map(|s| s.to_bits()).collect()
                };
                samples.push((i, bits));
            }
        }
        let sent_ns = sender
            .join()
            .expect("the load generator thread does not panic");
        Ok(Observed {
            sent_ns,
            recv_ns,
            ok,
            malformed,
            samples,
        })
    })
}

/// The bits direct inference gives for sampled request `i`.
fn direct_bits(system: &System, schedule: &Schedule, i: usize) -> Result<Vec<u64>> {
    let archs = schedule.archs(i);
    let err = |e: hwpr_core::CoreError| e.to_string();
    Ok(if schedule.wide[i] {
        system
            .model
            .predict_objectives(&archs, PLATFORM)
            .map_err(err)?
            .iter()
            .flat_map(|&(a, l)| [a.to_bits(), l.to_bits()])
            .collect()
    } else {
        system
            .model
            .predict_scores(&archs, PLATFORM)
            .map_err(err)?
            .iter()
            .map(|s| s.to_bits())
            .collect()
    })
}

/// Latency of every timed request, µs from its scheduled send time;
/// failed requests are left out (they are counted as failures instead).
struct Latencies {
    all: Vec<f64>,
    b1: Vec<(f64, f64)>,
    wide: Vec<(f64, f64)>,
    rtt: Vec<f64>,
    lag: Vec<f64>,
}

fn latencies(schedule: &Schedule, seen: &Observed) -> Latencies {
    let mut l = Latencies {
        all: Vec::new(),
        b1: Vec::new(),
        wide: Vec::new(),
        rtt: Vec::new(),
        lag: Vec::new(),
    };
    for i in 0..schedule.len() {
        let due = schedule.send_ns[i];
        let t = due as f64 / 1e9;
        if t < WARMUP_S || !seen.ok[i] {
            continue;
        }
        let us = seen.recv_ns[i].saturating_sub(due) as f64 / 1e3;
        l.all.push(us);
        if schedule.wide[i] {
            l.wide.push((t, us));
        } else {
            l.b1.push((t, us));
        }
        l.rtt
            .push(seen.recv_ns[i].saturating_sub(seen.sent_ns[i]) as f64 / 1e3);
        l.lag.push(seen.sent_ns[i].saturating_sub(due) as f64 / 1e3);
    }
    l
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    let system = setup::surrogate_system(true, &mut outcome)?;
    let addr = system
        .server
        .as_ref()
        .map(hwpr_serve::Server::addr)
        .ok_or("serve_open needs a server")?;
    let schedule = Schedule::poisson(
        subseed(seed, stream::SCHEDULE),
        RATE,
        seconds.max(WARMUP_S + WINDOW_S),
    );

    let seen = drive(addr, &schedule)?;
    outcome.set("peak_rss_mb", crate::provenance::peak_rss_mb());
    let failed = seen.ok.iter().filter(|ok| !**ok).count() as u64;
    outcome.ops(schedule.len() as u64, failed);

    let l = latencies(&schedule, &seen);
    let ms: Vec<f64> = l.all.iter().map(|us| us / 1e3).collect();
    outcome.set("op_ms_p50", median(&ms));
    outcome.set("op_ms_p90", quantile(&ms, 0.9));
    outcome.set("quality", system.report.val_rank_tau);
    let values = |v: &[(f64, f64)]| v.iter().map(|&(_, us)| us).collect::<Vec<f64>>();
    outcome.set("serve.b1_us_p50", median(&values(&l.b1)));
    outcome.set("serve.b1_us_p99", windowed_p99(&l.b1, WINDOW_S));
    outcome.set("serve.wide_us_p50", median(&values(&l.wide)));
    outcome.set("serve.wide_us_p99", windowed_p99(&l.wide, WINDOW_S));
    outcome.set("serve.rtt_us_p50", median(&l.rtt));
    outcome.set("serve.rtt_us_p90", quantile(&l.rtt, 0.9));
    outcome.set("loadgen.lag_us_p99", quantile(&l.lag, 0.99));
    outcome.set(
        "serve.rows_per_request",
        schedule.arch.len() as f64 / schedule.len() as f64,
    );
    let duration_s = *schedule.send_ns.last().unwrap_or(&1) as f64 / 1e9;
    outcome.set(
        "serve.goodput_rps",
        (schedule.len() as u64 - failed) as f64 / duration_s,
    );

    outcome.check(
        "every OK reply decodes to the requested row count",
        seen.malformed == 0,
    );
    let mut mismatched = 0;
    for (i, bits) in &seen.samples {
        if direct_bits(&system, &schedule, *i)? != *bits {
            mismatched += 1;
        }
    }
    outcome.check(
        format!(
            "{mismatched} of {} sampled replies differ from direct inference",
            seen.samples.len()
        ),
        mismatched == 0 && !seen.samples.is_empty(),
    );

    if traced {
        let traced_s = (seconds / 10.0).max(WARMUP_S + 0.5);
        let traced_schedule =
            Schedule::poisson(subseed(seed, stream::TRACED_SCHEDULE), RATE, traced_s);
        let capture = trace::start();
        let server = system.start_server()?;
        let traced_seen = drive(server.addr(), &traced_schedule)?;
        drop(server);
        let folded = capture.finish();
        folded.record(&mut outcome, traced_schedule.len() as f64 / 1e3);
        trace::record_overhead(
            &mut outcome,
            &latencies(&traced_schedule, &traced_seen).all,
            &l.all,
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedules_are_deterministic_per_seed() {
        let a = Schedule::poisson(11, 2_000.0, 2.0);
        let b = Schedule::poisson(11, 2_000.0, 2.0);
        assert_eq!(a, b);
        let c = Schedule::poisson(12, 2_000.0, 2.0);
        assert_ne!(a.send_ns, c.send_ns);
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate_and_mix() {
        let s = Schedule::poisson(3, 4_000.0, 5.0);
        let n = s.len() as f64;
        assert!((n / 20_000.0 - 1.0).abs() < 0.05, "{n} arrivals");
        assert!(s.send_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.send_ns.last().unwrap() < 5_000_000_000);
        let wide = s.wide.iter().filter(|w| **w).count() as f64;
        assert!((wide / n - WIDE_SHARE).abs() < 0.02);
        assert_eq!(s.first.len(), s.len() + 1);
        for i in 0..s.len() {
            let rows = s.archs(i).len();
            assert_eq!(rows, if s.wide[i] { WIDE_ROWS } else { 1 });
        }
    }
}
