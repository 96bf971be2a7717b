//! `quote-open`: independent vehicles that do not wait for each other.
//!
//! One sender submits rush-hour-surge requests from 4096 sessions on a
//! fixed schedule; one collector waits on the tickets. That fixed rate
//! gives the latency figure. A saturation probe then keeps a fixed number
//! of requests in flight, so batches fill and the CPU cost per quote at
//! full load can be read. The target is a bare `Gateway` with the default
//! configuration and journaling on, so admission, journal writes,
//! batching, `quote_refs` and the forward pass do the work, over a large
//! SessionStore.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vtm_gateway::{Gateway, GatewayConfig, TelemetrySnapshot};
use vtm_journal::{replay_journal, JournalOptions, ReplayOptions};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

use crate::calib::Costs;
use crate::common::{
    full_tracing, layer_replays, report_costs, report_latency, request_stream, scenario_policy,
    span_p, stage_metrics, zero_live_layers, Args, SETUP_EPISODES,
};
use crate::host::Scratch;
use crate::load::{check_accounting, open_loop, saturate, RungLog};
use crate::report::{Outcomes, Report};
use crate::spans::SpanLog;
use crate::stats::{median, Slices};

const PRESET: &str = "rush-hour-surge";
const SESSIONS: usize = 4096;
const ROUNDS: usize = 8;
/// Offered rate (requests/s) of the open loop, where the latency figure
/// is taken.
const RATE: f64 = 2000.0;
/// Times the unmeasured warm-up sends the request stream, and a bound on
/// its duration. Its frames are most of the journal each recovery replays.
const WARMUP_PASSES: usize = 1;
const WARMUP_LIMIT: Duration = Duration::from_secs(20);
/// Share of a cycle's measured seconds spent at [`RATE`]; the saturation
/// probe takes the rest.
const RATE_SHARE: f64 = 0.6;
/// Slices of the saturation probe (its achieved rate is printed per slice).
const PROBE_SLICES: usize = 5;
/// Lifecycles (set up, the open loop, the probe, recover) per measured run.
const CYCLES: usize = 5;
/// Time slices of the open loop.
const SLICES: usize = 4;
/// Journal replays per cycle (each into a fresh service).
const RECOVERY_REPEATS: usize = 4;

/// A gateway with the default configuration journaling to `journal`.
fn start(service: &Arc<PricingService>, journal: &Path, traced: bool) -> Gateway {
    let mut config = GatewayConfig::default().with_journal(JournalOptions::new(journal));
    if traced {
        config = config.with_tracing(full_tracing());
    }
    Gateway::start(Arc::clone(service), config)
}

/// What one cycle measured on a started gateway.
struct Live {
    /// The open loop at [`RATE`].
    rung: RungLog,
    /// Completions per second of each saturation probe slice.
    probes: Vec<f64>,
    outcomes: Outcomes,
    /// The telemetry of the gateway that served the open loop, and of the
    /// one that served the probe.
    telemetry: [TelemetrySnapshot; 2],
}

fn print_live(label: &str, live: &Live) {
    let rung = &live.rung;
    println!(
        "{label}: rate {:.0}/s: achieved {:.0}/s, p50 {:.1} us, p99 {:.1} us over {} \
         quotes, generator lag p50 {:.1} p99 {:.1} us, {} of {} completed, overran: {}",
        rung.rate,
        rung.achieved_qps(),
        rung.latencies.percentile(0.5).unwrap_or(0.0),
        rung.latencies.percentile(0.99).unwrap_or(0.0),
        rung.latencies.all().count(),
        rung.lag.percentile_us(0.5).unwrap_or(0.0),
        rung.lag.percentile_us(0.99).unwrap_or(0.0),
        rung.outcomes.completed,
        rung.outcomes.attempted,
        rung.overran,
    );
    println!("{label}: saturation probe {:.0?} quotes/s", live.probes);
}

/// Runs one cycle on a started gateway: warm-up, the open loop, drain,
/// the accounting and recovery checks, then the saturation probe on a
/// second gateway over the same service. The CPU costs of the journal
/// replays and of the probe go to `costs`.
fn live(
    report: &mut Report,
    label: &str,
    set_up: SetUp,
    seconds: f64,
    traced: Option<Instant>,
    costs: &mut Costs,
) -> Live {
    let SetUp {
        policy,
        requests,
        config,
        service,
        gateway,
        journal,
        ..
    } = set_up;
    let capacity = gateway.config().queue_capacity;
    let mut trace = (Vec::new(), 0);
    let mut drain = |gateway: Gateway, outcomes: &Outcomes, report: &mut Report, part: &str| {
        if traced.is_some() {
            trace.0.extend(gateway.trace_records());
            trace.1 += gateway.trace_counters().1;
        }
        let telemetry = gateway.shutdown();
        check_accounting(report, &format!("{label}.{part}"), outcomes, &[&telemetry]);
        telemetry
    };

    // Unmeasured warm-up: the whole request stream WARMUP_PASSES times, as
    // fast as the gateway takes it, so every session is open and the open
    // loop sees a warm SessionStore.
    let mut next = 0;
    let (warmup, _) = saturate(
        &gateway,
        &requests,
        &mut next,
        capacity / 4,
        WARMUP_LIMIT,
        WARMUP_PASSES * requests.len(),
    );
    let rung = open_loop(
        &gateway,
        &requests,
        &mut next,
        RATE,
        Duration::from_secs_f64(seconds * RATE_SHARE),
        SLICES,
        capacity / 2,
        traced,
    );
    let mut outcomes = warmup;
    outcomes.add(rung.outcomes);
    let steady = drain(gateway, &outcomes, report, "steady");

    // Recovery: this journal (warm-up and the open loop, a fixed number of
    // frames) replayed into a fresh service must reach the live state.
    let frames = steady.journal_frames;
    let live_digest = service.state_digest();
    let mut replayed = Vec::new();
    for _ in 0..RECOVERY_REPEATS {
        let replay = costs.recovery.time(
            || {
                let fresh = PricingService::from_snapshot(&policy, config).expect("policy fits");
                replay_journal(&fresh, &journal, None, &ReplayOptions::default())
            },
            |_| 1.0,
        );
        replayed.push(replay.map(|r| (r.frames_applied, r.state_digest)));
    }
    let recovered = frames == steady.submitted
        && replayed
            .iter()
            .all(|r| matches!(r, Ok((f, digest)) if *digest == live_digest && *f == frames));
    report.check(
        format!("{label}.journal_replay"),
        recovered,
        format!(
            "{frames} frames for {} admissions, live state_digest {live_digest:#x}, \
             replays {replayed:?}",
            steady.submitted
        ),
    );

    // The saturation probe, on a second journaling gateway over the same
    // warm service. Its journal grows with the capacity, so it is checked
    // by frame count only and not replayed, which keeps the recovery cost and
    // peak_rss_mb independent of the capacity.
    let probe_journal = journal.with_extension("probe.vtmj");
    let gateway = start(&service, &probe_journal, traced.is_some());
    let mut probe_outcomes = Outcomes::default();
    let mut probes = Vec::new();
    let slice = Duration::from_secs_f64(seconds * (1.0 - RATE_SHARE) / PROBE_SLICES as f64);
    for _ in 0..PROBE_SLICES {
        let (probe, elapsed) = costs.quote.time(
            || {
                saturate(
                    &gateway,
                    &requests,
                    &mut next,
                    capacity / 4,
                    slice,
                    usize::MAX,
                )
            },
            |(probe, _)| probe.completed as f64,
        );
        probes.push(probe.completed as f64 / elapsed.as_secs_f64());
        probe_outcomes.add(probe);
    }
    let probed = drain(gateway, &probe_outcomes, report, "probe");
    report.check(
        format!("{label}.probe_journal"),
        probed.journal_frames == probed.submitted,
        format!(
            "{} frames for {} admissions",
            probed.journal_frames, probed.submitted
        ),
    );
    let _ = std::fs::remove_file(probe_journal);
    outcomes.add(probe_outcomes);

    if traced.is_some() {
        stage_metrics(report, &trace.0);
        report.set("obs.trace_dropped", trace.1 as f64);
        let stats = service.stats();
        report.set("serve.sessions", stats.sessions as f64);
        report.set("serve.evicted", stats.evicted as f64);
    }
    Live {
        rung,
        probes,
        outcomes,
        telemetry: [steady, probed],
    }
}

/// One set-up: the served policy trained from the seed, the request
/// stream, and a started gateway journaling to a fresh file.
struct SetUp {
    policy: PolicySnapshot,
    requests: Vec<QuoteRequest>,
    config: ServiceConfig,
    service: Arc<PricingService>,
    gateway: Gateway,
    journal: PathBuf,
    train_cpu_s: f64,
    stream_s: f64,
}

fn set_up(seed: u64, journal: PathBuf) -> SetUp {
    let built = scenario_policy(seed);
    let begin = Instant::now();
    let (requests, config) = request_stream(PRESET, seed, SESSIONS, ROUNDS);
    let stream_s = begin.elapsed().as_secs_f64();
    let service = Arc::new(PricingService::from_snapshot(&built.snapshot, config).expect("fits"));
    let gateway = start(&service, &journal, false);
    SetUp {
        policy: built.snapshot,
        requests,
        config,
        service,
        gateway,
        journal,
        train_cpu_s: built.train_cpu_s,
        stream_s,
    }
}

/// Runs the workload.
pub fn run(args: &Args, scratch: &Scratch, report: &mut Report, spans: &mut SpanLog) {
    if args.trace {
        return traced(args, scratch, report, spans);
    }
    // The run is CYCLES lifecycles in a row (set up, the open loop, the
    // probe, recover), so every figure is sampled across the whole run.
    let mut costs = Costs::default();
    let mut setup_s = Vec::new();
    let mut capacities = Vec::new();
    let mut latencies = Slices::new(0);
    let mut outcomes = Outcomes::default();
    for cycle in 0..CYCLES {
        costs.train.calibrate();
        let begin = Instant::now();
        let s = set_up(args.seed, scratch.path(&format!("live-{cycle}.vtmj")));
        setup_s.push(begin.elapsed().as_secs_f64());
        costs.train.calibrate();
        costs.train.add(s.train_cpu_s, SETUP_EPISODES as f64);
        let journal = s.journal.clone();
        let label = format!("cycle{cycle}");
        let seconds = args.seconds / CYCLES as f64;
        let live = live(report, &label, s, seconds, None, &mut costs);
        let _ = std::fs::remove_file(journal);
        print_live(&label, &live);
        capacities.extend(live.probes.iter().copied());
        outcomes.add(live.outcomes);
        latencies.append(live.rung.latencies);
    }
    println!("rate {RATE}/s over all cycles:");
    report_latency(report, &latencies);
    println!(
        "saturation probe: {} slices, median {:.0} quotes/s (not gated: see README.md)",
        capacities.len(),
        median(&mut capacities).unwrap_or(0.0),
    );
    report.set("setup_s", median(&mut setup_s).expect("set up"));
    report_costs(report, &costs);
    report.outcomes = outcomes;
}

/// The traced run: one set-up, a cycle untraced, then again on a fully
/// traced gateway with spans around every submit and wait, then the
/// isolated replays.
fn traced(args: &Args, scratch: &Scratch, report: &mut Report, spans: &mut SpanLog) {
    zero_live_layers(report);
    let half = args.seconds / 2.0;
    let plain_setup = set_up(args.seed, scratch.path("untraced.vtmj"));
    report.set("core.request_stream_s", plain_setup.stream_s);
    let (policy, config, requests) = (
        plain_setup.policy.clone(),
        plain_setup.config,
        plain_setup.requests.clone(),
    );
    let max_batch = plain_setup.gateway.config().max_batch;
    // The traced run reports no CPU costs.
    let mut costs = Costs::default();
    let plain = live(report, "untraced", plain_setup, half, None, &mut costs);
    print_live("untraced", &plain);
    let service = Arc::new(PricingService::from_snapshot(&policy, config).expect("fits"));
    let journal = scratch.path("traced.vtmj");
    let gateway = start(&service, &journal, true);
    let epoch = spans.epoch();
    let traced_setup = SetUp {
        policy: policy.clone(),
        requests: requests.clone(),
        config,
        service,
        gateway,
        journal,
        train_cpu_s: 0.0,
        stream_s: 0.0,
    };
    let traced = live(
        report,
        "traced",
        traced_setup,
        half,
        Some(epoch),
        &mut costs,
    );
    print_live("traced", &traced);
    report.set(
        "obs.trace_overhead_ratio",
        traced.rung.latencies.percentile(0.5).unwrap_or(0.0)
            / plain.rung.latencies.percentile(0.5).unwrap_or(f64::NAN),
    );
    report.set(
        "harness.generator_lag_p99_us",
        traced.rung.lag.percentile_us(0.99).unwrap_or(0.0),
    );
    let sum = |f: fn(&TelemetrySnapshot) -> f64| -> f64 { traced.telemetry.iter().map(f).sum() };
    let batches = sum(|t| t.batches as f64);
    let mean_batch = sum(|t| t.mean_batch_size * t.batches as f64) / batches;
    report.set("gateway.batches", batches);
    report.set("gateway.batch_size_mean", mean_batch);
    report.set("gateway.batch_fill_ratio", mean_batch / max_batch as f64);
    report.set("gateway.rejected", sum(|t| (t.rejected + t.shed) as f64));
    report.set("gateway.expired", sum(|t| t.expired as f64));
    report.set("gateway.failed", sum(|t| t.failed as f64));
    let mut outcomes = plain.outcomes;
    outcomes.add(traced.outcomes);
    spans.merge(traced.rung.spans.0);
    spans.merge(traced.rung.spans.1);
    report.set(
        "gateway.submit_p50_us",
        span_p(spans, "gateway.submit", 0.5),
    );
    report.set("harness.error_rate", outcomes.error_rate());
    report.outcomes = outcomes;
    layer_replays(
        report, spans, &policy, config, &requests, mean_batch, PRESET, args.seed, scratch,
    );
}
