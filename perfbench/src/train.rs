//! `train`: the paper's learning loop, then the trained policy's
//! checkpoint → recover → serve steps.
//!
//! Each trial trains a fresh copy of the two-VMU mechanism with
//! `train_episodes_parallel` (2 environments, 2 threads, a fixed episode
//! count and the seed) and evaluates it: PPO rollout, the update and the
//! nn forward/backward pass do the work. The trained policy is then
//! checkpointed, loaded back into a `PricingService` (the recovery) and
//! serves the static stream through a default gateway to one waiting
//! caller (the quote metrics).

use std::sync::Arc;
use std::time::{Duration, Instant};

use vtm_core::mechanism::IncentiveMechanism;
use vtm_gateway::{Gateway, GatewayConfig};
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

use crate::calib::Costs;
use crate::common::{
    layer_replays, paper_config, report_closed_loop, report_costs, request_stream,
    zero_live_layers, Args, EVAL_ROUNDS, TRAIN_ENVS,
};
use crate::host::Scratch;
use crate::load::{check_accounting, check_prices, closed_loop, partition, ClientLog};
use crate::report::{Outcomes, Report};
use crate::spans::{SpanLog, ROOT};
use crate::stats::{median, Slices};

/// Episodes per trial (rounded up to whole rounds of 2 environments).
const TRIAL_EPISODES: usize = 32;
/// Seconds each cycle serves from the recovered checkpoint.
const SERVE_SEGMENT_S: f64 = 0.3;
const SESSIONS: usize = 64;
const ROUNDS: usize = 64;
/// Seconds of each serving run that compares traced and untraced latency.
const OVERHEAD_S: f64 = 0.3;
/// Serving callers.
const CALLERS: usize = 1;
/// Serving segments whose every price is checked against the reference
/// (each cycle serves a bit-identical checkpoint).
const CHECKED_SEGMENTS: usize = 2;

/// The trainer and the request stream the trained policy will serve,
/// with the seconds the stream took to generate.
fn set_up(seed: u64) -> ((IncentiveMechanism, Vec<QuoteRequest>, ServiceConfig), f64) {
    let mechanism = IncentiveMechanism::new(paper_config(seed));
    let begin = Instant::now();
    let (requests, config) = request_stream("static", seed, SESSIONS, ROUNDS);
    ((mechanism, requests, config), begin.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(args: &Args, scratch: &Scratch, report: &mut Report, spans: &mut SpanLog) {
    let mut setup_times = Vec::new();
    let mut stream_s = Vec::new();
    let mut timed_set_up = || {
        let begin = Instant::now();
        let (built, stream) = set_up(args.seed);
        setup_times.push(begin.elapsed().as_secs_f64());
        stream_s.push(stream);
        built
    };
    let (pristine, requests, config) = timed_set_up();
    let sequences = partition(&requests, CALLERS);

    // Cycles until the window is used (at least 2, so determinism across
    // trials is always checked). Each cycle runs the lifecycle: a trial
    // trains a fresh copy of the mechanism and evaluates it, its policy is
    // checkpointed and recovered into a serving process, which serves the
    // static stream for a short segment; then the trainer is set up
    // afresh. Every figure is thereby sampled across the whole run.
    let path = scratch.path("trained.vtm");
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut costs = Costs::default();
    let mut evaluations = Vec::new();
    let mut serve_rates = Vec::new();
    let mut latencies = Slices::new(0);
    let mut outcomes = Outcomes::default();
    let mut trained = None;
    while evaluations.len() < 2 || Instant::now() < until {
        let mut mechanism = pristine.clone();
        let trial = spans.begin("trial", ROOT, evaluations.len() as u64 + 1);
        costs.train.time(
            || {
                spans.time("core.train_episodes_parallel", trial, 0, || {
                    mechanism.train_episodes_parallel(TRIAL_EPISODES, TRAIN_ENVS, TRAIN_ENVS)
                })
            },
            |_| TRIAL_EPISODES as f64,
        );
        evaluations.push(spans.time("core.evaluate", trial, 0, || {
            mechanism.evaluate(EVAL_ROUNDS)
        }));
        spans.end(trial);

        let snapshot = mechanism.snapshot();
        snapshot.save_to(&path).expect("checkpoint written");
        let service = costs.recovery.time(
            || Arc::new(PricingService::load(&path, config).expect("checkpoint loads")),
            |_| 1.0,
        );
        let segment_label = format!("segment{}", evaluations.len());
        let logs = costs.quote.time(
            || {
                serve(
                    report,
                    &segment_label,
                    &service,
                    &sequences,
                    SERVE_SEGMENT_S,
                    None,
                )
            },
            |logs| logs.iter().map(|log| log.outcomes.completed as f64).sum(),
        );
        if evaluations.len() <= CHECKED_SEGMENTS {
            let reference = PricingService::from_snapshot(&snapshot, config).expect("fits");
            check_prices(report, &segment_label, &reference, &sequences, &logs);
        }
        let mut segment = Slices::new(1);
        for log in logs {
            segment.merge(&log.latencies);
            outcomes.add(log.outcomes);
            spans.merge(log.spans);
        }
        let served = segment.all().count();
        serve_rates.push(served as f64 / SERVE_SEGMENT_S);
        latencies.append(segment);
        trained = Some((snapshot, service));

        std::hint::black_box(timed_set_up());
    }
    let (snapshot, service) = trained.expect("at least one cycle");
    let first = &evaluations[0];
    let finite = [
        first.mean_price,
        first.mean_msp_utility,
        first.mean_total_bandwidth_mhz,
        first.mean_total_vmu_utility,
        first.equilibrium_ratio,
    ]
    .iter()
    .all(|v| v.is_finite());
    report.check(
        "evaluation",
        finite && first.equilibrium_ratio > 0.0 && first.equilibrium_ratio <= 1.05,
        format!(
            "equilibrium_ratio {} mean_price {} over {EVAL_ROUNDS} rounds",
            first.equilibrium_ratio, first.mean_price
        ),
    );
    report.check(
        "determinism",
        evaluations.iter().all(|e| e == first),
        format!(
            "{} trials of the same seed evaluate identically",
            evaluations.len()
        ),
    );
    report.outcomes = outcomes;

    if !args.trace {
        let qps = median(&mut serve_rates).expect("served");
        report.set("setup_s", median(&mut setup_times).expect("set up"));
        report_closed_loop(report, qps, &latencies);
        report_costs(report, &costs);
        return;
    }

    zero_live_layers(report);
    report.set(
        "core.request_stream_s",
        median(&mut stream_s).expect("set up"),
    );
    report.set("core.equilibrium_ratio", first.equilibrium_ratio);
    let stats = service.stats();
    report.set("serve.sessions", stats.sessions as f64);
    report.set("serve.evicted", stats.evicted as f64);
    report.set("harness.error_rate", outcomes.error_rate());
    // Overhead of the benchmark's own spans on the serving step.
    let median_p50 = |logs: &[ClientLog]| {
        let mut all = Slices::new(1);
        logs.iter().for_each(|log| all.merge(&log.latencies));
        all.percentile(0.5).unwrap_or(f64::NAN)
    };
    let plain = median_p50(&serve(
        report, "untraced", &service, &sequences, OVERHEAD_S, None,
    ));
    let traced = serve(
        report,
        "traced",
        &service,
        &sequences,
        OVERHEAD_S,
        Some(spans.epoch()),
    );
    report.set("obs.trace_overhead_ratio", median_p50(&traced) / plain);
    traced.into_iter().for_each(|log| spans.merge(log.spans));
    layer_replays(
        report, spans, &snapshot, config, &requests, 1.0, "static", args.seed, scratch,
    );
}

/// Serves the static stream from `service` for `seconds` through a
/// gateway with the default configuration, one caller waiting for each
/// reply, then drains the gateway and checks its accounting.
fn serve(
    report: &mut Report,
    label: &str,
    service: &Arc<PricingService>,
    sequences: &[Vec<&QuoteRequest>],
    seconds: f64,
    traced: Option<Instant>,
) -> Vec<ClientLog> {
    let gateway = Gateway::start(Arc::clone(service), GatewayConfig::default());
    let one_label = |_| 0;
    let logs = closed_loop(
        &gateway,
        sequences,
        Duration::ZERO,
        Duration::from_secs_f64(seconds),
        1,
        1,
        &one_label,
        traced,
    );
    let telemetry = gateway.shutdown();
    let mut outcomes = Outcomes::default();
    logs.iter().for_each(|log| outcomes.add(log.outcomes));
    check_accounting(report, label, &outcomes, &[&telemetry]);
    logs
}
