//! `quote-closed`: callers that wait for their reply, through the fabric.
//!
//! Two closed-loop clients, each owning half of 64 static-market sessions,
//! quote through a `Fabric` of 2 shards × arms `a=90,b=10` with the default
//! `GatewayConfig` and no journal. Batches stay near 1, so the per-request
//! handoff, the scheduler's idle wait and fabric routing dominate.

use std::time::{Duration, Instant};

use vtm_fabric::{parse_arms, Fabric, FabricConfig};
use vtm_gateway::{Gateway, GatewayConfig};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

use crate::calib::{Cost, Costs};
use crate::common::{
    full_tracing, layer_replays, report_closed_loop, report_costs, request_stream, span_p,
    stage_metrics, static_policy, zero_live_layers, Args, SETUP_EPISODES,
};
use crate::host::Scratch;
use crate::load::{check_accounting, check_prices, closed_loop, partition};
use crate::report::{Outcomes, Report};
use crate::spans::{SpanLog, ROOT};
use crate::stats::{median, Slices};

const SESSIONS: usize = 64;
const ROUNDS: usize = 64;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
const ARMS: &str = "a=90,b=10";
/// Lifecycles (set up, serve, recover) per measured run.
const CYCLES: usize = 6;
/// Time slices per closed-loop phase.
const SLICES: usize = 5;
const RECOVERY_REPEATS: usize = 3;

/// Unmeasured start of a closed loop: threads start, sessions warm up.
fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.05).clamp(0.2, 1.0))
}

fn fabric_config(service: ServiceConfig, gateway: GatewayConfig) -> FabricConfig {
    FabricConfig::new(SHARDS, service)
        .with_arms(parse_arms(ARMS).expect("valid arm split"))
        .with_gateway(gateway)
}

/// The figures of one closed-loop phase (its checks go to the report).
struct Phase {
    outcomes: Outcomes,
    latencies: Slices,
    /// Completions per second in each slice.
    rates: Vec<f64>,
}

/// Runs one closed-loop phase on `fabric`, adding its CPU cost (warm-up
/// included) to `cost`, then drains it and checks the client's own counts
/// against the fabric's telemetry and every price against a reference
/// service fed each session's own sequence.
#[allow(clippy::too_many_arguments)]
fn phase(
    report: &mut Report,
    label: &str,
    fabric: Fabric,
    policy: &PolicySnapshot,
    config: ServiceConfig,
    sequences: &[Vec<&QuoteRequest>],
    seconds: f64,
    traced: Option<&mut SpanLog>,
    cost: &mut Cost,
) -> Phase {
    let warmup = warmup(seconds);
    let measure = Duration::from_secs_f64(seconds);
    let arm_names: Vec<String> = fabric.arms().iter().map(|a| a.name.clone()).collect();
    let arm_of = |session: u64| {
        let arm = fabric.arm_of(session);
        arm_names.iter().position(|n| n == arm).expect("known arm")
    };
    let epoch = traced.as_ref().map(|spans| spans.epoch());
    let logs = cost.time(
        || {
            closed_loop(
                &fabric,
                sequences,
                warmup,
                measure,
                SLICES,
                arm_names.len(),
                &arm_of,
                epoch,
            )
        },
        |logs| logs.iter().map(|log| log.outcomes.completed as f64).sum(),
    );
    let snapshot = fabric.shutdown();
    drop(fabric);

    let mut outcomes = Outcomes::default();
    let mut latencies = Slices::new(SLICES);
    let mut client_arm_quotes = vec![0u64; arm_names.len()];
    for log in &logs {
        outcomes.add(log.outcomes);
        latencies.merge(&log.latencies);
        client_arm_quotes
            .iter_mut()
            .zip(&log.per_label)
            .for_each(|(a, b)| *a += b);
    }
    let gateways: Vec<_> = snapshot.gateways.iter().map(|g| &g.telemetry).collect();
    check_accounting(report, label, &outcomes, &gateways);
    let gap: u64 = snapshot
        .arms
        .iter()
        .zip(&client_arm_quotes)
        .map(|(arm, &client)| arm.quotes.abs_diff(client))
        .sum();
    report.check(
        format!("{label}.arm_quotes"),
        gap == 0,
        format!(
            "client-counted per arm {client_arm_quotes:?}, fabric-counted {:?}",
            snapshot.arms.iter().map(|a| a.quotes).collect::<Vec<_>>()
        ),
    );
    report.set("fabric.arm_quote_gap", gap as f64);
    let reference = PricingService::from_snapshot(policy, config).expect("policy fits");
    check_prices(report, label, &reference, sequences, &logs);
    if let Some(spans) = traced {
        for log in logs {
            spans.merge(log.spans);
        }
    }
    let slice_s = seconds / SLICES as f64;
    let rates = latencies
        .counts()
        .iter()
        .map(|&c| c as f64 / slice_s)
        .collect();
    Phase {
        outcomes,
        latencies,
        rates,
    }
}

/// One set-up: the served policy trained from the seed, the request
/// stream and a started fabric.
struct SetUp {
    policy: PolicySnapshot,
    requests: Vec<QuoteRequest>,
    config: ServiceConfig,
    fabric: Fabric,
    equilibrium_ratio: f64,
    train_cpu_s: f64,
    stream_s: f64,
}

fn set_up(seed: u64) -> SetUp {
    let built = static_policy(seed);
    let begin = Instant::now();
    let (requests, config) = request_stream("static", seed, SESSIONS, ROUNDS);
    let stream_s = begin.elapsed().as_secs_f64();
    let fabric = Fabric::start(
        &built.snapshot,
        fabric_config(config, GatewayConfig::default()),
    )
    .expect("fabric starts");
    SetUp {
        equilibrium_ratio: built.evaluation.expect("static market").equilibrium_ratio,
        train_cpu_s: built.train_cpu_s,
        policy: built.snapshot,
        requests,
        config,
        fabric,
        stream_s,
    }
}

/// Runs the workload.
pub fn run(args: &Args, scratch: &Scratch, report: &mut Report, spans: &mut SpanLog) {
    if args.trace {
        return traced(args, scratch, report, spans);
    }
    // The run is CYCLES lifecycles in a row (set up, serve, recover), so
    // every figure is sampled across the whole run.
    let mut costs = Costs::default();
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut latencies = Slices::new(0);
    let mut outcomes = Outcomes::default();
    for cycle in 0..CYCLES {
        costs.train.calibrate();
        let begin = Instant::now();
        let s = set_up(args.seed);
        setup_s.push(begin.elapsed().as_secs_f64());
        costs.train.calibrate();
        costs.train.add(s.train_cpu_s, SETUP_EPISODES as f64);
        let sequences = partition(&s.requests, CLIENTS);
        let live = phase(
            report,
            &format!("cycle{cycle}"),
            s.fabric,
            &s.policy,
            s.config,
            &sequences,
            args.seconds / CYCLES as f64,
            None,
            &mut costs.quote,
        );
        latencies.append(live.latencies);
        rates.extend(live.rates);
        outcomes.add(live.outcomes);
        recover(&s.policy, s.config, scratch, &mut costs.recovery);
    }
    let qps = median(&mut rates).expect("cycles ran");
    report.set("setup_s", median(&mut setup_s).expect("set up"));
    report_closed_loop(report, qps, &latencies);
    report_costs(report, &costs);
    report.outcomes = outcomes;
}

/// The traced run: one set-up, the closed loop untraced and traced, then
/// the gateway alone (a lower layer of the fabric, whose raw stage stamps
/// the fabric does not expose), then the isolated replays.
fn traced(args: &Args, scratch: &Scratch, report: &mut Report, spans: &mut SpanLog) {
    zero_live_layers(report);
    let s = set_up(args.seed);
    report.set("core.request_stream_s", s.stream_s);
    report.set("core.equilibrium_ratio", s.equilibrium_ratio);
    let (policy, config, requests) = (&s.policy, s.config, &s.requests);
    let sequences = partition(requests, CLIENTS);
    let half = args.seconds / 2.0;
    // The traced run reports no CPU costs.
    let mut cost = Cost::default();
    let plain = phase(
        report, "untraced", s.fabric, policy, config, &sequences, half, None, &mut cost,
    );
    let traced_fabric = Fabric::start(
        policy,
        fabric_config(
            config,
            GatewayConfig::default().with_tracing(full_tracing()),
        ),
    )
    .expect("fabric starts");
    let traced = phase(
        report,
        "traced",
        traced_fabric,
        policy,
        config,
        &sequences,
        half,
        Some(spans),
        &mut cost,
    );
    report.set(
        "obs.trace_overhead_ratio",
        traced.latencies.percentile(0.5).unwrap_or(0.0)
            / plain.latencies.percentile(0.5).unwrap_or(f64::NAN),
    );
    report.set("fabric.submit_p50_us", span_p(spans, "fabric.submit", 0.5));
    report.set("fabric.wait_p50_us", span_p(spans, "fabric.wait", 0.5));
    let route_fabric = Fabric::start(policy, fabric_config(config, GatewayConfig::default()))
        .expect("fabric starts");
    const ROUTES: usize = 200_000;
    spans.time("fabric.route.loop", ROOT, 0, || {
        for i in 0..ROUTES {
            let session = std::hint::black_box(requests[i % requests.len()].session);
            std::hint::black_box((route_fabric.arm_of(session), route_fabric.shard_of(session)));
        }
    });
    drop(route_fabric);
    report.set(
        "fabric.route_ns",
        spans.total_us("fabric.route.loop") * 1e3 / ROUTES as f64,
    );

    let mut outcomes = plain.outcomes;
    outcomes.add(traced.outcomes);
    outcomes.add(gateway_alone(
        report, policy, config, &sequences, half, spans,
    ));
    report.set("harness.error_rate", outcomes.error_rate());
    report.outcomes = outcomes;
    let batch = report.metrics["gateway.batch_size_mean"];
    layer_replays(
        report, spans, policy, config, requests, batch, "static", args.seed, scratch,
    );
}

/// The closed loop against one bare, fully traced gateway with the
/// default configuration: the stage, batching and outcome figures of the
/// gateway layer, from raw trace stamps.
fn gateway_alone(
    report: &mut Report,
    policy: &PolicySnapshot,
    config: ServiceConfig,
    sequences: &[Vec<&QuoteRequest>],
    seconds: f64,
    spans: &mut SpanLog,
) -> Outcomes {
    let service = std::sync::Arc::new(PricingService::from_snapshot(policy, config).expect("fits"));
    let gateway = Gateway::start(
        std::sync::Arc::clone(&service),
        GatewayConfig::default().with_tracing(full_tracing()),
    );
    let logs = closed_loop(
        &gateway,
        sequences,
        warmup(seconds),
        Duration::from_secs_f64(seconds),
        SLICES,
        1,
        &|_| 0,
        Some(spans.epoch()),
    );
    let records = gateway.trace_records();
    let (_, dropped) = gateway.trace_counters();
    let telemetry = gateway.shutdown();
    let stats = service.stats();
    let mut outcomes = Outcomes::default();
    for log in logs {
        outcomes.add(log.outcomes);
        spans.merge(log.spans);
    }
    report.set(
        "gateway.submit_p50_us",
        span_p(spans, "gateway.submit", 0.5),
    );
    stage_metrics(report, &records);
    report.set("gateway.batches", telemetry.batches as f64);
    report.set("gateway.batch_size_mean", telemetry.mean_batch_size);
    report.set(
        "gateway.batch_fill_ratio",
        telemetry.mean_batch_size / GatewayConfig::default().max_batch as f64,
    );
    report.set(
        "gateway.rejected",
        (telemetry.rejected + telemetry.shed) as f64,
    );
    report.set("gateway.expired", telemetry.expired as f64);
    report.set("gateway.failed", telemetry.failed as f64);
    report.set("obs.trace_dropped", dropped as f64);
    report.set("serve.sessions", stats.sessions as f64);
    report.set("serve.evicted", stats.evicted as f64);
    check_accounting(report, "gateway", &outcomes, &[&telemetry]);
    outcomes
}

/// Brings the fabric back from the policy checkpoint (no journal, so
/// sessions restart cold) [`RECOVERY_REPEATS`] times, adding the CPU cost
/// of each (load the file, start every shard) to `cost`.
fn recover(policy: &PolicySnapshot, config: ServiceConfig, scratch: &Scratch, cost: &mut Cost) {
    let path = scratch.path("policy.vtm");
    policy.save_to(&path).expect("checkpoint written");
    for _ in 0..RECOVERY_REPEATS {
        let fabric = cost.time(
            || {
                let loaded = PolicySnapshot::load_from(&path).expect("checkpoint loads");
                Fabric::start(&loaded, fabric_config(config, GatewayConfig::default()))
                    .expect("fabric starts")
            },
            |_| 1.0,
        );
        fabric.shutdown();
    }
}
