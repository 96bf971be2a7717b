//! Pieces every workload shares: building the served policy from the seed,
//! generating the request stream, pacing the open-loop sender, and
//! replaying the workload's own requests through each lower layer in
//! isolation (the traced run only).

use std::time::{Duration, Instant};

use vtm_core::config::{DrlConfig, ExperimentConfig};
use vtm_core::env::RewardMode;
use vtm_core::mechanism::{EvaluationResult, IncentiveMechanism};
use vtm_core::registry::{EnvBuildOptions, EnvRegistry};
use vtm_core::scenario::{Scenario, ScenarioKind};
use vtm_journal::{replay_journal, JournalOptions, ReplayOptions};
use vtm_nn::inference::InferenceModel;
use vtm_obs::{TraceRecord, Tracer, TracerConfig};
use vtm_rl::buffer::RolloutBuffer;
use vtm_rl::env::Environment;
use vtm_rl::ppo::PpoAgent;
use vtm_rl::snapshot::PolicySnapshot;
use vtm_rl::trainer::Trainer;
use vtm_rl::vec_env::{CollectorConfig, ParallelCollector, VecEnv};
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

use crate::calib::Costs;
use crate::host::{cpu_timed, Scratch};
use crate::report::Report;
use crate::spans::{SpanLog, ROOT};
use crate::stats::{median, percentile, Slices};

/// Environment replicas and threads of every training call (`nproc` = 2).
pub const TRAIN_ENVS: usize = 2;
/// Episodes that build a serving workload's policy in set-up.
pub const SETUP_EPISODES: usize = 32;
/// Rounds of deterministic evaluation after training.
pub const EVAL_ROUNDS: usize = 50;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// The paper's two-VMU market with the workload seed.
pub fn paper_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_two_vmus();
    config.drl.seed = seed;
    config
}

/// A served policy built from the seed, with what its training measured.
pub struct BuiltPolicy {
    /// The frozen policy.
    pub snapshot: PolicySnapshot,
    /// Process CPU seconds of its [`SETUP_EPISODES`] training episodes.
    pub train_cpu_s: f64,
    /// Its evaluation against the closed-form equilibrium, when the market
    /// has one (the static market only).
    pub evaluation: Option<EvaluationResult>,
}

/// Trains the paper's mechanism for [`SETUP_EPISODES`] and evaluates it.
pub fn static_policy(seed: u64) -> BuiltPolicy {
    let mut mechanism = IncentiveMechanism::new(paper_config(seed));
    let ((), train_cpu_s) = cpu_timed(|| {
        mechanism.train_episodes_parallel(SETUP_EPISODES, TRAIN_ENVS, TRAIN_ENVS);
    });
    let evaluation = mechanism.evaluate(EVAL_ROUNDS);
    BuiltPolicy {
        snapshot: mechanism.snapshot(),
        train_cpu_s,
        evaluation: Some(evaluation),
    }
}

/// Trains a rush-hour-surge policy for [`SETUP_EPISODES`] with the paper's
/// hyper-parameters, through the trainer `train_scenario_parallel` uses.
pub fn scenario_policy(seed: u64) -> BuiltPolicy {
    let drl = DrlConfig {
        seed,
        ..DrlConfig::default()
    };
    let env = Scenario::preset(ScenarioKind::RushHourSurge).env(
        drl.history_length,
        drl.rounds_per_episode,
        RewardMode::Improvement,
        seed,
    );
    let mut agent = PpoAgent::new(drl.to_ppo_config(env.observation_dim()), env.action_space());
    let ((), train_cpu_s) = cpu_timed(|| {
        Trainer::for_env(env)
            .episodes(SETUP_EPISODES)
            .collectors(TRAIN_ENVS)
            .threads(TRAIN_ENVS)
            .max_steps(drl.rounds_per_episode)
            .seed(seed)
            .run(&mut agent)
            .expect("training a fresh agent");
    });
    BuiltPolicy {
        snapshot: agent.snapshot(),
        train_cpu_s,
        evaluation: None,
    }
}

/// The preset's request stream for the seed, flattened round by round (so
/// every session's requests stay in order), and the service geometry.
pub fn request_stream(
    preset: &str,
    seed: u64,
    sessions: usize,
    rounds: usize,
) -> (Vec<QuoteRequest>, ServiceConfig) {
    let registry = EnvRegistry::builtin();
    let options = EnvBuildOptions {
        seed,
        ..EnvBuildOptions::default()
    };
    let features = registry
        .get(preset)
        .expect("built-in preset")
        .features_per_round();
    let stream = registry
        .request_stream(preset, &options, sessions, rounds)
        .expect("built-in preset");
    let requests = stream
        .into_iter()
        .flatten()
        .map(|frame| QuoteRequest::new(frame.session, frame.features))
        .collect();
    (
        requests,
        ServiceConfig::new(options.history_length, features),
    )
}

/// How early before a deadline [`wait_until`] stops sleeping and starts
/// yielding. A sleeping sender on the reference host woke up to a
/// millisecond late when the host was busy (generator lag p99 10–1200 µs
/// at 2000 requests/s with 100 µs here, against 1–11 µs with 2 ms), and
/// that lateness is counted as latency; yielding through the last 2 ms
/// did not raise the lowest rate's p50. So at 2000 requests/s and above
/// the sender never sleeps.
const SPIN: Duration = Duration::from_millis(2);

/// Waits out `deadline`: sleeps while it is more than [`SPIN`] away, then
/// yields until due, so the open-loop sender stays on schedule at every
/// rate.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let gap = deadline - now;
        if gap > SPIN {
            std::thread::sleep(gap - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Reports `quote_p50_us`: the quiet quartile over the time slices of
/// `latencies` ([`Slices::quiet_percentile`]). Prints it with the medians
/// over slices of p50, p90 and p99 (not gated: see README.md) and the
/// sample count.
pub fn report_latency(report: &mut Report, latencies: &Slices) {
    let median = |q| latencies.percentile(q).unwrap_or(0.0);
    let quiet = latencies.quiet_percentile(0.5).unwrap_or(0.0);
    println!(
        "quote latency over {} quotes: medians over slices p50 {:.1} us, p90 {:.1} us, \
         p99 {:.1} us; quiet quartile of slices p50 {quiet:.1} us",
        latencies.all().count(),
        median(0.5),
        median(0.9),
        median(0.99),
    );
    report.set("quote_p50_us", quiet);
}

/// Prints a closed loop's completions per second `qps` (not gated: see
/// README.md) and reports its latency ([`report_latency`]).
pub fn report_closed_loop(report: &mut Report, qps: f64, latencies: &Slices) {
    println!("closed loop: {qps:.0} quotes/s");
    report_latency(report, latencies);
}

/// Reports the CPU costs of a run in reference steps
/// ([`crate::calib::Cost::in_matvecs`]): per completed quote, per recovery and per
/// training episode. Prints the raw CPU figures with them.
pub fn report_costs(report: &mut Report, costs: &Costs) {
    for (name, cost, unit, scale) in [
        ("quote_cpu_matvec", &costs.quote, "us per quote", 1e6),
        (
            "recovery_cpu_matvec",
            &costs.recovery,
            "ms per recovery",
            1e3,
        ),
        (
            "train_cpu_matvec",
            &costs.train,
            "ms per training episode",
            1e3,
        ),
    ] {
        println!(
            "CPU: {:.3} {unit}, reference step (matvec) {:.3} us next to it",
            cost.per_unit_s() * scale,
            cost.matvec_s() * 1e6,
        );
        report.set(name, cost.in_matvecs());
    }
}

/// Median span duration (µs) of `name`, 0 when no such span ran.
pub fn span_p(spans: &SpanLog, name: &str, q: f64) -> f64 {
    percentile(&mut spans.durations_us(name), q).unwrap_or(0.0)
}

/// Gateway stage figures computed from raw trace stamps.
pub fn stage_metrics(report: &mut Report, records: &[TraceRecord]) {
    let column = |pick: fn(&TraceRecord) -> u64| -> Vec<f64> {
        records.iter().map(|r| pick(r) as f64).collect()
    };
    let mut queue = column(|r| r.stages().queue_wait_us);
    let mut form = column(|r| r.stages().batch_form_us);
    let mut inference = column(|r| r.stages().inference_us);
    let mut resolve = column(|r| r.stages().resolve_us);
    let p = |v: &mut Vec<f64>, q| percentile(v, q).unwrap_or(0.0);
    report.set("gateway.queue_wait_p50_us", p(&mut queue, 0.5));
    report.set("gateway.queue_wait_p99_us", p(&mut queue, 0.99));
    report.set("gateway.batch_form_p50_us", p(&mut form, 0.5));
    report.set("gateway.inference_p50_us", p(&mut inference, 0.5));
    report.set("gateway.resolve_p50_us", p(&mut resolve, 0.5));
}

/// Gateway tracing for the traced run: every request sampled, a ring large
/// enough to keep a whole traced phase.
pub fn full_tracing() -> TracerConfig {
    TracerConfig::default()
        .with_sample_every(1)
        .with_capacity(1 << 17)
}

/// Sets every per-layer metric that only a live gateway or fabric yields
/// to 0; workloads that drive those layers overwrite them.
pub fn zero_live_layers(report: &mut Report) {
    for name in [
        "fabric.submit_p50_us",
        "fabric.wait_p50_us",
        "fabric.route_ns",
        "fabric.arm_quote_gap",
        "gateway.submit_p50_us",
        "gateway.queue_wait_p50_us",
        "gateway.queue_wait_p99_us",
        "gateway.batch_form_p50_us",
        "gateway.inference_p50_us",
        "gateway.resolve_p50_us",
        "gateway.batches",
        "gateway.batch_size_mean",
        "gateway.batch_fill_ratio",
        "gateway.rejected",
        "gateway.expired",
        "gateway.failed",
        "obs.trace_dropped",
        "harness.generator_lag_p99_us",
        "core.equilibrium_ratio",
    ] {
        report.set(name, 0.0);
    }
}

/// Calls of each isolated replay (enough for a steady median).
const REPLAY_CALLS: usize = 4096;
/// Calls timed inside one span for the nanosecond-scale layers.
const TIGHT_LOOP: usize = 200_000;

/// Replays the workload's own requests through each lower layer in
/// isolation: `quote_refs`, `quote_one`, `forward_rows`, journal append and
/// replay, tracer publish, environment steps and one PPO round.
#[allow(clippy::too_many_arguments)]
pub fn layer_replays(
    report: &mut Report,
    spans: &mut SpanLog,
    snapshot: &PolicySnapshot,
    config: ServiceConfig,
    requests: &[QuoteRequest],
    live_batch: f64,
    rl_preset: &str,
    seed: u64,
    scratch: &Scratch,
) {
    let n = REPLAY_CALLS.min(requests.len());
    let requests = &requests[..n];
    let service = || PricingService::from_snapshot(snapshot, config).expect("policy fits");

    // vtm-serve: the batched path at batch 1 and at the live mean batch,
    // and the per-request path.
    for (name, metric, batch) in [
        (
            "serve.quote_refs.b1",
            "serve.quote_refs_us_per_quote_b1",
            1usize,
        ),
        (
            "serve.quote_refs.live",
            "serve.quote_refs_us_per_quote_live",
            live_batch.round().max(1.0) as usize,
        ),
    ] {
        let svc = service();
        let mut per_quote = Vec::new();
        for chunk in requests.chunks(batch) {
            let refs: Vec<&QuoteRequest> = chunk.iter().collect();
            let span = spans.begin(name, ROOT, 0);
            svc.quote_refs(&refs)
                .expect("replayed request is well formed");
            spans.end(span);
            per_quote.push(spans.span(span).duration_us() / chunk.len() as f64);
        }
        report.set(metric, median(&mut per_quote).unwrap_or(0.0));
    }
    let svc = service();
    for request in requests {
        spans.time("serve.quote_one", ROOT, 0, || {
            svc.quote_one(request)
                .expect("replayed request is well formed")
        });
    }
    report.set("serve.quote_one_us", span_p(spans, "serve.quote_one", 0.5));

    // vtm-nn: full observation rows built from consecutive feature blocks.
    let width = snapshot.actor.input_dim();
    let flat: Vec<f64> = requests
        .iter()
        .flat_map(|r| r.features.iter().copied())
        .cycle()
        .take(width * 64)
        .collect();
    let rows: Vec<&[f64]> = flat.chunks_exact(width).collect();
    let f32_actor = InferenceModel::from_mlp(&snapshot.actor);
    for _ in 0..REPLAY_CALLS / 4 {
        let fits = "rows fit the actor";
        spans.time("nn.forward_rows.1", ROOT, 0, || {
            snapshot.actor.forward_rows(&rows[..1]).expect(fits)
        });
        spans.time("nn.forward_rows.32", ROOT, 0, || {
            snapshot.actor.forward_rows(&rows[..32]).expect(fits)
        });
        spans.time("nn.forward_rows_f32.32", ROOT, 0, || {
            f32_actor.forward_rows(&rows[..32]).expect(fits)
        });
    }
    report.set(
        "nn.forward_rows_us_1",
        span_p(spans, "nn.forward_rows.1", 0.5),
    );
    report.set(
        "nn.forward_rows_us_32",
        span_p(spans, "nn.forward_rows.32", 0.5),
    );
    report.set(
        "nn.forward_rows_f32_us_32",
        span_p(spans, "nn.forward_rows_f32.32", 0.5),
    );
    // Computed from the weight sizes, not measured: f64 weights and biases
    // read once per 32-row batch, plus every layer's activations per row.
    let layers = snapshot.actor.layers();
    let params: usize = layers.iter().map(|l| l.parameter_count()).sum();
    let activations: usize = width + layers.iter().map(|l| l.fan_out()).sum::<usize>();
    report.set(
        "nn.bytes_per_row",
        (8 * params) as f64 / 32.0 + (8 * activations) as f64,
    );

    // vtm-journal: append each request, then replay the file.
    let path = scratch.path("isolated.vtmj");
    let mut writer = JournalOptions::new(&path).open().expect("scratch journal");
    for request in requests {
        spans.time("journal.append", ROOT, 0, || {
            writer.append(request).expect("scratch journal append")
        });
    }
    writer.sync().expect("scratch journal sync");
    report.set(
        "journal.append_p50_us",
        span_p(spans, "journal.append", 0.5),
    );
    report.set(
        "journal.append_p99_us",
        span_p(spans, "journal.append", 0.99),
    );
    report.set(
        "journal.bytes_per_frame",
        writer.bytes_written() as f64 / n as f64,
    );
    drop(writer);
    let fresh = service();
    let replay = spans.time("journal.replay", ROOT, 0, || {
        replay_journal(&fresh, &path, None, &ReplayOptions::default()).expect("replay")
    });
    report.set(
        "journal.replay_frames_per_s",
        replay.frames_applied as f64 / (spans.total_us("journal.replay") / 1e6),
    );
    let _ = std::fs::remove_file(&path);

    // vtm-obs: tracer publish in a tight loop.
    let tracer = Tracer::new(TracerConfig::default());
    let record = TraceRecord::new(1, 1);
    spans.time("obs.publish.loop", ROOT, 0, || {
        for _ in 0..TIGHT_LOOP {
            tracer.publish(std::hint::black_box(&record));
        }
    });
    report.set(
        "obs.trace_publish_ns",
        spans.total_us("obs.publish.loop") * 1e3 / TIGHT_LOOP as f64,
    );

    // vtm-core / vtm-sim: one environment step of each family.
    for (preset, span, metric) in [
        ("static", "core.env_step.loop", "core.env_step_us"),
        ("rush-hour-surge", "sim.env_step.loop", "sim.env_step_us"),
    ] {
        let mut env = EnvRegistry::builtin()
            .build(
                preset,
                &EnvBuildOptions {
                    seed,
                    ..EnvBuildOptions::default()
                },
            )
            .expect("built-in preset");
        let action = env
            .action_space()
            .squash(&vec![0.0; env.action_space().dim()]);
        env.reset();
        let steps = REPLAY_CALLS / 2;
        spans.time(span, ROOT, 0, || {
            for _ in 0..steps {
                if env.step(&action).done {
                    env.reset();
                }
            }
        });
        report.set(metric, spans.total_us(span) / steps as f64);
    }

    rl_round(report, spans, rl_preset, seed);
}

/// Drives PPO rounds through the public collector and update, like the
/// trainer does, timing each step.
fn rl_round(report: &mut Report, spans: &mut SpanLog, preset: &str, seed: u64) {
    const ROUNDS: usize = 3;
    let options = EnvBuildOptions {
        seed,
        rounds_per_episode: DrlConfig::default().rounds_per_episode,
        ..EnvBuildOptions::default()
    };
    let env = EnvRegistry::builtin()
        .build(preset, &options)
        .expect("built-in preset");
    let drl = DrlConfig {
        seed,
        ..DrlConfig::default()
    };
    let mut agent = PpoAgent::new(drl.to_ppo_config(env.observation_dim()), env.action_space());
    let mut venv = VecEnv::from_fn(TRAIN_ENVS, |_| env.clone());
    let base = CollectorConfig::new(1, options.rounds_per_episode)
        .with_seed(seed)
        .with_threads(TRAIN_ENVS);
    let (gamma, lambda, normalize) = {
        let c = agent.config();
        (c.gamma, c.gae_lambda, c.normalize_advantages)
    };
    let mut transitions = 0usize;
    for round in 0..ROUNDS {
        let collector = ParallelCollector::new(base.for_round(round as u64));
        let rollouts = spans.time("rl.collect", ROOT, 0, || {
            collector.collect(&agent, &mut venv)
        });
        transitions += rollouts.total_transitions();
        let mut buffer = RolloutBuffer::new();
        rollouts.drain_into(&mut buffer);
        let samples = buffer.process(gamma, lambda, 0.0, normalize);
        spans.time("rl.update", ROOT, 0, || agent.update(&samples));
    }
    let collect = span_p(spans, "rl.collect", 0.5) / 1e6;
    let update = span_p(spans, "rl.update", 0.5) / 1e6;
    let busy_s = (spans.total_us("rl.collect") + spans.total_us("rl.update")) / 1e6;
    report.set("rl.collect_s_per_round", collect);
    report.set("rl.update_s_per_round", update);
    report.set("rl.update_share", update / (collect + update));
    report.set("rl.transitions_per_s", transitions as f64 / busy_s);
}
