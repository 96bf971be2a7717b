//! Criterion benchmarks of the DRL hot paths: a policy forward pass, a PPO
//! update over one episode of samples, and one full Algorithm-1 training
//! episode of the incentive mechanism.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vtm_bench::{rollout_bench_agent, update_bench_agent, update_bench_samples, FixedHorizonEnv};
use vtm_core::config::{DrlConfig, ExperimentConfig};
use vtm_core::env::RewardMode;
use vtm_core::mechanism::IncentiveMechanism;
use vtm_rl::buffer::RolloutBuffer;
use vtm_rl::env::{ActionSpace, Environment, Step};
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_rl::vec_env::{CollectorConfig, ParallelCollector, VecEnv};

struct Bandit;

impl Environment for Bandit {
    fn observation_dim(&self) -> usize {
        12
    }
    fn action_space(&self) -> ActionSpace {
        ActionSpace::scalar(5.0, 50.0)
    }
    fn reset(&mut self) -> Vec<f64> {
        vec![0.1; 12]
    }
    fn step(&mut self, action: &[f64]) -> Step {
        Step {
            observation: vec![0.1; 12],
            reward: -(action[0] - 25.0).powi(2) / 100.0,
            done: true,
        }
    }
}

fn bench_policy_act(c: &mut Criterion) {
    let cfg = PpoConfig::new(12, 1).with_seed(1);
    let mut agent = PpoAgent::new(cfg, ActionSpace::scalar(5.0, 50.0));
    let obs = vec![0.1; 12];
    c.bench_function("ppo/act", |b| b.iter(|| agent.act(black_box(&obs))));
    c.bench_function("ppo/act_deterministic", |b| {
        b.iter(|| agent.act_deterministic(black_box(&obs)))
    });
}

fn bench_ppo_update(c: &mut Criterion) {
    let cfg = PpoConfig::new(12, 1).with_seed(2);
    let mut agent = PpoAgent::new(cfg, ActionSpace::scalar(5.0, 50.0));
    let mut env = Bandit;
    let mut buffer = RolloutBuffer::new();
    agent.collect_episodes(&mut env, 100, 1, &mut buffer);
    let samples = buffer.process(0.95, 0.95, 0.0, true);
    c.bench_function("ppo/update_100_samples", |b| {
        b.iter(|| agent.update(black_box(&samples)))
    });
}

/// The two-lane update (batched kernels, actor and critic trained
/// concurrently) vs the reference (allocating, per-sample, single-threaded)
/// PPO update at the paper's training shapes: obs_dim 7, 64x64 MLP,
/// mini-batch 20, M = 10 epochs over 200 samples. The acceptance target is
/// a >= 1.5x speedup (recorded by `bench_json` in `results/BENCH_ppo.json`).
fn bench_ppo_update_paper_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppo_update");
    group.bench_function("fused_paper_shape", |b| {
        let mut agent = update_bench_agent(3);
        let samples = update_bench_samples(&agent, 200, 42);
        b.iter(|| agent.update(black_box(&samples)))
    });
    group.bench_function("reference_paper_shape", |b| {
        let mut agent = update_bench_agent(3);
        let samples = update_bench_samples(&agent, 200, 42);
        b.iter(|| agent.update_reference(black_box(&samples)))
    });
    group.finish();
}

/// Serial per-observation collection vs the vectorized parallel collector at
/// the same sample count (64 episodes x 25 steps): the acceptance benchmark
/// of the VecEnv rollout engine.
fn bench_rollout_collection(c: &mut Criterion) {
    const EPISODES: usize = 64;
    const HORIZON: usize = 25;
    let mut group = c.benchmark_group("rollout");

    // Reference path: one env, two row-vector forward passes per step.
    group.bench_function("serial_64ep_x25", |b| {
        let mut agent = rollout_bench_agent();
        let mut env = FixedHorizonEnv::new(HORIZON);
        b.iter(|| {
            let mut buffer = RolloutBuffer::new();
            agent.collect_episodes(&mut env, EPISODES, HORIZON, &mut buffer);
            buffer.len()
        })
    });

    // Vectorized path, batched forwards only (single thread).
    group.bench_function("vectorized_1thread", |b| {
        let agent = rollout_bench_agent();
        let mut venv = VecEnv::from_fn(EPISODES, |_| FixedHorizonEnv::new(HORIZON));
        let collector = ParallelCollector::new(
            CollectorConfig::new(1, HORIZON)
                .with_seed(7)
                .with_threads(1),
        );
        b.iter(|| {
            collector
                .collect_serial(&agent, &mut venv)
                .total_transitions()
        })
    });

    // Vectorized path, batched forwards + one worker per core.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    group.bench_function(format!("vectorized_{cores}threads"), |b| {
        let agent = rollout_bench_agent();
        let mut venv = VecEnv::from_fn(EPISODES, |_| FixedHorizonEnv::new(HORIZON));
        let collector = ParallelCollector::new(
            CollectorConfig::new(1, HORIZON)
                .with_seed(7)
                .with_threads(0),
        );
        b.iter(|| collector.collect(&agent, &mut venv).total_transitions())
    });

    group.finish();
}

fn bench_training_episode(c: &mut Criterion) {
    let mut group = c.benchmark_group("mechanism");
    group.sample_size(10);
    group.bench_function("algorithm1_one_episode", |b| {
        let mut config = ExperimentConfig::paper_two_vmus();
        config.drl = DrlConfig {
            episodes: 1,
            rounds_per_episode: 100,
            ..DrlConfig::default()
        };
        let mut mechanism = IncentiveMechanism::with_reward_mode(config, RewardMode::Improvement);
        b.iter(|| mechanism.train_episodes(1));
    });
    group.bench_function("algorithm1_8_episodes_serial", |b| {
        let mut config = ExperimentConfig::paper_two_vmus();
        config.drl = DrlConfig {
            episodes: 8,
            rounds_per_episode: 100,
            ..DrlConfig::default()
        };
        let mut mechanism = IncentiveMechanism::with_reward_mode(config, RewardMode::Improvement);
        b.iter(|| mechanism.train_episodes(8));
    });
    group.bench_function("algorithm1_8_episodes_parallel", |b| {
        let mut config = ExperimentConfig::paper_two_vmus();
        config.drl = DrlConfig {
            episodes: 8,
            rounds_per_episode: 100,
            ..DrlConfig::default()
        };
        let mut mechanism = IncentiveMechanism::with_reward_mode(config, RewardMode::Improvement);
        b.iter(|| mechanism.train_episodes_parallel(8, 8, 0));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policy_act,
    bench_ppo_update,
    bench_ppo_update_paper_shape,
    bench_rollout_collection,
    bench_training_episode
);
criterion_main!(benches);
