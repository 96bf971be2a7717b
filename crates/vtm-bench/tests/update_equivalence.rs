//! Pins the two-lane PPO update (`PpoAgent::update`: actor lane on a
//! scoped thread, critic lane on the caller, one shared minibatch order
//! drawn up front) bit-identical to the single-threaded, allocating
//! reference implementation (`PpoAgent::update_reference`) on fixed-seed
//! training runs: the paper's shapes (obs_dim 7, 64x64 MLP, mini-batch 20,
//! M = 10 epochs), the two-VMU market's obs_dim 12, and the edge shapes the
//! up-front order and the lane split must get right.
//!
//! Every kernel the lanes use (`affine_into`, `matmul_at_b_into`,
//! `matmul_a_bt_into`, the batched Gaussian row ops, the shared Adam slice
//! kernel) accumulates in the same floating-point order as the reference,
//! and each lane sums its statistics in minibatch order, so the comparisons
//! below are exact equality, not a tolerance.

use vtm_bench::{update_bench_agent, update_bench_samples};
use vtm_core::config::ExperimentConfig;
use vtm_core::mechanism::IncentiveMechanism;
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};

/// Runs `rounds` updates of `samples` fresh samples each on `agent` and on a
/// clone through the reference path, asserting equal statistics and equal
/// full agent state (networks, optimizers, log-std, RNG counter) after
/// every round.
fn assert_matches_reference(mut agent: PpoAgent, samples: usize, rounds: u64) {
    let mut reference = agent.clone();
    for round in 0..rounds {
        let batch = update_bench_samples(&agent, samples, 500 + round);
        let sl = agent.update(&batch);
        let sr = reference.update_reference(&batch);
        assert_eq!(sl, sr, "update stats diverged at round {round}");
        assert_eq!(agent, reference, "agent state diverged at round {round}");
    }
}

/// The paper's update-bench agent with one hyper-parameter overridden.
fn bench_agent_with(seed: u64, tweak: impl FnOnce(&mut PpoConfig)) -> PpoAgent {
    let mut config = PpoConfig::new(7, 1).with_seed(seed);
    tweak(&mut config);
    PpoAgent::new(config, ActionSpace::scalar(5.0, 50.0))
}

#[test]
fn fused_update_matches_reference_bitwise_over_training_run() {
    let mut fused = update_bench_agent(99);
    let mut reference = fused.clone();
    let probe: Vec<Vec<f64>> = (0..5)
        .map(|i| {
            (0..7)
                .map(|j| (i as f64 - 2.0) * 0.3 + j as f64 * 0.1)
                .collect()
        })
        .collect();

    // A multi-update training run: divergence anywhere would compound
    // through the Adam moments and surface in later rounds.
    for round in 0..5 {
        let samples = update_bench_samples(&fused, 200, 1000 + round);
        let sf = fused.update(&samples);
        let sr = reference.update_reference(&samples);
        assert_eq!(sf, sr, "update stats diverged at round {round}");
        assert_eq!(
            sf.gradient_steps,
            10 * 10,
            "M = 10 epochs x 200/20 minibatches"
        );
        assert_eq!(
            fused.log_std(),
            reference.log_std(),
            "log_std diverged at round {round}"
        );
        assert_eq!(
            fused.actor(),
            reference.actor(),
            "actor parameters diverged at round {round}"
        );
        assert_eq!(
            fused.critic(),
            reference.critic(),
            "critic parameters diverged at round {round}"
        );
        for obs in &probe {
            assert_eq!(
                fused.act_deterministic(obs),
                reference.act_deterministic(obs),
                "policy output diverged at round {round}"
            );
            assert_eq!(
                fused.value(obs),
                reference.value(obs),
                "value output diverged at round {round}"
            );
        }
    }
    // Full-state comparison (networks, optimizers, log-std, RNG counter).
    assert_eq!(fused, reference);
}

/// The fused update must beat the reference path by at least 1.5x at the
/// paper's shapes (the acceptance target recorded by `bench_json` in
/// `results/BENCH_ppo.json`). `#[ignore]`d because timing assertions are
/// load-sensitive; run explicitly with
/// `cargo test -p vtm-bench --release -- --ignored --nocapture`.
#[test]
#[ignore = "wall-clock assertion; run explicitly in --release on an idle machine"]
fn fused_update_is_at_least_1_5x_faster_than_reference() {
    use std::time::Instant;
    let mut fused = update_bench_agent(3);
    let samples = update_bench_samples(&fused, 200, 42);
    let mut reference = fused.clone();
    for _ in 0..2 {
        fused.update(&samples);
        reference.update_reference(&samples);
    }
    // Interleaved pairs so CPU frequency drift hits both paths equally.
    let (mut fused_s, mut reference_s) = (0.0f64, 0.0f64);
    for _ in 0..10 {
        let t = Instant::now();
        fused.update(&samples);
        fused_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        reference.update_reference(&samples);
        reference_s += t.elapsed().as_secs_f64();
    }
    let speedup = reference_s / fused_s;
    println!(
        "fused {:.2} ms, reference {:.2} ms, speedup {speedup:.2}x",
        fused_s * 1e2,
        reference_s * 1e2
    );
    assert!(
        speedup >= 1.5,
        "fused update speedup {speedup:.2}x below the 1.5x acceptance target"
    );
}

#[test]
fn fused_update_handles_ragged_final_minibatch() {
    // 33 samples with |I| = 20 leaves a final minibatch of 13: the gather
    // scratch must resize across batch sizes without corrupting results.
    let mut fused = update_bench_agent(7);
    let mut reference = fused.clone();
    let samples = update_bench_samples(&fused, 33, 5);
    let sf = fused.update(&samples);
    let sr = reference.update_reference(&samples);
    assert_eq!(sf, sr);
    assert_eq!(fused, reference);
}

#[test]
fn single_epoch_update_matches_reference() {
    assert_matches_reference(bench_agent_with(11, |c| c.update_epochs = 1), 47, 3);
}

#[test]
fn one_minibatch_per_epoch_matches_reference() {
    // |I| equal to and larger than the sample count: each epoch is one
    // minibatch holding every sample.
    for minibatch_size in [40, 64] {
        let agent = bench_agent_with(12, |c| c.minibatch_size = minibatch_size);
        assert_matches_reference(agent, 40, 3);
    }
}

#[test]
fn single_sample_update_matches_reference() {
    assert_matches_reference(update_bench_agent(13), 1, 4);
}

#[test]
fn two_vmu_market_shape_matches_reference() {
    // The agent the benchmark's training workload builds (obs_dim 12).
    let mechanism = IncentiveMechanism::new(ExperimentConfig::paper_two_vmus());
    let agent = mechanism.agent().clone();
    assert_eq!(agent.config().obs_dim, 12);
    assert_matches_reference(agent, 60, 3);
}
