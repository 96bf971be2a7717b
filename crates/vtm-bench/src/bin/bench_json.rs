//! Machine-readable performance snapshot of the DRL hot paths.
//!
//! Writes `results/BENCH_ppo.json` with median timings of the PPO update
//! path (the two-lane `update`, reported as `fused_ms`, vs the
//! single-threaded `update_reference`) at the paper's training shapes and of
//! rollout collection (serial vs vectorized), together with the shape
//! metadata and the host's core count (`host.cores`) needed to compare runs:
//! the update's two lanes run concurrently only with at least 2 cores.
//!
//! ```text
//! cargo run -p vtm-bench --bin bench_json --release
//! ```
//!
//! Iteration counts can be scaled with `VTM_BENCH_JSON_ITERS` (default 15).

use std::time::Instant;

use vtm_bench::timing::available_cores;
use vtm_bench::{
    results_dir, rollout_bench_agent, update_bench_agent, update_bench_samples, FixedHorizonEnv,
};
use vtm_rl::buffer::RolloutBuffer;
use vtm_rl::vec_env::{CollectorConfig, ParallelCollector, VecEnv};

/// Samples fed to each `update` call (10 minibatches of 20 per epoch).
const UPDATE_SAMPLES: usize = 200;
/// Rollout benchmark scale: 64 episodes of 25 steps.
const ROLLOUT_EPISODES: usize = 64;
const ROLLOUT_HORIZON: usize = 25;

fn iters_from_env() -> usize {
    std::env::var("VTM_BENCH_JSON_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(15)
        .max(3)
}

/// Median wall-clock milliseconds of `f` over `iters` runs after 2 warm-ups.
fn median_ms<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    for _ in 0..2 {
        f();
    }
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    times[times.len() / 2]
}

fn main() {
    let iters = iters_from_env();

    // ---- PPO update path: fused vs reference at the paper's shapes ----
    // The two paths are timed *interleaved*, one call of each per round, and
    // the speedup is the ratio of the paired medians: CPU frequency drift on
    // shared containers would otherwise dominate back-to-back medians.
    let mut fused_agent = update_bench_agent(3);
    let samples = update_bench_samples(&fused_agent, UPDATE_SAMPLES, 42);
    let mut reference_agent = fused_agent.clone();
    for _ in 0..2 {
        fused_agent.update(&samples);
        reference_agent.update_reference(&samples);
    }
    let mut fused_times = Vec::with_capacity(iters);
    let mut reference_times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        fused_agent.update(&samples);
        fused_times.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        reference_agent.update_reference(&samples);
        reference_times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let median = |times: &mut Vec<f64>| {
        times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        times[times.len() / 2]
    };
    let update_fused_ms = median(&mut fused_times);
    let update_reference_ms = median(&mut reference_times);
    let update_speedup = update_reference_ms / update_fused_ms;
    let cfg = fused_agent.config();
    let gradient_steps = cfg.update_epochs * UPDATE_SAMPLES.div_ceil(cfg.minibatch_size);

    // ---- Rollout collection: serial vs vectorized ----
    // Agent / env / collector construction stays outside the timed closures
    // so the recorded trajectory numbers measure collection only.
    let mut serial_agent = rollout_bench_agent();
    let mut serial_env = FixedHorizonEnv::new(ROLLOUT_HORIZON);
    let mut serial_buffer = RolloutBuffer::new();
    let rollout_serial_ms = median_ms(
        || {
            serial_buffer.clear();
            serial_agent.collect_episodes(
                &mut serial_env,
                ROLLOUT_EPISODES,
                ROLLOUT_HORIZON,
                &mut serial_buffer,
            );
        },
        iters,
    );
    let cores = available_cores();
    let vectorized_agent = rollout_bench_agent();
    let mut venv = VecEnv::from_fn(ROLLOUT_EPISODES, |_| FixedHorizonEnv::new(ROLLOUT_HORIZON));
    let collector = ParallelCollector::new(
        CollectorConfig::new(1, ROLLOUT_HORIZON)
            .with_seed(7)
            .with_threads(0),
    );
    let rollout_vectorized_ms = median_ms(
        || {
            collector.collect(&vectorized_agent, &mut venv);
        },
        iters,
    );

    let generated_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let hidden = cfg
        .hidden
        .iter()
        .map(|h| h.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"ppo\",\n  \"generated_unix\": {generated_unix},\n  \"iters_per_measurement\": {iters},\n  \"shapes\": {{\n    \"obs_dim\": {obs},\n    \"action_dim\": {act},\n    \"hidden\": [{hidden}],\n    \"minibatch_size\": {mb},\n    \"update_epochs\": {epochs},\n    \"update_samples\": {samples_n},\n    \"rollout_episodes\": {rep},\n    \"rollout_horizon\": {rh}\n  }},\n  \"update\": {{\n    \"fused_ms\": {update_fused_ms:.4},\n    \"reference_ms\": {update_reference_ms:.4},\n    \"speedup\": {update_speedup:.3},\n    \"gradient_steps_per_call\": {gradient_steps}\n  }},\n  \"rollout\": {{\n    \"serial_ms\": {rollout_serial_ms:.4},\n    \"vectorized_ms\": {rollout_vectorized_ms:.4},\n    \"speedup\": {rollout_speedup:.3}\n  }},\n  \"host\": {{\n    \"cores\": {cores}\n  }}\n}}\n",
        obs = cfg.obs_dim,
        act = cfg.action_dim,
        mb = cfg.minibatch_size,
        epochs = cfg.update_epochs,
        samples_n = UPDATE_SAMPLES,
        rep = ROLLOUT_EPISODES,
        rh = ROLLOUT_HORIZON,
        rollout_speedup = rollout_serial_ms / rollout_vectorized_ms,
    );

    println!("{json}");
    println!(
        "update path: fused {update_fused_ms:.3} ms vs reference {update_reference_ms:.3} ms \
         ({update_speedup:.2}x) over {gradient_steps} gradient steps"
    );
    let path = results_dir().join("BENCH_ppo.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(saved to {})", path.display()),
        Err(err) => {
            eprintln!("error: could not write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
}
