//! CPU costs in units of a fixed reference computation.
//!
//! On the shared reference host the same work costs up to ~40% more CPU
//! time at one moment than at another (a busy sibling hyper-thread, shared
//! caches), and the slow share moves from minute to minute, so a raw CPU
//! cost moves with it from run to run. A fixed computation of the
//! benchmark's own, timed at several points of the same run, slows down
//! with the host and not with the program: the cost of the program's work
//! divided by the cost of one reference step keeps the program's share and
//! cancels most of the host's. The reference step is one `matvec`: a
//! 64 × 64 f64 matrix-vector product followed by `tanh` on each output, the
//! shape of one dense layer of the served policy. Every run prints the raw
//! CPU figures too.

use crate::common::TRAIN_ENVS;
use crate::host::cpu_timed;

/// Side of the reference matrix.
const N: usize = 64;
/// Reference steps per thread in one sample (about 15 ms on the reference
/// host, long enough to average over the host's quick swings).
const STEPS: usize = 3000;

/// `STEPS` matvecs chained through a fixed matrix; returns a value that
/// depends on all of them.
fn reference_steps(salt: usize) -> f64 {
    let matrix: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7 + salt) % 13) as f64 * 0.01 - 0.06)
        .collect();
    let mut vector: Vec<f64> = (0..N).map(|i| i as f64 * 0.1).collect();
    let mut out = vec![0.0; N];
    for _ in 0..STEPS {
        for (o, row) in out.iter_mut().zip(matrix.chunks_exact(N)) {
            *o = row
                .iter()
                .zip(&vector)
                .map(|(a, b)| a * b)
                .sum::<f64>()
                .tanh();
        }
        std::mem::swap(&mut vector, &mut out);
    }
    vector.iter().sum()
}

/// The reference computation's CPU cost, accumulated over its samples.
#[derive(Debug, Default)]
struct Reference {
    cpu_s: f64,
    steps: usize,
}

impl Reference {
    /// Runs [`STEPS`] reference steps on each of [`TRAIN_ENVS`] threads (one
    /// per core, like the training and serving it is compared with) and
    /// adds their process CPU time.
    fn sample(&mut self) {
        let (sum, cpu_s) = cpu_timed(|| {
            std::thread::scope(|scope| {
                let threads: Vec<_> = (0..TRAIN_ENVS)
                    .map(|t| scope.spawn(move || reference_steps(t)))
                    .collect();
                threads
                    .into_iter()
                    .map(|h| h.join().expect("reference thread panicked"))
                    .sum::<f64>()
            })
        });
        std::hint::black_box(sum);
        self.cpu_s += cpu_s;
        self.steps += TRAIN_ENVS * STEPS;
    }

    /// Mean CPU seconds of one reference step.
    fn matvec_s(&self) -> f64 {
        assert!(self.steps > 0, "the reference computation was sampled");
        self.cpu_s / self.steps as f64
    }
}

/// CPU seconds spent on some units of work (quotes, episodes, recoveries)
/// over one run, and the reference computation sampled right before and
/// after each stretch of that work.
#[derive(Debug, Default)]
pub struct Cost {
    cpu_s: f64,
    units: f64,
    reference: Reference,
}

impl Cost {
    /// Samples the reference computation once for this cost.
    pub fn calibrate(&mut self) {
        self.reference.sample();
    }

    /// Adds `cpu_s` process CPU seconds spent on `units` units of work.
    /// The caller samples the reference ([`Cost::calibrate`]) right before
    /// and after that work.
    pub fn add(&mut self, cpu_s: f64, units: f64) {
        self.cpu_s += cpu_s;
        self.units += units;
    }

    /// Runs `work` between two samples of the reference and adds its
    /// process CPU time, as `units(&result)` units of work.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T, units: impl FnOnce(&T) -> f64) -> T {
        self.calibrate();
        let (result, cpu_s) = cpu_timed(work);
        self.calibrate();
        self.add(cpu_s, units(&result));
        result
    }

    /// Mean CPU seconds per unit.
    pub fn per_unit_s(&self) -> f64 {
        self.cpu_s / self.units
    }

    /// Mean CPU seconds of one reference step next to this work.
    pub fn matvec_s(&self) -> f64 {
        self.reference.matvec_s()
    }

    /// Mean CPU cost per unit in reference steps: the ratio of two totals
    /// taken over the same stretches of the run, so it moves linearly with
    /// the share of them the host was slow in, and that share cancels
    /// against the reference's.
    pub fn in_matvecs(&self) -> f64 {
        self.per_unit_s() / self.matvec_s()
    }
}

/// The three CPU costs every run reports.
#[derive(Debug, Default)]
pub struct Costs {
    /// Per completed quote.
    pub quote: Cost,
    /// Per recovery.
    pub recovery: Cost,
    /// Per training episode.
    pub train: Cost,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_steps_are_fixed_work() {
        assert_eq!(reference_steps(0), reference_steps(0));
        let mut cost = Cost::default();
        let units = cost.time(|| reference_steps(1), |_| 10.0);
        assert!(units.is_finite());
        assert!(cost.matvec_s() > 0.0);
        // The work was a tenth of one thread's share of a reference sample
        // per unit: STEPS / 10 reference steps per unit, give or take the
        // host's drift and the reference's thread start.
        let per_unit = cost.in_matvecs();
        assert!(per_unit > 0.2 * STEPS as f64 / 10.0, "{per_unit}");
        assert!(per_unit < 5.0 * STEPS as f64 / 10.0, "{per_unit}");
    }
}
