//! Self-contained samplers for the three distributions the Quest generator
//! needs. Implemented directly on `rand::Rng` (rather than pulling in
//! `rand_distr`) so the generator's statistical behaviour is fully pinned
//! by this crate.

use rand::Rng;

/// Poisson sampler (Knuth's product-of-uniforms for small means, which is
/// all the generator uses: `|T| ≈ 15`, `|I| ≈ 6`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Poisson {
    /// `exp(-mean)`: where Knuth's running product stops.
    threshold: f64,
}

impl Poisson {
    /// A Poisson distribution with the given mean.
    ///
    /// # Panics
    /// If `mean` is not finite and positive, or large enough to make
    /// Knuth's method degenerate (> 700).
    pub(crate) fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0 && mean <= 700.0,
            "Poisson mean out of supported range: {mean}"
        );
        Poisson {
            threshold: (-mean).exp(),
        }
    }

    /// Draws one sample.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut k = 0u64;
        let mut product: f64 = 1.0;
        loop {
            product *= rng.gen::<f64>();
            if product <= self.threshold {
                return k;
            }
            k += 1;
        }
    }
}

/// Exponential sampler by inversion: `-mean · ln(1 - u)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exponential {
    mean: f64,
}

impl Exponential {
    /// An exponential distribution with the given mean.
    pub(crate) fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "Exponential mean must be positive"
        );
        Exponential { mean }
    }

    /// Draws one sample.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u ∈ (0, 1]: ln never sees 0.
        -self.mean * (1.0 - rng.gen::<f64>()).ln()
    }
}

/// Normal sampler via Box–Muller (one value per call; the spare is
/// discarded to keep the sampler stateless and `Copy`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// A normal distribution with the given mean and standard deviation.
    pub(crate) fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd.is_finite() && sd >= 0.0,
            "standard deviation must be non-negative"
        );
        Normal { mean, sd }
    }

    /// Draws one sample.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.sd * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    const TRIALS: usize = 20_000;

    fn mean_and_var(samples: impl Iterator<Item = f64>) -> (f64, f64, usize) {
        let v: Vec<f64> = samples.collect();
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var, n)
    }

    #[test]
    fn poisson_mean_and_variance_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Poisson::new(15.0);
        let (mean, var, _) = mean_and_var((0..TRIALS).map(|_| d.sample(&mut rng) as f64));
        assert!((mean - 15.0).abs() < 0.3, "mean {mean}");
        assert!((var - 15.0).abs() < 1.0, "variance {var}");
    }

    #[test]
    fn poisson_small_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Poisson::new(0.5);
        let (mean, _, _) = mean_and_var((0..TRIALS).map(|_| d.sample(&mut rng) as f64));
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "out of supported range")]
    fn poisson_rejects_bad_mean() {
        Poisson::new(0.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Exponential::new(4.0);
        let (mean, var, _) = mean_and_var((0..TRIALS).map(|_| d.sample(&mut rng)));
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
        // Var = mean² for exponential.
        assert!((var - 16.0).abs() < 2.0, "variance {var}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Exponential::new(0.25);
        assert!((0..1000).all(|_| d.sample(&mut rng) >= 0.0));
    }

    #[test]
    fn normal_mean_and_sd_match() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Normal::new(0.5, 0.3);
        let (mean, var, _) = mean_and_var((0..TRIALS).map(|_| d.sample(&mut rng)));
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.3).abs() < 0.02, "sd {}", var.sqrt());
    }

    #[test]
    fn normal_zero_sd_is_constant() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = Normal::new(2.0, 0.0);
        assert!((0..100).all(|_| d.sample(&mut rng) == 2.0));
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let sample_all = |seed: u64| -> (u64, f64, f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                Poisson::new(6.0).sample(&mut rng),
                Exponential::new(1.0).sample(&mut rng),
                Normal::new(0.0, 1.0).sample(&mut rng),
            )
        };
        assert_eq!(sample_all(7), sample_all(7));
        assert_ne!(sample_all(7), sample_all(8));
    }
}
