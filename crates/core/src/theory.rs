//! Error-propagation theory (paper §III-B): Theorems 1–2 and their
//! corollaries, plus Monte-Carlo verification helpers used by tests and
//! the `theory_check` harness binary.
//!
//! The paper models per-node compression errors as i.i.d. normal
//! `eᵢ ~ N(0, σ²)` truncated to `[−be, be]` (Fig. 5 justifies normality
//! empirically; `be ≈ 3σ` since ±3σ covers 99.74 %). The results:
//!
//! * **Theorem 1 / Corollary 1** — the aggregated Sum error over `n`
//!   nodes lies in `[−2√n·σ, 2√n·σ] = [−(2/3)√n·be, (2/3)√n·be]` with
//!   probability ≈ 95.44 %. With 100 nodes the interval is
//!   `±(20/3)·be` — vastly tighter than the worst case `n·be`.
//! * **Corollary 2** — the Average error is `N(0, σ²/n)`: averaging
//!   *shrinks* the error by `n`.
//! * **Theorem 2** — for Max/Min the error variance is
//!   `(2 − (n+2)/2ⁿ)·σ²` (each comparison has probability ½ of selecting
//!   the uncompressed operand).
//!
//! ## Two-level schedules
//!
//! The hierarchical allreduce reduces raw inside a node and compresses
//! only on its inter-node leg, so the `n` of the theorems counts nodes
//! there, not ranks. Running that leg as `L` lanes leaves it alone:
//! every element belongs to exactly one lane, whose Rabenseifner
//! exchange over the same `m` lane owners compresses it in the same
//! ⌈log₂ m⌉ halving and ⌈log₂ m⌉ doubling rounds at any `L`. Lane
//! boundaries only move where sub-chunk and block boundaries fall —
//! which elements land near the bound, not the bound.

/// Probability mass of a normal distribution within ±2σ — the paper's
/// headline confidence level (95.44 %).
pub const TWO_SIGMA_COVERAGE: f64 = 0.9544;

/// Probability mass within ±3σ (99.74 %), used for `be ≈ 3σ`.
pub const THREE_SIGMA_COVERAGE: f64 = 0.9974;

/// σ implied by an error bound under the paper's `be ≈ 3σ` assumption.
pub fn sigma_from_bound(error_bound: f64) -> f64 {
    error_bound / 3.0
}

/// Theorem 1: the half-width of the 95.44 % interval for the aggregated
/// **Sum** error over `n` nodes with per-node error std `sigma`:
/// `2·√n·σ`.
pub fn sum_error_halfwidth(n: usize, sigma: f64) -> f64 {
    2.0 * (n as f64).sqrt() * sigma
}

/// Corollary 1: the same half-width expressed in error-bound units:
/// `(2/3)·√n·be`.
pub fn sum_error_halfwidth_from_bound(n: usize, error_bound: f64) -> f64 {
    sum_error_halfwidth(n, sigma_from_bound(error_bound))
}

/// Corollary 2: the standard deviation of the **Average** error:
/// `σ/√n` (variance `σ²/n`).
pub fn avg_error_std(n: usize, sigma: f64) -> f64 {
    sigma / (n as f64).sqrt()
}

/// Theorem 2: the variance of the aggregated **Max/Min** error:
/// `(2 − (n+2)/2ⁿ)·σ²`.
pub fn maxmin_error_variance(n: usize, sigma: f64) -> f64 {
    let n_f = n as f64;
    let scale = if n >= 64 {
        2.0 // (n+2)/2^n vanishes
    } else {
        2.0 - (n_f + 2.0) / (2u64.pow(n as u32) as f64)
    };
    scale * sigma * sigma
}

/// The deterministic worst-case Sum error (`n·be`) that the
/// probabilistic bound improves upon; the ratio quantifies the paper's
/// "bounded with high probability" claim.
pub fn sum_error_worst_case(n: usize, error_bound: f64) -> f64 {
    n as f64 * error_bound
}

/// Outcome of a Monte-Carlo verification of Theorem 1 / Corollary 1.
#[derive(Debug, Clone, Copy)]
pub struct CoverageCheck {
    /// Number of aggregation trials performed.
    pub trials: usize,
    /// Fraction of trials whose aggregated error fell inside the
    /// predicted 95.44 % interval.
    pub empirical_coverage: f64,
    /// The predicted interval half-width.
    pub predicted_halfwidth: f64,
    /// Largest aggregated error observed.
    pub max_observed: f64,
}

/// Monte-Carlo check of Theorem 1: draw `n` per-node errors from a
/// truncated normal `N(0, (be/3)²)` clipped to `[−be, be]`, sum them,
/// and measure how often the sum lands in the predicted interval.
///
/// Deterministic in `seed`.
pub fn verify_sum_coverage(n: usize, error_bound: f64, trials: usize, seed: u64) -> CoverageCheck {
    let sigma = sigma_from_bound(error_bound);
    let half = sum_error_halfwidth(n, sigma);
    let mut rng = TheoryRng::new(seed);
    let mut inside = 0usize;
    let mut max_observed = 0.0f64;
    for _ in 0..trials {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += rng.truncated_gaussian(sigma, error_bound);
        }
        if sum.abs() <= half {
            inside += 1;
        }
        max_observed = max_observed.max(sum.abs());
    }
    CoverageCheck {
        trials,
        empirical_coverage: inside as f64 / trials.max(1) as f64,
        predicted_halfwidth: half,
        max_observed,
    }
}

/// Monte-Carlo check of Theorem 2 under the paper's generative model:
/// at each of the `n` comparison levels there is probability ½ that the
/// selected operand carries compressed (error-bearing) data, so the
/// number of independent errors `J` in the final value has
/// `P(J = j) = 2⁻ʲ` for `j = 1..n` (and the residual mass 2⁻ⁿ is the
/// lucky all-uncompressed path, J = 0). The resulting variance is the
/// paper's `Σⱼ j·σ²/2ʲ = (2 − (n+2)/2ⁿ)·σ²`.
///
/// Returns `(empirical_variance, predicted_variance)`.
pub fn verify_maxmin_variance(n: usize, error_bound: f64, trials: usize, seed: u64) -> (f64, f64) {
    let sigma = sigma_from_bound(error_bound);
    let predicted = maxmin_error_variance(n, sigma);
    let mut rng = TheoryRng::new(seed);
    let mut sq = 0.0f64;
    for _ in 0..trials {
        // Sample J from the paper's pmf by inverse transform.
        let u = rng.next_f64();
        let mut acc = 0.0;
        let mut j = 0usize;
        for cand in 1..=n {
            acc += 0.5f64.powi(cand as i32);
            if u < acc {
                j = cand;
                break;
            }
        }
        // j == 0 ⇒ the residual all-uncompressed path: zero error.
        let mut err = 0.0;
        for _ in 0..j {
            err += rng.truncated_gaussian(sigma, error_bound);
        }
        sq += err * err;
    }
    (sq / trials.max(1) as f64, predicted)
}

/// Small self-contained RNG so the theory checks don't depend on the
/// `rand` crate from a library context.
struct TheoryRng {
    state: u64,
}

impl TheoryRng {
    fn new(seed: u64) -> Self {
        TheoryRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    fn next_f64(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn gaussian(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// `N(0, σ²)` truncated (by resampling) to `[−bound, bound]`.
    fn truncated_gaussian(&mut self, sigma: f64, bound: f64) -> f64 {
        loop {
            let v = self.gaussian() * sigma;
            if v.abs() <= bound {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary1_numbers_match_paper() {
        // "if there are 100 nodes, the aggregated error is bounded in the
        //  range [−20/3·be, 20/3·be] with a probability of 95.44%".
        let be = 1.0;
        let half = sum_error_halfwidth_from_bound(100, be);
        assert!((half - 20.0 / 3.0).abs() < 1e-12, "got {half}");
    }

    #[test]
    fn sum_coverage_close_to_95() {
        let check = verify_sum_coverage(100, 1e-3, 40_000, 42);
        assert!(
            (check.empirical_coverage - TWO_SIGMA_COVERAGE).abs() < 0.01,
            "coverage {}",
            check.empirical_coverage
        );
        // The probabilistic interval beats the worst case by ~15x at n=100.
        assert!(check.predicted_halfwidth < sum_error_worst_case(100, 1e-3) / 10.0);
    }

    #[test]
    fn avg_error_shrinks_with_n() {
        let s1 = avg_error_std(1, 0.3);
        let s100 = avg_error_std(100, 0.3);
        assert!((s1 / s100 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_variance_formula() {
        // n=1: (2 - 3/2)σ² = 0.5σ² ... the paper's formula at small n.
        let sigma = 1.0;
        assert!((maxmin_error_variance(1, sigma) - 0.5).abs() < 1e-12);
        // n=2: (2 - 4/4) = 1.
        assert!((maxmin_error_variance(2, sigma) - 1.0).abs() < 1e-12);
        // Large n → 2σ².
        assert!((maxmin_error_variance(200, sigma) - 2.0).abs() < 1e-9);
        // Monotone increasing in n.
        let mut prev = 0.0;
        for n in 1..30 {
            let v = maxmin_error_variance(n, sigma);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn maxmin_empirical_matches_model() {
        let (empirical, predicted) = verify_maxmin_variance(10, 3e-3, 60_000, 7);
        let rel = (empirical - predicted).abs() / predicted;
        assert!(rel < 0.1, "empirical {empirical} vs predicted {predicted}");
    }

    #[test]
    fn truncation_respected() {
        let mut rng = TheoryRng::new(3);
        for _ in 0..10_000 {
            let v = rng.truncated_gaussian(0.5, 1.0);
            assert!(v.abs() <= 1.0);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = verify_sum_coverage(16, 1e-2, 1000, 5);
        let b = verify_sum_coverage(16, 1e-2, 1000, 5);
        assert_eq!(a.empirical_coverage, b.empirical_coverage);
        assert_eq!(a.max_observed, b.max_observed);
    }
}
