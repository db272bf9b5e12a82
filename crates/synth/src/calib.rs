//! Calibration pins: tests asserting the synthetic substrate reproduces
//! the statistics the paper's techniques depend on.
//!
//! These are the constants DESIGN.md §4.3 commits to. If a refactor drifts
//! the substrate away from the paper's measured phenomena, these tests
//! fail before any benchmark silently degrades.

#[cfg(test)]
mod tests {
    use crate::profile::DatasetProfile;
    use crate::schedule::SaturationDriver;

    /// Target ±2-layer / last-5-token context-similarity hit ratio (Fig. 11
    /// reports ~80 %).
    const CONTEXT_SIMILARITY_TARGET: f64 = 0.80;

    /// Acceptable band around [`CONTEXT_SIMILARITY_TARGET`].
    const CONTEXT_SIMILARITY_BAND: f64 = 0.10;

    /// Maximum share of exit mass carried by the bottom-50 % least-frequent
    /// layers (Fig. 10: "does not exceed 20 %").
    const SKEW_BOTTOM_HALF_MAX: f64 = 0.20;

    /// Mean actual-forward-layer fraction SpecEE should land in on Llama2-7B
    /// (Table 4: ~23/32 ≈ 0.72, band covers per-dataset variation).
    const AVG_LAYER_FRACTION_7B: (f64, f64) = (0.60, 0.82);

    #[test]
    fn all_profiles_reproduce_context_similarity() {
        for profile in DatasetProfile::all() {
            let mut d = SaturationDriver::new(&profile, 32, 11);
            let mut prev = None;
            let mut history: Vec<i64> = Vec::new();
            let (mut hits, mut total) = (0usize, 0usize);
            for _ in 0..3000 {
                let s = d.sample(prev);
                prev = Some(s);
                let li = s.round() as i64;
                if history.len() >= 5 {
                    total += 1;
                    if history.iter().rev().take(5).any(|&h| (h - li).abs() <= 2) {
                        hits += 1;
                    }
                }
                history.push(li);
            }
            let ratio = hits as f64 / total as f64;
            assert!(
                (ratio - CONTEXT_SIMILARITY_TARGET).abs() <= CONTEXT_SIMILARITY_BAND + 0.05,
                "{}: hit ratio {ratio}",
                profile.name
            );
        }
    }

    #[test]
    fn all_profiles_reproduce_skew() {
        for profile in DatasetProfile::all() {
            let mut d = SaturationDriver::new(&profile, 32, 13);
            let mut hist = vec![0usize; 32];
            for _ in 0..6000 {
                hist[d.sample_base().round() as usize] += 1;
            }
            let mut sorted = hist.clone();
            sorted.sort_unstable();
            let bottom: usize = sorted[..16].iter().sum();
            let total: usize = sorted.iter().sum();
            assert!(
                (bottom as f64) < SKEW_BOTTOM_HALF_MAX * total as f64,
                "{}: bottom half {bottom}/{total}",
                profile.name
            );
        }
    }

    #[test]
    fn mean_saturation_consistent_with_table4() {
        // With the paper's ~0.88 hit rate, actual layers ≈
        // hit·(sat+1) + (1-hit)·32; check the sat component lands so that
        // the blend falls in the Table-4 band.
        for profile in DatasetProfile::accuracy_set() {
            let mut d = SaturationDriver::new(&profile, 32, 17);
            let mut prev = None;
            let n = 3000;
            let mean_sat: f64 = (0..n)
                .map(|_| {
                    let s = d.sample(prev);
                    prev = Some(s);
                    s
                })
                .sum::<f64>()
                / n as f64;
            let actual = profile.hit_rate * (mean_sat + 1.0) + (1.0 - profile.hit_rate) * 32.0;
            let frac = actual / 32.0;
            assert!(
                (AVG_LAYER_FRACTION_7B.0..AVG_LAYER_FRACTION_7B.1).contains(&frac),
                "{}: fraction {frac}",
                profile.name
            );
        }
    }
}
