//! The draw-call timing loop.
//!
//! The paper times each shader variant by rendering 100 frames of front-to-
//! back full-screen triangles, repeating the whole run 5 times, and reading
//! `GL_TIME_ELAPSED` queries around every draw (§IV-B). This module performs
//! the equivalent measurement against the simulated platforms: the shader is
//! submitted to the platform's driver once, then the timing model is sampled
//! frame by frame with seeded noise.

use prism_gpu::{NoiseState, Platform, ShaderCost};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measurement-loop configuration (defaults follow the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureConfig {
    /// Frames rendered per repeat (paper: 100).
    pub frames: usize,
    /// Number of repeats of the whole run (paper: 5).
    pub repeats: usize,
    /// Base RNG seed; each (shader, platform) measurement derives its own
    /// stream from this so results are reproducible.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            frames: 100,
            repeats: 5,
            seed: 0xC0FFEE,
        }
    }
}

impl MeasureConfig {
    /// A light-weight configuration for unit tests and quick runs.
    pub fn quick() -> MeasureConfig {
        MeasureConfig {
            frames: 10,
            repeats: 2,
            seed: 0xC0FFEE,
        }
    }

    /// Total number of timed frames.
    pub fn total_frames(&self) -> usize {
        self.frames * self.repeats
    }
}

/// Aggregated timing for one shader variant on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Mean measured frame time in nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation over all frames.
    pub stddev_ns: f64,
    /// Noise-free model time (for debugging / sanity checks).
    pub ideal_ns: f64,
}

impl Measurement {
    /// Relative measurement error of the mean versus the noise-free model.
    pub fn relative_error(&self) -> f64 {
        (self.mean_ns - self.ideal_ns).abs() / self.ideal_ns.max(1.0)
    }
}

/// Times one already-driver-compiled shader on a platform.
pub fn measure_cost(
    platform: &Platform,
    cost: &ShaderCost,
    config: &MeasureConfig,
    stream: u64,
) -> Measurement {
    let mut samples = Vec::with_capacity(config.total_frames());
    // One noise state for the whole measurement pass: the device does not
    // cool back to ambient between back-to-back repeats, so the phones'
    // thermal drift carries across the repeat boundary. Desktops never touch
    // the drift state (their specs have no `thermal_drift`), so their streams
    // are unaffected by the carried state.
    let mut noise = NoiseState::new();
    for repeat in 0..config.repeats {
        // Each repeat still gets its own RNG stream, like the paper's five
        // separately-launched runs of the timing app.
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15) ^ (repeat as u64) << 32,
        );
        for _ in 0..config.frames {
            samples.push(
                platform
                    .sample_frame_with(cost, &mut rng, &mut noise)
                    .nanoseconds,
            );
        }
    }
    summarise(&samples, cost.ideal_frame_ns)
}

fn summarise(samples: &[f64], ideal_ns: f64) -> Measurement {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    Measurement {
        mean_ns: mean,
        stddev_ns: var.sqrt(),
        ideal_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_gpu::Vendor;

    const SHADER: &str = "uniform sampler2D tex; uniform vec4 tint; in vec2 uv; out vec4 c;\n\
        void main() { c = texture(tex, uv) * tint; }";

    /// `SHADER` submitted to `platform`'s driver and timed.
    fn measure(platform: &Platform, config: &MeasureConfig, stream: u64) -> Measurement {
        let cost = platform.submit(SHADER, "simple").unwrap();
        measure_cost(platform, &cost, config, stream)
    }

    #[test]
    fn measurement_aggregates_the_right_number_of_frames() {
        let platform = Platform::new(Vendor::Intel);
        let config = MeasureConfig {
            frames: 20,
            repeats: 3,
            seed: 1,
        };
        let m = measure(&platform, &config, 0);
        assert!(m.mean_ns > 0.0);
    }

    #[test]
    fn averaging_many_frames_suppresses_noise() {
        let platform = Platform::new(Vendor::Qualcomm);
        let long = MeasureConfig {
            frames: 200,
            repeats: 5,
            seed: 7,
        };
        let m = measure(&platform, &long, 3);
        // With 1000 samples the mean should sit within a fraction of the
        // per-sample noise of the ideal value.
        assert!(
            m.relative_error() < platform.spec.timer_noise,
            "error {} vs noise {}",
            m.relative_error(),
            platform.spec.timer_noise
        );
    }

    #[test]
    fn measurements_are_reproducible() {
        let platform = Platform::new(Vendor::Arm);
        let config = MeasureConfig::quick();
        let a = measure(&platform, &config, 5);
        let b = measure(&platform, &config, 5);
        assert_eq!(a, b);
        // A different stream gives different noise but a similar mean.
        let c = measure(&platform, &config, 6);
        assert_ne!(a.mean_ns, c.mean_ns);
        assert!((a.mean_ns - c.mean_ns).abs() / a.mean_ns < 0.05);
    }

    #[test]
    fn desktop_streams_are_unchanged_by_carrying_noise_state() {
        // Pinning: desktops consume no RNG and no state for thermal drift,
        // so carrying one `NoiseState` across repeats must reproduce the
        // historical per-repeat-cold-start stream bit for bit.
        for vendor in [Vendor::Amd, Vendor::Nvidia, Vendor::Intel] {
            let platform = Platform::new(vendor);
            let config = MeasureConfig {
                frames: 25,
                repeats: 4,
                seed: 11,
            };
            let cost = platform.submit(SHADER, "simple").unwrap();
            let carried = measure_cost(&platform, &cost, &config, 2);

            // The pre-fix loop, reconstructed: cold NoiseState per repeat.
            let mut samples = Vec::new();
            for repeat in 0..config.repeats {
                let mut rng = StdRng::seed_from_u64(
                    config.seed ^ 2u64.wrapping_mul(0x9E3779B97F4A7C15) ^ (repeat as u64) << 32,
                );
                let mut noise = NoiseState::new();
                for _ in 0..config.frames {
                    samples.push(
                        platform
                            .sample_frame_with(&cost, &mut rng, &mut noise)
                            .nanoseconds,
                    );
                }
            }
            let cold_mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert_eq!(
                carried.mean_ns, cold_mean,
                "{vendor:?}: desktop stream changed when NoiseState was carried"
            );
        }
    }

    #[test]
    fn phone_thermal_drift_carries_across_repeats() {
        // On the two phones the drift state must persist across the repeat
        // boundary: re-running the same loop with a cold state per repeat
        // (the old bug) yields a different stream.
        for vendor in [Vendor::Arm, Vendor::Qualcomm] {
            let platform = Platform::new(vendor);
            let config = MeasureConfig {
                frames: 25,
                repeats: 4,
                seed: 11,
            };
            let cost = platform.submit(SHADER, "simple").unwrap();
            let carried = measure_cost(&platform, &cost, &config, 2);

            let mut samples = Vec::new();
            for repeat in 0..config.repeats {
                let mut rng = StdRng::seed_from_u64(
                    config.seed ^ 2u64.wrapping_mul(0x9E3779B97F4A7C15) ^ (repeat as u64) << 32,
                );
                let mut noise = NoiseState::new();
                for _ in 0..config.frames {
                    samples.push(
                        platform
                            .sample_frame_with(&cost, &mut rng, &mut noise)
                            .nanoseconds,
                    );
                }
            }
            let cold_mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert_ne!(
                carried.mean_ns, cold_mean,
                "{vendor:?}: drift state did not persist across repeats"
            );
            // Still deterministic and still a sane measurement.
            let again = measure_cost(&platform, &cost, &config, 2);
            assert_eq!(carried, again);
            assert!(carried.relative_error() < 0.25);
        }
    }

    #[test]
    fn paper_configuration_is_the_default() {
        let c = MeasureConfig::default();
        assert_eq!(c.frames, 100);
        assert_eq!(c.repeats, 5);
        assert_eq!(c.total_frames(), 500);
    }

    #[test]
    fn bad_shader_source_is_rejected() {
        let platform = Platform::new(Vendor::Amd);
        assert!(platform.submit("void main() { broken", "bad").is_err());
    }
}
