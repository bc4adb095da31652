//! Acceptance check for the bit-utilization accounting (paper Fig. 1):
//! running the logreg proxy under BitPacker and classic RNS-CKKS at equal
//! parameters (same word size, ring degree, depth, scale schedule) must
//! show BitPacker's mean packing efficiency strictly above RNS-CKKS's.
//!
//! The whole comparison lives in one test function because the trace
//! recorder is process-global.

use bp_ckks::telemetry::efficiency::EfficiencyReport;
use bp_ckks::telemetry::{self, export, profile, trace};
use bp_ckks::Representation;
use bp_workloads::functional::{proxy_context_with_word_bits, run_proxy_in};
use bp_workloads::App;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

const WORD_BITS: u32 = 28;
const LOG_N: u32 = 8;
const LEVELS: usize = 6;

fn logreg_efficiency(repr: Representation) -> EfficiencyReport {
    trace::reset();
    let ctx = proxy_context_with_word_bits(App::LogReg, repr, WORD_BITS, LOG_N, LEVELS);
    let mut rng = ChaCha20Rng::seed_from_u64(42);
    let report = run_proxy_in(&ctx, App::LogReg, &mut rng);
    assert!(report.mean_bits > 4.0, "proxy must still compute something");
    EfficiencyReport::of(&trace::snapshot().entries)
}

#[test]
fn bitpacker_packs_strictly_tighter_than_rns_ckks_at_equal_parameters() {
    telemetry::set_enabled(true);

    let bp = logreg_efficiency(Representation::BitPacker);
    let rc = logreg_efficiency(Representation::RnsCkks);
    assert!(
        bp.samples > 0 && rc.samples > 0,
        "both runs must record ops"
    );
    assert!(
        bp.mean_efficiency() > rc.mean_efficiency(),
        "BitPacker mean packing efficiency {:.4} must beat RNS-CKKS {:.4} at w={WORD_BITS}",
        bp.mean_efficiency(),
        rc.mean_efficiency()
    );
    // The gap shows up as wasted bits too, and per level.
    assert!(bp.mean_wasted_bits() < rc.mean_wasted_bits());
    assert!(!bp.levels.is_empty() && !rc.levels.is_empty());

    // The same run feeds the exposition and profiler paths: the
    // Prometheus document carries the (RNS-CKKS, last-reset) efficiency
    // gauges and the span tree has op-rooted folded stacks.
    let prom = export::prometheus();
    assert!(prom.contains(&format!(
        "\nbitpacker_packing_samples_total {}\n",
        rc.samples
    )));
    assert!(prom.contains(&format!(
        "\nbitpacker_packing_efficiency_mean {}\n",
        rc.mean_efficiency()
    )));
    assert!(prom.contains("bitpacker_packing_wasted_bits_bucket"));
    let folded = profile::snapshot().folded();
    assert!(
        folded.lines().any(|l| l.starts_with("mul_plain")),
        "proxy ops must appear as folded-stack roots:\n{folded}"
    );
}
