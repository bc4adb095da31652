//! Trace simulation: time and energy for a stream of homomorphic ops.
//!
//! CraterLake-class accelerators decouple compute from memory with
//! explicitly-orchestrated on-chip storage, so per-op execution time is the
//! maximum of each FU class's busy time and memory time (a roofline over
//! six compute dimensions plus bandwidth). Register-file pressure is
//! modeled as a spill multiplier on DRAM traffic: once the working set
//! exceeds the register file, operands must be re-fetched (paper Fig. 17
//! shows RNS-CKKS falling off this cliff earlier than BitPacker because its
//! ciphertexts are larger).

use crate::compile::{compile, FheOp, OpCategory, TraceContext};
use crate::config::{AcceleratorConfig, FuKind};
use crate::energy::{EnergyBreakdown, EnergyModel};

/// One trace entry: an op repeated `count` times at the same level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    /// The operation.
    pub op: FheOp,
    /// Repetition count (ops of the same shape at the same level).
    pub count: f64,
}

/// Simulation output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Total cycles.
    pub cycles: f64,
    /// Total wall-clock milliseconds.
    pub ms: f64,
    /// Total energy breakdown.
    pub energy: EnergyBreakdown,
    /// Energy spent in level management (rescale/adjust), mJ — the red bars
    /// of Fig. 12.
    pub levelmgmt_mj: f64,
    /// Energy spent in everything else, mJ.
    pub other_mj: f64,
    /// Cycles spent in level management.
    pub levelmgmt_cycles: f64,
    /// Total DRAM traffic in bytes (after spill inflation).
    pub dram_bytes: f64,
    /// Busy cycles per FU class (same order as
    /// [`crate::config::FU_KINDS`]).
    pub fu_cycles: [f64; 6],
}

impl SimReport {
    /// Energy-delay product in mJ·ms (paper Sec. 6.1 reports EDP gains).
    pub fn edp(&self) -> f64 {
        self.energy.total_mj() * self.ms
    }

    /// Per-FU occupancy: busy cycles over total cycles, in
    /// [`crate::config::FU_KINDS`] order (zeros for an empty run).
    pub fn fu_occupancy(&self) -> [f64; 6] {
        let mut occ = [0.0; 6];
        if self.cycles > 0.0 {
            for (o, &busy) in occ.iter_mut().zip(&self.fu_cycles) {
                *o = busy / self.cycles;
            }
        }
        occ
    }
}

/// Spill multiplier on DRAM traffic when the working set exceeds the
/// register file. Calibrated to the Fig. 17 shape: no penalty at or below
/// capacity, superlinear growth past it.
fn spill_factor(working_set_mb: f64, regfile_mb: f64) -> f64 {
    if working_set_mb <= regfile_mb {
        1.0
    } else {
        let pressure = working_set_mb / regfile_mb;
        pressure.powf(2.5).min(64.0)
    }
}

/// Simulates a trace on a machine.
///
/// `working_set_mb` is the program's live-data footprint (ciphertexts +
/// keyswitch hints at the largest level), used for the register-file spill
/// model; pass 0.0 to disable spilling.
pub fn simulate(
    trace: &[TraceOp],
    cfg: &AcceleratorConfig,
    ctx: &TraceContext,
    working_set_mb: f64,
) -> SimReport {
    let model = EnergyModel::default();
    let spill = spill_factor(working_set_mb, cfg.regfile_mb);
    let mut report = SimReport::default();

    for t in trace {
        let mut work = compile(&t.op, ctx, cfg.word_bits, cfg.kshgen);
        work.dram_bytes *= spill;
        let work = work.scaled(t.count);

        let fu_cycles = [
            work.mul_elems / cfg.throughput(FuKind::Mul),
            work.add_elems / cfg.throughput(FuKind::Add),
            work.ntt_count * ctx.n as f64 / cfg.throughput(FuKind::Ntt),
            work.autom_elems / cfg.throughput(FuKind::Automorphism),
            work.crb_macs / cfg.throughput(FuKind::Crb),
            work.kshgen_elems / cfg.throughput(FuKind::KshGen),
        ];
        let mem_cycles = work.dram_bytes / cfg.mem_bytes_per_cycle();
        let op_cycles = fu_cycles.iter().copied().fold(mem_cycles, f64::max);

        let e = model.energy(&work, ctx.n, cfg);
        report.cycles += op_cycles;
        report.dram_bytes += work.dram_bytes;
        for (acc, c) in report.fu_cycles.iter_mut().zip(fu_cycles) {
            *acc += c;
        }
        report.energy.add(&e);
        match t.op.category() {
            OpCategory::LevelMgmt => {
                report.levelmgmt_mj += e.total_mj();
                report.levelmgmt_cycles += op_cycles;
            }
            OpCategory::Other => report.other_mj += e.total_mj(),
        }
    }
    report.ms = report.cycles / (cfg.freq_ghz * 1e9) * 1e3;
    record_occupancy(&report);
    report
}

/// Surfaces per-FU utilization through the telemetry exposition path:
/// cumulative busy/total cycle counters plus the occupancy of the most
/// recent run (only while telemetry recording is on).
fn record_occupancy(report: &SimReport) {
    if !bp_telemetry::enabled() {
        return;
    }
    let occupancy = report.fu_occupancy();
    for (i, fu) in crate::config::FU_KINDS.iter().enumerate() {
        let labels = [("fu", fu.name())];
        bp_telemetry::export::gauge_add("accel_fu_busy_cycles", &labels, report.fu_cycles[i]);
        bp_telemetry::export::gauge_set("accel_fu_occupancy", &labels, occupancy[i]);
    }
    bp_telemetry::export::gauge_add("accel_cycles_total", &[], report.cycles);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TraceContext {
        TraceContext {
            n: 1 << 16,
            dnum: 3,
            special: 10,
        }
    }

    fn mult_trace(r: usize, count: f64) -> Vec<TraceOp> {
        vec![
            TraceOp {
                op: FheOp::HMult { r },
                count,
            },
            TraceOp {
                op: FheOp::Rescale {
                    r,
                    shed: 2,
                    added: 1,
                    batched: true,
                },
                count,
            },
        ]
    }

    #[test]
    fn fewer_residues_run_superlinearly_faster() {
        // Paper Sec. 4.2: performance grows about R^1.5 on balanced
        // systems (special primes scale with the digit size).
        let cfg = AcceleratorConfig::craterlake();
        let run = |r: usize| {
            let c = TraceContext {
                n: 1 << 16,
                dnum: 3,
                special: r.div_ceil(3),
            };
            simulate(&mult_trace(r, 100.0), &cfg, &c, 0.0)
        };
        let slow = run(48);
        let fast = run(24);
        let speedup = slow.ms / fast.ms;
        let exponent = speedup.ln() / 2.0f64.ln();
        assert!(
            (1.15..2.2).contains(&exponent),
            "time exponent {exponent:.2} (speedup {speedup:.2})"
        );
    }

    #[test]
    fn level_management_is_minor() {
        // Paper Fig. 12: level management is ~4-7% of energy.
        let cfg = AcceleratorConfig::craterlake();
        let r = simulate(&mult_trace(30, 10.0), &cfg, &ctx(), 0.0);
        let share = r.levelmgmt_mj / (r.levelmgmt_mj + r.other_mj);
        assert!(
            (0.005..0.20).contains(&share),
            "level mgmt share {share:.3} out of range"
        );
    }

    #[test]
    fn spill_slows_down_once_working_set_exceeds_rf() {
        let cfg = AcceleratorConfig::craterlake().with_regfile_mb(150.0);
        let fit = simulate(&mult_trace(30, 10.0), &cfg, &ctx(), 100.0);
        let spill = simulate(&mult_trace(30, 10.0), &cfg, &ctx(), 300.0);
        assert!(spill.ms > fit.ms, "spilling must cost time");
        assert!(spill.dram_bytes > 2.0 * fit.dram_bytes);
    }

    #[test]
    fn iso_throughput_wordsize_flat_for_packed_residues() {
        // The essence of Fig. 14's flat BitPacker curve: if residue count
        // scales as 1/w (packed ciphertexts), execution time stays roughly
        // constant across word sizes.
        let base = AcceleratorConfig::craterlake();
        let ms_at = |w: u32, r: usize| {
            let cfg = base.with_word_bits(w);
            let c = TraceContext {
                n: 1 << 16,
                dnum: 3,
                special: r.div_ceil(3),
            };
            simulate(&mult_trace(r, 50.0), &cfg, &c, 0.0).ms
        };
        // 1600 bits of modulus: 58 residues at 28-bit, 25 at 64-bit.
        let t28 = ms_at(28, 58);
        let t64 = ms_at(64, 25);
        let ratio = t64 / t28;
        assert!(
            (0.6..1.5).contains(&ratio),
            "packed time should be ~flat across word size, got {ratio:.2}"
        );
    }

    #[test]
    fn unpacked_residues_waste_time_at_wide_words() {
        // The essence of RNS-CKKS's Fig. 14 penalty at 64-bit: same residue
        // *count* (because residues are scale-sized, not word-sized) on a
        // machine with fewer lanes.
        let base = AcceleratorConfig::craterlake();
        let c = ctx();
        let t28 = simulate(&mult_trace(40, 50.0), &base.with_word_bits(28), &c, 0.0);
        let t64 = simulate(&mult_trace(40, 50.0), &base.with_word_bits(64), &c, 0.0);
        assert!(
            t64.ms > 1.8 * t28.ms,
            "same R at 64-bit should be ~2x slower: {:.2} vs {:.2}",
            t64.ms,
            t28.ms
        );
    }

    #[test]
    fn energy_delay_product_combines_both() {
        let cfg = AcceleratorConfig::craterlake();
        let r = simulate(&mult_trace(30, 10.0), &cfg, &ctx(), 0.0);
        assert!(r.edp() > 0.0);
        assert!((r.edp() - r.energy.total_mj() * r.ms).abs() < 1e-9);
    }
}
