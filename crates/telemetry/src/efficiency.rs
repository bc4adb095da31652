//! Bit-utilization accounting — the paper's arithmetic-efficiency lens
//! applied to live evaluations.
//!
//! The paper defines packing efficiency as `log Q / (R·w)`: the scale
//! bits actually carried by a ciphertext divided by the datapath bits its
//! `R` residues of `w`-bit words occupy (Fig. 1). Every trace record
//! carries the per-op value ([`OpRecord::efficiency`]);
//! [`EfficiencyReport::of`] folds a run's records into a per-level
//! table, a wasted-bit histogram, and mean/min/max efficiency. Because
//! BitPacker and classic RNS-CKKS chains run through the same evaluator,
//! the same accounting measures both — the efficiency gap between them
//! becomes a number instead of a figure.

use crate::json::Obj;
use crate::trace::{OpRecord, TraceEntry};

/// Number of buckets in the wasted-bit histogram.
pub const NUM_WASTE_BUCKETS: usize = 8;

/// Upper bounds (inclusive, in bits) of the first `NUM_WASTE_BUCKETS−1`
/// histogram buckets; the final bucket is unbounded (`+Inf`).
pub const WASTE_BUCKET_BOUNDS: [f64; NUM_WASTE_BUCKETS - 1] =
    [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Histogram bucket index for a wasted-bit count.
fn waste_bucket(wasted: f64) -> usize {
    WASTE_BUCKET_BOUNDS
        .iter()
        .position(|&b| wasted <= b)
        .unwrap_or(NUM_WASTE_BUCKETS - 1)
}

/// Aggregated utilization for one chain level.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelEfficiency {
    /// Chain level this row aggregates.
    pub level: usize,
    /// Ops observed at this level.
    pub ops: u64,
    /// Sum of per-op efficiencies (divide by `ops` for the mean).
    pub sum_efficiency: f64,
    /// Minimum per-op efficiency seen at this level.
    pub min_efficiency: f64,
    /// Summed wasted bits across ops at this level.
    pub wasted_bits: f64,
}

impl LevelEfficiency {
    /// Mean packing efficiency at this level (0 when no ops).
    pub fn mean_efficiency(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.sum_efficiency / self.ops as f64
        }
    }
}

/// Per-program bit-utilization report: mean/min/max packing efficiency,
/// a wasted-bit histogram, and a per-level breakdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EfficiencyReport {
    /// Total samples (ops) observed.
    pub samples: u64,
    /// Sum of per-op efficiencies (divide by `samples` for the mean).
    pub sum_efficiency: f64,
    /// Minimum per-op efficiency observed (0 when empty).
    pub min_efficiency: f64,
    /// Maximum per-op efficiency observed (0 when empty).
    pub max_efficiency: f64,
    /// Summed wasted bits across all ops.
    pub wasted_bits: f64,
    /// Wasted-bit histogram; bucket `i` counts ops whose wasted bits
    /// fall at or below [`WASTE_BUCKET_BOUNDS`]`[i]` (last bucket:
    /// everything larger).
    pub histogram: [u64; NUM_WASTE_BUCKETS],
    /// Per-level rows, ascending by level; only levels with ops appear.
    pub levels: Vec<LevelEfficiency>,
}

impl EfficiencyReport {
    /// Mean packing efficiency across all observed ops (0 when empty).
    pub fn mean_efficiency(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_efficiency / self.samples as f64
        }
    }

    /// Mean wasted bits per op (0 when empty).
    pub fn mean_wasted_bits(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.wasted_bits / self.samples as f64
        }
    }

    /// The report over `entries`, in order.
    pub fn of(entries: &[TraceEntry]) -> Self {
        let mut report = Self::default();
        for e in entries {
            report.observe(&e.op);
        }
        report
    }

    fn observe(&mut self, op: &OpRecord) {
        let eff = op.efficiency();
        let wasted = op.wasted_bits();
        if self.samples == 0 {
            self.min_efficiency = eff;
            self.max_efficiency = eff;
        } else {
            self.min_efficiency = self.min_efficiency.min(eff);
            self.max_efficiency = self.max_efficiency.max(eff);
        }
        self.samples += 1;
        self.sum_efficiency += eff;
        self.wasted_bits += wasted;
        self.histogram[waste_bucket(wasted)] += 1;
        let row = match self.levels.binary_search_by_key(&op.level, |r| r.level) {
            Ok(i) => &mut self.levels[i],
            Err(i) => {
                self.levels.insert(
                    i,
                    LevelEfficiency {
                        level: op.level,
                        ..LevelEfficiency::default()
                    },
                );
                &mut self.levels[i]
            }
        };
        if row.ops == 0 {
            row.min_efficiency = eff;
        } else {
            row.min_efficiency = row.min_efficiency.min(eff);
        }
        row.ops += 1;
        row.sum_efficiency += eff;
        row.wasted_bits += wasted;
    }

    /// Serializes the report as a compact JSON document.
    pub fn to_json(&self) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|r| {
                Obj::new()
                    .u64("level", r.level as u64)
                    .u64("ops", r.ops)
                    .f64("mean_efficiency", r.mean_efficiency())
                    .f64("min_efficiency", r.min_efficiency)
                    .f64("wasted_bits", r.wasted_bits)
                    .build()
            })
            .collect();
        let histogram: Vec<String> = self.histogram.iter().map(|c| c.to_string()).collect();
        Obj::new()
            .str("schema", "bitpacker-efficiency/v1")
            .u64("samples", self.samples)
            .f64("mean_efficiency", self.mean_efficiency())
            .f64("min_efficiency", self.min_efficiency)
            .f64("max_efficiency", self.max_efficiency)
            .f64("wasted_bits", self.wasted_bits)
            .f64("mean_wasted_bits", self.mean_wasted_bits())
            .arr("wasted_bits_histogram", histogram)
            .arr("levels", levels)
            .build()
    }

    /// Renders a fixed-width per-level table for terminal reports.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "packing efficiency: mean {:.4}  min {:.4}  max {:.4}  ({} ops, {:.1} wasted bits/op)\n",
            self.mean_efficiency(),
            self.min_efficiency,
            self.max_efficiency,
            self.samples,
            self.mean_wasted_bits(),
        ));
        out.push_str(&format!(
            "{:>5} {:>8} {:>10} {:>10} {:>12}\n",
            "level", "ops", "mean eff", "min eff", "wasted bits"
        ));
        for r in &self.levels {
            out.push_str(&format!(
                "{:>5} {:>8} {:>10.4} {:>10.4} {:>12.1}\n",
                r.level,
                r.ops,
                r.mean_efficiency(),
                r.min_efficiency,
                r.wasted_bits,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpKind;

    fn entry(level: usize, residues: usize, word_bits: u32, log_q: f64) -> TraceEntry {
        TraceEntry {
            seq: 0,
            op: OpRecord {
                kind: OpKind::Mul,
                level,
                residues,
                shed: 0,
                added: 0,
                word_bits,
                batched: false,
                repair: false,
                duration_ns: 0,
                noise_bits: 0.0,
                clear_bits: 0.0,
                scale_log2: 0.0,
                log_q,
                ir_op: None,
            },
        }
    }

    #[test]
    fn record_math_matches_the_paper_definition() {
        // 5 residues of 28-bit words carrying 127.5 modulus bits:
        // efficiency = 127.5 / 140, waste = 12.5.
        let op = entry(3, 5, 28, 127.5).op;
        assert!((op.capacity_bits() - 140.0).abs() < 1e-12);
        assert!((op.efficiency() - 127.5 / 140.0).abs() < 1e-12);
        assert!((op.wasted_bits() - 12.5).abs() < 1e-12);
        assert_eq!(entry(0, 0, 28, 0.0).op.efficiency(), 0.0);
    }

    #[test]
    fn report_aggregates_mean_min_max_and_levels() {
        let r = EfficiencyReport::of(&[
            entry(2, 4, 28, 112.0), // eff 1.0, waste 0
            entry(2, 4, 28, 84.0),  // eff 0.75, waste 28
            entry(1, 2, 28, 42.0),  // eff 0.75, waste 14
        ]);
        assert_eq!(r.samples, 3);
        assert!((r.mean_efficiency() - (1.0 + 0.75 + 0.75) / 3.0).abs() < 1e-12);
        assert_eq!(r.min_efficiency, 0.75);
        assert_eq!(r.max_efficiency, 1.0);
        assert_eq!(r.levels.len(), 2);
        assert_eq!(r.levels[0].level, 1);
        assert_eq!(r.levels[1].level, 2);
        assert_eq!(r.levels[1].ops, 2);
        assert!((r.levels[1].mean_efficiency() - 0.875).abs() < 1e-12);
        // waste 0 → bucket 0 (≤1); waste 28 → bucket ≤32; waste 14 → ≤16.
        assert_eq!(r.histogram[0], 1);
        assert_eq!(r.histogram[4], 1);
        assert_eq!(r.histogram[5], 1);
        assert_eq!(EfficiencyReport::of(&[]), EfficiencyReport::default());
    }

    #[test]
    fn json_rendering_contains_the_headline_numbers() {
        let r = EfficiencyReport::of(&[entry(0, 2, 32, 48.0)]);
        let doc = r.to_json();
        assert!(doc.contains("\"schema\":\"bitpacker-efficiency/v1\""));
        assert!(doc.contains("\"samples\":1"));
        assert!(doc.contains("\"mean_efficiency\":0.75"));
        let table = r.render_table();
        assert!(table.contains("mean 0.7500"));
    }
}
