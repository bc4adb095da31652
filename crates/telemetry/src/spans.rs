//! Timing spans over the hot paths, aggregated per kind.
//!
//! A span is a [`crate::profile`] frame named after its [`SpanKind`], so
//! span sites nest into the profiler's span tree and the tree is the only
//! timing store. [`stats`] derives each kind's row from it: the count
//! and inclusive time of every call path ending in the kind's name, on
//! any thread. The `eval_op` row is the exception: evaluator ops frame
//! themselves under their op names, so that row sums the trace records
//! instead ([`crate::trace::record_op`]). While recording is off,
//! [`span`] returns an inert frame.

/// Hot paths covered by timing spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Forward NTT of one residue polynomial (`NttTable::forward`).
    NttForward,
    /// Inverse NTT of one residue polynomial (`NttTable::inverse`).
    NttInverse,
    /// One approximate basis conversion (`BasisConverter::convert*`).
    BasisConvert,
    /// One hybrid key-switch inner product (`Evaluator::apply_ksk`).
    KeySwitch,
    /// One evaluator public op (add/mul/rotate/rescale/…), end to end.
    /// Its row sums the trace records, not frames of this name.
    EvalOp,
    /// Key generation (secret/public/evaluation keys).
    KeyGen,
    /// Ciphertext wire serialization (`write_ciphertext`).
    Serialize,
    /// Ciphertext wire deserialization (`read_ciphertext`).
    Deserialize,
}

/// Number of span kinds in [`SpanKind::ALL`].
pub const NUM_SPAN_KINDS: usize = 8;

impl SpanKind {
    /// Every span kind, in stable report order.
    pub const ALL: [SpanKind; NUM_SPAN_KINDS] = [
        SpanKind::NttForward,
        SpanKind::NttInverse,
        SpanKind::BasisConvert,
        SpanKind::KeySwitch,
        SpanKind::EvalOp,
        SpanKind::KeyGen,
        SpanKind::Serialize,
        SpanKind::Deserialize,
    ];

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::NttForward => "ntt_forward",
            SpanKind::NttInverse => "ntt_inverse",
            SpanKind::BasisConvert => "basis_convert",
            SpanKind::KeySwitch => "keyswitch",
            SpanKind::EvalOp => "eval_op",
            SpanKind::KeyGen => "keygen",
            SpanKind::Serialize => "serialize",
            SpanKind::Deserialize => "deserialize",
        }
    }
}

/// Aggregate timing for one [`SpanKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStat {
    /// Which hot path this aggregates.
    pub kind: SpanKind,
    /// Completed span count.
    pub count: u64,
    /// Summed wall-clock nanoseconds across completed spans.
    pub total_ns: u64,
}

impl SpanStat {
    /// Mean nanoseconds per span (0 when no spans completed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Opens a span over hot path `kind`: a profiler frame named after it,
/// measuring from this call until the frame drops. If telemetry is not
/// live at open time, the frame is inert (no clock read at either end).
#[inline]
pub fn span(kind: SpanKind) -> crate::profile::Frame {
    crate::profile::frame(kind.name())
}

/// Aggregate stats for every span kind, in [`SpanKind::ALL`] order.
/// Rows are exact while the profiler holds fewer than
/// [`crate::profile::PROFILE_PATH_CAP`] paths and, for `eval_op`, while
/// the trace recorder has dropped nothing.
pub fn stats() -> Vec<SpanStat> {
    let tree = crate::profile::snapshot();
    SpanKind::ALL
        .iter()
        .map(|&kind| {
            let (count, total_ns) = if kind == SpanKind::EvalOp {
                crate::trace::read(|t| (t.entries.len() as u64, t.total_ns()))
            } else {
                tree.paths
                    .iter()
                    .filter(|p| p.path.rsplit(';').next() == Some(kind.name()))
                    .fold((0, 0), |(n, ns), p| (n + p.count, ns + p.inclusive_ns))
            };
            SpanStat {
                kind,
                count,
                total_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in SpanKind::ALL {
            assert!(seen.insert(k.name()), "duplicate span name {}", k.name());
        }
    }

    #[test]
    fn mean_of_empty_stat_is_zero() {
        let s = SpanStat {
            kind: SpanKind::EvalOp,
            count: 0,
            total_ns: 0,
        };
        assert_eq!(s.mean_ns(), 0.0);
    }
}
