//! Structural models of the paper's five benchmark applications.
//!
//! The paper evaluates ResNet-20, ResNet-20+AESPA, RNN, SqueezeNet, and
//! LogReg, each under two Lattigo bootstrapping algorithms (BS19 / BS26;
//! Sec. 5). We cannot run the authors' trained networks, but accelerator
//! results depend only on the *operation structure* — how many multiplies,
//! rotations, and adds run at each level, which scales each level uses, and
//! how often the program bootstraps (DESIGN.md substitution #2). This crate
//! generates those structural traces:
//!
//! * [`App`] — per-application scale, op mix, and total multiplicative
//!   depth, derived from the published architectures;
//! * [`Bootstrap`] — the BS19/BS26 scale schedules (52/55/30-bit and
//!   54/60/40-bit scales) and the CoeffToSlot → EvalMod → SlotToCoeff
//!   op structure;
//! * [`WorkloadSpec`] — combines both, builds the modulus chain for either
//!   representation at any word size, and emits the [`TraceOp`] stream the
//!   accelerator model consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod functional;

use bp_accel::{ChainProfile, FheOp, LevelCost, TraceContext, TraceOp};
use bp_ckks::{ChainError, CkksParams, ModulusChain, Representation, SecurityLevel};

/// Describes a concrete [`ModulusChain`] to the accelerator model's IR
/// lowering ([`bp_accel::lower_program`]): per-level residue counts and
/// `l → l-1` transition costs. This is the bridge between the scheme and
/// accelerator layers — `bp-accel` deliberately has no `bp-ckks`
/// dependency, so the profile is built here.
pub fn chain_profile(chain: &ModulusChain) -> ChainProfile {
    ChainProfile {
        batched: chain.representation() == Representation::BitPacker,
        levels: (0..=chain.max_level())
            .map(|l| LevelCost {
                residues: chain.residue_count_at(l),
                shed: if l > 0 {
                    chain.shed_between(l).len()
                } else {
                    0
                },
                added: if l > 0 {
                    chain.added_between(l).len()
                } else {
                    0
                },
            })
            .collect(),
    }
}

/// The five benchmark applications (paper Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Lee et al.'s ResNet-20 with high-degree polynomial ReLU (deep,
    /// bootstrap-heavy; 45-bit scales, CIFAR-10).
    ResNet20,
    /// ResNet-20 with AESPA's degree-2 activations (shallow; 45-bit
    /// scales).
    ResNet20Aespa,
    /// Sentiment-analysis RNN: 200 word embeddings, 128-dim state,
    /// degree-3 activation (45-bit scales, IMDB).
    Rnn,
    /// SqueezeNet with AESPA activations (35-bit scales, CIFAR-10).
    SqueezeNet,
    /// HELR logistic-regression training: 32 Nesterov iterations, batch
    /// 1024, 197 features (35-bit scales, MNIST).
    LogReg,
}

/// Per-level homomorphic op mix of an application segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Ciphertext–ciphertext multiplies per level.
    pub hmult: f64,
    /// Rotations per level.
    pub hrotate: f64,
    /// Additions per level.
    pub hadd: f64,
    /// Plaintext multiplies per level.
    pub pmult: f64,
}

impl App {
    /// All five applications.
    pub const ALL: [App; 5] = [
        App::ResNet20,
        App::ResNet20Aespa,
        App::Rnn,
        App::SqueezeNet,
        App::LogReg,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            App::ResNet20 => "ResNet-20",
            App::ResNet20Aespa => "ResNet-20+AESPA",
            App::Rnn => "RNN",
            App::SqueezeNet => "SqueezeNet",
            App::LogReg => "LogReg",
        }
    }

    /// Application-computation scale in bits (paper Sec. 5: ResNet and RNN
    /// use 45-bit scales; SqueezeNet and LogReg use 35-bit scales).
    pub fn scale_bits(&self) -> u32 {
        match self {
            App::ResNet20 | App::ResNet20Aespa | App::Rnn => 45,
            App::SqueezeNet | App::LogReg => 35,
        }
    }

    /// Total multiplicative depth of the application computation
    /// (structural estimate from the published architectures: layer count ×
    /// per-layer depth; activations dominate for ResNet-20's degree-31
    /// polynomial ReLU, while AESPA's degree-2 activations collapse it).
    pub fn total_depth(&self) -> usize {
        match self {
            App::ResNet20 => 110,     // 20 layers × (conv 1 + ReLU ~4.5)
            App::ResNet20Aespa => 40, // 20 layers × (conv 1 + square 1)
            App::Rnn => 120,          // 200 steps, ~3 levels per 5 steps batched
            App::SqueezeNet => 54,    // 18 fire/conv stages × 3
            App::LogReg => 96,        // 32 iterations × 3 levels
        }
    }

    /// Per-level op mix (structural estimate: rotations/pmults from
    /// multiplexed convolutions or matrix–vector BSGS, multiplies from
    /// activation polynomials).
    pub fn op_mix(&self) -> OpMix {
        match self {
            App::ResNet20 => OpMix {
                hmult: 8.0,
                hrotate: 64.0,
                hadd: 96.0,
                pmult: 64.0,
            },
            App::ResNet20Aespa => OpMix {
                hmult: 8.0,
                hrotate: 64.0,
                hadd: 96.0,
                pmult: 64.0,
            },
            App::Rnn => OpMix {
                hmult: 16.0,
                hrotate: 32.0,
                hadd: 48.0,
                pmult: 16.0,
            },
            App::SqueezeNet => OpMix {
                hmult: 6.0,
                hrotate: 48.0,
                hadd: 64.0,
                pmult: 48.0,
            },
            App::LogReg => OpMix {
                hmult: 4.0,
                hrotate: 24.0,
                hadd: 32.0,
                pmult: 24.0,
            },
        }
    }
}

/// The two Lattigo bootstrapping algorithms (paper Sec. 5): BS19 reaches
/// 19 bits of end-to-end precision with 52/55/30-bit scales; BS26 reaches
/// 26 bits with 54/60/40-bit scales and slightly higher cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bootstrap {
    /// 19-bit-precision variant.
    BS19,
    /// 26-bit-precision variant.
    BS26,
}

impl Bootstrap {
    /// Both variants.
    pub const ALL: [Bootstrap; 2] = [Bootstrap::BS19, Bootstrap::BS26];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Bootstrap::BS19 => "BS19",
            Bootstrap::BS26 => "BS26",
        }
    }

    /// Bootstrap stage schedule, **top level first**: `(scale_bits,
    /// levels, mix)` for CoeffToSlot, EvalMod, SlotToCoeff. The scales are
    /// the paper's (Sec. 5); op mixes model BSGS matrix multiplies for the
    /// slot conversions and a Chebyshev evaluation for EvalMod.
    pub fn stages(&self) -> [(u32, usize, OpMix); 3] {
        let cts = OpMix {
            hmult: 0.0,
            hrotate: 56.0,
            hadd: 56.0,
            pmult: 56.0,
        };
        let evalmod = OpMix {
            hmult: 2.0,
            hrotate: 0.0,
            hadd: 6.0,
            pmult: 4.0,
        };
        let stc = OpMix {
            hmult: 0.0,
            hrotate: 28.0,
            hadd: 28.0,
            pmult: 28.0,
        };
        match self {
            Bootstrap::BS19 => [(52, 3, cts), (55, 6, evalmod), (30, 3, stc)],
            Bootstrap::BS26 => [(54, 3, cts), (60, 6, evalmod), (40, 3, stc)],
        }
    }

    /// Total modulus bits one bootstrap consumes.
    pub fn bits(&self) -> u32 {
        self.stages().iter().map(|&(s, l, _)| s * l as u32).sum()
    }
}

/// A benchmark: application × bootstrapping variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// The application.
    pub app: App,
    /// The bootstrapping algorithm.
    pub bootstrap: Bootstrap,
}

impl WorkloadSpec {
    /// The paper's full 10-benchmark matrix, in Fig. 11 order (all apps
    /// under BS19, then all under BS26).
    pub fn all() -> Vec<WorkloadSpec> {
        let mut v = Vec::new();
        for bootstrap in Bootstrap::ALL {
            for app in App::ALL {
                v.push(WorkloadSpec { app, bootstrap });
            }
        }
        v
    }

    /// Display name, e.g. `ResNet-20 (BS19)`.
    pub fn name(&self) -> String {
        format!("{} ({})", self.app.name(), self.bootstrap.name())
    }

    /// The scale schedule (level 0 up): base, app levels, bootstrap levels
    /// on top. `app_levels` is chosen so `Q + P` fits the security budget.
    fn schedule(&self, app_levels: usize) -> Vec<u32> {
        let mut sched = vec![self.app.scale_bits().min(45)]; // level-0 slot
        sched.extend(std::iter::repeat_n(self.app.scale_bits(), app_levels));
        for &(scale, levels, _) in self.bootstrap.stages().iter().rev() {
            sched.extend(std::iter::repeat_n(scale, levels));
        }
        sched
    }

    /// Builds the modulus chain for this workload under the given
    /// representation and word size, at `N = 2^16` and the requested
    /// security level. The number of app levels per bootstrap segment is
    /// maximized within the `Q_max` budget.
    ///
    /// # Errors
    /// Propagates [`ChainError`] if even a minimal chain cannot fit.
    pub fn build_chain(
        &self,
        repr: Representation,
        word_bits: u32,
        security: SecurityLevel,
    ) -> Result<(ModulusChain, usize), ChainError> {
        // Each representation keeps as many app levels as its packing lets
        // it fit inside the security budget, so tighter packing directly
        // buys fewer bootstraps (the modulus the paper's Fig. 3 narrative
        // is about). Start from a budget estimate and walk down until the
        // chain fits; Q+P is roughly Q·(1 + 1.1/dnum).
        let allowed = security.max_log_q(1 << 16) as f64;
        let q_budget = allowed / (1.0 + 1.1 / 3.0);
        let est = ((q_budget - 60.0 - self.bootstrap.bits() as f64) / self.app.scale_bits() as f64)
            .floor() as usize;
        let mut app_levels = (est + 2).clamp(2, 24);
        loop {
            let params = CkksParams::builder()
                .log_n(16)
                .word_bits(word_bits)
                .representation(repr)
                .security(security)
                .scale_schedule(self.schedule(app_levels))
                .base_modulus_bits(60)
                .dnum(3)
                .build()
                .expect("workload params are structurally valid");
            match ModulusChain::new(&params) {
                Ok(chain) => return Ok((chain, app_levels)),
                Err(ChainError::SecurityExceeded { .. }) if app_levels > 2 => {
                    app_levels -= 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Generates the operation trace for one full run of the application
    /// over the given chain, plus the trace context. Each multiply or
    /// plaintext-multiply is followed by a rescale; a fraction of additions
    /// require adjusting an operand down first (paper Sec. 2.2).
    pub fn trace(&self, chain: &ModulusChain, app_levels: usize) -> (Vec<TraceOp>, TraceContext) {
        let ctx = TraceContext {
            n: 1 << 16,
            dnum: chain.dnum(),
            special: chain.special().len(),
        };
        let batched = chain.representation() == Representation::BitPacker;
        let n_bootstraps = self.app.total_depth().div_ceil(app_levels).max(1);

        let mut trace = Vec::new();
        let emit_level = |level: usize, mix: &OpMix, trace: &mut Vec<TraceOp>| {
            let r = chain.residue_count_at(level);
            let push = |t: &mut Vec<TraceOp>, op, count| {
                if count > 0.0 {
                    t.push(TraceOp { op, count });
                }
            };
            push(trace, FheOp::HMult { r }, mix.hmult);
            push(trace, FheOp::HRotate { r }, mix.hrotate);
            push(trace, FheOp::HAdd { r }, mix.hadd);
            push(trace, FheOp::PMult { r }, mix.pmult);
            if level > 0 {
                let shed = chain.shed_between(level).len();
                let added = chain.added_between(level).len();
                // One rescale per ciphertext multiply, plus one per
                // accumulated plaintext-multiply group (BSGS sums are
                // rescaled once per output ciphertext, not per pmult).
                push(
                    trace,
                    FheOp::Rescale {
                        r,
                        shed,
                        added,
                        batched,
                    },
                    mix.hmult + mix.pmult / 8.0,
                );
                // Some additions combine operands from different depths and
                // need an adjust first.
                push(
                    trace,
                    FheOp::Adjust {
                        r,
                        shed,
                        added,
                        batched,
                    },
                    mix.hadd * 0.25,
                );
            }
        };

        let max_level = chain.max_level();
        for _segment in 0..n_bootstraps {
            // Bootstrap stages run from the top of the chain downward.
            let mut level = max_level;
            for (_, stage_levels, mix) in self.bootstrap.stages() {
                for _ in 0..stage_levels {
                    emit_level(level, &mix, &mut trace);
                    level -= 1;
                }
            }
            // Application computation on the remaining levels.
            let app_mix = self.app.op_mix();
            for _ in 0..app_levels.min(level + 1) {
                emit_level(level, &app_mix, &mut trace);
                level = level.saturating_sub(1);
            }
        }
        (trace, ctx)
    }

    /// Estimated live working set in MB: a handful of resident ciphertexts
    /// at the largest level plus the keyswitch hints (used by the Fig. 17
    /// register-file model).
    pub fn working_set_mb(&self, chain: &ModulusChain) -> f64 {
        let n = 65536.0;
        let w_bytes = chain.word_bits() as f64 / 8.0;
        let r_max = chain.residue_count_at(chain.max_level()) as f64;
        let k = chain.special().len() as f64;
        let live_cts = 5.5;
        let ct_bytes = 2.0 * r_max * n * w_bytes;
        let hint_bytes = 2.0 * chain.dnum() as f64 * (r_max + k) * n * w_bytes;
        (live_cts * ct_bytes + hint_bytes) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_benchmarks_in_paper_order() {
        let all = WorkloadSpec::all();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].name(), "ResNet-20 (BS19)");
        assert_eq!(all[9].name(), "LogReg (BS26)");
    }

    #[test]
    fn bootstrap_scales_match_paper() {
        // BS19: 52, 55, 30; BS26: 54, 60, 40 (paper Sec. 5).
        let s19: Vec<u32> = Bootstrap::BS19.stages().iter().map(|s| s.0).collect();
        let s26: Vec<u32> = Bootstrap::BS26.stages().iter().map(|s| s.0).collect();
        assert_eq!(s19, vec![52, 55, 30]);
        assert_eq!(s26, vec![54, 60, 40]);
        assert!(Bootstrap::BS26.bits() > Bootstrap::BS19.bits());
    }

    #[test]
    fn chains_build_at_128_bit_security_for_both_schemes() {
        let spec = WorkloadSpec {
            app: App::SqueezeNet,
            bootstrap: Bootstrap::BS19,
        };
        for repr in [Representation::BitPacker, Representation::RnsCkks] {
            let (chain, app_levels) = spec
                .build_chain(repr, 28, SecurityLevel::Bits128)
                .expect("chain");
            assert!(app_levels >= 2, "{repr}: no room for app work");
            assert!(chain.log_q_at(chain.max_level()) > 700.0);
        }
    }

    /// The 28-bit chains of every workload, BitPacker then RNS-CKKS, with
    /// their app levels; built once and shared by the tests that read
    /// them.
    fn matrix_chains() -> &'static [[(ModulusChain, usize); 2]] {
        static CHAINS: std::sync::OnceLock<Vec<[(ModulusChain, usize); 2]>> =
            std::sync::OnceLock::new();
        CHAINS.get_or_init(|| {
            let build = |spec: &WorkloadSpec, repr| {
                spec.build_chain(repr, 28, SecurityLevel::Bits128)
                    .unwrap_or_else(|e| panic!("{} {repr}: {e}", spec.name()))
            };
            WorkloadSpec::all()
                .iter()
                .map(|spec| {
                    [
                        build(spec, Representation::BitPacker),
                        build(spec, Representation::RnsCkks),
                    ]
                })
                .collect()
        })
    }

    #[test]
    fn matrix_chains_are_pinned() {
        // FNV-1a 64 over every chain's app levels, every level's moduli
        // and the special primes: the chain search must keep returning
        // the chains it returned before it was pruned.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (chain, app_levels) in matrix_chains().iter().flatten() {
            eat(*app_levels as u64);
            for l in 0..=chain.max_level() {
                eat(chain.moduli_at(l).len() as u64);
                chain.moduli_at(l).iter().for_each(|&q| eat(q));
            }
            eat(chain.special().len() as u64);
            chain.special().iter().for_each(|&q| eat(q));
        }
        assert_eq!(
            h, 0x6667_bc4d_0c63_2a9c,
            "28-bit chain digest moved (got {h:#018x})"
        );
    }

    #[test]
    fn bitpacker_needs_fewer_residues_across_the_matrix() {
        // The structural root of Fig. 11: at 28-bit words BitPacker packs
        // every workload into fewer residues at every level.
        for (spec, [(bp, _), (rc, _)]) in WorkloadSpec::all().iter().zip(matrix_chains()) {
            let l = bp.max_level().min(rc.max_level());
            assert!(
                bp.residue_count_at(l) < rc.residue_count_at(l),
                "{}: BP {} vs RC {}",
                spec.name(),
                bp.residue_count_at(l),
                rc.residue_count_at(l)
            );
        }
    }

    #[test]
    fn traces_are_nonempty_and_cover_levels() {
        let spec = WorkloadSpec {
            app: App::ResNet20,
            bootstrap: Bootstrap::BS19,
        };
        let (chain, al) = spec
            .build_chain(Representation::BitPacker, 28, SecurityLevel::Bits128)
            .unwrap();
        let (trace, ctx) = spec.trace(&chain, al);
        assert!(trace.len() > 100);
        assert_eq!(ctx.n, 1 << 16);
        assert!(ctx.special > 0);
        // Deep app bootstraps more than the shallow AESPA variant.
        let shallow = WorkloadSpec {
            app: App::ResNet20Aespa,
            bootstrap: Bootstrap::BS19,
        };
        let (chain_s, al_s) = shallow
            .build_chain(Representation::BitPacker, 28, SecurityLevel::Bits128)
            .unwrap();
        let (trace_s, _) = shallow.trace(&chain_s, al_s);
        let total = |t: &[TraceOp]| t.iter().map(|o| o.count).sum::<f64>();
        assert!(total(&trace) > 1.5 * total(&trace_s));
    }

    #[test]
    fn chain_profile_matches_chain_and_feeds_lowering() {
        let spec = WorkloadSpec {
            app: App::LogReg,
            bootstrap: Bootstrap::BS19,
        };
        let (chain, _) = spec
            .build_chain(Representation::BitPacker, 28, SecurityLevel::Bits128)
            .unwrap();
        let profile = chain_profile(&chain);
        assert!(profile.batched);
        assert_eq!(profile.levels.len(), chain.max_level() + 1);
        // Residue bookkeeping must be self-consistent: applying level l's
        // shed/added transition to level l's basis yields level l-1's.
        for l in 1..=chain.max_level() {
            let lc = profile.levels[l];
            assert_eq!(
                profile.levels[l - 1].residues,
                lc.residues - lc.shed + lc.added,
                "level {l} transition inconsistent with the chain"
            );
        }
        // The profile drives IR lowering with the same residue counts the
        // trace generator reads off the chain directly.
        let mut b = bp_ir::ProgramBuilder::new(chain.word_bits());
        let x = b.input();
        let sq = b.square(x);
        let r = b.rescale(sq);
        b.output("y", r);
        let ops = bp_accel::lower_program(&b.finish(), &profile).expect("one layer fits any chain");
        let top = chain.residue_count_at(chain.max_level());
        assert_eq!(ops[0].op, FheOp::HMult { r: top });
    }

    #[test]
    fn working_set_near_craterlake_regfile() {
        // Fig. 17 hinges on the RNS-CKKS working set sitting near 256 MB at
        // the default configuration, with BitPacker's meaningfully smaller.
        let spec = WorkloadSpec {
            app: App::ResNet20,
            bootstrap: Bootstrap::BS19,
        };
        let (rc, _) = spec
            .build_chain(Representation::RnsCkks, 28, SecurityLevel::Bits128)
            .unwrap();
        let (bp, _) = spec
            .build_chain(Representation::BitPacker, 28, SecurityLevel::Bits128)
            .unwrap();
        let ws_rc = spec.working_set_mb(&rc);
        let ws_bp = spec.working_set_mb(&bp);
        assert!(
            (180.0..320.0).contains(&ws_rc),
            "RNS-CKKS working set {ws_rc:.0} MB"
        );
        assert!(ws_bp < 0.93 * ws_rc, "BP {ws_bp:.0} vs RC {ws_rc:.0}");
    }
}
