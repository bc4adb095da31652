//! End-to-end and per-layer benchmark of whole `bp-ir` programs.
//!
//! Four workloads run a complete program through the public entry points
//! — `Evaluator::run_program` (bare) and `Runtime::run_program`
//! (supervised, checkpointing after every op) — under both
//! representations. One iteration is what a client of the library does:
//! encode and encrypt a fresh seeded input, run the program, decrypt, and
//! check the result against the exact reference interpreter
//! (`bp_ir::reference::run`).
//!
//! Two measurements share one setup:
//!
//! * [`Bench::measure_e2e`] times the entry-point call alone and the whole
//!   closed-loop iteration, in reference seconds (see [`SpeedProbe`]).
//! * [`Bench::measure_traced`] re-interprets the program itself, making
//!   the same public calls `Evaluator::step_op` makes and timing each one
//!   from here, outside the library. It also times the client-side calls,
//!   the two runtime configurations, and two `bp-rns` kernels, and checks
//!   that every path yields the same ciphertext wire bytes.
//!
//! The load is one closed-loop client on one pool worker; the binary sets
//! `BITPACKER_THREADS=1` before anything touches the global pool.

use bp_ckks::wire::write_ciphertext;
use bp_ckks::{level_budget, Ciphertext, CkksContext, KeySet, ProgramRun, Representation};
use bp_ir::{reference, Op, OpKind, Program, ProgramBuilder};
use bp_rns::basis::BasisConverter;
use bp_runtime::{CheckpointStore, JobSpec, MemoryStore, Runtime};
use bp_workloads::{functional, App};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Datapath word size for both representations: the paper's CPU
/// configuration (64-bit words, capped at the software modulus bound).
const WORD_BITS: u32 = 61;

/// Untimed iterations run before any measurement.
const WARMUP: u64 = 3;

/// Name of the output every benchmark program declares.
const OUTPUT: &str = "y";

/// Which program a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `functional::proxy_program(App::LogReg, ..)`: per layer a weight
    /// multiply, one rotate-add, and a cube activation (adjust + mul).
    LogReg,
    /// Diagonal matrix–vector product, built by [`matvec_program`].
    MatVec,
}

/// One benchmark workload: a program, its parameters, and its entry point.
#[derive(Debug)]
pub struct Workload {
    /// Stable name, used on the command line and in every report.
    pub name: &'static str,
    repr: Representation,
    shape: Shape,
    /// Ring degree exponent at full size.
    pub log_n: u32,
    levels: usize,
    /// Run through `Runtime::run_program` instead of the bare evaluator.
    supervised: bool,
    /// Precision floor in bits: the minimum measured over seeds 1–30 when
    /// the benchmark was defined, minus 4 bits, rounded down. An
    /// iteration below it fails.
    floor_bits: f64,
}

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "logreg-bp",
        repr: Representation::BitPacker,
        shape: Shape::LogReg,
        log_n: 13,
        levels: 12,
        supervised: false,
        floor_bits: 14.3,
    },
    Workload {
        name: "logreg-rns",
        repr: Representation::RnsCkks,
        shape: Shape::LogReg,
        log_n: 13,
        levels: 12,
        supervised: false,
        floor_bits: 17.5,
    },
    Workload {
        name: "matvec-bp",
        repr: Representation::BitPacker,
        shape: Shape::MatVec,
        log_n: 12,
        levels: 8,
        supervised: false,
        floor_bits: 12.4,
    },
    Workload {
        name: "logreg-bp-ckpt",
        repr: Representation::BitPacker,
        shape: Shape::LogReg,
        log_n: 13,
        levels: 12,
        supervised: true,
        floor_bits: 14.3,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric's fixed name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Deterministic: identical on every run of the same code.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn ratio(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit: "ratio",
        better,
        exact: false,
    }
}

/// End-to-end metrics, reported by [`Bench::measure_e2e`].
pub const END_TO_END: [MetricDef; 6] = [
    timing("setup_s", "s"),
    timing("program_s_p50", "s"),
    timing("program_s_p90", "s"),
    MetricDef {
        name: "programs_per_s",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
    MetricDef {
        name: "precision_bits",
        unit: "bits",
        better: Better::Higher,
        exact: false,
    },
    timing("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by [`Bench::measure_traced`].
pub const PER_LAYER: [MetricDef; 38] = [
    // bp-ckks: keyswitch-bearing ops.
    timing("ckks.rotate_ms", "ms"),
    timing("ckks.mul_ms", "ms"),
    timing("ckks.square_ms", "ms"),
    ratio("ckks.keyswitch_share", Better::Lower),
    // bp-ckks: level management.
    timing("ckks.rescale_ms", "ms"),
    timing("ckks.adjust_ms", "ms"),
    ratio("ckks.level_mgmt_share", Better::Lower),
    // bp-ckks: plaintext path and additive ops.
    timing("ckks.encode_plain_ms", "ms"),
    timing("ckks.mul_plain_ms", "ms"),
    timing("ckks.add_ms", "ms"),
    // bp-ckks: op counts.
    count("ckks.add_n", "count", Better::Lower),
    count("ckks.mul_plain_n", "count", Better::Lower),
    count("ckks.mul_n", "count", Better::Lower),
    count("ckks.square_n", "count", Better::Lower),
    count("ckks.rotate_n", "count", Better::Lower),
    count("ckks.rescale_n", "count", Better::Lower),
    count("ckks.adjust_n", "count", Better::Lower),
    // bp-ckks: data shape.
    count("ckks.packing_eff", "ratio", Better::Higher),
    count("ckks.node_kib", "KiB", Better::Lower),
    // bp-ckks: client side.
    timing("ckks.encode_input_ms", "ms"),
    timing("ckks.encrypt_ms", "ms"),
    timing("ckks.decrypt_ms", "ms"),
    // bp-ckks: setup.
    timing("ckks.context_s", "s"),
    timing("ckks.keygen_s", "s"),
    timing("ckks.rotkeys_s", "s"),
    // bp-rns kernel probes.
    timing("rns.ntt_roundtrip_us", "us"),
    timing("rns.basis_convert_us", "us"),
    // bp-ir.
    count("ir.ops", "count", Better::Lower),
    timing("ir.build_ms", "ms"),
    timing("ir.validate_ms", "ms"),
    timing("ir.reference_ms", "ms"),
    // bp-runtime.
    timing("runtime.supervise_ms", "ms"),
    timing("runtime.checkpoint_ms", "ms"),
    count("runtime.checkpoints", "count", Better::Lower),
    count("runtime.checkpoint_kib", "KiB", Better::Lower),
    count("runtime.attempts", "count", Better::Lower),
    // Tracing itself.
    ratio("traced.attributed_share", Better::Higher),
    ratio("traced.overhead", Better::Lower),
];

/// How long a measurement loop runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many iterations.
    Iterations(u64),
    /// Until this many seconds have passed (at least one iteration).
    Seconds(f64),
}

impl Budget {
    fn more(self, done: u64, start: Instant) -> bool {
        match self {
            Budget::Iterations(n) => done < n,
            Budget::Seconds(s) => done == 0 || start.elapsed().as_secs_f64() < s,
        }
    }
}

/// The outcome of one measurement.
#[derive(Debug, Clone)]
pub struct Report {
    /// Iterations attempted, warm-up included.
    pub attempted: u64,
    /// Iterations that returned an error, fell below the precision floor,
    /// or produced different wire bytes on two paths that must agree.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Wall time of each setup phase, measured in the process that ran it.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Everything below, end to end.
    pub total_s: f64,
    /// Parameters, modulus chain and NTT tables.
    pub context_s: f64,
    /// Secret, public and relinearization keys.
    pub keygen_s: f64,
    /// Rotation keys.
    pub rotkeys_s: f64,
    /// Program and plaintext table construction.
    pub build_ms: f64,
    /// `Program::validate` against the chain's level budget.
    pub validate_ms: f64,
}

/// A set-up workload, ready to measure.
pub struct Bench {
    w: &'static Workload,
    seed: u64,
    ctx: CkksContext,
    keys: KeySet,
    program: Arc<Program>,
    /// Plaintext operand table, indexed by `pseed`.
    plains: Vec<Vec<f64>>,
    out_node: usize,
    slots: usize,
    rt: Runtime,
    /// The supervised entry point's spec: checkpoint after every op.
    spec: JobSpec,
    /// The same job with checkpointing off (traced run only).
    spec_no_checkpoints: JobSpec,
    /// Phase times of this setup.
    pub setup: SetupTimes,
}

/// Independent random streams derived from the run seed.
fn stream(seed: u64, id: u64) -> ChaCha20Rng {
    ChaCha20Rng::seed_from_u64(seed ^ id.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
/// Key generation does not follow the run seed. The worst-case error of
/// these programs is set almost entirely by the secret key: across ten
/// key seeds logreg-bp ranged over 17.6–19.5 bits, while at one key it
/// moves by under 0.1 bits across weight tables and inputs. Seeded keys
/// would make `precision_bits` measure which key was drawn, not the code.
const KEY_SEED: u64 = 0x6b65_7973;
const PROGRAM_STREAM: u64 = 1;
/// Iteration `i` draws its input and encryption noise from stream `2 + i`.
const ITERATION_STREAM: u64 = 2;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// What one run of the [`SpeedProbe`] loop takes on the reference machine
/// (the 2-vCPU Xeon VM the baseline was recorded on, when quiet).
pub const REFERENCE_CALIBRATION_S: f64 = 1.9e-3;

/// A fixed calibration loop that tracks how fast the host runs right now.
///
/// Every time this benchmark reports is in *reference seconds*: wall time
/// times [`to_reference`] of the probe runs just before and just after
/// the timed work. The hosts are shared and their speed drifts by up to
/// 1.7× over minutes. The probe is four stages of Shoup-style NTT
/// butterflies over a 4 MiB table — the same kind of work and cache
/// footprint as the programs — so it slows down with them: over nine
/// 20-second runs per workload, the quartile spread of the median program
/// time fell from 0.03–0.08 in wall seconds to 0.010–0.015 in reference
/// seconds, and that of p90 from 0.06–0.17 to 0.02–0.05. It is the
/// benchmark's own code, so no change to the library moves it.
pub struct SpeedProbe {
    table: Vec<u64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe {
            table: (0..1 << 19).collect(),
        }
    }
}

impl SpeedProbe {
    /// Runs the calibration loop three times; returns the median wall
    /// time of one run in seconds, so that one interrupted run does not
    /// move it.
    pub fn measure(&mut self) -> f64 {
        median(&[self.pass(), self.pass(), self.pass()])
    }

    fn pass(&mut self) -> f64 {
        const Q: u64 = 0x1fff_ffff_ffe0_0001;
        let w = black_box(0x0123_4567_89ab_cdef_u64);
        let w_shoup = ((u128::from(w) << 64) / u128::from(Q)) as u64;
        let ((), dt) = timed(|| {
            let mut half = self.table.len() / 2;
            for _ in 0..4 {
                for block in self.table.chunks_exact_mut(2 * half) {
                    let (lo, hi) = block.split_at_mut(half);
                    for (x, y) in lo.iter_mut().zip(hi) {
                        let q = ((u128::from(w_shoup) * u128::from(*y)) >> 64) as u64;
                        let t = w.wrapping_mul(*y).wrapping_sub(q.wrapping_mul(Q));
                        let t = if t >= Q { t - Q } else { t };
                        let u = *x;
                        *x = if u + t >= Q { u + t - Q } else { u + t };
                        *y = if u >= t { u - t } else { u + Q - t };
                    }
                }
                half /= 2;
            }
        });
        black_box(&self.table);
        secs(dt)
    }
}

/// The factor that turns wall seconds into reference seconds, from the
/// probe times just before and just after the timed work.
pub fn to_reference(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_CALIBRATION_S / (before + after)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Diagonal matrix–vector program: each of 4 layers is `mul_plain(x)` plus
/// 8 × (`rotate(x, k)`, `mul_plain`, `add`), then rescale, square, rescale
/// — 112 ops whose rotations per layer all read the same node. Each slot's
/// 9 diagonal weights are positive and sum to 1, so with inputs in
/// `[0.75, 1)` every value stays in `(0, 1]` and the output stays far
/// enough from 0 that a wrong slot shows up as a precision failure.
fn matvec_program<R: Rng + ?Sized>(
    word_bits: u32,
    slots: usize,
    rng: &mut R,
) -> (Program, Vec<Vec<f64>>) {
    const LAYERS: usize = 4;
    const DIAGONALS: usize = 9;
    let mut plains = Vec::new();
    let mut b = ProgramBuilder::new(word_bits);
    let mut x = b.input();
    for _ in 0..LAYERS {
        let raw: Vec<Vec<f64>> = (0..DIAGONALS)
            .map(|_| (0..slots).map(|_| rng.gen_range(0.5..1.5)).collect())
            .collect();
        let first = plains.len() as u64;
        plains.extend((0..DIAGONALS).map(|k| {
            (0..slots)
                .map(|i| raw[k][i] / raw.iter().map(|d| d[i]).sum::<f64>())
                .collect()
        }));
        let mut acc = b.mul_plain(x, first);
        for k in 1..DIAGONALS {
            let r = b.rotate(x, k as i64);
            let t = b.mul_plain(r, first + k as u64);
            acc = b.add(acc, t);
        }
        let y = b.rescale(acc);
        let sq = b.square(y);
        x = b.rescale(sq);
    }
    b.output(OUTPUT, x);
    (b.finish(), plains)
}

/// A [`CheckpointStore`] that counts what the runtime hands it and
/// otherwise behaves exactly like the default [`MemoryStore`].
#[derive(Default)]
struct CountingStore {
    inner: MemoryStore,
    saves: Cell<u64>,
    bytes: Cell<u64>,
    /// The runtime loads once per attempt, so this counts attempts.
    loads: Cell<u64>,
}

impl CheckpointStore for CountingStore {
    fn save(&self, bytes: Vec<u8>) {
        self.saves.set(self.saves.get() + 1);
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        self.inner.save(bytes);
    }

    fn load(&self) -> Option<Vec<u8>> {
        self.loads.set(self.loads.get() + 1);
        self.inner.load()
    }
}

/// Summed wall time of timed calls, by layer key.
#[derive(Default)]
struct Clock(BTreeMap<&'static str, Duration>);

impl Clock {
    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, dt) = timed(f);
        *self.0.entry(key).or_default() += dt;
        out
    }

    fn secs(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |d| d.as_secs_f64())
    }
}

/// Clock key for plaintext-operand encoding inside the program.
const ENCODE_PLAIN: &str = "encode_plain";

/// Pass/fail accounting shared by both measurements.
struct Tally {
    floor: f64,
    attempted: u64,
    failed: u64,
    min_bits: f64,
}

impl Tally {
    fn new(floor: f64) -> Self {
        Tally {
            floor,
            attempted: 0,
            failed: 0,
            min_bits: f64::INFINITY,
        }
    }

    fn record(&mut self, outcome: Result<f64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(bits) => {
                self.min_bits = self.min_bits.min(bits);
                if bits < self.floor {
                    self.failed += 1;
                    eprintln!(
                        "precision {bits:.2} bits is below the {} bit floor",
                        self.floor
                    );
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("iteration failed: {e}");
            }
        }
    }

    fn report(&self, metrics: BTreeMap<&'static str, f64>) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// State accumulated over the traced run.
#[derive(Default)]
struct TraceAcc {
    clock: Clock,
    iterations: u64,
    bare_s: Vec<f64>,
    traced_s: Vec<f64>,
    no_checkpoint_s: Vec<f64>,
    checkpointed_s: Vec<f64>,
    saves: u64,
    saved_bytes: u64,
    loads: u64,
    /// Op kinds the program lacks, timed by [`Bench::time_absent_ops`].
    absent: Clock,
    /// `(packing efficiency, mean node wire KiB)` of the first bare run.
    nodes: Option<(f64, f64)>,
}

impl Bench {
    /// Builds the context, keys and program for `w` at ring degree
    /// `2^log_n`, timing each phase. Panics if the fixed parameters fail
    /// to build or the program does not fit its chain: both are bugs.
    pub fn setup(w: &'static Workload, seed: u64, log_n: u32) -> Bench {
        let start = Instant::now();
        let (ctx, context) = timed(|| {
            functional::proxy_context_with_word_bits(
                App::LogReg,
                w.repr,
                WORD_BITS,
                log_n,
                w.levels,
            )
        });
        let mut rng = ChaCha20Rng::seed_from_u64(KEY_SEED);
        let (mut keys, keygen) = timed(|| ctx.keygen(&mut rng));
        let rotations: Vec<i64> = match w.shape {
            Shape::LogReg => vec![1],
            Shape::MatVec => (1..=8).collect(),
        };
        let ((), rotkeys) = timed(|| ctx.gen_rotation_keys(&mut keys, &rotations, &mut rng));
        let slots = ctx.params().slots();
        let mut prng = stream(seed, PROGRAM_STREAM);
        let ((program, plains), build) = timed(|| match w.shape {
            Shape::LogReg => {
                functional::proxy_program(App::LogReg, WORD_BITS, ctx.max_level(), slots, &mut prng)
            }
            Shape::MatVec => matvec_program(WORD_BITS, slots, &mut prng),
        });
        let (valid, validate) = timed(|| program.validate(&level_budget(ctx.chain())));
        valid.unwrap_or_else(|e| panic!("{}: program does not fit its chain: {e}", w.name));
        let total = start.elapsed();

        let out_node = program
            .output_node(OUTPUT)
            .expect("benchmark programs declare output y");
        let program = Arc::new(program);
        let spec = JobSpec::new(w.name).program(program.clone());
        let spec_no_checkpoints = spec.clone().checkpoint_every(0);
        Bench {
            w,
            seed,
            ctx,
            keys,
            program,
            plains,
            out_node,
            slots,
            rt: Runtime::new(),
            spec,
            spec_no_checkpoints,
            setup: SetupTimes {
                total_s: secs(total),
                context_s: secs(context),
                keygen_s: secs(keygen),
                rotkeys_s: secs(rotkeys),
                build_ms: secs(build) * 1e3,
                validate_ms: secs(validate) * 1e3,
            },
        }
    }

    fn plain(&self) -> impl Fn(u64, usize) -> Vec<f64> + '_ {
        |pseed, _slots| self.plains[pseed as usize].clone()
    }

    /// Iteration `i`'s seeded input values and their encryption.
    fn encrypt_input(&self, i: u64, clock: &mut Clock) -> (Vec<f64>, Ciphertext) {
        let mut rng = stream(self.seed, ITERATION_STREAM + i);
        let range = match self.w.shape {
            Shape::LogReg => -1.0..1.0,
            Shape::MatVec => 0.75..1.0,
        };
        let input: Vec<f64> = (0..self.slots)
            .map(|_| rng.gen_range(range.clone()))
            .collect();
        let pt = clock.time("encode_input", || {
            self.ctx.encode(&input, self.ctx.max_level())
        });
        let ct = clock.time("encrypt", || {
            self.ctx.encrypt(&pt, &self.keys.public, &mut rng)
        });
        (input, ct)
    }

    fn run_bare(&self, ct: Ciphertext) -> Result<ProgramRun, String> {
        self.ctx
            .evaluator()
            .run_program(
                &self.program,
                vec![ct],
                &self.keys.evaluation,
                &mut self.plain(),
            )
            .map_err(|e| format!("run_program: {e}"))
    }

    fn run_supervised(
        &self,
        spec: &JobSpec,
        ct: Ciphertext,
        store: &dyn CheckpointStore,
    ) -> Result<Ciphertext, String> {
        let outcome = self
            .rt
            .run_program(
                spec,
                &self.ctx,
                &self.keys.evaluation,
                &[ct],
                &self.plain(),
                store,
            )
            .map_err(|e| format!("Runtime::run_program: {e}"))?;
        outcome
            .outputs
            .into_iter()
            .find(|(name, _)| name == OUTPUT)
            .map(|(_, ct)| ct)
            .ok_or_else(|| "supervised run returned no output y".to_string())
    }

    /// Runs the program through the workload's entry point; returns the
    /// output and the wall time of the entry-point call alone.
    fn call(&self, ct: Ciphertext) -> Result<(Ciphertext, Duration), String> {
        if self.w.supervised {
            let store = CountingStore::default();
            let (out, dt) = timed(|| self.run_supervised(&self.spec, ct, &store));
            Ok((out?, dt))
        } else {
            let (run, dt) = timed(|| self.run_bare(ct));
            let mut nodes = run?.into_nodes();
            Ok((nodes.swap_remove(self.out_node), dt))
        }
    }

    /// Decrypts `out` and compares it with the exact reference on the
    /// same input; returns `-log2 max|error|`. Decrypts without the
    /// analytic noise guard: at these depths the estimate is conservative
    /// enough to refuse outputs that are correct, and the comparison with
    /// the reference is the actual correctness check.
    fn check(&self, input: Vec<f64>, out: &Ciphertext, clock: &mut Clock) -> Result<f64, String> {
        let got = clock.time("decrypt", || {
            let pt = self.ctx.decrypt_unchecked(out, &self.keys.secret);
            self.ctx.decode(&pt)
        });
        let want = clock.time("reference", || {
            let mut plain = self.plain();
            reference::run(&self.program, &[input], &mut plain).swap_remove(self.out_node)
        });
        let max_err = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        Ok(-max_err.max(1e-18).log2())
    }

    /// One closed-loop iteration through the entry point, pushing the
    /// entry-point call's wall time to `program_s`. Iteration 0 of a
    /// supervised workload must match the bare evaluator byte for byte.
    fn iteration(&self, i: u64, program_s: &mut Vec<f64>) -> Result<f64, String> {
        let mut clock = Clock::default();
        let (input, ct) = self.encrypt_input(i, &mut clock);
        let bare_bytes = if i == 0 && self.w.supervised {
            let run = self.run_bare(ct.clone())?;
            Some(write_ciphertext(run.node(self.out_node)))
        } else {
            None
        };
        let (out, dt) = self.call(ct)?;
        program_s.push(secs(dt));
        if bare_bytes.is_some_and(|want| write_ciphertext(&out) != want) {
            return Err("supervised output differs from run_program on the same input".into());
        }
        self.check(input, &out, &mut clock)
    }

    fn warm_up(&self, tally: &mut Tally) {
        for i in 0..WARMUP {
            tally.record(self.iteration(i, &mut Vec::new()));
        }
    }

    /// The end-to-end measurement: [`WARMUP`] iterations, then the timed
    /// closed loop for `budget`, with a [`SpeedProbe`] run between
    /// iterations. `setup_s` holds set-up times measured in fresh
    /// processes, already in reference seconds; their median is reported.
    pub fn measure_e2e(&self, budget: Budget, setup_s: &[f64]) -> Report {
        let mut tally = Tally::new(self.w.floor_bits);
        self.warm_up(&mut tally);
        let mut probe = SpeedProbe::default();
        let mut program_s = Vec::new();
        let mut loop_s = 0.0;
        let mut before = probe.measure();
        let start = Instant::now();
        let mut done = 0;
        while budget.more(done, start) {
            let timed_from = program_s.len();
            let (outcome, dt) = timed(|| self.iteration(WARMUP + done, &mut program_s));
            tally.record(outcome);
            let after = probe.measure();
            let scale = to_reference(before, after);
            program_s[timed_from..].iter_mut().for_each(|s| *s *= scale);
            loop_s += secs(dt) * scale;
            before = after;
            done += 1;
        }
        tally.report(BTreeMap::from([
            ("setup_s", median(setup_s)),
            ("program_s_p50", median(&program_s)),
            ("program_s_p90", percentile(&program_s, 0.9)),
            ("programs_per_s", done as f64 / loop_s),
            ("precision_bits", tally.min_bits),
            ("peak_rss_mb", peak_rss_mb()),
        ]))
    }

    /// Interprets the program with the same public calls
    /// `Evaluator::step_op` makes — `CkksContext::encode` for each
    /// plaintext operand, then the matching `Evaluator` method — timing
    /// each call under its op kind.
    fn interpret_timed(&self, input: Ciphertext, clock: &mut Clock) -> Result<Ciphertext, String> {
        let ev = self.ctx.evaluator();
        let ek = &self.keys.evaluation;
        let mut nodes = vec![input];
        for op in &self.program.ops {
            let pt = match *op {
                Op::AddPlain { a, pseed }
                | Op::SubPlain { a, pseed }
                | Op::MulPlain { a, pseed } => {
                    let vals = self.plains[pseed as usize].clone();
                    Some(clock.time(ENCODE_PLAIN, || self.ctx.encode(&vals, nodes[a].level())))
                }
                _ => None,
            };
            let pt = || {
                pt.as_ref()
                    .expect("plaintext ops encode their operand first")
            };
            let ct = clock.time(op.kind().name(), || match *op {
                Op::Add { a, b } => ev.add(&nodes[a], &nodes[b]),
                Op::Sub { a, b } => ev.sub(&nodes[a], &nodes[b]),
                Op::Negate { a } => ev.negate(&nodes[a]),
                Op::AddPlain { a, .. } => ev.add_plain(&nodes[a], pt()),
                Op::SubPlain { a, .. } => ev.sub_plain(&nodes[a], pt()),
                Op::MulPlain { a, .. } => ev.mul_plain(&nodes[a], pt()),
                Op::Mul { a, b } => ev.mul(&nodes[a], &nodes[b], ek),
                Op::Square { a } => ev.square(&nodes[a], ek),
                Op::Rotate { a, steps } => ev.rotate(&nodes[a], steps, ek),
                Op::Conjugate { a } => ev.conjugate(&nodes[a], ek),
                Op::Rescale { a } => ev.rescale(&nodes[a]),
                Op::Adjust { a, target } => ev.adjust_to(&nodes[a], target),
            });
            let node = nodes.len();
            nodes.push(ct.map_err(|e| format!("traced node {node}: {e}"))?);
        }
        Ok(nodes.swap_remove(self.out_node))
    }

    /// One traced iteration: the bare entry point and the timed
    /// interpreter (alternating which runs first), then the runtime with
    /// checkpointing off and on, all on the same input and all required
    /// to produce the same output wire bytes.
    fn traced_iteration(&self, i: u64, acc: &mut TraceAcc) -> Result<f64, String> {
        acc.iterations += 1;
        let (input, ct) = self.encrypt_input(i, &mut acc.clock);
        let (bare_in, traced_in) = (ct.clone(), ct.clone());
        let ((bare, bare_dt), (traced, traced_dt)) = if i.is_multiple_of(2) {
            let bare = timed(|| self.run_bare(bare_in));
            (
                bare,
                timed(|| self.interpret_timed(traced_in, &mut acc.clock)),
            )
        } else {
            let traced = timed(|| self.interpret_timed(traced_in, &mut acc.clock));
            (timed(|| self.run_bare(bare_in)), traced)
        };
        let (run, traced) = (bare?, traced?);
        acc.bare_s.push(secs(bare_dt));
        acc.traced_s.push(secs(traced_dt));
        let out = run.node(self.out_node);
        let want = write_ciphertext(out);
        if write_ciphertext(&traced) != want {
            return Err("traced interpreter output differs from run_program".into());
        }
        if acc.nodes.is_none() {
            acc.nodes = Some(self.node_stats(run.nodes()));
        }
        self.time_absent_ops(&ct, &mut acc.absent)?;

        let no_checkpoint_in = ct.clone();
        let (no_checkpoint, dt) = timed(|| {
            self.run_supervised(
                &self.spec_no_checkpoints,
                no_checkpoint_in,
                &CountingStore::default(),
            )
        });
        acc.no_checkpoint_s.push(secs(dt));
        let store = CountingStore::default();
        let (checkpointed, dt) = timed(|| self.run_supervised(&self.spec, ct, &store));
        acc.checkpointed_s.push(secs(dt));
        acc.saves += store.saves.get();
        acc.saved_bytes += store.bytes.get();
        acc.loads += store.loads.get();
        for supervised in [no_checkpoint?, checkpointed?] {
            if write_ciphertext(&supervised) != want {
                return Err("Runtime::run_program output differs from run_program".into());
            }
        }
        self.check(input, out, &mut acc.clock)
    }

    fn op_count(&self, kind: OpKind) -> usize {
        self.program
            .ops
            .iter()
            .filter(|op| op.kind() == kind)
            .count()
    }

    /// Times one `mul` (the input times itself) and one `adjust` (the
    /// input to one level lower) outside the traced program when the
    /// program has none, so that `ckks.mul_ms` and `ckks.adjust_ms` stay a
    /// measurement at the workload's parameters instead of a constant 0.
    fn time_absent_ops(&self, ct: &Ciphertext, clock: &mut Clock) -> Result<(), String> {
        let ev = self.ctx.evaluator();
        if self.op_count(OpKind::Mul) == 0 {
            clock
                .time("mul", || ev.mul(ct, ct, &self.keys.evaluation))
                .map_err(|e| format!("mul on the input: {e}"))?;
        }
        if self.op_count(OpKind::Adjust) == 0 {
            let target = ct.level().saturating_sub(1);
            clock
                .time("adjust", || ev.adjust_to(ct, target))
                .map_err(|e| format!("adjust of the input: {e}"))?;
        }
        Ok(())
    }

    /// `(mean packing efficiency log2 Q/(R·w), mean wire KiB)` over every
    /// node ciphertext of a run.
    fn node_stats(&self, nodes: &[Ciphertext]) -> (f64, f64) {
        let chain = self.ctx.chain();
        let n = nodes.len() as f64;
        let eff = nodes
            .iter()
            .map(|ct| chain.utilization_at(ct.level()))
            .sum::<f64>();
        let bytes = nodes
            .iter()
            .map(|ct| write_ciphertext(ct).len() as f64)
            .sum::<f64>();
        (eff / n, bytes / n / 1024.0)
    }

    /// `bp-rns` kernel probes on one top-level ciphertext polynomial:
    /// (NTT round trip µs, basis conversion to the special primes µs),
    /// each the median of 50.
    fn kernel_probes(&self, ct: &Ciphertext) -> (f64, f64) {
        const REPS: usize = 50;
        let poly = ct.c0();
        let ntt: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut p = poly.clone();
                let ((), dt) = timed(|| {
                    p.to_coeff();
                    p.to_ntt();
                });
                black_box(p);
                secs(dt) * 1e6
            })
            .collect();
        let tables = |moduli: &[u64]| -> Vec<_> {
            moduli.iter().map(|&q| self.ctx.pool().table(q)).collect()
        };
        let converter =
            BasisConverter::new(&tables(ct.moduli()), &tables(self.ctx.chain().special()))
                .expect("special primes are disjoint from every level basis");
        let mut coeff = poly.clone();
        coeff.to_coeff();
        let convert: Vec<f64> = (0..REPS)
            .map(|_| {
                let (out, dt) = timed(|| converter.convert(coeff.residues()));
                black_box(out.expect("the converter was built for this basis"));
                secs(dt) * 1e6
            })
            .collect();
        (median(&ntt), median(&convert))
    }

    /// The traced measurement: [`WARMUP`] iterations, then traced
    /// iterations for `budget`, then the kernel probes. Reports every
    /// [`PER_LAYER`] metric; times are in reference seconds at the run's
    /// median calibration.
    pub fn measure_traced(&self, budget: Budget) -> Report {
        let mut tally = Tally::new(self.w.floor_bits);
        self.warm_up(&mut tally);
        let mut acc = TraceAcc::default();
        let mut probe = SpeedProbe::default();
        let mut scales = Vec::new();
        let mut before = probe.measure();
        let start = Instant::now();
        while budget.more(acc.iterations, start) {
            let outcome = self.traced_iteration(WARMUP + acc.iterations, &mut acc);
            tally.record(outcome);
            let after = probe.measure();
            scales.push(to_reference(before, after));
            before = after;
        }
        let (_, probe_ct) = self.encrypt_input(0, &mut Clock::default());
        let (ntt_us, convert_us) = self.kernel_probes(&probe_ct);

        let n = acc.iterations as f64;
        let ms = |key: &str| acc.clock.secs(key) * 1e3 / n;
        let traced_total: f64 = acc.traced_s.iter().sum();
        let share = |kinds: &[OpKind]| {
            kinds.iter().map(|k| acc.clock.secs(k.name())).sum::<f64>() / traced_total
        };
        let ops = |kind: OpKind| self.op_count(kind) as f64;
        let op_ms = |kind: OpKind| match self.op_count(kind) {
            0 => acc.absent.secs(kind.name()) * 1e3 / n,
            _ => ms(kind.name()),
        };
        let (packing_eff, node_kib) = acc.nodes.unwrap_or((f64::NAN, f64::NAN));
        let attributed = OpKind::ALL
            .iter()
            .map(|k| acc.clock.secs(k.name()))
            .sum::<f64>()
            + acc.clock.secs(ENCODE_PLAIN);
        let bare_p50 = median(&acc.bare_s);
        let no_checkpoint_p50 = median(&acc.no_checkpoint_s);
        let per_run = |total: u64| total as f64 / n;
        let s = &self.setup;
        let mut metrics = BTreeMap::from([
            ("ckks.rotate_ms", ms("rotate")),
            ("ckks.mul_ms", op_ms(OpKind::Mul)),
            ("ckks.square_ms", ms("square")),
            (
                "ckks.keyswitch_share",
                share(&[
                    OpKind::Rotate,
                    OpKind::Mul,
                    OpKind::Square,
                    OpKind::Conjugate,
                ]),
            ),
            ("ckks.rescale_ms", ms("rescale")),
            ("ckks.adjust_ms", op_ms(OpKind::Adjust)),
            (
                "ckks.level_mgmt_share",
                share(&[OpKind::Rescale, OpKind::Adjust]),
            ),
            ("ckks.encode_plain_ms", ms(ENCODE_PLAIN)),
            ("ckks.mul_plain_ms", ms("mul_plain")),
            ("ckks.add_ms", ms("add")),
            ("ckks.add_n", ops(OpKind::Add)),
            ("ckks.mul_plain_n", ops(OpKind::MulPlain)),
            ("ckks.mul_n", ops(OpKind::Mul)),
            ("ckks.square_n", ops(OpKind::Square)),
            ("ckks.rotate_n", ops(OpKind::Rotate)),
            ("ckks.rescale_n", ops(OpKind::Rescale)),
            ("ckks.adjust_n", ops(OpKind::Adjust)),
            ("ckks.packing_eff", packing_eff),
            ("ckks.node_kib", node_kib),
            ("ckks.encode_input_ms", ms("encode_input")),
            ("ckks.encrypt_ms", ms("encrypt")),
            ("ckks.decrypt_ms", ms("decrypt")),
            ("ckks.context_s", s.context_s),
            ("ckks.keygen_s", s.keygen_s),
            ("ckks.rotkeys_s", s.rotkeys_s),
            ("rns.ntt_roundtrip_us", ntt_us),
            ("rns.basis_convert_us", convert_us),
            ("ir.ops", self.program.ops.len() as f64),
            ("ir.build_ms", s.build_ms),
            ("ir.validate_ms", s.validate_ms),
            ("ir.reference_ms", ms("reference")),
            ("runtime.supervise_ms", (no_checkpoint_p50 - bare_p50) * 1e3),
            (
                "runtime.checkpoint_ms",
                (median(&acc.checkpointed_s) - no_checkpoint_p50) * 1e3,
            ),
            ("runtime.checkpoints", per_run(acc.saves)),
            ("runtime.checkpoint_kib", per_run(acc.saved_bytes) / 1024.0),
            ("runtime.attempts", per_run(acc.loads)),
            ("traced.attributed_share", attributed / traced_total),
            ("traced.overhead", median(&acc.traced_s) / bare_p50 - 1.0),
        ]);
        let scale = median(&scales);
        for d in PER_LAYER
            .iter()
            .filter(|d| matches!(d.unit, "s" | "ms" | "us"))
        {
            *metrics
                .get_mut(d.name)
                .expect("every per-layer metric is set") *= scale;
        }
        tally.report(metrics)
    }
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (of 100 samples, `q = 0.9` leaves 10 beyond).
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive); `None` below two samples.
fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `ok`, `worse` or `unresolved` for one end-to-end metric. Unresolved:
/// the run-to-run spread (quartile distance over median, of either
/// side's repeats) exceeds the bound, unless every run of B beats every
/// run of A.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    bound: f64,
    higher_is_better: bool,
) -> (&'static str, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = [a, b]
        .iter()
        .filter_map(|runs| quartiles(runs).map(|(q1, q3)| (q3 - q1) / median(runs).abs()))
        .fold(0.0, f64::max);
    let range = |xs: &[f64]| {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        (lo, xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let b_always_better = if higher_is_better {
        b_lo > a_hi
    } else {
        b_hi < a_lo
    };
    let word = if spread > bound && !b_always_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    };
    (word, worse_by, spread)
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Panics
/// Without Linux `/proc/self/status`, which the benchmark requires.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from Linux /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_leaves_the_named_share_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(median(&xs), 50.5);
    }

    #[test]
    fn verdict_separates_worse_from_noise() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(verdict(&a, &[1.02, 1.03, 1.01, 1.02], 0.1, false).0, "ok");
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.20], 0.1, false).0,
            "worse"
        );
        assert_eq!(verdict(&a, &[1.20, 1.21, 1.19, 1.20], 0.1, true).0, "ok");
        let noisy = [0.6, 1.0, 1.4, 1.0];
        assert_eq!(verdict(&a, &noisy, 0.1, false).0, "unresolved");
        // Every run of B better than every run of A resolves the noise.
        assert_eq!(verdict(&[1.0, 1.0], &[0.5, 0.9], 0.1, false).0, "ok");
    }
}
