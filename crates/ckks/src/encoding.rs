//! CKKS encoder/decoder: the canonical embedding.
//!
//! A plaintext is a vector of `N/2` complex (in practice real) numbers. The
//! encoder maps slots to polynomial coefficients by evaluating the inverse
//! canonical embedding at the primitive `2N`-th roots `ζ^{5^j}`, scales by
//! `S`, and rounds (paper Fig. 2). We implement the classic HEAAN "special
//! FFT": an `O(n log n)` butterfly network over the rotation group
//! `⟨5⟩ mod 2N`.

use bp_math::FactoredScale;
use bp_rns::RnsPoly;
use std::cell::Cell;

thread_local! {
    /// This thread's encode working buffers: the slot values under the
    /// inverse FFT, then the scaled integer coefficients. Kept between
    /// encodes because, freed each time, they sit at the top of the heap
    /// and the allocator returns and refaults their pages on every encode.
    static EMBED_BUFS: Cell<(Vec<Complex>, Vec<i128>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// A complex number (f64 parts). Minimal, internal to encoding.
#[derive(Debug, Clone, Copy, Default)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Encoder/decoder for one ring degree.
///
/// # Example
/// ```
/// use bp_ckks::encoding::Encoder;
/// let enc = Encoder::new(1 << 5); // N = 32, 16 slots
/// let vals: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
/// let coeffs = enc.embed(&vals, 2f64.powi(30));
/// let back = enc.unembed(&coeffs, 2f64.powi(30));
/// for (a, b) in vals.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    n: usize,
    slots: usize,
    /// `5^i mod 2N` for `i in 0..slots`.
    rot_group: Vec<usize>,
    /// `exp(2πi·j / 2N)` for `j in 0..2N`.
    ksi_pows: Vec<Complex>,
}

impl Encoder {
    /// Creates an encoder for ring degree `n` (power of two, ≥ 4).
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or `n < 4`.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "bad ring degree {n}");
        let slots = n / 2;
        let m = 2 * n;
        let mut rot_group = Vec::with_capacity(slots);
        let mut five = 1usize;
        for _ in 0..slots {
            rot_group.push(five);
            five = five * 5 % m;
        }
        let ksi_pows = (0..m)
            .map(|j| {
                let angle = 2.0 * std::f64::consts::PI * j as f64 / m as f64;
                Complex::new(angle.cos(), angle.sin())
            })
            .collect();
        Self {
            n,
            slots,
            rot_group,
            ksi_pows,
        }
    }

    /// Number of slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Forward special FFT: coefficients' embedding → slot values.
    fn special_fft(&self, vals: &mut [Complex]) {
        let slots = vals.len();
        bit_reverse(vals);
        let m = 2 * self.n;
        let mut len = 2;
        while len <= slots {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..slots).step_by(len) {
                for j in 0..lenh {
                    let idx = (self.rot_group[j] % lenq) * m / lenq;
                    let u = vals[i + j];
                    let v = vals[i + j + lenh].mul(self.ksi_pows[idx]);
                    vals[i + j] = u.add(v);
                    vals[i + j + lenh] = u.sub(v);
                }
            }
            len <<= 1;
        }
    }

    /// Inverse special FFT: slot values → embedding coefficients.
    fn special_ifft(&self, vals: &mut [Complex]) {
        let slots = vals.len();
        let m = 2 * self.n;
        let mut len = slots;
        while len >= 2 {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..slots).step_by(len) {
                for j in 0..lenh {
                    let idx = (lenq - (self.rot_group[j] % lenq)) * m / lenq;
                    let u = vals[i + j].add(vals[i + j + lenh]);
                    let v = vals[i + j].sub(vals[i + j + lenh]).mul(self.ksi_pows[idx]);
                    vals[i + j] = u;
                    vals[i + j + lenh] = v;
                }
            }
            len >>= 1;
        }
        bit_reverse(vals);
        let inv = 1.0 / slots as f64;
        for v in vals.iter_mut() {
            v.re *= inv;
            v.im *= inv;
        }
    }

    /// Embeds real slot values into scaled integer coefficients: the real
    /// parts occupy coefficients `0..N/2`, the imaginary parts `N/2..N`.
    /// `vals.len()` must be ≤ `slots` (missing slots are zero).
    ///
    /// # Panics
    /// Panics if `vals.len() > slots`.
    pub fn embed(&self, vals: &[f64], scale: f64) -> Vec<i128> {
        self.embed_with(vals, scale, <[i128]>::to_vec)
    }

    /// [`Encoder::embed`], lending the coefficients to `f` from working
    /// buffers this thread keeps between calls, so an encode allocates
    /// nothing but its pooled residues.
    pub(crate) fn embed_with<R>(
        &self,
        vals: &[f64],
        scale: f64,
        f: impl FnOnce(&[i128]) -> R,
    ) -> R {
        assert!(vals.len() <= self.slots, "too many slot values");
        // Taken out of the thread-local while in use: a nested or
        // unwinding call finds empty buffers, never a borrowed one.
        let (mut buf, mut coeffs) = EMBED_BUFS.take();
        buf.clear();
        buf.resize(self.slots, Complex::default());
        for (b, &v) in buf.iter_mut().zip(vals) {
            b.re = v;
        }
        coeffs.resize(self.n, 0);
        self.embed_into(&mut buf, scale, &mut coeffs);
        let out = f(&coeffs);
        EMBED_BUFS.set((buf, coeffs));
        out
    }

    /// The inverse embedding of the `slots` values in `buf` (overwritten),
    /// scaled and rounded into all `N` of `coeffs`.
    fn embed_into(&self, buf: &mut [Complex], scale: f64, coeffs: &mut [i128]) {
        self.special_ifft(buf);
        for (i, c) in buf.iter().enumerate() {
            coeffs[i] = (c.re * scale).round() as i128;
            coeffs[i + self.slots] = (c.im * scale).round() as i128;
        }
    }

    /// Decodes scaled integer coefficients back into real slot values.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != N`.
    pub fn unembed(&self, coeffs: &[i128], scale: f64) -> Vec<f64> {
        assert_eq!(coeffs.len(), self.n, "coefficient count");
        let mut buf: Vec<Complex> = (0..self.slots)
            .map(|i| {
                Complex::new(
                    coeffs[i] as f64 / scale,
                    coeffs[i + self.slots] as f64 / scale,
                )
            })
            .collect();
        self.special_fft(&mut buf);
        buf.into_iter().map(|c| c.re).collect()
    }
}

fn bit_reverse(vals: &mut [Complex]) {
    let n = vals.len();
    let log_n = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - log_n);
        let j = j as usize;
        if i < j {
            vals.swap(i, j);
        }
    }
}

/// A CKKS plaintext: an RNS polynomial plus its scale and level.
#[derive(Debug, Clone)]
pub struct Plaintext {
    /// The encoded polynomial (coefficient or NTT domain).
    pub poly: RnsPoly,
    /// The exact scale the values were multiplied by.
    pub scale: FactoredScale,
    /// The chain level this plaintext is encoded for.
    pub level: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let enc = Encoder::new(1 << 6);
        let vals: Vec<f64> = (0..32).map(|i| (i as f64 - 16.0) / 8.0).collect();
        let scale = 2f64.powi(40);
        let coeffs = enc.embed(&vals, scale);
        let back = enc.unembed(&coeffs, scale);
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn embedding_is_multiplicative() {
        // decode(embed(z1) *negacyclic* embed(z2)) == z1 ⊙ z2 at scale².
        let n = 1 << 5;
        let enc = Encoder::new(n);
        let z1: Vec<f64> = (0..n / 2).map(|i| 0.1 * i as f64 - 0.5).collect();
        let z2: Vec<f64> = (0..n / 2).map(|i| 0.05 * i as f64 + 0.2).collect();
        let s = 2f64.powi(30);
        let c1 = enc.embed(&z1, s);
        let c2 = enc.embed(&z2, s);
        // Negacyclic schoolbook product in i128 (values fit: 2^30 * 2^30 * n).
        let mut prod = vec![0i128; n];
        for i in 0..n {
            for j in 0..n {
                let p = c1[i] * c2[j];
                if i + j < n {
                    prod[i + j] += p;
                } else {
                    prod[i + j - n] -= p;
                }
            }
        }
        let back = enc.unembed(&prod, s * s);
        for k in 0..n / 2 {
            let expect = z1[k] * z2[k];
            assert!(
                (back[k] - expect).abs() < 1e-6,
                "slot {k}: {} vs {expect}",
                back[k]
            );
        }
    }

    #[test]
    fn embedding_is_additive() {
        let enc = Encoder::new(1 << 4);
        let z1 = [0.5, -0.25, 0.125, 1.0];
        let z2 = [0.1, 0.2, 0.3, 0.4];
        let s = 2f64.powi(20);
        let c1 = enc.embed(&z1, s);
        let c2 = enc.embed(&z2, s);
        let sum: Vec<i128> = c1.iter().zip(&c2).map(|(a, b)| a + b).collect();
        let back = enc.unembed(&sum, s);
        for k in 0..4 {
            assert!((back[k] - (z1[k] + z2[k])).abs() < 1e-4);
        }
    }

    #[test]
    fn rotation_group_structure() {
        // Galois element 5 rotates slots by one position: decode(σ_5(m))
        // equals decode(m) rotated. Verified here at the embedding level by
        // permuting coefficients with X -> X^5.
        let n = 1 << 4;
        let enc = Encoder::new(n);
        let z: Vec<f64> = (0..n / 2).map(|i| i as f64).collect();
        let s = 2f64.powi(25);
        let c = enc.embed(&z, s);
        // Apply X -> X^5 on integer coefficients (negacyclic).
        let mut rot = vec![0i128; n];
        for (i, &v) in c.iter().enumerate() {
            let j = i * 5 % (2 * n);
            if j < n {
                rot[j] += v;
            } else {
                rot[j - n] -= v;
            }
        }
        let back = enc.unembed(&rot, s);
        for k in 0..n / 2 {
            let expect = z[(k + 1) % (n / 2)];
            assert!(
                (back[k] - expect).abs() < 1e-4,
                "slot {k}: {} vs {expect}",
                back[k]
            );
        }
    }

    #[test]
    fn partial_slots_zero_fill() {
        let enc = Encoder::new(1 << 4);
        let s = 2f64.powi(20);
        let coeffs = enc.embed(&[1.0], s);
        let back = enc.unembed(&coeffs, s);
        // Rounding to integer coefficients at 2^20 scale leaves ~2^-20·√N
        // of leakage into the empty slots.
        assert!((back[0] - 1.0).abs() < 1e-4);
        for v in &back[1..] {
            assert!(v.abs() < 1e-4);
        }
    }
}
