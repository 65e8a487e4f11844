//! Seeded input generation and the provenance digest.
//!
//! Every generated input — the repro seed, hot request seeds, the sweep
//! job list and the arrival schedule — comes from one [`Rng`] stream per
//! workload seed, and every run prints a [`Digest`] of what it generated,
//! so two runs (say, a parent and a change) provably did identical work.

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream of `seed` under domain `salt` (one stream per generated
    /// input kind, so adding draws to one never shifts another).
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }

    /// An exponential gap (seconds) between Poisson arrivals at `rate`
    /// per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A job seed; 53 bits, so any JSON reader keeps it exact.
    pub fn job_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the generated inputs.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Prints the digest as the run's provenance line.
    pub fn print(&self, what: &str) {
        println!("inputs digest ({what}): {}", self.hex());
    }
}
