//! Seeded program generators and the tier self-check.
//!
//! The benchmark hands the program under test nothing but generated
//! `.rlp` text. Two families cover the four workloads:
//!
//! - **tracking**: a guarded scatter into `STATE` (seed-chosen
//!   modulus, write-to-read distance, guard period and write offset
//!   place the dependences), a disjoint `WORK` array and a `+=` reduction into
//!   `ENERGY` — the R-LRPD test's home ground. Its `cost 25;` directive
//!   (virtual work per iteration) steers the adaptive strategy's
//!   redistribution rule exactly as in `examples/programs/tracking_large.rlp`.
//! - **beta**: an unguarded affine recurrence at a seed-chosen uniform
//!   distance `d` in `2..=8`, which the classifier proves and
//!   `run_auto` pipelines DOACROSS.
//!
//! The seed moves *where* dependences fall, not how dense they are, so
//! the cost of a workload stays put from one seed to the next.

use rlrpd_lang::{Class, CompiledProgram};

/// SplitMix64: a tiny, fixed, portable generator, so one seed names
/// the same programs on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The multiplicative inverse of `a` modulo `m` (`a` coprime with `m`).
fn inverse(a: usize, m: usize) -> usize {
    (1..m)
        .find(|x| a * x % m == 1)
        .expect("a is coprime with m")
}

/// A tracking-style loop of `n` iterations.
///
/// A value written to `STATE` at iteration `i` is read back at
/// `i + distance` (and every `modulus` iterations after), with the
/// seed-chosen `distance` in 160..=220. Above 128 it leaves every `sw:8`
/// and `sw:64` window free of cross-block dependences, while the big
/// blocks of the adaptive strategy always hold some, so no seed changes
/// a strategy's stage structure.
pub fn tracking(n: usize, rng: &mut Rng) -> String {
    let modulus = rng.range(448, 576);
    let (offset, distance) = loop {
        let o = rng.range(24, 56);
        let d = rng.range(160, 220);
        if gcd(o, modulus) == 1 && gcd(d, modulus) == 1 {
            break (o, d);
        }
    };
    // src(i + distance) = src(i) + offset  <=>  distance * mult = offset (mod modulus)
    let mult = offset * inverse(distance, modulus) % modulus;
    let add = rng.range(1, 9);
    let period = rng.range(27, 35);
    let state = modulus + offset;
    format!(
        "array STATE[{state}] = 1;
array WORK[{n}];
array ENERGY[16];

cost 25;
for i in 0..{n} {{
    let src = (i * {mult} + {add}) % {modulus};
    let v = STATE[src] * 0.5 + i;
    WORK[i] = v;
    if i % {period} == 0 {{
        STATE[src + {offset}] = v;
    }}
    ENERGY[i % 16] += v;
}}
"
    )
}

/// A β-class recurrence of `n` iterations at a proven uniform
/// distance `d` in `2..=8`.
pub fn beta(n: usize, rng: &mut Rng) -> String {
    let d = rng.range(2, 8);
    let decay = ["0.991", "0.993", "0.996", "0.998"][rng.range(0, 3)];
    let mix = ["0.125", "0.25", "0.375"][rng.range(0, 2)];
    let len = n + d;
    format!(
        "array A[{len}] = 1;
array B[{len}] = 2;

for i in {d}..{len} {{
    A[i] = A[i - {d}] * {decay} + B[i] * {mix} + i;
}}
"
    )
}

/// The tracking family must stay on the speculative tier: one loop,
/// `STATE` classified TESTED, and a DOACROSS plan that is not
/// `Eligible`.
pub fn check_tracking(prog: &CompiledProgram) -> Result<(), String> {
    if prog.num_loops() != 1 {
        return Err(format!("tracking program has {} loops", prog.num_loops()));
    }
    let state = prog
        .program()
        .arrays
        .iter()
        .position(|a| a.name == "STATE")
        .ok_or("tracking program declares no STATE")?;
    let class = &prog.classifications(0)[state].class;
    if !matches!(class, Class::Tested) {
        return Err(format!("tracking STATE classified {class:?}, not Tested"));
    }
    let plan = prog.doacross_plan(0);
    if plan.eligible() {
        return Err("tracking loop got an Eligible DOACROSS plan".into());
    }
    Ok(())
}

/// The β family must reach the DOACROSS tier: one loop with an
/// `Eligible` plan.
pub fn check_beta(prog: &CompiledProgram) -> Result<(), String> {
    if prog.num_loops() != 1 {
        return Err(format!("beta program has {} loops", prog.num_loops()));
    }
    let plan = prog.doacross_plan(0);
    if !plan.eligible() {
        return Err(format!(
            "beta loop plan is {:?}, not Eligible",
            plan.verdict
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_program() {
        assert_eq!(
            tracking(1000, &mut Rng::new(7)),
            tracking(1000, &mut Rng::new(7))
        );
        assert_eq!(beta(1000, &mut Rng::new(7)), beta(1000, &mut Rng::new(7)));
        assert_ne!(
            tracking(1000, &mut Rng::new(7)),
            tracking(1000, &mut Rng::new(8))
        );
    }

    #[test]
    fn sliding_windows_never_restart() {
        use rlrpd_core::{run_speculative, RunConfig, Strategy, WindowConfig};
        for seed in 0..64 {
            let lp = rlrpd_lang::compile(&tracking(4000, &mut Rng::new(seed))).unwrap();
            for w in [8, 64] {
                let cfg = RunConfig::new(2)
                    .with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(w)));
                let restarts = run_speculative(&lp, cfg).report.restarts;
                assert_eq!(
                    restarts, 0,
                    "seed {seed}: sw:{w} restarted {restarts} times"
                );
            }
        }
    }

    #[test]
    fn every_seed_keeps_its_tier() {
        for seed in 0..64 {
            let t = CompiledProgram::compile(&tracking(2000, &mut Rng::new(seed)))
                .unwrap_or_else(|e| panic!("seed {seed}: tracking does not compile: {e}"));
            check_tracking(&t).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let b = CompiledProgram::compile(&beta(2000, &mut Rng::new(seed)))
                .unwrap_or_else(|e| panic!("seed {seed}: beta does not compile: {e}"));
            check_beta(&b).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
