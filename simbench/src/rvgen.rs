//! Seeded RV32 program generator for the `rv_checked` workload.
//!
//! Four parameterised versions of the suite's shapes — bubble sort,
//! memcpy, Collatz and recursive Fibonacci — each several hundred
//! thousand dynamic instructions long. The seed picks the data (array
//! contents, start values, base cases), never the program's shape, so
//! every seed runs the same kind of work. The simulator receives only the
//! generated assembly text; the generator computes the `a0` a correct run
//! must end with, which the functional oracle checks.

/// One generated program.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// Shape name (`sort`, `memcpy`, `collatz`, `fib`).
    pub shape: &'static str,
    /// Assembly source handed to `mos_rv::assemble`.
    pub source: String,
    /// Value `a0` holds when the program halts.
    pub expect_a0: u32,
}

/// The generator's shapes, in job order.
pub const SHAPES: [&str; 4] = ["sort", "memcpy", "collatz", "fib"];

/// SplitMix64: a small, fixed, dependency-free seeded stream.
pub(crate) struct SplitMix(u64);

impl SplitMix {
    pub(crate) fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Generate shape `shape` from `seed`.
///
/// # Panics
///
/// Panics on a shape name not in [`SHAPES`].
pub fn generate(shape: &str, seed: u64) -> GenProgram {
    // Each shape draws from its own stream, so shapes stay independent.
    let salt = SHAPES
        .iter()
        .position(|&s| s == shape)
        .expect("known shape") as u64;
    let mut rng = SplitMix::new(seed.wrapping_mul(0x1000_0000_01b3) ^ (salt << 56));
    match shape {
        "sort" => sort(&mut rng),
        "memcpy" => memcpy(&mut rng),
        "collatz" => collatz(&mut rng),
        _ => fib(&mut rng),
    }
}

/// `.word` directives placing `values` from `base` upwards.
fn words(base: u32, values: &[u32]) -> String {
    let mut out = String::new();
    for (k, chunk) in values.chunks(16).enumerate() {
        let addr = base + 64 * k as u32;
        let vals: Vec<String> = chunk.iter().map(u32::to_string).collect();
        out.push_str(&format!(".word {addr:#x}, {}\n", vals.join(", ")));
    }
    out
}

const SORT_N: u32 = 352;
const SORT_BASE: u32 = 0x10000;

/// Bubble sort of `SORT_N` seeded words (all n-1 passes), then
/// `a0 = sum a[i] * (i + 1)`. The words' relative order comes from a
/// fixed stream and only their low bits from the seed, so every seed
/// takes the same branches: the sort's simulated IPC would otherwise swing
/// by 15 % between seeds and drown host-time changes.
fn sort(rng: &mut SplitMix) -> GenProgram {
    let mut order = SplitMix::new(0x5047_5254);
    let mut data: Vec<u32> = (0..SORT_N)
        .map(|i| ((order.next() % 4096) as u32 * SORT_N + i) * 1024 + (rng.next() % 1024) as u32)
        .collect();
    let source = format!(
        "# bubble sort of {SORT_N} seeded words, checksum sum a[i]*(i+1)
_start:
    li   s0, {SORT_BASE:#x}
    li   s1, {SORT_N}
    addi s2, s1, -1
    li   s3, 0
pass:
    sub  s4, s2, s3
    li   t1, 0
    mv   t4, s0
inner:
    lw   t5, 0(t4)
    lw   t6, 4(t4)
    bge  t6, t5, noswap
    sw   t6, 0(t4)
    sw   t5, 4(t4)
noswap:
    addi t1, t1, 1
    addi t4, t4, 4
    bne  t1, s4, inner
    addi s3, s3, 1
    bne  s3, s2, pass
    li   a0, 0
    li   t1, 0
    mv   t4, s0
chk:
    lw   t5, 0(t4)
    addi t1, t1, 1
    mul  t5, t5, t1
    add  a0, a0, t5
    addi t4, t4, 4
    bne  t1, s1, chk
    ebreak
{}",
        words(SORT_BASE, &data)
    );
    data.sort_unstable();
    let expect_a0 = data
        .iter()
        .zip(1u32..)
        .fold(0u32, |acc, (&v, i)| acc.wrapping_add(v.wrapping_mul(i)));
    GenProgram {
        shape: "sort",
        source,
        expect_a0,
    }
}

const COPY_WORDS: u32 = 2048;
const COPY_ROUNDS: u32 = 32;
const COPY_A: u32 = 0x20000;
const COPY_B: u32 = 0x30000;

/// Ping-pong word copy between two 8 KB buffers (`b[i] = a[i] + round`,
/// then swap), summing every copied word into `a0`.
fn memcpy(rng: &mut SplitMix) -> GenProgram {
    let data: Vec<u32> = (0..COPY_WORDS).map(|_| rng.next() as u32).collect();
    let source = format!(
        "# ping-pong memcpy of {COPY_WORDS} seeded words, {COPY_ROUNDS} rounds
_start:
    li   s0, {COPY_A:#x}
    li   s1, {COPY_B:#x}
    li   s2, 0
    li   s3, {COPY_ROUNDS}
    li   a0, 0
round:
    mv   t0, s0
    mv   t1, s1
    li   t2, {bytes}
    add  t2, t0, t2
copy:
    lw   t5, 0(t0)
    add  t5, t5, s2
    sw   t5, 0(t1)
    add  a0, a0, t5
    addi t0, t0, 4
    addi t1, t1, 4
    bne  t0, t2, copy
    mv   t3, s0
    mv   s0, s1
    mv   s1, t3
    addi s2, s2, 1
    bne  s2, s3, round
    ebreak
{}",
        words(COPY_A, &data),
        bytes = COPY_WORDS * 4,
    );
    let (mut a, mut b) = (data, vec![0u32; COPY_WORDS as usize]);
    let mut sum = 0u32;
    for round in 0..COPY_ROUNDS {
        for (dst, &src) in b.iter_mut().zip(&a) {
            *dst = src.wrapping_add(round);
            sum = sum.wrapping_add(*dst);
        }
        std::mem::swap(&mut a, &mut b);
    }
    GenProgram {
        shape: "memcpy",
        source,
        expect_a0: sum,
    }
}

/// Collatz steps the program takes in total (so its length does not
/// depend on the seed).
const COLLATZ_STEPS: u32 = 56_000;

/// Total Collatz steps over consecutive starts from a seeded one, as many
/// starts as it takes to reach `COLLATZ_STEPS`. Starts stay below
/// 100 000, whose trajectories fit in 32 bits.
fn collatz(rng: &mut SplitMix) -> GenProgram {
    let stopping = |n: u32| {
        let (mut x, mut steps) = (n, 0u32);
        while x != 1 {
            x = if x & 1 == 1 { 3 * x + 1 } else { x >> 1 };
            steps += 1;
        }
        steps
    };
    let start = 20_000 + (rng.next() % 60_000) as u32;
    let (mut end, mut steps) = (start, 0u32);
    while steps < COLLATZ_STEPS {
        steps += stopping(end);
        end += 1;
    }
    let source = format!(
        "# Collatz steps over [{start}, {end})
_start:
    li   s0, {start}
    li   s5, {end}
    li   a0, 0
seed:
    mv   t0, s0
run:
    li   t1, 1
    beq  t0, t1, next
    andi t2, t0, 1
    beqz t2, even
    slli t3, t0, 1
    add  t0, t3, t0
    addi t0, t0, 1
    j    step
even:
    srli t0, t0, 1
step:
    addi a0, a0, 1
    j    run
next:
    addi s0, s0, 1
    bne  s0, s5, seed
    ebreak
"
    );
    GenProgram {
        shape: "collatz",
        source,
        expect_a0: steps,
    }
}

const FIB_N: u32 = 21;

/// Naive recursive Fibonacci with seeded base cases `f(0)`, `f(1)`.
fn fib(rng: &mut SplitMix) -> GenProgram {
    let f0 = rng.next() as u32;
    let f1 = rng.next() as u32;
    let source = format!(
        "# recursive fib({FIB_N}) with f(0) = {f0}, f(1) = {f1}
_start:
    li   s2, {f0}
    li   s3, {f1}
    li   a0, {FIB_N}
    call fib
    ebreak
fib:
    li   t0, 2
    blt  a0, t0, base
    addi sp, sp, -8
    sw   ra, 4(sp)
    sw   a0, 0(sp)
    addi a0, a0, -1
    call fib
    lw   t1, 0(sp)
    sw   a0, 0(sp)
    addi a0, t1, -2
    call fib
    lw   t1, 0(sp)
    add  a0, a0, t1
    lw   ra, 4(sp)
    addi sp, sp, 8
    ret
base:
    beqz a0, zero
    mv   a0, s3
    ret
zero:
    mv   a0, s2
    ret
"
    );
    let (mut prev, mut cur) = (f0, f1);
    for _ in 1..FIB_N {
        (prev, cur) = (cur, prev.wrapping_add(cur));
    }
    GenProgram {
        shape: "fib",
        source,
        expect_a0: cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_rv::{assemble, RvInterp};

    #[test]
    fn every_shape_halts_with_the_expected_a0_and_is_long() {
        for seed in [1, 2, 977] {
            for shape in SHAPES {
                let g = generate(shape, seed);
                let rv = assemble(shape, &g.source).expect("generated source assembles");
                let mut interp = RvInterp::new(&rv);
                let mut n = 0u64;
                while interp.step().is_some() {
                    n += 1;
                }
                assert!(
                    interp.stopped_cleanly(),
                    "{shape}/{seed} did not halt cleanly"
                );
                assert_eq!(interp.state().reg(10), g.expect_a0, "{shape}/{seed}");
                assert!(
                    (300_000..600_000).contains(&n),
                    "{shape}/{seed}: {n} instructions"
                );
            }
        }
    }

    #[test]
    fn seeds_change_data_not_shape() {
        for shape in SHAPES {
            let (a, b) = (generate(shape, 1), generate(shape, 2));
            assert_eq!(
                generate(shape, 1).source,
                a.source,
                "{shape} is deterministic"
            );
            assert_ne!(a.source, b.source, "{shape} ignores the seed");
            let code = |s: &str| {
                s.lines()
                    .filter(|l| {
                        !l.starts_with(".word") && !l.starts_with('#') && !l.contains("li ")
                    })
                    .count()
            };
            assert_eq!(code(&a.source), code(&b.source), "{shape} changed shape");
        }
    }
}
