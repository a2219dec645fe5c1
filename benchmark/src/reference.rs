//! The reference kernel: a fixed host workload that times the host, not
//! the simulator.
//!
//! On a shared VM the host's speed drifts by 10–20% over minutes as
//! neighbours come and go, and simple ALU or memory loops slow by only
//! half as much as the simulator does. This kernel has the simulator's
//! shape instead — a fixed chain of distinct boxed closures called in a
//! predictable order (the translated engine's threaded code) and a
//! `match`-dispatched register machine over a small memory (the
//! interpreter) — and slowed within a few percent of the simulator in
//! the same windows. Every host time a run reports is scaled by
//! [`REFERENCE_MS`] over the kernel's time measured beside it, so drift
//! cancels. The kernel lives with the benchmark: a change to the
//! simulator cannot move it.

use std::time::{Duration, Instant};

/// The kernel's median time on an idle 2-vCPU Intel Xeon VM (2.1 GHz),
/// the host the benchmark was tuned on. Scaled times read as host times
/// on that host at that speed.
pub const REFERENCE_MS: f64 = 3.4;

const CHAIN_LEN: u64 = 256;
const CHAIN_ROUNDS: usize = 4_000;
const MACHINE_STEPS: usize = 1_000_000;
const MEMORY_WORDS: usize = 1 << 16;

#[derive(Clone, Copy)]
enum Op {
    Add(usize, usize, usize),
    AddI(usize, usize, u32),
    Load(usize, usize, u32),
    Store(usize, usize, u32),
    Xor(usize, usize, usize),
    Shift(usize, usize, u32),
}

type Link = Box<dyn Fn(u64) -> u64>;

/// The kernel's code and data, built once per run.
pub struct Reference {
    chain: Vec<Link>,
    program: Vec<Op>,
    memory: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// Builds the closure chain, the register-machine program and its
    /// memory.
    pub fn new() -> Reference {
        let chain = (0..CHAIN_LEN)
            .map(|k| {
                Box::new(move |x: u64| x.wrapping_mul(2 * k + 1).rotate_left((k % 13) as u32) ^ k)
                    as Link
            })
            .collect();
        let mut program = Vec::new();
        for i in 0..40 {
            program.extend([
                Op::AddI(3, 3, i),
                Op::Load(4, 3, 4 * i),
                Op::Add(5, 4, 3),
                Op::Store(5, 3, 8),
                Op::Xor(6, 5, 4),
                Op::Shift(7, 6, 3),
            ]);
        }
        Reference {
            chain,
            program,
            memory: vec![7; MEMORY_WORDS],
        }
    }

    /// Runs the kernel once and returns its host time.
    pub fn time(&mut self) -> Duration {
        let start = Instant::now();
        let mut x = 1u64;
        for _ in 0..CHAIN_ROUNDS {
            for link in &self.chain {
                x = link(x);
            }
        }
        std::hint::black_box(x);
        std::hint::black_box(self.run_machine());
        start.elapsed()
    }

    /// `REFERENCE_MS` over this `reference` time: the factor that scales
    /// a host time measured beside it to the reference host's speed.
    pub fn factor(reference: Duration) -> f64 {
        REFERENCE_MS / (reference.as_secs_f64() * 1e3)
    }

    fn run_machine(&mut self) -> u32 {
        let (program, memory) = (&self.program, &mut self.memory);
        let mask = memory.len() - 1;
        let mut r = [0u32; 8];
        let mut pc = 0;
        for _ in 0..MACHINE_STEPS {
            pc = match program[pc] {
                Op::Add(d, a, b) => {
                    r[d] = r[a].wrapping_add(r[b]);
                    pc + 1
                }
                Op::AddI(d, a, imm) => {
                    r[d] = r[a].wrapping_add(imm);
                    pc + 1
                }
                Op::Load(d, a, off) => {
                    r[d] = memory[(r[a].wrapping_add(off) as usize >> 2) & mask];
                    pc + 1
                }
                Op::Store(s, a, off) => {
                    memory[(r[a].wrapping_add(off) as usize >> 2) & mask] = r[s];
                    pc + 1
                }
                Op::Xor(d, a, b) => {
                    r[d] = r[a] ^ r[b];
                    pc + 1
                }
                Op::Shift(d, a, by) => {
                    r[d] = r[a] << by;
                    pc + 1
                }
            };
            if pc == program.len() {
                pc = 0;
            }
        }
        r[3]
    }
}
