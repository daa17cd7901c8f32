//! Layer replays: seeded operation streams driven straight through one
//! crate's public API, timing the host cost of a single operation
//! without instrumenting the simulator.
//!
//! * `integration.it_op_ns.w{4,1024,4096}` — `It::lookup`, with
//!   `insert_direct` on a miss and an occasional `invalidate` of a hit,
//!   on a full table of 1K entries at 4 ways, 1K at 1K ways and 4K at
//!   4K ways (the `core-default` and `it-assoc` geometries).
//! * `mem.dload_ns` / `mem.ifetch_ns` — `MemSystem::dload` and `ifetch`
//!   on the default hierarchy over a hot/streaming/random address mix.
//! * `frontend.predict_ns` — `HybridPredictor` predict, train and (on a
//!   misprediction) history repair over biased static branches.

use crate::util::{secs, Report, Rng};
use rix_frontend::{HybridPredictor, PredictorConfig};
use rix_integration::{IndexScheme, It, ItKey, PregRef};
use rix_isa::Opcode;
use rix_mem::{MemConfig, MemSystem};
use std::time::Instant;

/// Host time each replay measures for, at least.
const MIN_SECONDS: f64 = 0.2;

/// Length of every pre-generated stream (replays cycle through it).
const STREAM: usize = 1 << 16;

/// Times `op` over `stream` (cycled) until [`MIN_SECONDS`] pass;
/// returns nanoseconds per call.
fn time_per_op<T>(stream: &[T], mut op: impl FnMut(&T)) -> f64 {
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        stream.iter().for_each(&mut op);
        calls += stream.len() as u64;
        let elapsed = secs(start.elapsed());
        if elapsed >= MIN_SECONDS {
            return elapsed * 1e9 / calls as f64;
        }
    }
}

fn it_keys(rng: &mut Rng, n: usize, pregs: u64) -> Vec<ItKey> {
    const OPS: [Opcode; 5] = [
        Opcode::Addq,
        Opcode::Subq,
        Opcode::And,
        Opcode::Or,
        Opcode::Ldq,
    ];
    let preg = |rng: &mut Rng| PregRef::new(rng.below(pregs) as u16, rng.below(4) as u8);
    (0..n)
        .map(|_| {
            let has_imm = rng.below(4) != 0;
            ItKey {
                pc: rng.below(1 << 16),
                op: OPS[rng.below(OPS.len() as u64) as usize],
                has_imm,
                imm: if has_imm { 8 * rng.below(32) as i32 } else { 0 },
                call_depth: rng.below(4) as u16,
                in1: Some(preg(rng)),
                in2: if has_imm { None } else { Some(preg(rng)) },
            }
        })
        .collect()
}

/// Nanoseconds per IT operation on a full `entries`-entry, `ways`-way table.
fn it_op_ns(rng: &mut Rng, entries: usize, ways: usize) -> f64 {
    let pregs = entries.max(1024) as u64;
    // Twice as many distinct keys as entries: about half the lookups
    // miss and insert, evicting the least recently used entry.
    let keys = it_keys(rng, 2 * entries, pregs);
    let mut it = It::new(entries, ways, IndexScheme::OpcodeDepth);
    for (seq, k) in keys.iter().enumerate() {
        it.insert_direct(*k, PregRef::new((seq as u64 % pregs) as u16, 1), seq as u64);
    }
    let stream: Vec<(ItKey, u16)> = (0..STREAM)
        .map(|_| {
            (
                keys[rng.below(keys.len() as u64) as usize],
                rng.below(pregs) as u16,
            )
        })
        .collect();
    let mut seq = 0u64;
    time_per_op(&stream, |(key, out)| {
        seq += 1;
        match it.lookup(*key) {
            Some(hit) if seq.is_multiple_of(32) => it.invalidate(*key, hit.out),
            Some(_) => {}
            None => it.insert_direct(*key, PregRef::new(*out, 1), seq),
        }
    })
}

fn mem_ns(rng: &mut Rng) -> (f64, f64) {
    // Loads: 80% within a 16 KiB hot set, 15% a sequential stream over
    // 1 MiB, 5% anywhere in 64 MiB.
    let mut stream_at = 0u64;
    let loads: Vec<u64> = (0..STREAM)
        .map(|_| match rng.below(20) {
            0..=15 => 0x10_0000 + 8 * rng.below(2048),
            16..=18 => {
                stream_at = (stream_at + 8) % (1 << 20);
                0x400_0000 + stream_at
            }
            _ => 8 * rng.below(8 << 20),
        })
        .collect();
    // Fetches: sequential 4-byte instructions with a jump every ~8.
    let mut pc = 0u64;
    let fetches: Vec<u64> = (0..STREAM)
        .map(|_| {
            pc = if rng.below(8) == 0 {
                4 * rng.below(64 << 10)
            } else {
                pc + 4
            };
            pc
        })
        .collect();
    let mut mem = MemSystem::new(MemConfig::default());
    let mut now = 0u64;
    let dload = time_per_op(&loads, |a| {
        now += 2;
        let _ = mem.dload(now, *a);
    });
    let mut mem = MemSystem::new(MemConfig::default());
    let ifetch = time_per_op(&fetches, |a| {
        now += 2;
        let _ = mem.ifetch(now, *a);
    });
    (dload, ifetch)
}

fn predict_ns(rng: &mut Rng) -> f64 {
    // 2048 static branches, each taken with its own fixed probability.
    let bias: Vec<u64> = (0..2048).map(|_| rng.below(101)).collect();
    let stream: Vec<(u64, bool)> = (0..STREAM)
        .map(|_| {
            let b = rng.below(bias.len() as u64);
            (4 * b, rng.below(100) < bias[b as usize])
        })
        .collect();
    let mut p = HybridPredictor::new(PredictorConfig::default());
    time_per_op(&stream, |&(pc, taken)| {
        let history = p.history();
        if p.predict_and_update(pc) != taken {
            p.set_history(history, Some(taken));
        }
        p.train(pc, history, taken);
    })
}

/// Runs every replay from `seed`, recording the per-layer metrics.
pub fn run(seed: u64, r: &mut Report) {
    let mut rng = Rng::new(seed.wrapping_add(1));
    for (entries, ways) in [(1024, 4), (1024, 1024), (4096, 4096)] {
        let ns = it_op_ns(&mut rng, entries, ways);
        r.layer(&format!("integration.it_op_ns.w{ways}"), ns);
    }
    let (dload, ifetch) = mem_ns(&mut rng);
    r.layer("mem.dload_ns", dload);
    r.layer("mem.ifetch_ns", ifetch);
    r.layer("frontend.predict_ns", predict_ns(&mut rng));
}
