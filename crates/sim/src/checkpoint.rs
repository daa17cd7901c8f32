//! On-disk session checkpoints.
//!
//! A [`Checkpoint`] is everything a simulation session needs to continue
//! in another process: the [`ArchState`] at a retirement boundary, the
//! statistics accumulated so far (every raw counter, losslessly — the
//! figure-facing [`SimStats::to_json`] serialises derived metrics and is
//! not invertible), and the absolute cycle count. It serialises to a
//! single JSON document (schema `rix-ckpt/1`; the counters through the
//! strict [`rix_isa::json`] field tables) that `python3 -m json.tool` —
//! and [`rix_isa::json`] — can read back.
//!
//! The contract (see [`Simulator::checkpoint`]): a session that
//! checkpoints and keeps running is byte-identical to one that saves the
//! checkpoint, reloads it elsewhere, and resumes.
//!
//! [`Simulator::checkpoint`]: crate::Simulator::checkpoint
//!
//! ```
//! use rix_sim::{Checkpoint, SimConfig, Simulator, StopWhen};
//! use rix_isa::{Asm, reg};
//!
//! let mut a = Asm::new();
//! a.addq_i(reg::R1, reg::ZERO, 500);
//! a.label("loop");
//! a.subq_i(reg::R1, reg::R1, 1);
//! a.bne(reg::R1, "loop");
//! a.halt();
//! let p = a.assemble()?;
//!
//! let mut live = Simulator::new(&p, SimConfig::default());
//! live.run_until(&StopWhen::RetiredAtLeast(200));
//! let ck = live.checkpoint();
//! // ... the live session keeps running; elsewhere, the round trip:
//! let restored = Checkpoint::from_json(&ck.to_json()).unwrap();
//! let mut resumed = Simulator::from_checkpoint(&p, SimConfig::default(), &restored);
//! let a = live.run_budget(1_000_000);
//! let b = resumed.run_budget(1_000_000);
//! assert_eq!(a.to_json(), b.to_json()); // byte-identical
//! # Ok::<(), rix_isa::AsmError>(())
//! ```

use crate::stats::SimStats;
use rix_isa::json::{self, Json};
use rix_isa::{ArchState, Program};
use rix_mem::Cycle;
use std::path::Path;

/// A serialisable session snapshot at a retirement boundary. See the
/// [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The architectural state (PC, registers, memory, retired
    /// position).
    pub arch: ArchState,
    /// Every statistics counter accumulated since the last
    /// `reset_stats` (or construction), losslessly.
    pub stats: SimStats,
    /// The absolute machine cycle at capture.
    pub cycle: Cycle,
    /// [`fingerprint`] of the program the snapshot belongs to. An
    /// `ArchState` is meaningless against any other instruction stream,
    /// so `Simulator::from_checkpoint` refuses a mismatch instead of
    /// running garbage.
    pub program_hash: u64,
}

/// A 64-bit FNV-1a fingerprint of a program's identity: entry point,
/// instruction stream (dense encoding) and initial data image. Stored
/// in every [`Checkpoint`] and checked at restore, so a checkpoint
/// saved from one (benchmark, seed) cannot silently resume against
/// another.
#[must_use]
pub fn fingerprint(program: &Program) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    mix(program.entry());
    mix(program.len() as u64);
    for &i in program.instrs() {
        // Assembled instructions always encode (the codec is lossless
        // over the ISA); fold a sentinel rather than fail on a
        // hand-built exotic one.
        mix(rix_isa::encode::encode(i).unwrap_or(u64::MAX));
    }
    for seg in program.data_segments() {
        mix(seg.base);
        mix(seg.words.len() as u64);
        for &w in &seg.words {
            mix(w);
        }
    }
    h
}

impl Checkpoint {
    /// Serialises the checkpoint as a `rix-ckpt/1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"schema":"rix-ckpt/1","cycle":{},"program_hash":{},"stats":{},"arch":{}}}"#,
            self.cycle,
            self.program_hash,
            json::to_string(&self.stats),
            self.arch.to_json(),
        )
    }

    /// Parses a checkpoint serialised by [`Checkpoint::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        match v.req("schema")?.as_str() {
            Some("rix-ckpt/1") => {}
            other => return Err(format!("unsupported checkpoint schema {other:?}")),
        }
        Ok(Self {
            cycle: json::field(&v, "cycle")?,
            program_hash: json::field(&v, "program_hash")?,
            stats: json::field(&v, "stats")?,
            arch: ArchState::from_json_value(v.req("arch")?)?,
        })
    }

    /// Writes the checkpoint to `path`, with a trailing newline.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Reads a checkpoint from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("cannot read checkpoint {:?}: {e}", path.as_ref()))?;
        Self::from_json(text.trim_end())
    }
}

// ----- lossless RunResult serialisation ---------------------------------

/// Serialises a [`RunResult`] losslessly (every raw counter, plus the
/// halt/timeout flags): the multi-process dispatch wire format and
/// trial-cache payload. The figure-facing [`RunResult::to_json`] emits
/// derived metrics and is **not** invertible; this pair is.
///
/// [`RunResult`]: crate::RunResult
/// [`RunResult::to_json`]: crate::RunResult::to_json
#[must_use]
pub fn result_to_json(r: &crate::RunResult) -> String {
    format!(
        r#"{{"halted":{},"timed_out":{},"stats":{}}}"#,
        r.halted,
        r.timed_out,
        json::to_string(&r.stats),
    )
}

/// Parses a [`result_to_json`] document back into the identical
/// [`RunResult`] (`result_to_json(&result_from_json(v)?) ==` the
/// original text).
///
/// [`RunResult`]: crate::RunResult
pub fn result_from_json(v: &Json) -> Result<crate::RunResult, String> {
    Ok(crate::RunResult {
        halted: json::field(v, "halted")?,
        timed_out: json::field(v, "timed_out")?,
        stats: json::field(v, "stats")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::pipeline::Simulator;
    use crate::session::StopWhen;
    use rix_isa::{reg, Asm};

    fn busy_program() -> rix_isa::Program {
        let mut a = Asm::new();
        a.data(0x4000, (0..32).map(|i| i * 3).collect::<Vec<u64>>());
        a.addq_i(reg::R1, reg::ZERO, 200); // trips
        a.addq_i(reg::R2, reg::ZERO, 0x4000);
        a.label("loop");
        a.ldq(reg::R3, 0, reg::R2);
        a.addq_i(reg::R3, reg::R3, 1);
        a.stq(reg::R3, 0, reg::R2);
        a.lda(reg::SP, -16, reg::SP);
        a.stq(reg::R3, 8, reg::SP);
        a.ldq(reg::R4, 8, reg::SP);
        a.lda(reg::SP, 16, reg::SP);
        a.subq_i(reg::R1, reg::R1, 1);
        a.bne(reg::R1, "loop");
        a.halt();
        a.assemble().expect("assembles")
    }

    #[test]
    fn stats_serde_is_lossless() {
        let p = busy_program();
        let mut sim = Simulator::new(&p, SimConfig::default());
        sim.run_until(&StopWhen::RetiredAtLeast(600));
        let ck = sim.checkpoint();
        assert!(ck.stats.retired >= 600);
        assert!(ck.stats.integration.integrations() > 0, "exercise the histograms");
        let back = Checkpoint::from_json(&ck.to_json()).expect("parses");
        assert_eq!(back, ck);
        assert_eq!(back.to_json(), ck.to_json());
    }

    #[test]
    fn json_is_well_formed_and_self_describing() {
        let p = busy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        sim.run_until(&StopWhen::RetiredAtLeast(100));
        let j = sim.checkpoint().to_json();
        assert!(j.contains(r#""schema":"rix-ckpt/1""#));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(rix_isa::json::Json::parse(&j).is_ok());
    }

    #[test]
    fn run_result_serde_is_lossless() {
        let p = busy_program();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let r = sim.run_budget(2_000);
        let text = result_to_json(&r);
        let v = rix_isa::json::Json::parse(&text).expect("well-formed");
        let back = result_from_json(&v).expect("parses");
        assert_eq!(back, r);
        assert_eq!(result_to_json(&back), text, "byte-stable round trip");
        // And it is the *lossless* form, not the derived-metric one.
        assert!(text.contains("\"rs_occupancy_sum\""), "{text}");
    }

    /// Every object-key path in `v` (`["stats", "mem", "l1d", "hits"]`, …).
    fn key_paths(v: &Json, prefix: &[String], out: &mut Vec<Vec<String>>) {
        if let Json::Obj(fields) = v {
            for (k, val) in fields {
                let mut path = prefix.to_vec();
                path.push(k.clone());
                key_paths(val, &path, out);
                out.push(path);
            }
        }
    }

    fn without(v: &Json, path: &[String]) -> Json {
        let Json::Obj(fields) = v else { unreachable!("paths only run through objects") };
        let fields = fields
            .iter()
            .filter(|(k, _)| path.len() > 1 || *k != path[0])
            .map(|(k, val)| {
                let inner = path.len() > 1 && *k == path[0];
                (k.clone(), if inner { without(val, &path[1..]) } else { val.clone() })
            })
            .collect();
        Json::Obj(fields)
    }

    #[test]
    fn result_from_json_requires_every_counter_key() {
        // A truncated trial-cache entry must read as an error (a cache
        // miss), never as a result whose missing counters are zero.
        let p = busy_program();
        let r = Simulator::new(&p, SimConfig::default()).run_budget(2_000);
        let doc = Json::parse(&result_to_json(&r)).expect("well-formed");
        let mut paths = Vec::new();
        key_paths(&doc, &[], &mut paths);
        assert!(paths.len() > 50, "every counter is a key: {}", paths.len());
        for path in &paths {
            let cut = without(&doc, path);
            assert!(
                result_from_json(&cut).is_err(),
                "dropping `{}` still parsed",
                path.join(".")
            );
        }
        assert_eq!(result_from_json(&doc).expect("the whole document parses"), r);
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        let err = Checkpoint::from_json(r#"{"schema":"rix-perf/1"}"#).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }
}
