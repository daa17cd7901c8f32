//! The serialised bytes that cache keys, dispatch plans, trial-cache
//! entries and checkpoint files are built from, pinned exactly.
//!
//! Three outputs are compared with committed copies in
//! `tests/goldens/serde/`:
//!
//! * `SimConfig::preset(name).to_json()` for every named preset
//!   (`presets.txt`, one `name json` line each);
//! * `result_to_json` of one fixed run (`result.json`), the lossless
//!   wire and cache payload;
//! * `Checkpoint::to_json` of one fixed checkpoint (`checkpoint.json`).
//!
//! A change to any of them invalidates every trial cache and every
//! saved checkpoint hash, so it must be deliberate:
//!
//! ```text
//! RIX_BLESS=1 cargo test --test serde_bytes
//! ```

use rix::prelude::*;
use rix::sim::checkpoint::result_to_json;
use std::path::PathBuf;

fn golden(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/serde").join(file)
}

fn check(file: &str, got: &str) {
    let path = golden(file);
    if std::env::var_os("RIX_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); run RIX_BLESS=1 once"));
    if want != got {
        let line = want.lines().zip(got.lines()).position(|(a, b)| a != b);
        panic!(
            "{file} drifted from its golden (first differing line: {line:?}):\n  want: {want}\n  got:  {got}"
        );
    }
}

/// The program of every fixed run: one workload at a fixed seed, so
/// the integration histograms and every cache level are non-zero.
fn fixed_program() -> Program {
    by_name("gcc").expect("gcc is a workload").build(7)
}

#[test]
fn preset_configs_serialise_to_pinned_bytes() {
    let mut got = String::new();
    for (name, _) in SimConfig::PRESET_NAMES {
        let cfg = SimConfig::preset(name).expect("listed preset resolves");
        got.push_str(&format!("{name} {}\n", cfg.to_json()));
    }
    check("presets.txt", &got);
}

#[test]
fn lossless_result_payload_is_pinned() {
    let program = fixed_program();
    let result = Simulator::new(&program, SimConfig::default()).run(3_000);
    assert!(result.stats.integration.integrations() > 0, "exercise the histograms");
    check("result.json", &format!("{}\n", result_to_json(&result)));
}

#[test]
fn checkpoint_document_is_pinned() {
    let program = fixed_program();
    let mut sim = Simulator::new(&program, SimConfig::default());
    sim.run_until(&StopWhen::RetiredAtLeast(1_000));
    let ck = sim.checkpoint();
    check("checkpoint.json", &format!("{}\n", ck.to_json()));
}
