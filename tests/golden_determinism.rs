//! Golden determinism snapshots: architectural results must not drift.
//!
//! Runs every named workload at a fixed seed and instruction budget
//! under the no-integration baseline, the full-integration
//! configuration and four integration-table corners (see `configs`),
//! and compares `RunResult::to_json()` byte-for-byte
//! against the committed goldens in `tests/goldens/`. Performance
//! refactors of the simulator hot path must leave every counter —
//! cycles, squashes, cache misses, integration events — exactly
//! unchanged; any diff here is an architectural change, not an
//! optimisation, and needs a deliberate golden regeneration:
//!
//! ```text
//! RIX_BLESS=1 cargo test --test golden_determinism
//! ```

use rix::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 7;
const BUDGET: u64 = 25_000;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

/// The baseline, the default 1K 4-way IT, and the IT corners: PC
/// indexing, full associativity at 1K and at 64 entries (the latter
/// under oracle suppression), and a direct-mapped table.
fn configs() -> Vec<(&'static str, SimConfig)> {
    let it = |i: IntegrationConfig| SimConfig::default().with_integration(i);
    vec![
        ("base", SimConfig::baseline()),
        ("integration", SimConfig::default()),
        ("it_pc", it(IntegrationConfig::plus_general())),
        ("it_fa1k", it(IntegrationConfig::plus_reverse().fully_associative())),
        ("it_dm", it(IntegrationConfig::plus_reverse().with_it_geometry(1024, 1))),
        (
            "it_fa64_oracle",
            it(IntegrationConfig::plus_reverse().with_it_geometry(64, 64).with_oracle()),
        ),
    ]
}

#[test]
fn run_results_match_committed_goldens() {
    let bless = std::env::var_os("RIX_BLESS").is_some();
    let dir = goldens_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("create goldens dir");
    }
    let mut failures = Vec::new();
    for bench in all_benchmarks() {
        let program = bench.build(SEED);
        for (label, cfg) in configs() {
            let got = Simulator::new(&program, cfg).run(BUDGET).to_json();
            let path = dir.join(format!("{}__{label}.json", bench.name));
            if bless {
                std::fs::write(&path, format!("{got}\n")).expect("write golden");
                continue;
            }
            let want = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    failures.push(format!("{}/{label}: missing golden {path:?}: {e}", bench.name));
                    continue;
                }
            };
            if want.trim_end() != got {
                failures.push(format!(
                    "{}/{label}: RunResult drifted from golden {path:?}\n  want: {}\n  got:  {got}",
                    bench.name,
                    want.trim_end()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "architectural results changed ({} cells; rerun with RIX_BLESS=1 only if the \
         change is deliberate):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn goldens_are_committed_for_every_workload() {
    if std::env::var_os("RIX_BLESS").is_some() {
        return; // the blessing run is about to create them
    }
    let dir = goldens_dir();
    for bench in all_benchmarks() {
        for (label, _) in configs() {
            let path = dir.join(format!("{}__{label}.json", bench.name));
            assert!(path.is_file(), "missing golden {path:?}; run RIX_BLESS=1 once");
        }
    }
}
