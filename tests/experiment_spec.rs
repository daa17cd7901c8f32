//! The spec-driven experiment engine, end to end:
//!
//! * every committed `specs/*.json` parses, materialises its arms and
//!   validates (what `exp run --dry-run` checks in CI),
//! * the committed fig4 spec produces exactly the historical arm
//!   labels, in order — the label-level half of the byte-identity
//!   contract (the trial values are pinned by
//!   `tests/golden_determinism.rs`),
//! * a spec run is byte-identical to the equivalent hand-built
//!   [`Sweep`],
//! * `WarmupMode::Checkpoint` forks every arm from saved PR-4
//!   checkpoints, equals a hand-rolled `from_checkpoint` fork, and
//!   rejects a seed mismatch descriptively,
//! * `Harness::emit_trials` writes `--output` files while preserving
//!   table mode.

use rix::prelude::*;

fn spec_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/specs").to_string()
}

#[test]
fn every_committed_spec_parses_and_validates() {
    let dir = spec_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("specs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let spec = ExperimentSpec::load(path.to_str().unwrap())
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let arms = spec.arms().unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(!arms.is_empty(), "{path:?} has arms");
        spec.sweep(&Harness::default())
            .validate()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        // Canonicalisation is a fixed point for every committed spec.
        let again = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(again.to_json(), spec.to_json(), "{path:?}");
        assert_eq!(again.fingerprint128(), spec.fingerprint128(), "{path:?}");
    }
    assert_eq!(seen, 5, "the five figure specs are committed");
}

#[test]
fn committed_fig_specs_produce_the_historical_arm_labels() {
    let load = |name: &str| {
        ExperimentSpec::load(&format!("{}/{name}.json", spec_dir())).expect("committed spec")
    };
    let labels = |spec: &ExperimentSpec| -> Vec<String> {
        spec.arms().unwrap().into_iter().map(|(l, _)| l).collect()
    };

    assert_eq!(
        labels(&load("fig4")),
        [
            "base", "squash", "squash*", "+general", "+general*", "+opcode", "+opcode*",
            "+reverse", "+reverse*"
        ]
    );
    assert_eq!(labels(&load("fig5")), ["default"]);
    assert_eq!(
        labels(&load("fig6")),
        [
            "base", "1-way", "1-way*", "2-way", "2-way*", "4-way", "4-way*", "full", "full*",
            "sz64", "sz64*", "sz256", "sz256*", "sz1K", "sz1K*", "sz4K", "sz4K*"
        ]
    );
    assert_eq!(
        labels(&load("fig7")),
        [
            "reference", "base", "base+i", "base*", "RS", "RS+i", "RS*", "IW", "IW+i", "IW*",
            "IW+RS", "IW+RS+i", "IW+RS*"
        ]
    );
    assert_eq!(
        labels(&load("ablations")),
        [
            "gen1", "gen2", "gen3", "gen4", "cnt1", "cnt2", "cnt3", "cnt4", "pipe0", "pipe2",
            "pipe4", "pipe8", "rev:off", "rev:stack pointer", "rev:all invertible"
        ]
    );

    // And the spec arms equal the historical hand-built configs, not
    // just their labels: fig7's `IW+RS+i` is the reduced core with the
    // default integration machinery.
    let fig7 = load("fig7");
    let arms = fig7.arms().unwrap();
    let (_, iw_rs_i) = &arms[11];
    assert_eq!(
        *iw_rs_i,
        SimConfig::default().with_core(rix::sim::CoreConfig::iw3_rs20()),
        "spec-built arm equals the historical builder chain"
    );
}

#[test]
fn spec_run_equals_the_equivalent_hand_built_sweep() {
    let spec = ExperimentSpec::from_json(
        r#"{
            "schema": "rix-exp/1",
            "benchmarks": ["gcc", "mcf"],
            "instructions": 2000,
            "warmup": 1000,
            "seed": 9,
            "arms": [
                {"label": "base", "preset": "base"},
                {"label": "integration", "preset": "plus_reverse"}
            ]
        }"#,
    )
    .unwrap();
    let h = Harness { threads: 2, ..Harness::default() };
    let from_spec = spec.sweep(&h).try_run().unwrap();

    let by_hand = Sweep::new()
        .benchmarks([by_name("gcc").unwrap(), by_name("mcf").unwrap()])
        .config("base", SimConfig::baseline())
        .config("integration", SimConfig::default())
        .instructions(2000)
        .warmup(1000)
        .seed(9)
        .run();

    assert_eq!(from_spec.len(), by_hand.len());
    for (a, b) in from_spec.iter().zip(&by_hand) {
        assert_eq!(a.bench, b.bench);
        assert_eq!(a.config_label, b.config_label);
        assert_eq!(a.result, b.result, "{}/{}", a.bench, a.config_label);
        assert_eq!(a.result.to_json(), b.result.to_json(), "byte-identical");
    }
}

fn temp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("rix-exp-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn checkpoint_seeded_spec_forks_every_arm_from_the_snapshot() {
    let dir = temp_dir("seed");
    let seed = 7;
    let benches = ["gcc", "vortex"];
    // Save one snapshot per benchmark where the sweep will look for it.
    for name in benches {
        let program = by_name(name).unwrap().build(seed);
        let mut sim = Simulator::new(&program, SimConfig::default());
        sim.run_until(&StopWhen::RetiredAtLeast(5_000));
        sim.checkpoint().save(checkpoint_path(&dir, name, seed)).expect("save");
    }

    let spec = ExperimentSpec::from_json(&format!(
        r#"{{
            "schema": "rix-exp/1",
            "benchmarks": ["gcc", "vortex"],
            "instructions": 2000,
            "warmup_mode": {{"checkpoint": {{"dir": "{dir}"}}}},
            "arms": [
                {{"label": "base", "preset": "base"}},
                {{"label": "integration", "preset": "plus_reverse"}}
            ]
        }}"#
    ))
    .unwrap();
    assert_eq!(spec.warmup_mode, WarmupMode::Checkpoint { dir: dir.clone() });
    let trials = spec.sweep(&Harness::default()).try_run().unwrap();
    assert_eq!(trials.len(), 4);

    // Each cell equals a hand-rolled fork of the same snapshot.
    for t in &trials {
        let program = by_name(t.bench).unwrap().build(seed);
        let ck = Checkpoint::load(checkpoint_path(&dir, t.bench, seed)).unwrap();
        let cfg = if t.config_label == "base" {
            SimConfig::baseline()
        } else {
            SimConfig::default()
        };
        let mut sim = Simulator::from_checkpoint(&program, cfg, &ck);
        sim.reset_stats();
        let expected = sim.run_budget(2000);
        assert_eq!(
            t.result.to_json(),
            expected.to_json(),
            "{}/{}: spec fork is byte-identical to the manual fork",
            t.bench,
            t.config_label
        );
        assert!(t.result.stats.retired >= 2000);
    }

    // A seed mismatch is refused with a descriptive error, not run.
    let wrong_seed = Sweep::new()
        .benchmarks([by_name("gcc").unwrap()])
        .config("base", SimConfig::baseline())
        .instructions(1000)
        .seed(8)
        .warmup_mode(WarmupMode::Checkpoint { dir: dir.clone() })
        .try_run()
        .unwrap_err();
    assert!(wrong_seed.contains("gcc"), "{wrong_seed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn emit_trials_writes_the_output_file_and_preserves_table_mode() {
    let dir = temp_dir("out");
    let out = format!("{dir}/trials.json");
    let trials = Sweep::new()
        .benchmarks([by_name("gcc").unwrap()])
        .config("base", SimConfig::baseline())
        .instructions(1000)
        .run();
    let h = Harness { output: Some(out.clone()), ..Harness::default() };
    let skip_tables = h.emit_trials(&trials);
    assert!(!skip_tables, "table mode: the caller still renders");
    let written = std::fs::read_to_string(&out).expect("file written");
    assert_eq!(written, format!("{}\n", trials_json(&trials)));
    // The written file is machine-readable by the workspace's own
    // reader.
    assert!(rix::isa::json::Json::parse(written.trim_end()).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
