//! Every committed experiment spec, pinned as a whole document.
//!
//! For each `specs/X.json` this builds, in process, the exact
//! `rix-exp-result/1` document that
//!
//! ```text
//! exp run specs/X.json --instructions 2000 --json
//! ```
//!
//! prints (the canonical spec, its fingerprint and every trial of every
//! arm), and compares it byte for byte with `tests/goldens/specs/X.json`.
//! The goldens in `tests/goldens/` pin 6 configurations; the specs
//! express 55 arms, and this pins all of them — configuration
//! serialisation, spec canonicalisation and every counter of every
//! cell. Any diff is a behaviour change and needs a deliberate
//! regeneration:
//!
//! ```text
//! RIX_BLESS=1 cargo test --test spec_documents
//! ```
//!
//! The sweep runs on two threads; the document does not depend on the
//! thread count.

use rix::isa::json::Json;
use rix::prelude::*;
use std::path::PathBuf;

const ARGS: [&str; 5] = ["--instructions", "2000", "--json", "--threads", "2"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The committed specs, by file stem, in name order.
fn spec_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root().join("specs"))
        .expect("specs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .map(|p| p.file_stem().and_then(|s| s.to_str()).expect("utf-8 name").to_string())
        .collect();
    names.sort();
    names
}

/// What `exp run specs/<name>.json --instructions 2000 --json` prints.
fn document(name: &str) -> String {
    let path = root().join("specs").join(format!("{name}.json"));
    let h = Harness::try_parse(ARGS.iter().map(|a| (*a).to_string())).expect("flags parse");
    let mut spec = ExperimentSpec::load(path.to_str().expect("utf-8 path"))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    spec.apply_harness(&h);
    let (trials, _) = h.run_sweep(&spec.sweep(&h)).unwrap_or_else(|e| panic!("{name}: {e}"));
    format!("{}\n", result_doc(&spec, &trials, None, None))
}

/// Where two documents first differ: the trial (bench and config) when
/// the first differing line is a trial record, else the line.
fn first_difference(want: &str, got: &str) -> String {
    let (mut w, mut g) = (want.lines(), got.lines());
    for line in 1.. {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => break,
            (a, b) => {
                let b = b.unwrap_or("<end of document>");
                let trial = Json::parse(b.trim_end_matches(',')).ok().and_then(|t| {
                    Some(format!(
                        "trial {}/{}",
                        t.get("bench")?.as_str()?,
                        t.get("config")?.as_str()?
                    ))
                });
                return format!(
                    "{} (line {line})\n  want: {}\n  got:  {b}",
                    trial.unwrap_or_else(|| "document prelude".to_string()),
                    a.unwrap_or("<end of document>")
                );
            }
        }
    }
    "trailing whitespace only".to_string()
}

fn golden(name: &str) -> PathBuf {
    root().join("tests").join("goldens").join("specs").join(format!("{name}.json"))
}

#[test]
fn every_spec_document_matches_its_golden() {
    let bless = std::env::var_os("RIX_BLESS").is_some();
    let names = spec_names();
    assert!(names.len() >= 5, "the five figure specs are committed: {names:?}");
    let mut failures = Vec::new();
    for name in &names {
        let got = document(name);
        let path = golden(name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create dir");
            std::fs::write(&path, &got).expect("write golden");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => {}
            Ok(want) => failures.push(format!("{name}: {}", first_difference(&want, &got))),
            Err(e) => failures.push(format!("{name}: missing golden {path:?}: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "spec documents drifted (rerun with RIX_BLESS=1 only if the change is deliberate):\n{}",
        failures.join("\n")
    );
}

#[test]
fn every_golden_belongs_to_a_committed_spec() {
    let dir = root().join("tests").join("goldens").join("specs");
    if !dir.is_dir() {
        return; // the blessing run is about to create it
    }
    let names = spec_names();
    for entry in std::fs::read_dir(&dir).expect("readable") {
        let path = entry.expect("readable entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_string();
        assert!(names.contains(&stem), "stale spec golden {path:?}: no specs/{stem}.json");
    }
}

#[test]
fn first_difference_names_the_trial() {
    let want = "{\n  \"trials\":[\n{\"bench\":\"gcc\",\"config\":\"base\",\"result\":1},\n]\n}\n";
    let got = want.replace("\"result\":1", "\"result\":2");
    let msg = first_difference(want, &got);
    assert!(msg.starts_with("trial gcc/base (line 3)"), "{msg}");
    let msg = first_difference("{\"a\":1}\n", "{\"a\":2}\n");
    assert!(msg.starts_with("document prelude (line 1)"), "{msg}");
}
