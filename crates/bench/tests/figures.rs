//! The paper's figure tables, end to end against the real `exp` binary:
//! every committed spec under `specs/` renders its figure's tables in
//! text mode, identically for every thread count; `--output` writes
//! the same document `--json` prints while the tables stay on stdout;
//! and a spec whose arms do not fit its figure's tables falls back to
//! the generic per-trial table.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXP: &str = env!("CARGO_BIN_EXE_exp");

fn spec_path(name: &str) -> String {
    format!("{}/../../specs/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rix-figures-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn exp(args: &[&str]) -> Output {
    Command::new(EXP).args(args).output().expect("exp spawns")
}

/// Runs `exp run SPEC --instructions 2000 --bench gcc EXTRA…`,
/// expecting success; returns stdout.
fn run_small(spec: &str, extra: &[&str]) -> String {
    let mut args = vec!["run", spec, "--instructions", "2000", "--bench", "gcc"];
    args.extend_from_slice(extra);
    let out = exp(&args);
    assert!(
        out.status.success(),
        "exp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The generic per-trial table's header row.
fn is_generic_table(stdout: &str) -> bool {
    stdout.lines().any(|l| {
        l.split_whitespace()
            .eq(["bench", "config", "IPC", "retired", "cycles"])
    })
}

/// A table row whose first cell is `label`.
fn has_row(stdout: &str, label: &str) -> bool {
    stdout
        .lines()
        .any(|l| l.split_whitespace().next() == Some(label))
}

#[test]
fn every_committed_spec_renders_its_figure_tables_for_any_thread_count() {
    let figures: [(&str, &[&str], &[&str]); 5] = [
        (
            "fig4",
            &["Figure 4 (top)", "Figure 4 (bottom)"],
            &["gcc", "GMean", "AMean"],
        ),
        (
            "fig5",
            &[
                "Figure 5 breakdowns",
                "Type:",
                "Distance",
                "Status",
                "Refcount",
            ],
            &["gcc"],
        ),
        (
            "fig6",
            &["Figure 6 (left)", "Figure 6 (right)"],
            &["gcc", "GMean"],
        ),
        (
            "fig7",
            &["Figure 7:", "Base IPC per benchmark"],
            &["gcc", "GMean"],
        ),
        (
            "ablations",
            &["Ablation 1", "Ablation 2", "Ablation 3", "Ablation 4"],
            &["1", "stack"],
        ),
    ];
    // Per figure: its headings, and the first cells of rows it must have.
    for (name, headings, rows) in figures {
        let spec = spec_path(name);
        let one = run_small(&spec, &["--threads", "1"]);
        let two = run_small(&spec, &["--threads", "2"]);
        assert_eq!(one, two, "{name}: --threads changed the tables");
        assert!(
            one.starts_with(&format!("experiment: {name} (")),
            "{name}:\n{one}"
        );
        for h in headings {
            assert!(one.contains(h), "{name} lacks heading `{h}`:\n{one}");
        }
        for r in rows {
            assert!(has_row(&one, r), "{name} lacks a `{r}` row:\n{one}");
        }
        assert!(
            !is_generic_table(&one),
            "{name} printed the generic table:\n{one}"
        );
    }
}

#[test]
fn fig4_diagnostics_add_the_secondary_metrics_table() {
    let spec = spec_path("fig4");
    let plain = run_small(&spec, &[]);
    let diag = run_small(&spec, &["--diagnostics"]);
    assert!(!plain.contains("§3.2 diagnostics"), "{plain}");
    assert!(diag.starts_with(&plain), "diagnostics only append:\n{diag}");
    assert!(
        diag[plain.len()..].starts_with("§3.2 diagnostics"),
        "{diag}"
    );
}

#[test]
fn output_file_holds_the_json_document_while_tables_stay_on_stdout() {
    let dir = scratch("output");
    let out = dir.join("fig5.json");
    let out = out.to_str().expect("utf-8");
    let spec = spec_path("fig5");
    let tables = run_small(&spec, &["--output", out]);
    assert!(tables.contains("Figure 5 breakdowns"), "{tables}");
    let json = run_small(&spec, &["--json"]);
    assert!(json.contains("\"schema\":\"rix-exp-result/1\""), "{json}");
    assert_eq!(std::fs::read_to_string(out).expect("file written"), json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn renderer_is_chosen_by_spec_name_and_guarded_by_arm_count() {
    let dir = scratch("shape");
    let committed = std::fs::read_to_string(spec_path("fig4")).expect("committed spec");

    // The committed spec copied elsewhere: the name, not the path,
    // picks the renderer.
    let copy = dir.join("copy.json");
    std::fs::write(&copy, &committed).expect("write copy");
    let stdout = run_small(copy.to_str().expect("utf-8"), &[]);
    assert!(stdout.contains("Figure 4 (top)"), "{stdout}");

    // Still named fig4, but with two arms: the tables would drop
    // arms, so exp prints the generic table instead — and succeeds.
    let edited = dir.join("edited.json");
    std::fs::write(
        &edited,
        r#"{
            "schema": "rix-exp/1",
            "name": "fig4",
            "benchmarks": ["gcc"],
            "instructions": 2000,
            "arms": [
                {"label": "base", "preset": "base"},
                {"label": "+reverse", "preset": "plus_reverse"}
            ]
        }"#,
    )
    .expect("write edited spec");
    let stdout = run_small(edited.to_str().expect("utf-8"), &[]);
    assert!(!stdout.contains("Figure 4"), "{stdout}");
    assert!(is_generic_table(&stdout), "{stdout}");
    assert!(
        stdout.contains("+reverse"),
        "every arm is printed:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
