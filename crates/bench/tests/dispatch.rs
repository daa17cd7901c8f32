//! The distributed dispatcher, end to end against the real `exp`
//! binary: worker-count invariance (byte-identical result documents for
//! `--workers {1,2,4}` vs in-process), cache semantics (warm re-runs
//! simulate nothing, a one-field spec change invalidates exactly the
//! affected arm's cells, corrupt entries are misses), fault tolerance
//! (an aborted or stalled worker's cells are retried and the merged
//! document converges to the no-failure bytes), checkpoint-seeded
//! warm-up hand-off, and the `--dry-run` missing-checkpoint report.
//!
//! Plus the multi-host (TCP) transport: `exp serve` + `exp worker
//! --connect` byte-identity, mid-cell worker kills (requeue on a
//! healthy peer), reconnect after a dropped connection, half-open
//! stall detection via heartbeat liveness, quarantine of a repeat
//! offender, graceful degradation with no workers at all, the remote
//! cache dance, a warm served run that needs no worker, and `exp
//! workers --status`. Network faults are injected
//! with `RIX_DISPATCH_FAULT=net-{exit,drop,stall}:N` in the *worker's*
//! environment — the coordinator's own environment carries the budget
//! knobs (`RIX_DISPATCH_{HEARTBEAT_MS,QUARANTINE,WAIT_SECS,RETRIES}`).

use rix_bench::{checkpoint_path, Harness};
use rix_isa::json::Json;
use rix_sim::{SimConfig, Simulator, StopWhen};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const EXP: &str = env!("CARGO_BIN_EXE_exp");

/// A 2-benchmark × 2-arm spec — 4 cells, small budgets, fast runs.
const SPEC: &str = r#"{
    "schema": "rix-exp/1",
    "name": "dispatch-e2e",
    "benchmarks": ["gcc", "vortex"],
    "instructions": 2000,
    "seed": 7,
    "arms": [
        {"label": "base", "preset": "base"},
        {"label": "integration", "preset": "plus_reverse",
         "overrides": {"integration": {"it_entries": 1024}}}
    ]
}"#;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rix-dispatch-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_spec(dir: &Path, text: &str) -> String {
    let path = dir.join("spec.json");
    std::fs::write(&path, text).expect("write spec");
    path.to_str().expect("utf-8 path").to_string()
}

fn exp(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(EXP);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("exp spawns")
}

/// Runs `exp run … --json` expecting success; returns stdout.
fn run_json(extra: &[&str], envs: &[(&str, &str)], spec: &str) -> String {
    let mut args = vec!["run", spec, "--json"];
    args.extend_from_slice(extra);
    let out = exp(&args, envs);
    assert!(
        out.status.success(),
        "exp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 result doc")
}

fn cache_counts(doc: &str) -> (u64, u64) {
    let v = Json::parse(doc).expect("result doc parses");
    let c = v.req("cache").expect("cache section present");
    (
        c.req_u64("hits").expect("hits"),
        c.req_u64("misses").expect("misses"),
    )
}

fn trials_of(doc: &str) -> String {
    Json::parse(doc).expect("parses").req("trials").expect("trials").dump()
}

// ----- multi-host helpers -----------------------------------------------

/// A serving coordinator (`exp serve … --listen 127.0.0.1:0`): its
/// bound address parsed from the `dispatch: listening on …` stderr
/// line, the rest of its stderr drained into a shared buffer so tests
/// can both sequence on it (wait for a worker to connect) and assert on
/// it after the fact.
struct Serve {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<String>>,
    drain: Option<std::thread::JoinHandle<()>>,
}

fn spawn_serve(spec: &str, extra: &[&str], envs: &[(&str, &str)]) -> Serve {
    let mut cmd = Command::new(EXP);
    cmd.args(["serve", spec, "--json", "--listen", "127.0.0.1:0"]);
    cmd.args(extra);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("serve spawns");
    let mut reader = std::io::BufReader::new(child.stderr.take().expect("stderr piped"));
    let stderr = Arc::new(Mutex::new(String::new()));
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read serve stderr") == 0 {
            panic!("serve exited before listening:\n{}", stderr.lock().expect("lock"));
        }
        stderr.lock().expect("lock").push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("dispatch: listening on ") {
            break rest.to_string();
        }
    };
    let acc = Arc::clone(&stderr);
    let drain = std::thread::spawn(move || {
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            acc.lock().expect("lock").push_str(&line);
            line.clear();
        }
    });
    Serve { child, addr, stderr, drain: Some(drain) }
}

impl Serve {
    /// Blocks until the coordinator's stderr contains `needle` (e.g. a
    /// `worker NAME connected` line) — how tests sequence "this worker
    /// holds a cell" without sleeping blind.
    fn wait_stderr_contains(&self, needle: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if self.stderr.lock().expect("lock").contains(needle) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("serve stderr never contained `{needle}`:\n{}", self.stderr.lock().expect("lock"));
    }

    /// Waits for the run to end; returns `(stdout, stderr, success)`.
    fn finish(mut self) -> (String, String, bool) {
        let out = self.child.wait_with_output().expect("serve waits");
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        let stderr = self.stderr.lock().expect("lock").clone();
        (String::from_utf8(out.stdout).expect("utf-8 result doc"), stderr, out.status.success())
    }
}

/// A remote worker (`exp worker --connect ADDR --name NAME`) with a
/// fast, bounded reconnect schedule so tests never sleep long and
/// orphans die on their own once the coordinator is gone.
fn spawn_worker(addr: &str, name: &str, envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(EXP);
    cmd.args(["worker", "--connect", addr, "--name", name]);
    cmd.env("RIX_DISPATCH_BACKOFF_MS", "20");
    cmd.env("RIX_DISPATCH_BACKOFF_ATTEMPTS", "40");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd.spawn().expect("worker spawns")
}

#[test]
fn worker_counts_are_byte_identical_to_in_process() {
    let dir = scratch("identity");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&[], &[], &spec);
    assert!(!reference.contains("\"cache\""), "no cache section without --cache");
    for workers in ["1", "2", "4"] {
        let doc = run_json(&["--workers", workers], &[], &spec);
        assert_eq!(doc, reference, "--workers {workers} changed the result document");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_rerun_simulates_zero_cells() {
    let dir = scratch("cache-warm");
    let spec = write_spec(&dir, SPEC);
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8");

    let cold = run_json(&["--workers", "2", "--cache", cache], &[], &spec);
    assert_eq!(cache_counts(&cold), (0, 4), "cold run misses everything");
    // Second run — in-process, proving the cache is execution-mode
    // agnostic — reuses all four cells.
    let warm = run_json(&["--cache", cache], &[], &spec);
    assert_eq!(cache_counts(&warm), (4, 0), "warm re-run simulates nothing");
    assert_eq!(trials_of(&cold), trials_of(&warm), "reused trials are byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_field_change_invalidates_exactly_the_affected_arm() {
    let dir = scratch("cache-invalidate");
    let spec = write_spec(&dir, SPEC);
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8");

    let cold = run_json(&["--cache", cache], &[], &spec);
    assert_eq!(cache_counts(&cold), (0, 4));
    // Change one config field of one arm: both benchmarks' cells of
    // that arm miss, the untouched arm's cells still hit.
    let tweaked = write_spec(&dir, &SPEC.replace("1024", "4096"));
    let doc = run_json(&["--cache", cache], &[], &tweaked);
    assert_eq!(cache_counts(&doc), (2, 2), "exactly the changed arm re-simulates");
    // The unchanged arm's trials are bit-for-bit the cached originals.
    let (a, b) = (trials_of(&cold), trials_of(&doc));
    let pick = |t: &str| {
        Json::parse(&format!("{{\"trials\":{t}}}"))
            .expect("parses")
            .req("trials")
            .expect("trials")
            .as_arr()
            .expect("array")
            .iter()
            .filter(|t| t.get("config").and_then(Json::as_str) == Some("base"))
            .map(Json::dump)
            .collect::<Vec<_>>()
    };
    assert_eq!(pick(&a), pick(&b), "untouched arm came from the cache unchanged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_misses_not_crashes() {
    let dir = scratch("cache-corrupt");
    let spec = write_spec(&dir, SPEC);
    let cache_dir = dir.join("cache");
    let cache = cache_dir.to_str().expect("utf-8");

    let cold = run_json(&["--cache", cache], &[], &spec);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 4, "one entry per cell");
    // Truncate one entry mid-document and garbage another.
    std::fs::write(&entries[0], &std::fs::read(&entries[0]).expect("read")[..20])
        .expect("truncate");
    std::fs::write(&entries[1], b"not json at all").expect("garbage");

    let doc = run_json(&["--cache", cache], &[], &spec);
    assert_eq!(cache_counts(&doc), (2, 2), "corrupt entries read as misses");
    assert_eq!(trials_of(&cold), trials_of(&doc), "and re-simulation heals them");
    let healed = run_json(&["--cache", cache], &[], &spec);
    assert_eq!(cache_counts(&healed), (4, 0), "the rewritten entries hit again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborted_worker_cells_are_retried_and_converge() {
    let dir = scratch("fault-abort");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&["--workers", "2"], &[], &spec);
    // Worker 1 aborts before its first cell; its work lands on worker 0.
    let out = exp(
        &["run", &spec, "--json", "--workers", "2"],
        &[("RIX_DISPATCH_FAULT", "abort:1")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "faulted run still succeeds:\n{stderr}");
    assert!(stderr.contains("injected abort"), "the fault actually fired:\n{stderr}");
    assert!(stderr.contains("1 lost"), "the loss is reported:\n{stderr}");
    let doc = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(doc, reference, "retried cells merge to the no-failure bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_worker_hits_the_deadline_and_cells_converge() {
    let dir = scratch("fault-stall");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&["--workers", "2"], &[], &spec);
    let out = exp(
        &["run", &spec, "--json", "--workers", "2"],
        &[("RIX_DISPATCH_FAULT", "stall:1"), ("RIX_DISPATCH_TIMEOUT_SECS", "1")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stalled run still succeeds:\n{stderr}");
    assert!(stderr.contains("injected stall"), "the fault actually fired:\n{stderr}");
    let doc = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(doc, reference, "timed-out cells merge to the no-failure bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

fn checkpoint_spec(dir: &str) -> String {
    SPEC.replace(
        "\"seed\": 7,",
        &format!("\"seed\": 7,\n    \"warmup_mode\": {{\"checkpoint\": {{\"dir\": \"{dir}\"}}}},"),
    )
}

#[test]
fn checkpoint_warmup_hands_off_to_workers() {
    let dir = scratch("ckpt");
    let ckpt_dir = dir.join("snapshots");
    std::fs::create_dir_all(&ckpt_dir).expect("snapshot dir");
    let ckpt = ckpt_dir.to_str().expect("utf-8");
    for name in ["gcc", "vortex"] {
        let program = rix_workloads::lookup(name).expect("benchmark").build(7);
        let mut sim = Simulator::new(&program, SimConfig::default());
        sim.run_until(&StopWhen::RetiredAtLeast(5_000));
        sim.checkpoint().save(checkpoint_path(ckpt, name, 7)).expect("save snapshot");
    }
    let spec = write_spec(&dir, &checkpoint_spec(ckpt));
    let reference = run_json(&[], &[], &spec);
    let doc = run_json(&["--workers", "2"], &[], &spec);
    assert_eq!(doc, reference, "workers fork the same snapshots to the same bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dry_run_names_missing_checkpoint_files() {
    let dir = scratch("dry");
    let empty = dir.join("no-snapshots");
    std::fs::create_dir_all(&empty).expect("dir");
    let empty = empty.to_str().expect("utf-8");
    let spec = write_spec(&dir, &checkpoint_spec(empty));
    let out = exp(&["run", &spec, "--dry-run"], &[]);
    assert!(!out.status.success(), "a dry run with missing snapshots fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 warm-up checkpoint file(s) missing"), "{stderr}");
    for name in ["gcc", "vortex"] {
        let path = checkpoint_path(empty, name, 7);
        assert!(
            stderr.contains(path.to_str().expect("utf-8")),
            "missing path {} is named:\n{stderr}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn harness_parses_the_dispatch_flags() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let h = Harness::try_parse(args("--workers 4 --cache /tmp/c")).expect("parses");
    assert_eq!(h.workers, 4);
    assert_eq!(h.cache.as_deref(), Some("/tmp/c"));
    let h = Harness::try_parse(args("--instructions 500")).expect("parses");
    assert_eq!(h.workers, 0, "default is in-process");
    assert_eq!(h.cache, None);
    let err = Harness::try_parse(args("--workers 0")).expect_err("rejects zero");
    assert!(err.contains("--workers"), "{err}");
    let h = Harness::try_parse(args("--listen 0.0.0.0:7777 --verbose")).expect("parses");
    assert_eq!(h.listen.as_deref(), Some("0.0.0.0:7777"));
    assert!(h.verbose);
    let err = Harness::try_parse(args("--listen :0 --workers 2")).expect_err("exclusive");
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn retry_exhaustion_names_the_failing_cell() {
    // A one-worker pool whose only worker stalls on its first cell,
    // with no retry budget: the run must fail, and the error must name
    // the cell in grid terms (bench/arm and seed) plus its fault
    // history — not just an opaque cell number.
    let dir = scratch("budget-error");
    let spec = write_spec(&dir, SPEC);
    let out = exp(
        &["run", &spec, "--json", "--workers", "1"],
        &[
            ("RIX_DISPATCH_FAULT", "stall:0"),
            ("RIX_DISPATCH_TIMEOUT_SECS", "1"),
            ("RIX_DISPATCH_RETRIES", "0"),
        ],
    );
    assert!(!out.status.success(), "a spent retry budget fails the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gcc/base (seed 7)"), "the cell is named in grid terms:\n{stderr}");
    assert!(stderr.contains("fault history"), "the cell's history is included:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- the multi-host transport -----------------------------------------

#[test]
fn tcp_workers_are_byte_identical_to_in_process() {
    let dir = scratch("tcp-identity");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&[], &[], &spec);
    let serve = spawn_serve(&spec, &[], &[]);
    let mut w1 = spawn_worker(&serve.addr, "alpha", &[]);
    let mut w2 = spawn_worker(&serve.addr, "beta", &[]);
    let (doc, stderr, ok) = serve.finish();
    assert!(ok, "served run succeeds:\n{stderr}");
    assert_eq!(doc, reference, "TCP trials merge to the in-process bytes");
    assert!(stderr.contains("workers"), "peers counted:\n{stderr}");
    // 0 = clean shutdown; 2 = the grid drained before this peer got in
    // and its reconnect budget spent against the closed listener.
    for (name, w) in [("alpha", &mut w1), ("beta", &mut w2)] {
        let code = w.wait().expect("worker exits").code();
        assert!(matches!(code, Some(0 | 2)), "{name} exit {code:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_tcp_worker_mid_cell_requeues_and_converges() {
    let dir = scratch("tcp-kill");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&[], &[], &spec);
    let serve = spawn_serve(&spec, &["--verbose"], &[]);
    // The victim dies at its 2nd actionable frame — init is the 1st, so
    // it exits holding its first cell; a healthy peer finishes it.
    let mut victim =
        spawn_worker(&serve.addr, "victim", &[("RIX_DISPATCH_FAULT", "net-exit:2")]);
    serve.wait_stderr_contains("worker victim connected");
    let mut steady = spawn_worker(&serve.addr, "steady", &[]);
    let (doc, stderr, ok) = serve.finish();
    assert!(ok, "the kill does not fail the run:\n{stderr}");
    assert_eq!(doc, reference, "requeued cells merge to the no-failure bytes");
    assert!(stderr.contains("1 lost"), "the loss lands in the summary:\n{stderr}");
    assert!(stderr.contains("cell retries"), "so does the requeue:\n{stderr}");
    // --verbose: the per-worker table names both peers and their fates.
    assert!(stderr.contains("victim"), "table names the lost peer:\n{stderr}");
    assert!(stderr.contains("steady"), "and the healthy one:\n{stderr}");
    assert_eq!(victim.wait().expect("victim exits").code(), Some(86), "injected exit");
    let _ = steady.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_connection_reconnects_with_backoff_and_converges() {
    let dir = scratch("tcp-drop");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&[], &[], &spec);
    let serve = spawn_serve(&spec, &["--verbose"], &[]);
    // One worker, one injected drop: it loses its first cell, comes
    // back through the backoff schedule, and finishes the whole grid.
    let mut w = spawn_worker(&serve.addr, "flaky", &[("RIX_DISPATCH_FAULT", "net-drop:2")]);
    let (doc, stderr, ok) = serve.finish();
    assert!(ok, "the drop does not fail the run:\n{stderr}");
    assert_eq!(doc, reference);
    assert!(stderr.contains("1 lost"), "{stderr}");
    let _ = w.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_tcp_worker_is_declared_lost_by_liveness() {
    let dir = scratch("tcp-stall");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&[], &[], &spec);
    // A half-open peer sends nothing — no result, no EOF, no pings. The
    // 4×heartbeat liveness deadline is the only thing that can catch
    // it; shrink the heartbeat so it catches quickly.
    let serve = spawn_serve(&spec, &[], &[("RIX_DISPATCH_HEARTBEAT_MS", "100")]);
    let mut sleepy =
        spawn_worker(&serve.addr, "sleepy", &[("RIX_DISPATCH_FAULT", "net-stall:2")]);
    serve.wait_stderr_contains("worker sleepy connected");
    std::thread::sleep(Duration::from_millis(150)); // let its cell land
    let mut steady = spawn_worker(&serve.addr, "steady", &[]);
    let (doc, stderr, ok) = serve.finish();
    assert!(ok, "the stall does not fail the run:\n{stderr}");
    assert_eq!(doc, reference, "the stalled cell re-ran elsewhere to the same bytes");
    assert!(stderr.contains("1 lost"), "liveness expiry is a loss:\n{stderr}");
    // The stalled process sleeps forever by design; reap it.
    let _ = sleepy.kill();
    let _ = sleepy.wait();
    let _ = steady.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_offender_is_quarantined_and_the_run_converges() {
    let dir = scratch("tcp-quarantine");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&[], &[], &spec);
    let serve = spawn_serve(
        &spec,
        &["--verbose"],
        &[("RIX_DISPATCH_QUARANTINE", "1"), ("RIX_DISPATCH_RETRIES", "4")],
    );
    // `badpeer` drops every connection on its first cell (`:repeat`);
    // one attributed failure quarantines it, so its reconnects are
    // refused work and the grid drains to the healthy peer.
    let mut bad =
        spawn_worker(&serve.addr, "badpeer", &[("RIX_DISPATCH_FAULT", "net-drop:2:repeat")]);
    serve.wait_stderr_contains("worker badpeer connected");
    let mut steady = spawn_worker(&serve.addr, "steady", &[]);
    let (doc, stderr, ok) = serve.finish();
    assert!(ok, "quarantine does not fail the run:\n{stderr}");
    assert_eq!(doc, reference);
    assert!(stderr.contains("1 quarantined"), "{stderr}");
    assert!(stderr.contains("quarantined"), "table shows the state:\n{stderr}");
    // Exit 3 when its reconnect was told `quarantine`; exit 2 when the
    // run ended (listener gone) before it got back in.
    let code = bad.wait().expect("badpeer exits").code();
    assert!(matches!(code, Some(2 | 3)), "badpeer exit {code:?}");
    let _ = steady.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_workers_lost_degrades_to_in_process_and_completes() {
    let dir = scratch("tcp-degrade");
    let spec = write_spec(&dir, SPEC);
    let reference = run_json(&[], &[], &spec);
    // Nobody ever connects: after the (shortened) zero-capacity grace
    // period every cell degrades to the coordinator's own process and
    // the run still exits 0 with identical bytes.
    let serve = spawn_serve(&spec, &[], &[("RIX_DISPATCH_WAIT_SECS", "1")]);
    let (doc, stderr, ok) = serve.finish();
    assert!(ok, "graceful degradation completes the run:\n{stderr}");
    assert_eq!(doc, reference, "degraded cells produce the same bytes");
    assert!(stderr.contains("4 degraded to in-process"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_cache_dance_round_trips_over_the_wire() {
    let dir = scratch("tcp-cache");
    let spec = write_spec(&dir, SPEC);
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8");

    // Cold served run: the worker's lookups all miss, it stores
    // everything back over the wire into the coordinator's cache.
    let serve = spawn_serve(&spec, &["--cache", cache], &[]);
    let mut w = spawn_worker(&serve.addr, "first", &[]);
    let (cold, stderr, ok) = serve.finish();
    assert!(ok, "{stderr}");
    assert_eq!(cache_counts(&cold), (0, 4), "cold served run misses everything");
    let _ = w.wait();

    // Warm served run: the (diskless) worker is served four hits and
    // simulates nothing.
    let serve = spawn_serve(&spec, &["--cache", cache], &[]);
    let mut w = spawn_worker(&serve.addr, "second", &[]);
    let (warm, stderr, ok) = serve.finish();
    assert!(ok, "{stderr}");
    assert_eq!(cache_counts(&warm), (4, 0), "warm served run is all remote hits");
    assert_eq!(trials_of(&cold), trials_of(&warm), "reused trials are byte-identical");
    let _ = w.wait();

    // And the cache is transport-agnostic: an in-process --cache run
    // reuses what the TCP run stored.
    let local = run_json(&["--cache", cache], &[], &spec);
    assert_eq!(cache_counts(&local), (4, 0), "stdio and TCP share entries");
    assert_eq!(trials_of(&cold), trials_of(&local));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_served_run_finishes_with_no_worker_connected() {
    let dir = scratch("tcp-warm");
    let spec = write_spec(&dir, SPEC);
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8");
    let cold = run_json(&["--cache", cache], &[], &spec);
    assert_eq!(cache_counts(&cold), (0, 4));

    // Every cell hits before a worker is needed, so the run must not
    // wait out the (long) zero-capacity grace period or degrade.
    let serve = spawn_serve(&spec, &["--cache", cache], &[("RIX_DISPATCH_WAIT_SECS", "30")]);
    let (warm, stderr, ok) = serve.finish();
    assert!(ok, "{stderr}");
    assert_eq!(cache_counts(&warm), (4, 0), "warm served run is all hits");
    assert_eq!(trials_of(&cold), trials_of(&warm), "reused trials are byte-identical");
    assert!(!stderr.contains("degraded"), "nothing degraded:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workers_status_reports_queue_and_liveness() {
    let dir = scratch("tcp-status");
    let spec = write_spec(&dir, SPEC);
    // Hold the run open (nothing connected, generous grace period) and
    // query it from outside.
    let serve = spawn_serve(&spec, &[], &[("RIX_DISPATCH_WAIT_SECS", "30")]);
    let out = exp(&["workers", "--status", "--connect", &serve.addr], &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8(out.stdout).expect("utf-8");
    assert!(table.contains("0/4 cells done"), "{table}");
    assert!(table.contains("4 queued"), "{table}");

    // Let a worker in, then finish; a `--json` status query mid-run
    // parses as the documented schema.
    let mut w = spawn_worker(&serve.addr, "probe", &[]);
    serve.wait_stderr_contains("worker probe connected");
    let out = exp(&["workers", "--status", "--json", "--connect", &serve.addr], &[]);
    if out.status.success() {
        // (The run may already have finished; only assert when it was
        // actually answered.)
        let doc = Json::parse(String::from_utf8(out.stdout).expect("utf-8").trim())
            .expect("status document parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("rix-dispatch-status/1"),
            "documented schema"
        );
    }
    let (_, stderr, ok) = serve.finish();
    assert!(ok, "{stderr}");
    let _ = w.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dispatch_stats_flag_adds_worker_stats_to_the_document() {
    let dir = scratch("dispatch-stats");
    let spec = write_spec(&dir, SPEC);
    let plain = run_json(&["--workers", "2"], &[], &spec);
    assert!(
        Json::parse(&plain).expect("parses").get("dispatch").is_none(),
        "no dispatch section without the flag"
    );

    let stats = run_json(&["--workers", "2", "--dispatch-stats"], &[], &spec);
    let doc = Json::parse(&stats).expect("parses");
    let dispatch = doc.req("dispatch").expect("dispatch section present");
    assert_eq!(dispatch.req_u64("cells").expect("cells"), 4);
    assert_eq!(dispatch.req_u64("workers_spawned").expect("workers_spawned"), 2);
    let workers = dispatch.req("workers").expect("per-worker stats").as_arr().expect("array");
    assert_eq!(workers.len(), 2, "one entry per worker");
    for w in workers {
        assert!(w.get("name").and_then(Json::as_str).is_some());
        assert!(w.get("state").and_then(Json::as_str).is_some());
        assert!(w.get("cells_completed").and_then(Json::as_u64).is_some());
    }

    // The section is additive: trials (and thus the science) unchanged.
    assert_eq!(trials_of(&plain), trials_of(&stats));
    let _ = std::fs::remove_dir_all(&dir);
}
