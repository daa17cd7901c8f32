//! Multi-process sweep execution and the trial cache — the bench-side
//! glue over the generic [`rix_dispatch`] pool.
//!
//! A [`crate::Sweep`] serialises to a `rix-dispatch-plan/1` document
//! (benchmark names, labelled configs as full canonical JSON, budgets,
//! seed, warm-up policy); the coordinator ships the plan to every
//! worker in the `init` message and assigns **cells** — bench-major
//! grid indices, `cell = bench_idx * narms + arm_idx`, exactly
//! [`crate::Sweep`]'s trial order. A worker parses the plan back into a
//! [`crate::Sweep`] and runs its cells on the same in-process engine as
//! [`crate::Sweep::try_run`] — each benchmark row prepared once,
//! including the program-hash-verified `rix-ckpt/1` snapshot under
//! [`crate::WarmupMode::Checkpoint`] — and sends back
//! losslessly-serialised [`rix_sim::RunResult`]s, so the merged trials
//! are **byte-identical** to a single-process run for every worker
//! count.
//!
//! ## The cache (`--cache DIR`)
//!
//! With a cache directory set, every cell is first looked up by the
//! 128-bit content hash of its `rix-cell/1` descriptor: benchmark,
//! seed, arm label, the arm's **full canonical config JSON**, budgets,
//! warm-up policy and stop condition — plus the checkpoint *file
//! content hash* under checkpoint warm-up, so re-saving a snapshot
//! invalidates the cells that forked from it. Keying each cell by its
//! own content (rather than the whole spec's fingerprint) is what makes
//! invalidation exact: editing one arm re-simulates only that arm's
//! cells, and unrelated specs sharing identical cells share entries.
//! Entry writes are atomic (temp file + rename) and corrupt entries
//! read as misses — see [`rix_dispatch::cache`].
//!
//! Wall-clock time is not cached (a reused trial reports zero), which
//! is why [`crate::Trial::to_json`] — and therefore every result
//! document — deliberately excludes it.
//!
//! ## Peers (`--workers N`, `--listen ADDR`)
//!
//! Every run takes one path, plain `exp run` included: consult the
//! cache, send the misses to nobody (`workers == 0`), to `N` spawned
//! worker processes ([`rix_dispatch::dispatch_cells`]) or to remote
//! workers connecting on a TCP listener ([`rix_dispatch::serve_cells`]:
//! `exp serve` + `exp worker --connect`, heartbeats and all), then run
//! whatever comes back unfinished in this process on the sweep's
//! threads — the engine [`crate::Sweep::try_run`] uses — and store
//! every fresh result in the cache. The in-process run is simply the
//! case where every miss comes back unfinished. A served run binds
//! its listener (and announces it on stderr as `dispatch: listening on
//! …`) before the cache lookup, so whoever waits for that line sees it
//! even when every cell hits. Remote workers need no disk: they only
//! ever see misses, and their results are stored here. Cells the
//! network cannot finish (retry budgets spent, or all remote capacity
//! lost past the grace period) **degrade** to in-process execution, so
//! a distributed sweep completes with a slower tail rather than
//! failing; the degradation is visible in the [`DispatchReport`].
//! Merged trials stay byte-identical to a single-process run under any
//! fault history.
//!
//! ## Fault injection (tests)
//!
//! Workers honour `RIX_DISPATCH_FAULT` ([`rix_dispatch::Fault`]):
//! `abort:K` makes worker `K` abort before running its first cell,
//! `stall:K` makes it hang (exercising the per-cell deadline, tunable
//! via `RIX_DISPATCH_TIMEOUT_SECS`; the retry budget via
//! `RIX_DISPATCH_RETRIES`), and `net-drop:N[:repeat]` / `net-stall:N` /
//! `net-exit:N` fire at a worker's `N`th actionable frame. The remote
//! reconnect schedule is tunable via `RIX_DISPATCH_BACKOFF_MS` /
//! `RIX_DISPATCH_BACKOFF_ATTEMPTS`; the served coordinator reads
//! `RIX_DISPATCH_HEARTBEAT_MS`, `RIX_DISPATCH_QUARANTINE` and
//! `RIX_DISPATCH_WAIT_SECS`. The variables only affect the processes
//! they are set for (spawned workers inherit the coordinator's
//! environment; remote workers have their own).

use crate::{Grid, Harness, Sweep, Trial, WarmupMode};
use rix_dispatch::{PoolError, PoolSummary, ResultCache, WorkerStat, WORKER_ARG};
use rix_isa::json::Json;
use rix_sim::{RunResult, SimConfig, StopWhen};
use rix_workloads::Benchmark;
use std::net::TcpListener;
use std::time::Duration;

/// The plan document schema shipped to workers.
pub const PLAN_SCHEMA: &str = "rix-dispatch-plan/1";
/// The cache-key descriptor schema (hashed, never stored).
pub const CELL_SCHEMA: &str = "rix-cell/1";

/// How a distributed run executes: worker processes, cache, fault
/// tolerance budgets.
#[derive(Clone, Debug)]
pub struct DispatchOptions {
    /// Worker processes (0 = execute misses in this process).
    pub workers: usize,
    /// Trial cache directory (`None` = simulate everything).
    pub cache: Option<String>,
    /// Serve the grid to remote TCP workers on this address instead of
    /// spawning local processes (mutually exclusive with `workers`).
    pub listen: Option<String>,
    /// Per-cell deadline before a worker is presumed hung.
    pub cell_timeout: Duration,
    /// Retries per cell after a worker death or timeout.
    pub retries: u32,
    /// Heartbeat interval on served (TCP) runs; the liveness deadline
    /// is 4× this.
    pub heartbeat: Duration,
    /// Consecutive attributed failures that quarantine a remote peer.
    pub quarantine_after: u32,
    /// How long a served run waits with zero connected capacity before
    /// degrading the remaining cells to in-process execution.
    pub worker_wait: Duration,
    /// Shared secret for served (TCP) runs: when set, every remote
    /// hello must carry a matching token (see [`rix_dispatch::net`]).
    pub token: Option<String>,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            cache: None,
            listen: None,
            cell_timeout: Duration::from_secs(300),
            retries: 2,
            heartbeat: Duration::from_secs(2),
            quarantine_after: 3,
            worker_wait: Duration::from_secs(60),
            token: None,
        }
    }
}

impl DispatchOptions {
    /// The options a [`Harness`] command line implies: `--workers`,
    /// `--cache` and `--listen`, with the fault-tolerance budgets
    /// overridable via environment variables (primarily for tests that
    /// need short deadlines): `RIX_DISPATCH_TIMEOUT_SECS` (cell
    /// deadline), `RIX_DISPATCH_RETRIES` (retry budget),
    /// `RIX_DISPATCH_HEARTBEAT_MS` (served-run heartbeat),
    /// `RIX_DISPATCH_QUARANTINE` (consecutive-failure threshold) and
    /// `RIX_DISPATCH_WAIT_SECS` (zero-capacity grace period).
    #[must_use]
    pub fn from_harness(h: &Harness) -> Self {
        let mut opts = Self {
            workers: h.workers,
            cache: h.cache.clone(),
            listen: h.listen.clone(),
            token: h.token.clone().or_else(|| std::env::var("RIX_DISPATCH_TOKEN").ok()),
            ..Self::default()
        };
        if let Some(secs) = env_u64("RIX_DISPATCH_TIMEOUT_SECS") {
            opts.cell_timeout = Duration::from_secs(secs.max(1));
        }
        if let Some(r) = env_u64("RIX_DISPATCH_RETRIES") {
            opts.retries = u32::try_from(r).unwrap_or(u32::MAX);
        }
        if let Some(ms) = env_u64("RIX_DISPATCH_HEARTBEAT_MS") {
            opts.heartbeat = Duration::from_millis(ms.max(1));
        }
        if let Some(k) = env_u64("RIX_DISPATCH_QUARANTINE") {
            opts.quarantine_after = u32::try_from(k.max(1)).unwrap_or(u32::MAX);
        }
        if let Some(secs) = env_u64("RIX_DISPATCH_WAIT_SECS") {
            opts.worker_wait = Duration::from_secs(secs);
        }
        opts
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// What a distributed run did: the split between simulated and reused
/// cells, and the pool's fault history. Reported on stderr (and in the
/// `exp` result document's `cache` section when a cache is in use) —
/// never inside trial records, which stay byte-stable across worker
/// counts and fault histories.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DispatchReport {
    /// Grid cells in the run.
    pub cells: usize,
    /// Cells actually simulated (cache misses, or everything without a
    /// cache).
    pub simulated: usize,
    /// Cells reused from the cache.
    pub cache_hits: usize,
    /// Worker processes spawned, or distinct remote peers that
    /// connected (0 for an in-process run).
    pub workers_spawned: usize,
    /// Workers lost to death, deadline, or liveness expiry.
    pub workers_lost: usize,
    /// Cell assignments retried after a loss.
    pub retries: u64,
    /// Cells that degraded from remote workers to in-process execution
    /// (served runs only).
    pub degraded: u64,
    /// Remote peers quarantined for consecutive failures.
    pub quarantined: usize,
    /// Per-worker detail for `--verbose` (empty for in-process runs).
    pub workers: Vec<WorkerStat>,
}

impl DispatchReport {
    /// One-line summary for stderr progress reporting.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cells: {} simulated, {} cache hits",
            self.cells, self.simulated, self.cache_hits
        );
        if self.workers_spawned > 0 {
            s.push_str(&format!(", {} workers", self.workers_spawned));
        }
        if self.workers_lost > 0 {
            s.push_str(&format!(
                " ({} lost, {} cell retries)",
                self.workers_lost, self.retries
            ));
        }
        if self.degraded > 0 {
            s.push_str(&format!(", {} degraded to in-process", self.degraded));
        }
        if self.quarantined > 0 {
            s.push_str(&format!(", {} quarantined", self.quarantined));
        }
        s
    }

    /// The report as JSON — the `dispatch` section of a result document
    /// under `--dispatch-stats`, and the service's per-run stats. The
    /// per-worker detail that used to exist only as the `--verbose`
    /// table is included structurally, so machine consumers never
    /// re-parse tables.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cells".into(), Json::Num(self.cells.to_string())),
            ("simulated".into(), Json::Num(self.simulated.to_string())),
            ("cache_hits".into(), Json::Num(self.cache_hits.to_string())),
            ("workers_spawned".into(), Json::Num(self.workers_spawned.to_string())),
            ("workers_lost".into(), Json::Num(self.workers_lost.to_string())),
            ("retries".into(), Json::Num(self.retries.to_string())),
            ("degraded".into(), Json::Num(self.degraded.to_string())),
            ("quarantined".into(), Json::Num(self.quarantined.to_string())),
            (
                "workers".into(),
                Json::Arr(self.workers.iter().map(WorkerStat::to_json).collect()),
            ),
        ])
    }

    /// Multi-line per-worker table (liveness, completions, failures,
    /// reconnects, quarantine) for `--verbose`. Empty string when the
    /// run had no workers.
    #[must_use]
    pub fn worker_table(&self) -> String {
        if self.workers.is_empty() {
            return String::new();
        }
        let mut s = format!(
            "{:<16} {:<12} {:>6} {:>9} {:>11}\n",
            "worker", "state", "cells", "failures", "reconnects"
        );
        for w in &self.workers {
            s.push_str(&format!(
                "{:<16} {:<12} {:>6} {:>9} {:>11}\n",
                w.name,
                w.state(),
                w.cells_completed,
                w.failures,
                w.reconnects
            ));
        }
        s
    }
}

// ----- progress hooks ---------------------------------------------------

/// A point-in-time snapshot of a distributed run's cell accounting,
/// delivered to the observer installed by [`with_cell_progress`]. The
/// long-lived experiment service surfaces these counts in run status.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellProgress {
    /// Grid cells in the run.
    pub total: usize,
    /// Cells finished so far (simulated or reused).
    pub done: usize,
    /// Of `done`, cells reused from the cache.
    pub cached: usize,
    /// Of `done`, cells that degraded from remote workers to in-process
    /// execution.
    pub degraded: usize,
}

/// The installed progress observer (see [`with_cell_progress`]).
pub type ProgressHook = Box<dyn FnMut(CellProgress)>;

thread_local! {
    static PROGRESS_HOOK: std::cell::RefCell<Option<ProgressHook>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs `hook` as the calling thread's cell-progress observer for
/// the duration of `f`. Progress is per-cell on in-process execution
/// and coarser on pooled/served runs (the external pool reports only at
/// completion). Thread-local, so concurrent runs on different threads
/// (the service's executor pool) never see each other's progress.
pub fn with_cell_progress<R>(hook: Box<dyn FnMut(CellProgress)>, f: impl FnOnce() -> R) -> R {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            PROGRESS_HOOK.with(|h| *h.borrow_mut() = None);
        }
    }
    PROGRESS_HOOK.with(|h| *h.borrow_mut() = Some(hook));
    let _uninstall = Uninstall;
    f()
}

fn emit_progress(p: CellProgress) {
    PROGRESS_HOOK.with(|h| {
        if let Some(hook) = h.borrow_mut().as_mut() {
            hook(p);
        }
    });
}

// ----- the plan ---------------------------------------------------------

fn plan_json(sweep: &Sweep) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::Str(PLAN_SCHEMA.into())),
        (
            "benchmarks".into(),
            Json::Arr(sweep.benchmarks.iter().map(|b| Json::Str(b.name.into())).collect()),
        ),
        ("seed".into(), Json::Num(sweep.seed.to_string())),
        ("instructions".into(), Json::Num(sweep.instructions.to_string())),
        ("warmup".into(), Json::Num(sweep.warmup.to_string())),
        ("warmup_mode".into(), crate::spec::warmup_mode_json(&sweep.warmup_mode)),
    ];
    if let Some(stop) = &sweep.stop {
        let parsed = Json::parse(&stop.to_json()).expect("StopWhen::to_json is well-formed");
        fields.push(("stop".into(), parsed));
    }
    let arms = sweep
        .configs
        .iter()
        .map(|(label, cfg)| {
            let config =
                Json::parse(&cfg.to_json()).expect("SimConfig::to_json is well-formed");
            Json::Obj(vec![
                ("label".into(), Json::Str(label.clone())),
                ("config".into(), config),
            ])
        })
        .collect();
    fields.push(("arms".into(), Json::Arr(arms)));
    Json::Obj(fields)
}

/// Parses a `rix-dispatch-plan/1` back into the [`Sweep`] it came from
/// (run on one thread: a worker executes one cell at a time).
fn plan_from_json(v: &Json) -> Result<Sweep, String> {
    match v.get("schema").and_then(Json::as_str) {
        Some(PLAN_SCHEMA) => {}
        other => return Err(format!("unsupported dispatch plan schema {other:?}")),
    }
    let benchmarks = v
        .req("benchmarks")?
        .as_arr()
        .ok_or("plan `benchmarks` must be an array")?
        .iter()
        .map(|b| {
            let name = b.as_str().ok_or("plan benchmark names must be strings")?;
            rix_workloads::lookup(name)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let warmup_mode = crate::spec::parse_warmup_mode(v.req("warmup_mode")?)?;
    let stop = v
        .get("stop")
        .map(|s| StopWhen::from_json_value(s).map_err(|e| format!("plan stop: {e}")))
        .transpose()?;
    let arms = v
        .req("arms")?
        .as_arr()
        .ok_or("plan `arms` must be an array")?
        .iter()
        .map(|a| {
            let label =
                a.req("label")?.as_str().ok_or("arm `label` must be a string")?.to_string();
            let cfg = SimConfig::from_json_value(a.req("config")?)
                .map_err(|e| format!("arm `{label}`: {e}"))?;
            Ok((label, cfg))
        })
        .collect::<Result<Vec<(String, SimConfig)>, String>>()?;
    if arms.is_empty() || benchmarks.is_empty() {
        return Err("dispatch plan has an empty grid".to_string());
    }
    let mut sweep = Sweep::new()
        .benchmarks(benchmarks)
        .configs(arms)
        .instructions(v.req_u64("instructions")?)
        .warmup(v.req_u64("warmup")?)
        .warmup_mode(warmup_mode)
        .seed(v.req_u64("seed")?);
    sweep.stop = stop;
    Ok(sweep)
}

// ----- payloads ---------------------------------------------------------

fn result_json(result: &RunResult) -> Result<Json, String> {
    Json::parse(&rix_sim::checkpoint::result_to_json(result))
}

fn payload_json(result: &RunResult, wall: Duration) -> Result<Json, String> {
    let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    Ok(Json::Obj(vec![
        ("wall_us".into(), Json::Num(wall_us.to_string())),
        ("result".into(), result_json(result)?),
    ]))
}

fn trial_from_payload(
    bench: &'static str,
    label: &str,
    payload: &Json,
) -> Result<Trial, String> {
    let result = rix_sim::checkpoint::result_from_json(payload.req("result")?)?;
    // Cache entries carry no wall clock (host timing is not content);
    // a reused trial reports zero.
    let wall = payload
        .get("wall_us")
        .and_then(Json::as_u64)
        .map_or(Duration::ZERO, Duration::from_micros);
    Ok(Trial { bench, config_label: label.to_string(), result, wall })
}

// ----- cache keys -------------------------------------------------------

/// The `rix-cell/1` descriptor whose 128-bit FNV-1a is the cell's cache
/// key: every input that determines the cell's result, nothing that
/// does not (thread/worker counts, directory paths, spec names). Under
/// checkpoint warm-up the *content hash of the snapshot file* stands in
/// for the mode, so the same snapshot moved to another directory still
/// hits while a re-saved one misses.
fn cell_descriptor(
    sweep: &Sweep,
    bench: &Benchmark,
    label: &str,
    cfg: &SimConfig,
    ckpt_hash: Option<&str>,
) -> Result<String, String> {
    let mode = match (&sweep.warmup_mode, ckpt_hash) {
        (WarmupMode::Checkpoint { .. }, Some(h)) => {
            Json::Obj(vec![("checkpoint".into(), Json::Str(h.into()))])
        }
        (m, _) => Json::Str(m.name().into()),
    };
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::Str(CELL_SCHEMA.into())),
        ("bench".into(), Json::Str(bench.name.into())),
        ("seed".into(), Json::Num(sweep.seed.to_string())),
        ("instructions".into(), Json::Num(sweep.instructions.to_string())),
        ("warmup".into(), Json::Num(sweep.warmup.to_string())),
        ("warmup_mode".into(), mode),
        ("label".into(), Json::Str(label.into())),
        ("config".into(), Json::parse(&cfg.to_json())?),
    ];
    if let Some(stop) = &sweep.stop {
        fields.push(("stop".into(), Json::parse(&stop.to_json())?));
    }
    Ok(Json::Obj(fields).dump())
}

// ----- the coordinator --------------------------------------------------

/// Runs `sweep` under `opts`: consult the cache, send the misses to the
/// run's peers, finish what they leave in this process on the sweep's
/// threads, store fresh results back, and return the full trial grid in
/// [`Sweep::try_run`] order. See the [module docs](self).
pub(crate) fn run_sweep_distributed(
    sweep: &Sweep,
    opts: &DispatchOptions,
) -> Result<(Vec<Trial>, DispatchReport), String> {
    if opts.listen.is_some() && opts.workers > 0 {
        return Err("--listen and --workers are mutually exclusive".to_string());
    }
    sweep.validate()?;
    sweep.validate_checkpoint_files()?;
    let listener = opts.listen.as_deref().map(listen).transpose()?;
    let narms = sweep.configs.len();
    let total = sweep.benchmarks.len() * narms;
    let cache = opts.cache.as_ref().map(ResultCache::open).transpose()?;
    let ckpt_hashes = checkpoint_hashes(sweep, cache.is_some())?;

    let mut trials: Vec<Option<Trial>> = (0..total).map(|_| None).collect();
    let mut keys: Vec<Option<String>> = vec![None; total];
    let mut hits = 0usize;
    let mut misses: Vec<u64> = Vec::new();
    for i in 0..total {
        let (bi, ai) = (i / narms, i % narms);
        let bench = &sweep.benchmarks[bi];
        let (label, cfg) = &sweep.configs[ai];
        if let Some(cache) = &cache {
            let desc = cell_descriptor(sweep, bench, label, cfg, ckpt_hashes[bi].as_deref())?;
            let key = ResultCache::key(&desc);
            let hit = cache
                .load(&key)
                .and_then(|payload| trial_from_payload(bench.name, label, &payload).ok());
            keys[i] = Some(key);
            if let Some(trial) = hit {
                trials[i] = Some(trial);
                hits += 1;
                continue;
            }
        }
        misses.push(i as u64);
    }
    let mut progress = CellProgress { total, done: hits, cached: hits, degraded: 0 };
    emit_progress(progress);
    // Host timing is not content: entries carry no wall clock.
    let store = |i: usize, result: Json| match (&cache, &keys[i]) {
        (Some(cache), Some(key)) => cache.store(key, &Json::Obj(vec![("result".into(), result)])),
        _ => Ok(()),
    };

    let (payloads, summary) = send_to_peers(sweep, opts, listener, &misses)?;
    let mut unfinished: Vec<usize> = Vec::new();
    for (&cell, payload) in misses.iter().zip(payloads) {
        let i = cell as usize;
        let Some(payload) = payload else {
            unfinished.push(i);
            continue;
        };
        let (bench, (label, _)) = (&sweep.benchmarks[i / narms], &sweep.configs[i % narms]);
        trials[i] = Some(trial_from_payload(bench.name, label, &payload)?);
        store(i, payload.req("result")?.clone())?;
    }
    if unfinished.len() < misses.len() {
        progress.done += misses.len() - unfinished.len();
        emit_progress(progress);
    }
    let remote = opts.workers > 0 || opts.listen.is_some();
    if remote && !unfinished.is_empty() {
        eprintln!("dispatch: finishing {} degraded cell(s) in-process", unfinished.len());
    }
    let finished = Grid::new(sweep.clone()).run_cells(&unfinished, || {
        progress.done += 1;
        progress.degraded += usize::from(remote);
        emit_progress(progress);
    })?;
    for (i, trial) in unfinished.into_iter().zip(finished) {
        if cache.is_some() {
            store(i, result_json(&trial.result)?)?;
        }
        trials[i] = Some(trial);
    }

    let trials = trials
        .into_iter()
        .map(|t| t.ok_or_else(|| "internal: unfilled trial slot".to_string()))
        .collect::<Result<Vec<Trial>, String>>()?;
    Ok((
        trials,
        DispatchReport {
            cells: total,
            simulated: misses.len(),
            cache_hits: hits,
            workers_spawned: summary.workers_spawned,
            workers_lost: summary.workers_lost,
            retries: summary.retries,
            degraded: summary.degraded_cells,
            quarantined: summary.quarantined,
            workers: summary.workers,
        },
    ))
}

/// Binds a served run's listener and announces its address.
fn listen(addr: &str) -> Result<TcpListener, String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?;
    eprintln!("dispatch: listening on {local}");
    Ok(listener)
}

/// Sends `misses` to the run's peers — remote workers on `listener`,
/// `opts.workers` spawned processes, or nobody — and returns one
/// payload per miss, in order: `None` for each cell the peers left
/// unfinished (every cell when there are no peers).
fn send_to_peers(
    sweep: &Sweep,
    opts: &DispatchOptions,
    listener: Option<TcpListener>,
    misses: &[u64],
) -> Result<(Vec<Option<Json>>, PoolSummary), String> {
    if misses.is_empty() || (listener.is_none() && opts.workers == 0) {
        return Ok((vec![None; misses.len()], PoolSummary::default()));
    }
    // A failing cell is named in grid terms — `gcc/base (seed 7)`, not
    // `cell 0` — so a spent retry budget says which arm to investigate.
    let describe = |e: PoolError| {
        let narms = sweep.configs.len();
        e.with_cell_description(|cell| {
            let i = usize::try_from(cell).ok()?;
            let bench = sweep.benchmarks.get(i / narms)?;
            let (label, _) = sweep.configs.get(i % narms)?;
            Some(format!("{}/{} (seed {})", bench.name, label, sweep.seed))
        })
        .to_string()
    };
    let plan = plan_json(sweep);
    if let Some(listener) = listener {
        let cfg = rix_dispatch::NetPoolConfig {
            cell_timeout: opts.cell_timeout,
            retries: opts.retries,
            heartbeat: opts.heartbeat,
            quarantine_after: opts.quarantine_after,
            worker_wait: opts.worker_wait,
            token: opts.token.clone(),
        };
        let out = rix_dispatch::serve_cells(listener, &plan, misses, &cfg).map_err(describe)?;
        Ok((out.payloads, out.summary))
    } else {
        let pool = rix_dispatch::PoolConfig {
            workers: opts.workers,
            cell_timeout: opts.cell_timeout,
            retries: opts.retries,
            worker_cmd: None,
        };
        let (payloads, summary) =
            rix_dispatch::dispatch_cells(&plan, misses, &pool).map_err(describe)?;
        Ok((payloads.into_iter().map(Some).collect(), summary))
    }
}

/// Under checkpoint warm-up with a cache, each snapshot file's content
/// hash goes into its row's cache keys (file existence was validated by
/// the caller).
fn checkpoint_hashes(sweep: &Sweep, caching: bool) -> Result<Vec<Option<String>>, String> {
    match &sweep.warmup_mode {
        WarmupMode::Checkpoint { dir } if caching => sweep
            .benchmarks
            .iter()
            .map(|b| {
                let path = crate::checkpoint_path(dir, b.name, sweep.seed);
                std::fs::read(&path)
                    .map(|bytes| Some(rix_dispatch::hash::fnv128_hex(&bytes)))
                    .map_err(|e| {
                        format!("cannot read warm-up checkpoint {}: {e}", path.display())
                    })
            })
            .collect(),
        _ => Ok(vec![None; sweep.benchmarks.len()]),
    }
}

// ----- the worker entry points ------------------------------------------

/// The first line of every binary that can be dispatched to: when the
/// process was spawned as a worker (`argv[1]` is
/// [`rix_dispatch::WORKER_ARG`]), enter the serve loop and never
/// return; otherwise do nothing. Must run before any other argument
/// parsing — the worker argument is not a user-facing flag.
pub fn maybe_worker() {
    if std::env::args().nth(1).as_deref() == Some(WORKER_ARG) {
        worker_main();
    }
}

/// The worker serve loop over stdin/stdout (also reachable as the
/// `exp worker` subcommand). Parses the plan from the `init` message on
/// the first cell, executes every assigned cell on the same engine as
/// [`Sweep::try_run`], and reports lossless results.
pub fn worker_main() -> ! {
    rix_dispatch::serve(cell_executor())
}

/// The remote worker entry point (`exp worker --connect ADDR`):
/// connect to a served coordinator, reconnecting with exponential
/// backoff + jitter under a capped attempt budget, and execute assigned
/// cells until told to shut down. Exits 0 on a clean `shutdown`, 1 on a
/// fatal executor error, 2 when the reconnect budget is spent, 3 when
/// quarantined.
pub fn worker_connect_main(addr: &str, name: Option<&str>) -> ! {
    let name = name.map_or_else(default_worker_name, str::to_string);
    let code = rix_dispatch::connect_worker(addr, &name, &backoff_from_env(), cell_executor());
    std::process::exit(code)
}

/// The executor both worker entry points run: builds a [`Grid`] from
/// the plan in `init` on the first cell, then runs each assigned cell
/// into a result payload.
fn cell_executor() -> impl FnMut(&Json, u64) -> Result<Json, String> {
    let mut grid: Option<Grid> = None;
    move |init, cell| {
        if grid.is_none() {
            grid = Some(Grid::new(plan_from_json(init.req("plan")?)?));
        }
        let grid = grid.as_ref().ok_or("grid just initialised")?;
        let trial = grid.run(usize::try_from(cell).unwrap_or(usize::MAX))?;
        payload_json(&trial.result, trial.wall)
    }
}

/// The default hello name for a remote worker: `w{pid}`, unique enough
/// per host and stable across that worker's reconnects (which is what
/// quarantine accounting keys on).
fn default_worker_name() -> String {
    format!("w{}", std::process::id())
}

/// The reconnect schedule, tunable for tests: `RIX_DISPATCH_BACKOFF_MS`
/// scales the base delay (the cap scales with it so short schedules
/// stay short), `RIX_DISPATCH_BACKOFF_ATTEMPTS` bounds the budget. The
/// jitter seed is the pid, so a fleet restarting together spreads out.
fn backoff_from_env() -> rix_dispatch::Backoff {
    let mut b =
        rix_dispatch::Backoff { seed: u64::from(std::process::id()), ..Default::default() };
    if let Some(ms) = env_u64("RIX_DISPATCH_BACKOFF_MS") {
        b.base = Duration::from_millis(ms.max(1));
        b.cap = b.base.saturating_mul(8).min(b.cap.max(b.base));
    }
    if let Some(n) = env_u64("RIX_DISPATCH_BACKOFF_ATTEMPTS") {
        b.max_attempts = u32::try_from(n).unwrap_or(u32::MAX);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> Sweep {
        Sweep::new()
            .benchmarks(rix_workloads::all_benchmarks().into_iter().take(2))
            .config("base", SimConfig::baseline())
            .config("integration", SimConfig::default())
            .instructions(1_500)
    }

    #[test]
    fn plan_round_trips_and_runner_matches_sweep() {
        let sweep = small_sweep();
        let reference = sweep.try_run().expect("sweep runs");
        let plan = plan_from_json(&plan_json(&sweep)).expect("round trip");
        assert_eq!(plan.configs.len(), 2);
        assert_eq!(plan.benchmarks.len(), 2);
        let grid = Grid::new(plan);
        for (i, t) in reference.iter().enumerate() {
            let trial = grid.run(i).expect("cell runs");
            assert_eq!(trial.result, t.result, "cell {i} ({}/{})", t.bench, t.config_label);
        }
        let err = grid.run(99).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    /// Runs `sweep` through the cache inside a progress hook and checks
    /// the trials against a serial run and the progress against the
    /// grid: `done` never falls, rises by one per simulated cell, and
    /// ends at `total`.
    fn check_threaded_cached_run(sweep: &Sweep, tag: &str) {
        let dir = std::env::temp_dir()
            .join(format!("rix-dispatch-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DispatchOptions {
            cache: Some(dir.to_str().expect("utf-8 temp dir").to_string()),
            ..DispatchOptions::default()
        };
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::<CellProgress>::new()));
        let sink = std::sync::Arc::clone(&seen);
        let (trials, report) = with_cell_progress(
            Box::new(move |p| sink.lock().unwrap().push(p)),
            || sweep.clone().threads(3).run_distributed(&opts),
        )
        .expect("threaded cached run");
        let serial = sweep.clone().threads(1).try_run().expect("serial run");
        assert_eq!(trials.len(), serial.len());
        for (a, b) in serial.iter().zip(&trials) {
            assert_eq!(a.to_json(), b.to_json(), "{}/{}", a.bench, a.config_label);
        }
        assert_eq!((report.simulated, report.cache_hits), (serial.len(), 0));

        let seen = seen.lock().unwrap();
        let total = serial.len();
        assert!(seen.iter().all(|p| p.total == total && p.cached == 0), "{seen:?}");
        assert!(seen.windows(2).all(|w| w[0].done <= w[1].done), "{seen:?}");
        let rises = seen.windows(2).filter(|w| w[1].done > w[0].done).count();
        assert!(seen.windows(2).all(|w| w[1].done <= w[0].done + 1), "{seen:?}");
        assert_eq!(rises, total, "one rise per cell: {seen:?}");
        assert_eq!(seen.first().map(|p| p.done), Some(0));
        assert_eq!(seen.last().map(|p| p.done), Some(total));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threaded_cached_run_matches_serial_and_counts_each_cell() {
        check_threaded_cached_run(&small_sweep(), "threaded");
        let functional = small_sweep().warmup(3_000).warmup_mode(WarmupMode::Functional);
        check_threaded_cached_run(&functional, "threaded-functional");
    }

    #[test]
    fn in_process_distributed_run_is_byte_identical() {
        let sweep = small_sweep();
        let reference = sweep.try_run().expect("sweep runs");
        let (trials, report) =
            sweep.run_distributed(&DispatchOptions::default()).expect("dispatch runs");
        assert_eq!(trials.len(), reference.len());
        for (a, b) in reference.iter().zip(&trials) {
            assert_eq!(a.to_json(), b.to_json(), "{}/{}", a.bench, a.config_label);
        }
        assert_eq!(report.cells, 4);
        assert_eq!(report.simulated, 4);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.workers_spawned, 0, "in-process run spawns nothing");
    }

    #[test]
    fn payload_round_trip_is_lossless() {
        let sweep = small_sweep();
        let trials = sweep.try_run().expect("sweep runs");
        let payload = payload_json(&trials[0].result, trials[0].wall).expect("serialises");
        let back = trial_from_payload(trials[0].bench, &trials[0].config_label, &payload)
            .expect("parses");
        assert_eq!(back.result, trials[0].result);
        assert_eq!(back.to_json(), trials[0].to_json());
    }

    #[test]
    fn descriptors_differ_exactly_where_content_differs() {
        let sweep = small_sweep();
        let b = &sweep.benchmarks[0];
        let (label, cfg) = &sweep.configs[0];
        let base = cell_descriptor(&sweep, b, label, cfg, None).unwrap();
        assert!(base.contains(CELL_SCHEMA));
        // Same inputs, same descriptor.
        assert_eq!(base, cell_descriptor(&sweep, b, label, cfg, None).unwrap());
        // Any differing input, different descriptor.
        let other_bench = cell_descriptor(&sweep, &sweep.benchmarks[1], label, cfg, None);
        assert_ne!(base, other_bench.unwrap());
        let seeded = sweep.clone().seed(8);
        assert_ne!(base, cell_descriptor(&seeded, b, label, cfg, None).unwrap());
        let mut tweaked = *cfg;
        tweaked.num_pregs += 64;
        assert_ne!(base, cell_descriptor(&sweep, b, label, &tweaked, None).unwrap());
    }

    #[test]
    fn cache_hits_skip_simulation_and_misses_are_exact() {
        let dir = std::env::temp_dir()
            .join(format!("rix-dispatch-unit-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.to_str().expect("utf-8 temp dir").to_string();
        let opts = DispatchOptions { cache: Some(cache_dir), ..DispatchOptions::default() };

        let sweep = small_sweep();
        let (cold, r1) = sweep.run_distributed(&opts).expect("cold run");
        assert_eq!((r1.cache_hits, r1.simulated), (0, 4));
        let (warm, r2) = sweep.run_distributed(&opts).expect("warm run");
        assert_eq!((r2.cache_hits, r2.simulated), (4, 0), "identical re-run is all hits");
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.to_json(), b.to_json());
        }

        // A one-field change invalidates exactly the affected arm's
        // cells: 2 benchmarks × the changed arm = 2 misses, 2 hits.
        let mut tweaked_cfg = SimConfig::default();
        tweaked_cfg.integration.it_entries *= 2;
        let tweaked = Sweep::new()
            .benchmarks(rix_workloads::all_benchmarks().into_iter().take(2))
            .config("base", SimConfig::baseline())
            .config("integration", tweaked_cfg)
            .instructions(1_500);
        let (_, r3) = tweaked.run_distributed(&opts).expect("tweaked run");
        assert_eq!((r3.cache_hits, r3.simulated), (2, 2), "only the changed arm re-runs");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
