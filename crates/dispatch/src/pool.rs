//! The coordinator: one event loop that feeds cells, one at a time, to
//! whatever peers it has.
//!
//! Peers come from one of two sources, and the source is the only
//! thing that differs between a process pool and a served run:
//!
//! * [`dispatch_cells`] spawns `workers` processes (by default
//!   `current_exe()` with the [`crate::WORKER_ARG`] argument,
//!   overridable for tests) and talks to each over its stdin/stdout. A
//!   pipe cannot go half-open, so spawned peers are sent
//!   `heartbeat_ms:0` and never pinged. No peer can arrive later, so
//!   losing every worker with work left, or spending a cell's retry
//!   budget, fails the run with a [`PoolError`].
//! * [`crate::net::serve_cells`] accepts remote workers on a TCP
//!   listener. Those peers heartbeat and can be quarantined, and since
//!   more may still arrive, a spent retry budget or a capacity drought
//!   longer than `worker_wait` hands cells back to the caller
//!   (*degrades* them) instead of failing.
//!
//! Either way every peer holds at most one in-flight cell, and a reader
//! thread per peer drains its channel into one mpsc channel. The single
//! event loop therefore sees results, peer losses (EOF) and deadline
//! expiry in arrival order, wakes the moment a frame arrives, and a
//! verbose worker can never dead-lock a pipe.
//!
//! See the [crate docs](crate) for the wire protocol and fault model.

use crate::net::NetPoolConfig;
use crate::transport::{BlockingSource, FrameSink, LineSource, NextLine, WriteSink};
use crate::worker::check_init_schema;
use rix_isa::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often the event loop sweeps deadlines when no frame arrives (a
/// frame wakes it at once), and the socket read-poll granularity.
pub(crate) const POLL: Duration = Duration::from_millis(50);

/// Tuning for one [`dispatch_cells`] run.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker processes to spawn (clamped to at least 1 and at most the
    /// number of cells).
    pub workers: usize,
    /// Deadline per cell assignment; a worker that exceeds it is
    /// presumed hung, killed, and its cell retried elsewhere.
    pub cell_timeout: Duration,
    /// How many times one cell may be *retried* after a worker death or
    /// timeout (so a cell runs at most `retries + 1` times).
    pub retries: u32,
    /// The worker command as `(program, args)`. `None` self-execs:
    /// `current_exe()` with the single argument [`crate::WORKER_ARG`].
    pub worker_cmd: Option<(std::path::PathBuf, Vec<String>)>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cell_timeout: Duration::from_secs(300),
            retries: 2,
            worker_cmd: None,
        }
    }
}

/// Per-worker accounting inside a [`PoolSummary`] — one row per named
/// peer across all of its connections (a spawned process has exactly
/// one).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// `proc-N` for spawned processes; the hello-declared name for
    /// remote peers.
    pub name: String,
    /// Still connected/alive when the run ended.
    pub connected: bool,
    /// Cells this worker completed.
    pub cells_completed: u64,
    /// Cell losses attributed to this worker (death, deadline, or
    /// liveness expiry with a cell in flight).
    pub failures: u64,
    /// Reconnections beyond the first connection (remote peers only).
    pub reconnects: u64,
    /// Quarantined after too many consecutive failures (remote peers
    /// only — a dead spawned worker is simply gone).
    pub quarantined: bool,
}

impl WorkerStat {
    /// One table row for status displays: `name  state  cells failures
    /// reconnects`.
    #[must_use]
    pub fn state(&self) -> &'static str {
        if self.quarantined {
            "quarantined"
        } else if self.connected {
            "live"
        } else {
            "lost"
        }
    }

    /// The row as JSON — the shape shared by the status document and
    /// callers' structured reports.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("state".into(), Json::Str(self.state().into())),
            ("cells_completed".into(), Json::Num(self.cells_completed.to_string())),
            ("failures".into(), Json::Num(self.failures.to_string())),
            ("reconnects".into(), Json::Num(self.reconnects.to_string())),
        ])
    }
}

/// What a pool run did, beyond the results: fodder for stderr
/// reporting (never for result documents, which must stay byte-stable
/// across worker counts and fault histories).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolSummary {
    /// Worker processes spawned, or distinct remote peers that
    /// connected.
    pub workers_spawned: usize,
    /// Worker connections lost to death, disconnection, deadline, or
    /// heartbeat-liveness expiry during the run.
    pub workers_lost: usize,
    /// Cell assignments retried after a loss.
    pub retries: u64,
    /// Cells handed back to the caller to finish in-process after
    /// remote capacity was lost or a retry budget was spent (a served
    /// run's graceful degradation).
    pub degraded_cells: u64,
    /// Remote peers quarantined for consecutive failures.
    pub quarantined: usize,
    /// Per-worker detail, in a deterministic (name) order.
    pub workers: Vec<WorkerStat>,
}

/// A pool failure: what went wrong, which cell it is attributable to
/// (when one is), and the fault history that led there — so "cell 5
/// exhausted its retry budget" arrives with the three worker deaths
/// that spent it. Callers that can map cell ids back to meaningful
/// work units (benchmark / seed / arm label) should re-render with
/// [`PoolError::with_cell_description`].
#[derive(Clone, Debug)]
pub struct PoolError {
    /// The cell whose fate failed the run, when attributable.
    pub cell: Option<u64>,
    /// The fault events that led here, oldest first.
    pub history: Vec<String>,
    /// The failure itself.
    pub message: String,
}

impl PoolError {
    /// An error with no attributable cell.
    pub fn msg(message: impl Into<String>) -> Self {
        Self { cell: None, history: Vec::new(), message: message.into() }
    }

    /// Re-renders the message with a caller-supplied description of the
    /// failing cell (e.g. `gcc/integration (seed 7)`).
    #[must_use]
    pub fn with_cell_description(mut self, describe: impl Fn(u64) -> Option<String>) -> Self {
        if let Some(desc) = self.cell.and_then(describe) {
            self.message = format!("{desc}: {}", self.message);
        }
        self
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cell {
            Some(cell) => write!(f, "cell {cell}: {}", self.message)?,
            None => write!(f, "{}", self.message)?,
        }
        if !self.history.is_empty() {
            write!(f, "; fault history: {}", self.history.join("; "))?;
        }
        Ok(())
    }
}

/// The coordinator's cell bookkeeping: the work queue, per-cell
/// attempt counts and fault histories, and the filled results.
struct CellLedger<'a> {
    cells: &'a [u64],
    queue: VecDeque<usize>,
    attempts: Vec<u32>,
    /// Per-cell fault events (worker deaths, deadline hits), oldest
    /// first — surfaced in [`PoolError`] and degradation notes.
    history: Vec<Vec<String>>,
    results: Vec<Option<Json>>,
    done: usize,
    started: Instant,
}

impl<'a> CellLedger<'a> {
    fn new(cells: &'a [u64]) -> Self {
        Self {
            cells,
            queue: (0..cells.len()).collect(),
            attempts: vec![0; cells.len()],
            history: vec![Vec::new(); cells.len()],
            results: vec![None; cells.len()],
            done: 0,
            started: Instant::now(),
        }
    }

    /// Records a fault event against cell `pos`, stamped with the time
    /// since the run started.
    fn record(&mut self, pos: usize, event: &str) {
        let t = self.started.elapsed();
        self.history[pos].push(format!("[t+{:.1}s] {event}", t.as_secs_f64()));
    }

    /// Fills cell `pos` with `payload` (first writer wins).
    fn complete(&mut self, pos: usize, payload: Json) {
        if self.results[pos].is_none() {
            self.results[pos] = Some(payload);
            self.done += 1;
        }
    }

    /// Puts a lost cell back at the front of the queue; `Err(())` when
    /// its retry budget is spent (the caller decides whether that is
    /// fatal or a degradation).
    fn requeue(&mut self, pos: usize, retries: u32, summary: &mut PoolSummary) -> Result<(), ()> {
        self.attempts[pos] += 1;
        if self.attempts[pos] > retries {
            return Err(());
        }
        summary.retries += 1;
        self.queue.push_front(pos);
        Ok(())
    }

    /// The [`PoolError`] for cell `pos` exhausting its retry budget.
    fn budget_error(&self, pos: usize, retries: u32) -> PoolError {
        PoolError {
            cell: Some(self.cells[pos]),
            history: self.history[pos].clone(),
            message: format!(
                "lost its worker {} times (retry budget {retries}); giving up",
                self.attempts[pos],
            ),
        }
    }
}

// ----- the event loop ---------------------------------------------------

/// What a peer's reader thread tells the event loop.
pub(crate) enum Event {
    /// Listener connection `id` completed its handshake read: here is
    /// its write half and its `hello`.
    Hello(usize, Box<dyn FrameSink + Send>, Json),
    /// One frame from peer `id`.
    Line(usize, String),
    /// Peer `id`'s channel closed (exit, crash, reset, or our own
    /// close).
    Eof(usize),
}

/// Forwards every frame of peer `id` to the event loop until the
/// channel closes.
pub(crate) fn drain(id: usize, source: &mut dyn LineSource, tx: &mpsc::Sender<Event>) {
    loop {
        match source.next_line() {
            Ok(NextLine::Line(line)) => {
                if tx.send(Event::Line(id, line)).is_err() {
                    return;
                }
            }
            Ok(NextLine::Idle) => {}
            Ok(NextLine::Eof) | Err(_) => {
                let _ = tx.send(Event::Eof(id));
                return;
            }
        }
    }
}

struct Conn {
    name: String,
    sink: Box<dyn FrameSink + Send>,
    /// The process behind a spawned peer, killed when the peer is lost.
    child: Option<Child>,
    alive: bool,
    /// `(position in `cells`, deadline)` of the in-flight assignment.
    busy: Option<(usize, Instant)>,
    last_seen: Instant,
}

#[derive(Default)]
struct Peer {
    connections: u64,
    cells_completed: u64,
    failures: u64,
    consecutive: u32,
    quarantined: bool,
}

/// The one coordinator: assignment, deadline and liveness sweeps,
/// failure attribution, quarantine, degradation and accounting, over
/// peers of either source.
pub(crate) struct Coordinator<'a> {
    cell_timeout: Duration,
    retries: u32,
    /// The listener's tuning on a served run; `None` for spawned peers.
    net: Option<&'a NetPoolConfig>,
    plan_line: String,
    ledger: CellLedger<'a>,
    summary: PoolSummary,
    /// Cells handed back to the caller (served runs only).
    unfinished: Vec<usize>,
    /// What ends a spawned pool's run early: a spent retry budget.
    failed: Option<PoolError>,
    conns: BTreeMap<usize, Conn>,
    peers: BTreeMap<String, Peer>,
    ping_n: u64,
}

impl<'a> Coordinator<'a> {
    pub(crate) fn new(
        plan: &Json,
        cells: &'a [u64],
        cell_timeout: Duration,
        retries: u32,
        net: Option<&'a NetPoolConfig>,
    ) -> Self {
        Self {
            cell_timeout,
            retries,
            net,
            plan_line: plan.dump(),
            ledger: CellLedger::new(cells),
            summary: PoolSummary::default(),
            unfinished: Vec::new(),
            failed: None,
            conns: BTreeMap::new(),
            peers: BTreeMap::new(),
            ping_n: 0,
        }
    }

    /// Runs until every cell is finished or handed back.
    pub(crate) fn run(&mut self, rx: &mpsc::Receiver<Event>) -> Result<(), PoolError> {
        let mut last_capacity = Instant::now();
        let mut last_ping = Instant::now();
        while self.ledger.done + self.unfinished.len() < self.ledger.cells.len() {
            self.feed();
            if self.has_capacity() {
                last_capacity = Instant::now();
            } else if let Some(net) = self.net {
                if last_capacity.elapsed() > net.worker_wait {
                    self.degrade_queue(&format!(
                        "no connected workers for {:.1}s",
                        net.worker_wait.as_secs_f64()
                    ));
                    continue;
                }
            } else {
                return Err(PoolError::msg(format!(
                    "all {} workers died with {} of {} cells unfinished ({} lost, {} retries used)",
                    self.peers.len(),
                    self.ledger.cells.len() - self.ledger.done,
                    self.ledger.cells.len(),
                    self.summary.workers_lost,
                    self.summary.retries,
                )));
            }
            if self.net.is_some_and(|n| last_ping.elapsed() >= n.heartbeat) {
                last_ping = Instant::now();
                self.ping_all();
            }
            match rx.recv_timeout(POLL) {
                Ok(Event::Hello(id, sink, hello)) => self.handle_hello(id, sink, &hello),
                Ok(Event::Line(id, line)) => self.handle_line(id, &line)?,
                Ok(Event::Eof(id)) => self.lose_conn(id, "lost its connection"),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(PoolError::msg("worker event channel closed unexpectedly"));
                }
            }
            self.sweep();
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Registers a peer and sends it `init`.
    pub(crate) fn admit(
        &mut self,
        id: usize,
        name: String,
        sink: Box<dyn FrameSink + Send>,
        child: Option<Child>,
    ) {
        self.peers.entry(name.clone()).or_default().connections += 1;
        let heartbeat_ms = self.net.map_or(0, |n| n.heartbeat.as_millis());
        let init = format!(
            "{{\"schema\":\"{}\",\"type\":\"init\",\"worker\":{id},\"heartbeat_ms\":{heartbeat_ms},\
             \"plan\":{}}}",
            crate::PROTOCOL_SCHEMA,
            self.plan_line
        );
        let mut conn =
            Conn { name, sink, child, alive: true, busy: None, last_seen: Instant::now() };
        let sent = conn.sink.send(&init).is_ok();
        self.conns.insert(id, conn);
        if !sent {
            self.lose_conn(id, "lost its connection");
        }
    }

    /// A listener connection's `hello`: check schema and token, answer
    /// status queries and quarantined peers, admit workers.
    fn handle_hello(&mut self, id: usize, mut sink: Box<dyn FrameSink + Send>, hello: &Json) {
        let reject = |sink: &mut Box<dyn FrameSink + Send>, frame: &str| {
            let _ = sink.send(frame);
            sink.close();
        };
        let error = |message: String| {
            format!("{{\"type\":\"error\",\"message\":{}}}", Json::Str(message).dump())
        };
        if check_init_schema(hello).is_err() {
            return reject(
                &mut sink,
                &error(format!(
                    "unsupported hello schema (this coordinator speaks {})",
                    crate::PROTOCOL_SCHEMA
                )),
            );
        }
        let token = self.net.and_then(|n| n.token.as_deref());
        if token.is_some_and(|t| hello.get("token").and_then(Json::as_str) != Some(t)) {
            return reject(
                &mut sink,
                &error(
                    "hello rejected: missing or mismatched token (set --token or \
                     RIX_DISPATCH_TOKEN to this coordinator's shared secret)"
                        .into(),
                ),
            );
        }
        if hello.get("role").and_then(Json::as_str) == Some("status") {
            return reject(&mut sink, &self.status_doc().dump());
        }
        let name = hello
            .get("name")
            .and_then(Json::as_str)
            .map_or_else(|| format!("conn-{id}"), str::to_string);
        if self.peers.get(&name).is_some_and(|p| p.quarantined) {
            return reject(&mut sink, "{\"type\":\"quarantine\"}");
        }
        eprintln!("dispatch: worker {name} connected");
        self.admit(id, name, sink, None);
    }

    fn handle_line(&mut self, id: usize, line: &str) -> Result<(), PoolError> {
        let Some(conn) = self.conns.get_mut(&id) else { return Ok(()) };
        if !conn.alive {
            return Ok(());
        }
        conn.last_seen = Instant::now();
        let Ok(msg) = Json::parse(line) else {
            self.lose_conn(id, "sent an unparsable frame");
            return Ok(());
        };
        match msg.get("type").and_then(Json::as_str) {
            Some("ping") => {}
            Some("result") => {
                let (Ok(cell), Ok(payload)) = (msg.req_u64("cell"), msg.req("payload")) else {
                    self.lose_conn(id, "sent a malformed result frame");
                    return Ok(());
                };
                match conn.busy {
                    Some((pos, _)) if self.ledger.cells[pos] == cell => {
                        conn.busy = None;
                        let peer = self.peers.entry(conn.name.clone()).or_default();
                        peer.cells_completed += 1;
                        peer.consecutive = 0;
                        self.ledger.complete(pos, payload.clone());
                    }
                    _ => self.lose_conn(id, &format!("sent a result for unassigned cell {cell}")),
                }
            }
            Some("error") => {
                let cell = msg.get("cell").and_then(Json::as_u64);
                let message = msg.get("message").and_then(Json::as_str).unwrap_or("(no message)");
                return Err(PoolError {
                    cell,
                    history: cell
                        .and_then(|c| self.ledger.cells.iter().position(|&x| x == c))
                        .map(|pos| self.ledger.history[pos].clone())
                        .unwrap_or_default(),
                    message: format!("worker {} reported: {message}", conn.name),
                });
            }
            other => self.lose_conn(id, &format!("sent an unexpected {other:?} frame")),
        }
        Ok(())
    }

    /// Hands queued cells to every idle live peer.
    fn feed(&mut self) {
        let mut lost: Vec<usize> = Vec::new();
        for (&id, conn) in &mut self.conns {
            if !(conn.alive && conn.busy.is_none()) {
                continue;
            }
            let Some(pos) = self.ledger.queue.pop_front() else { break };
            let frame = format!("{{\"type\":\"cell\",\"cell\":{}}}", self.ledger.cells[pos]);
            if conn.sink.send(&frame).is_ok() {
                conn.busy = Some((pos, Instant::now() + self.cell_timeout));
            } else {
                // The send itself failed, so the cell never reached the
                // worker: put it back uncharged and retire the peer.
                self.ledger.queue.push_front(pos);
                lost.push(id);
            }
        }
        for id in lost {
            self.lose_conn(id, "lost its connection");
        }
    }

    fn ping_all(&mut self) {
        self.ping_n += 1;
        let frame = format!("{{\"type\":\"ping\",\"n\":{}}}", self.ping_n);
        let lost: Vec<usize> = self
            .conns
            .iter_mut()
            .filter_map(|(&id, c)| (c.alive && c.sink.send(&frame).is_err()).then_some(id))
            .collect();
        for id in lost {
            self.lose_conn(id, "lost its connection");
        }
    }

    /// Loses every live peer past its cell deadline or, with heartbeats
    /// on, silent past the liveness deadline (4× the heartbeat).
    fn sweep(&mut self) {
        let now = Instant::now();
        let liveness = self.net.map(|n| n.heartbeat * 4);
        let expired: Vec<(usize, String)> = self
            .conns
            .iter()
            .filter(|(_, c)| c.alive)
            .filter_map(|(&id, c)| {
                if c.busy.is_some_and(|(_, d)| now >= d) {
                    let secs = self.cell_timeout.as_secs_f64();
                    Some((id, format!("exceeded the {secs:.0}s cell deadline (presumed hung)")))
                } else {
                    let l = liveness.filter(|&l| c.last_seen.elapsed() > l)?;
                    Some((
                        id,
                        format!(
                            "went silent past the {:.1}s liveness deadline (half-open or \
                             partitioned)",
                            l.as_secs_f64()
                        ),
                    ))
                }
            })
            .collect();
        for (id, why) in expired {
            self.lose_conn(id, &why);
        }
    }

    /// Declares peer `id` lost: closes it (killing a spawned process)
    /// and, when a cell was in flight, attributes the loss to the peer
    /// (feeding the quarantine counter) and requeues the cell — or, its
    /// retry budget spent, degrades it (served) or fails the run
    /// (spawned).
    fn lose_conn(&mut self, id: usize, why: &str) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if !conn.alive {
            return;
        }
        conn.alive = false;
        conn.sink.close();
        if let Some(child) = &mut conn.child {
            let _ = child.kill();
        }
        self.summary.workers_lost += 1;
        let name = conn.name.clone();
        let Some((pos, _)) = conn.busy.take() else { return };
        eprintln!("dispatch: worker {name} {why}; requeueing its cell");
        self.ledger.record(pos, &format!("worker {name} {why}"));
        if self.ledger.requeue(pos, self.retries, &mut self.summary).is_err() {
            if self.net.is_some() {
                self.ledger.record(pos, "retry budget spent; finishing in-process");
                eprintln!(
                    "dispatch: cell {} spent its retry budget; degrading to in-process",
                    self.ledger.cells[pos]
                );
                self.unfinished.push(pos);
                self.summary.degraded_cells += 1;
            } else if self.failed.is_none() {
                self.failed = Some(self.ledger.budget_error(pos, self.retries));
            }
        }
        let threshold = self.net.map_or(u32::MAX, |n| n.quarantine_after);
        let peer = self.peers.entry(name.clone()).or_default();
        peer.failures += 1;
        peer.consecutive += 1;
        if peer.consecutive >= threshold && !peer.quarantined {
            peer.quarantined = true;
            eprintln!(
                "dispatch: quarantining worker {name} after {} consecutive failures",
                peer.consecutive
            );
            // Close the peer's other connections; their cells go back
            // uncharged (they never failed there).
            for c in self.conns.values_mut().filter(|c| c.alive && c.name == name) {
                let _ = c.sink.send("{\"type\":\"quarantine\"}");
                c.sink.close();
                c.alive = false;
                if let Some((p, _)) = c.busy.take() {
                    self.ledger.record(p, &format!("reassigned: worker {name} quarantined"));
                    self.ledger.queue.push_front(p);
                }
            }
        }
    }

    /// Any live peer that is not quarantined?
    fn has_capacity(&self) -> bool {
        self.conns
            .values()
            .any(|c| c.alive && !self.peers.get(&c.name).is_some_and(|p| p.quarantined))
    }

    /// Degrades every queued cell to in-process execution.
    fn degrade_queue(&mut self, why: &str) {
        while let Some(pos) = self.ledger.queue.pop_front() {
            self.ledger.record(pos, &format!("{why}; finishing in-process"));
            self.unfinished.push(pos);
            self.summary.degraded_cells += 1;
        }
    }

    /// One row per named peer, in name order.
    fn worker_stats(&self) -> Vec<WorkerStat> {
        self.peers
            .iter()
            .map(|(name, p)| WorkerStat {
                name: name.clone(),
                connected: self.conns.values().any(|c| &c.name == name && c.alive),
                cells_completed: p.cells_completed,
                failures: p.failures,
                reconnects: p.connections.saturating_sub(1),
                quarantined: p.quarantined,
            })
            .collect()
    }

    fn status_doc(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(crate::STATUS_SCHEMA.into())),
            ("cells_total".into(), Json::Num(self.ledger.cells.len().to_string())),
            ("cells_done".into(), Json::Num(self.ledger.done.to_string())),
            ("queued".into(), Json::Num(self.ledger.queue.len().to_string())),
            ("retries".into(), Json::Num(self.summary.retries.to_string())),
            (
                "workers".into(),
                Json::Arr(self.worker_stats().iter().map(WorkerStat::to_json).collect()),
            ),
        ])
    }

    /// Ends the run: live peers are told `shutdown` and closed; spawned
    /// processes are reaped (killed first unless the run ended
    /// `clean`). Returns the payloads (`None` for cells never
    /// finished), the handed-back cell indices in order, and the
    /// summary with its per-peer stats.
    pub(crate) fn finish(mut self, clean: bool) -> (Vec<Option<Json>>, Vec<usize>, PoolSummary) {
        self.summary.workers = self.worker_stats();
        self.summary.workers_spawned = self.peers.len();
        self.summary.quarantined = self.peers.values().filter(|p| p.quarantined).count();
        for conn in self.conns.values_mut() {
            if conn.alive {
                let _ = conn.sink.send("{\"type\":\"shutdown\"}");
            }
            conn.sink.close();
            if let Some(child) = &mut conn.child {
                if !clean {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
        self.unfinished.sort_unstable();
        (self.ledger.results, self.unfinished, self.summary)
    }
}

// ----- the spawned peer source ------------------------------------------

/// Runs every entry of `cells` on a pool of spawned worker processes and
/// returns the payloads in `cells` order, plus a [`PoolSummary`].
///
/// Fails on: an unspawnable worker command, a worker-reported `error`
/// (deterministic, so never retried), a cell exhausting its retry
/// budget, or every worker dying with work left. The error names the
/// failing cell and carries its fault history when one is attributable.
pub fn dispatch_cells(
    plan: &Json,
    cells: &[u64],
    cfg: &PoolConfig,
) -> Result<(Vec<Json>, PoolSummary), PoolError> {
    if cells.is_empty() {
        return Ok((Vec::new(), PoolSummary::default()));
    }
    let (exe, args) = match &cfg.worker_cmd {
        Some((exe, args)) => (exe.clone(), args.clone()),
        None => {
            let exe = std::env::current_exe().map_err(|e| {
                PoolError::msg(format!("cannot locate this executable to self-exec workers: {e}"))
            })?;
            (exe, vec![crate::WORKER_ARG.to_string()])
        }
    };
    let (tx, rx) = mpsc::channel::<Event>();
    let mut co = Coordinator::new(plan, cells, cfg.cell_timeout, cfg.retries, None);
    for w in 0..cfg.workers.clamp(1, cells.len()) {
        // stderr is inherited: worker diagnostics surface on ours.
        let spawned = Command::new(&exe)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker `{}`: {e}", exe.display()));
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                co.finish(false);
                return Err(PoolError::msg(e));
            }
        };
        if let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) {
            let tx = tx.clone();
            std::thread::spawn(move || drain(w, &mut BlockingSource::new(stdout), &tx));
            co.admit(w, format!("proc-{w}"), Box::new(WriteSink::new(stdin)), Some(child));
        }
    }
    let out = co.run(&rx);
    let (results, _, summary) = co.finish(out.is_ok());
    out?;
    let payloads = results
        .into_iter()
        .map(|r| r.ok_or_else(|| PoolError::msg("internal: unfilled result slot")))
        .collect::<Result<Vec<Json>, PoolError>>()?;
    Ok((payloads, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A POSIX-sh stand-in worker: answers every `cell` assignment with
    /// a `result` whose payload echoes the cell id — enough to test the
    /// pool's scheduling, merging and fault handling without dragging a
    /// simulator in.
    const SH_ECHO_WORKER: &str = r#"
while IFS= read -r line; do
  case "$line" in
    *'"type":"cell"'*)
      c=${line##*\"cell\":}; c=${c%%\}*}
      printf '{"type":"result","cell":%s,"payload":{"cell":%s}}\n' "$c" "$c"
      ;;
  esac
done
"#;

    fn sh_cmd(script: &str) -> Option<(std::path::PathBuf, Vec<String>)> {
        Some(("sh".into(), vec!["-c".into(), script.into()]))
    }

    fn plan() -> Json {
        Json::parse(r#"{"note":"test plan"}"#).unwrap()
    }

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<u64> = vec![3, 1, 4, 1_000_000, 9];
        for workers in [1usize, 2, 4, 8] {
            let cfg = PoolConfig { workers, worker_cmd: sh_cmd(SH_ECHO_WORKER), ..PoolConfig::default() };
            let (payloads, summary) = dispatch_cells(&plan(), &cells, &cfg).unwrap();
            assert_eq!(payloads.len(), cells.len());
            for (cell, payload) in cells.iter().zip(&payloads) {
                assert_eq!(payload.get("cell").and_then(Json::as_u64), Some(*cell));
            }
            assert_eq!(summary.workers_spawned, workers.min(cells.len()));
            assert_eq!(summary.workers_lost, 0);
            assert_eq!(summary.retries, 0);
            assert_eq!(summary.workers.len(), summary.workers_spawned);
            let total: u64 = summary.workers.iter().map(|w| w.cells_completed).sum();
            assert_eq!(total, cells.len() as u64, "per-worker counts add up");
        }
    }

    #[test]
    fn empty_cell_list_spawns_nothing() {
        let cfg = PoolConfig { worker_cmd: sh_cmd(SH_ECHO_WORKER), ..PoolConfig::default() };
        let (payloads, summary) = dispatch_cells(&plan(), &[], &cfg).unwrap();
        assert!(payloads.is_empty());
        assert_eq!(summary.workers_spawned, 0);
    }

    #[test]
    fn dead_worker_cells_are_retried_on_survivors() {
        // Worker 0 exits as soon as it is assigned a cell; worker 1
        // serves normally. Every cell must still complete.
        let script = r#"
read -r init
case "$init" in *'"worker":0'*) die=1;; *) die=0;; esac
while IFS= read -r line; do
  case "$line" in
    *'"type":"cell"'*)
      [ "$die" = 1 ] && exit 7
      c=${line##*\"cell\":}; c=${c%%\}*}
      printf '{"type":"result","cell":%s,"payload":{"cell":%s}}\n' "$c" "$c"
      ;;
  esac
done
"#;
        let cells: Vec<u64> = (0..6).collect();
        let cfg = PoolConfig { workers: 2, worker_cmd: sh_cmd(script), ..PoolConfig::default() };
        let (payloads, summary) = dispatch_cells(&plan(), &cells, &cfg).unwrap();
        for (cell, payload) in cells.iter().zip(&payloads) {
            assert_eq!(payload.get("cell").and_then(Json::as_u64), Some(*cell));
        }
        assert_eq!(summary.workers_lost, 1);
        assert!(summary.retries >= 1, "{summary:?}");
        let dead = summary.workers.iter().find(|w| w.name == "proc-0").unwrap();
        assert!(!dead.connected && dead.failures >= 1, "{dead:?}");
    }

    #[test]
    fn hung_worker_hits_the_deadline_and_all_dead_is_an_error() {
        // The worker reads assignments and never answers; with one
        // worker the pool must detect the hang and fail descriptively.
        let script = "while IFS= read -r line; do :; done";
        let cfg = PoolConfig {
            workers: 1,
            cell_timeout: Duration::from_millis(100),
            retries: 1,
            worker_cmd: sh_cmd(script),
        };
        let err = dispatch_cells(&plan(), &[0], &cfg).unwrap_err().to_string();
        assert!(err.contains("workers died"), "{err}");
    }

    #[test]
    fn budget_exhaustion_names_the_cell_and_its_fault_history() {
        // Two hang-forever workers, zero retries, a short deadline: the
        // first deadline expiry spends cell 0's budget, and the error
        // must name the cell and carry the deadline event.
        let script = "while IFS= read -r line; do :; done";
        let cfg = PoolConfig {
            workers: 2,
            cell_timeout: Duration::from_millis(100),
            retries: 0,
            worker_cmd: sh_cmd(script),
        };
        let err = dispatch_cells(&plan(), &[41, 42, 43], &cfg).unwrap_err();
        assert!(err.cell.is_some(), "{err}");
        assert!(!err.history.is_empty(), "history travels with the error: {err}");
        let text = err.to_string();
        assert!(text.contains("fault history"), "{text}");
        assert!(text.contains("deadline"), "{text}");
        // The caller can re-render the cell as a meaningful label.
        let described = err.with_cell_description(|c| Some(format!("bench-{c}/arm"))).to_string();
        assert!(described.contains("/arm"), "{described}");
    }

    #[test]
    fn worker_error_is_fatal_not_retried() {
        let script = r#"
while IFS= read -r line; do
  case "$line" in
    *'"type":"cell"'*)
      printf '{"type":"error","cell":0,"message":"deterministic failure"}\n'
      ;;
  esac
done
"#;
        let cfg = PoolConfig { workers: 1, worker_cmd: sh_cmd(script), ..PoolConfig::default() };
        let err = dispatch_cells(&plan(), &[0, 1], &cfg).unwrap_err().to_string();
        assert!(err.contains("deterministic failure"), "{err}");
    }

    #[test]
    fn unspawnable_worker_command_is_an_error() {
        let cfg = PoolConfig {
            worker_cmd: Some(("/nonexistent/rix-worker".into(), vec![])),
            ..PoolConfig::default()
        };
        let err = dispatch_cells(&plan(), &[0], &cfg).unwrap_err().to_string();
        assert!(err.contains("cannot spawn worker"), "{err}");
    }
}
