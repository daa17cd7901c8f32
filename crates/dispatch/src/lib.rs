//! # rix-dispatch: multi-process and multi-host experiment dispatch
//!
//! The experiment layer's service tier: one coordinator ([`pool`]) that
//! shards independent grid cells across workers, fed by one of two
//! peer sources — **worker processes** it spawns and talks to over
//! stdio ([`dispatch_cells`]), or **remote workers** it accepts over
//! TCP ([`serve_cells`], in [`net`]). Workers run the one [`worker`]
//! serve loop over either channel; a [`transport`] abstraction frames
//! both, and a content-addressed result [`cache`] lets callers re-run
//! only what changed.
//!
//! The crate is deliberately generic — it knows nothing about
//! simulators, benchmarks or sweeps. A *plan* is an opaque JSON value
//! the caller serialises, a *cell* is a `u64` index into work only the
//! caller can interpret, and a *payload* is whatever JSON the worker's
//! executor returns for a cell. `rix-bench` layers the (benchmark ×
//! config) grid semantics and the cache lookups on top; anything else
//! with independent, deterministic, numberable work units can reuse
//! the same coordinator.
//!
//! ## Protocol (`rix-dispatch/2`, superset of `/1`)
//!
//! Newline-delimited JSON frames. Over stdio the channel is the
//! worker's stdin/stdout (stderr passes through to the coordinator's,
//! so worker diagnostics stay visible); over TCP it is one socket per
//! worker connection. Every session:
//!
//! ```text
//! coordinator → worker   {"schema":"rix-dispatch/2","type":"init","worker":0,
//!                         "heartbeat_ms":2000,"plan":{…}}
//! coordinator → worker   {"type":"cell","cell":5}
//! worker → coordinator   {"type":"result","cell":5,"payload":{…}}
//! worker → coordinator   {"type":"error","cell":5,"message":"…"}
//! coordinator → worker   {"type":"shutdown"}
//! ```
//!
//! and over TCP only:
//!
//! ```text
//! worker → coordinator   {"schema":"rix-dispatch/2","type":"hello",
//!                         "name":"w4242","role":"worker","token":"…"}
//! either direction       {"type":"ping","n":7}
//! coordinator → worker   {"type":"quarantine"}
//! ```
//!
//! Spawned workers are sent `heartbeat_ms:0` and never pinged. A TCP
//! connection opens with the worker's `hello` (a `"role":"status"`
//! hello instead receives one `rix-dispatch-status/1` document and is
//! closed — that is how `exp workers --status` works). When the
//! coordinator was started with a shared secret (`--token` /
//! `RIX_DISPATCH_TOKEN`), every hello — worker and status alike — must
//! carry a matching `"token"` field; a missing or mismatched token is
//! answered with a single cell-less `{"type":"error"}` frame and the
//! connection is closed before any work is offered. The coordinator
//! answers with `init`, then one `cell` at a time per worker (every
//! worker stays single-occupied, so a slow cell never queues behind a
//! fast one). Any received frame proves the peer alive; `ping` frames
//! exist so that proof keeps arriving while a long cell runs.
//! `shutdown` ends a worker cleanly (exit 0; over stdio, closing stdin
//! does too); `quarantine` tells a peer the coordinator gave up on it
//! (exit 3). No cache traffic crosses the wire: callers consult their
//! cache before dispatching, so workers only ever see misses.
//!
//! Workers accept `/1` or `/2` in `init`.
//!
//! ## Fault model
//!
//! Both peer sources:
//!
//! * worker death (crash, abort, kill, disconnect — EOF on the channel)
//!   → in-flight cell retried elsewhere, bounded per-cell retry budget;
//! * worker hang → per-cell deadline, kill/disconnect, retry;
//! * deterministic executor `error` → **fatal** to the whole run, no
//!   retry: cells are deterministic, so an error one worker can report
//!   is an error every retry would hit too.
//!
//! Where the sources differ, the source decides:
//!
//! * spawned workers: no peer can arrive later, so all workers dead
//!   with work remaining fails the run at once, and so does a spent
//!   retry budget — with a [`PoolError`] naming the cell and its fault
//!   history (workers are not respawned — a workload that kills every
//!   process it touches is a bug to report, not mask);
//! * listener: a half-open connection or partition is caught when the
//!   peer is silent past the liveness deadline (4× the heartbeat); a
//!   lost worker reconnects with exponential backoff + jitter under a
//!   capped attempt budget ([`transport::Backoff`]); a peer whose
//!   consecutive failures reach the quarantine threshold is
//!   quarantined; and all remote capacity lost past the grace period,
//!   or a spent retry budget, leads to **graceful degradation**: the
//!   affected cells are handed back to the caller to finish in-process,
//!   and the degradation is reported in [`pool::PoolSummary`].
//!
//! Fault injection for tests: `RIX_DISPATCH_FAULT` takes one vocabulary
//! ([`worker::Fault`]), fired by the worker serve loop whatever its
//! channel: `abort:K` / `stall:K` (worker `K`, at its first cell) and
//! `net-drop:N[:repeat]` / `net-stall:N` / `net-exit:N` (at the `N`th
//! actionable frame).
//!
//! [`hash::fnv128`] is the shared 128-bit FNV-1a used for cache keys
//! and spec fingerprints.

pub mod cache;
pub mod hash;
pub mod net;
pub mod pool;
pub mod transport;
pub mod worker;

pub use cache::{CacheStats, ResultCache};
pub use net::{connect_worker, query_status, serve_cells, NetOutcome, NetPoolConfig};
pub use pool::{dispatch_cells, PoolConfig, PoolError, PoolSummary, WorkerStat};
pub use transport::Backoff;
pub use worker::{serve, Fault, FaultAction, FaultTrigger};

/// The hidden first argument a coordinator passes when self-exec'ing a
/// worker (`current_exe() __rix-worker`). Binaries that can act as
/// workers check for it first thing in `main` (before any other flag
/// parsing) and enter their serve loop.
pub const WORKER_ARG: &str = "__rix-worker";

/// The protocol schema this build speaks (named in `init` and `hello`).
pub const PROTOCOL_SCHEMA: &str = "rix-dispatch/2";

/// The previous protocol schema, still accepted in `init`: `/2` is a
/// strict superset, so a `/1` coordinator drives a `/2` worker
/// unchanged.
pub const PROTOCOL_SCHEMA_V1: &str = "rix-dispatch/1";

/// The schema of the status document served to a `"role":"status"`
/// hello (see [`net::query_status`]).
pub const STATUS_SCHEMA: &str = "rix-dispatch-status/1";
