//! The worker side: one serve loop for every channel, and the one
//! fault-injection vocabulary it fires.
//!
//! [`serve`] is what a worker process runs after recognising
//! [`crate::WORKER_ARG`]: the serve loop once over stdin/stdout, until
//! the coordinator says `shutdown` (or closes stdin). A remote worker
//! ([`crate::net::connect_worker`]) runs the same loop over each TCP
//! connection it opens, wrapped in a `hello` and a reconnect schedule.
//! The loop hands each cell assignment to the caller's executor and
//! writes the result (or error) back. The executor receives the full
//! `init` message — including the opaque `plan` — on every call, so it
//! can lazily build whatever per-plan state it needs on the first cell
//! and reuse it after. When `init` asks for heartbeats the loop pings
//! from a second thread, which needs a channel that can be shared
//! ([`FrameSink::share`]); spawned workers are sent `heartbeat_ms:0`.
//!
//! Results go to the protocol channel; anything the executor prints
//! must therefore go to std**err**, which passes through to the
//! coordinator's stderr.

use crate::transport::{BlockingSource, FrameSink, LineSource, NextLine, WriteSink};
use rix_isa::json::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ----- fault injection (tests) ------------------------------------------

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort the worker process (`SIGABRT`).
    Abort,
    /// Go silent with the channel left open: no results, no EOF, no
    /// heartbeats. Only a cell deadline (or, over TCP, the liveness
    /// deadline) can reclaim the cell.
    Stall,
    /// Close the channel and let the worker's reconnect logic (if any)
    /// take over.
    Drop,
    /// Exit the worker process outright (status 86).
    Exit,
}

/// When an injected fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// At the first cell of the session whose `init` names this worker
    /// id (spawned workers are numbered from 0; TCP connections by the
    /// coordinator's connection counter).
    Worker(u64),
    /// At the `N`th *actionable* frame of a session (1-based): `init`,
    /// `cell` and `shutdown` count, heartbeats do not (so a test never
    /// races the ping timer). `init` is frame 1, so `2` is the first
    /// cell assignment.
    Frame(u64),
}

/// Deterministic fault injection for tests, parsed from
/// `RIX_DISPATCH_FAULT` and fired by the worker serve loop:
///
/// * `abort:K` / `stall:K` — worker `K` aborts / hangs at its first
///   cell;
/// * `net-drop:N` / `net-stall:N` / `net-exit:N` — at the `N`th
///   actionable frame, close the channel / go silent (a half-open link)
///   / exit 86.
///
/// A `:repeat` suffix on a `net-` spec fires it on *every* session (a
/// peer that fails every cell it is handed — the quarantine trigger);
/// without it the fault fires once per process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What happens.
    pub action: FaultAction,
    /// When it happens.
    pub trigger: FaultTrigger,
    /// Fire on every session instead of once per process.
    pub repeat: bool,
}

impl Fault {
    /// Parses a `RIX_DISPATCH_FAULT` value; `None` for anything
    /// malformed.
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        let mut parts = spec.split(':');
        let (action, by_frame) = match parts.next()? {
            "abort" => (FaultAction::Abort, false),
            "stall" => (FaultAction::Stall, false),
            "net-drop" => (FaultAction::Drop, true),
            "net-stall" => (FaultAction::Stall, true),
            "net-exit" => (FaultAction::Exit, true),
            _ => return None,
        };
        let n: u64 = parts.next()?.parse().ok()?;
        let trigger = if by_frame {
            FaultTrigger::Frame(Some(n).filter(|&n| n >= 1)?)
        } else {
            FaultTrigger::Worker(n)
        };
        let repeat = match parts.next() {
            None => false,
            Some("repeat") if by_frame => true,
            Some(_) => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(Self { action, trigger, repeat })
    }

    /// Reads the fault spec from `RIX_DISPATCH_FAULT`.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        std::env::var("RIX_DISPATCH_FAULT").ok().as_deref().and_then(Self::parse)
    }

    /// Does the fault fire on this frame? `frame` is the session's
    /// actionable-frame count, `cell_for` the session's worker id when
    /// the frame is a cell assignment.
    fn fires(&self, frame: u64, cell_for: Option<u64>) -> bool {
        match self.trigger {
            FaultTrigger::Worker(k) => cell_for == Some(k),
            FaultTrigger::Frame(n) => frame == n,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let action = match self.action {
            FaultAction::Abort => "abort",
            FaultAction::Stall => "stall",
            FaultAction::Drop => "drop",
            FaultAction::Exit => "exit",
        };
        match self.trigger {
            FaultTrigger::Worker(k) => write!(f, "{action}:{k}"),
            FaultTrigger::Frame(n) => {
                write!(f, "net-{action}:{n}{}", if self.repeat { ":repeat" } else { "" })
            }
        }
    }
}

/// One-shot guard for non-`repeat` faults.
static FAULT_FIRED: AtomicBool = AtomicBool::new(false);

// ----- one cell ---------------------------------------------------------

/// How a cell (or the connection serving it) failed, from the worker's
/// point of view.
pub enum ServeError {
    /// The channel died (a send failed). Reconnecting may help; the
    /// coordinator requeues the cell either way.
    Lost(String),
    /// A deterministic failure (executor error, protocol violation).
    /// Already reported to the coordinator where possible; retrying
    /// elsewhere cannot help, so the worker must die non-zero.
    Fatal(String),
}

/// Sends a protocol `error` frame; best-effort (the caller is usually
/// about to die anyway).
pub(crate) fn send_error(sink: &mut dyn FrameSink, cell: Option<u64>, msg: &str) {
    let m = Json::Str(msg.to_string()).dump();
    let line = match cell {
        Some(c) => format!("{{\"type\":\"error\",\"cell\":{c},\"message\":{m}}}"),
        None => format!("{{\"type\":\"error\",\"message\":{m}}}"),
    };
    let _ = sink.send(&line);
}

/// Checks an `init` frame's schema: this build speaks
/// [`crate::PROTOCOL_SCHEMA`] and still accepts its `/1` subset.
pub(crate) fn check_init_schema(msg: &Json) -> Result<(), String> {
    match msg.get("schema").and_then(Json::as_str) {
        Some(crate::PROTOCOL_SCHEMA | crate::PROTOCOL_SCHEMA_V1) => Ok(()),
        other => Err(format!(
            "unsupported protocol schema {other:?} (this build speaks {} and accepts {})",
            crate::PROTOCOL_SCHEMA,
            crate::PROTOCOL_SCHEMA_V1
        )),
    }
}

/// Handles one `cell` frame: execute it and report the payload (or the
/// executor's error, which is fatal).
pub(crate) fn run_cell(
    sink: &mut dyn FrameSink,
    init: &Json,
    msg: &Json,
    execute: &mut dyn FnMut(&Json, u64) -> Result<Json, String>,
) -> Result<(), ServeError> {
    let cell = msg
        .req_u64("cell")
        .map_err(|e| ServeError::Fatal(format!("bad cell frame: {e}")))?;
    let payload = execute(init, cell).map_err(|e| {
        send_error(sink, Some(cell), &e);
        ServeError::Fatal(format!("cell {cell}: {e}"))
    })?;
    sink.send(&format!(
        "{{\"type\":\"result\",\"cell\":{cell},\"payload\":{}}}",
        payload.dump()
    ))
    .map_err(|e| ServeError::Lost(format!("result send failed: {e}")))
}

// ----- the serve loop ---------------------------------------------------

/// How one session of the serve loop ended.
pub(crate) enum SessionEnd {
    /// The coordinator sent `shutdown`: the sweep is over.
    Shutdown,
    /// The coordinator quarantined this worker.
    Quarantined,
    /// Deterministic failure (executor error, protocol violation, a
    /// rejected hello).
    Fatal(String),
    /// The channel died; `inited` records whether the session got as
    /// far as `init` (which resets a reconnect attempt budget).
    Lost { inited: bool, reason: String },
}

/// Serves one session over a channel until the coordinator ends it or
/// the channel dies: `init`, then cell assignments, with heartbeats
/// when `init` asks for them and `fault` fired at its frame. `name`
/// labels this worker's stderr diagnostics.
pub(crate) fn serve_channel(
    source: &mut dyn LineSource,
    sink: &mut dyn FrameSink,
    name: &str,
    fault: Option<Fault>,
    execute: &mut dyn FnMut(&Json, u64) -> Result<Json, String>,
) -> SessionEnd {
    let mut init: Option<Json> = None;
    // Until `init` arrives the coordinator owes us a frame promptly;
    // after it, silence is bounded by the heartbeat liveness deadline.
    // (A blocking stdio source never idles, so never checks either.)
    let mut liveness = Duration::from_secs(30);
    let mut last_seen = Instant::now();
    let stop_hb = Arc::new(AtomicBool::new(false));
    let mut actionable: u64 = 0;

    let end = loop {
        let line = match source.next_line() {
            Ok(NextLine::Line(line)) => line,
            Ok(NextLine::Idle) => {
                if last_seen.elapsed() > liveness {
                    break SessionEnd::Lost {
                        inited: init.is_some(),
                        reason: format!(
                            "coordinator silent past the {:.1}s liveness deadline",
                            liveness.as_secs_f64()
                        ),
                    };
                }
                continue;
            }
            Ok(NextLine::Eof) => {
                break SessionEnd::Lost {
                    inited: init.is_some(),
                    reason: "coordinator closed the connection".into(),
                };
            }
            Err(e) => {
                break SessionEnd::Lost { inited: init.is_some(), reason: format!("read failed: {e}") };
            }
        };
        last_seen = Instant::now();
        if line.is_empty() {
            continue;
        }
        let msg = match Json::parse(&line) {
            Ok(msg) => msg,
            Err(e) => break protocol_error(sink, format!("unparsable message {line:?}: {e}")),
        };
        let kind = msg.get("type").and_then(Json::as_str).map(str::to_string);
        if matches!(kind.as_deref(), Some("init" | "cell" | "shutdown")) {
            actionable += 1;
            let cell_for = init
                .as_ref()
                .filter(|_| kind.as_deref() == Some("cell"))
                .and_then(|i| i.get("worker").and_then(Json::as_u64));
            if let Some(f) = fault.filter(|f| {
                f.fires(actionable, cell_for)
                    && (f.repeat || !FAULT_FIRED.swap(true, Ordering::Relaxed))
            }) {
                eprintln!("rix worker {name}: injected {f} at frame {actionable}");
                match f.action {
                    FaultAction::Abort => std::process::abort(),
                    FaultAction::Exit => std::process::exit(86),
                    FaultAction::Drop => {
                        stop_hb.store(true, Ordering::Relaxed);
                        sink.close();
                        break SessionEnd::Lost {
                            inited: init.is_some(),
                            reason: "injected connection drop".into(),
                        };
                    }
                    FaultAction::Stall => {
                        stop_hb.store(true, Ordering::Relaxed);
                        loop {
                            std::thread::sleep(Duration::from_secs(3600));
                        }
                    }
                }
            }
        }
        match kind.as_deref() {
            Some("ping") => {}
            Some("init") => {
                if let Err(e) = check_init_schema(&msg) {
                    break protocol_error(sink, e);
                }
                let hb_ms = msg.get("heartbeat_ms").and_then(Json::as_u64).unwrap_or(0);
                if let Some(mut hb_sink) = sink.share().filter(|_| hb_ms > 0) {
                    let interval = Duration::from_millis(hb_ms);
                    liveness = (interval * 4).max(Duration::from_secs(1));
                    let stop = Arc::clone(&stop_hb);
                    std::thread::spawn(move || {
                        let mut n: u64 = 0;
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(interval);
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            n += 1;
                            if hb_sink.send(&format!("{{\"type\":\"ping\",\"n\":{n}}}")).is_err() {
                                break;
                            }
                        }
                    });
                }
                init = Some(msg);
            }
            Some("cell") => {
                let Some(init_msg) = init.as_ref() else {
                    break protocol_error(sink, "cell assignment before init".into());
                };
                match run_cell(sink, init_msg, &msg, execute) {
                    Ok(()) => last_seen = Instant::now(),
                    Err(ServeError::Fatal(e)) => break SessionEnd::Fatal(e),
                    Err(ServeError::Lost(e)) => break SessionEnd::Lost { inited: true, reason: e },
                }
            }
            Some("shutdown") => break SessionEnd::Shutdown,
            Some("quarantine") => break SessionEnd::Quarantined,
            // A structured rejection (bad token, unsupported schema):
            // the coordinator will never accept this configuration, so
            // reconnecting would only loop — treat it as fatal.
            Some("error") => {
                let reason = msg
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified coordinator error");
                break SessionEnd::Fatal(format!("coordinator rejected this worker: {reason}"));
            }
            other => break protocol_error(sink, format!("unexpected message type {other:?}")),
        }
    };
    stop_hb.store(true, Ordering::Relaxed);
    sink.close();
    end
}

/// A malformed coordinator message is unrecoverable: report it to the
/// coordinator (which treats the explicit error as fatal) and end the
/// session.
fn protocol_error(sink: &mut dyn FrameSink, msg: String) -> SessionEnd {
    send_error(sink, None, &msg);
    SessionEnd::Fatal(msg)
}

/// Serves cell assignments over stdio until the coordinator ends the
/// session, then exits the process (status 0 on `shutdown` or a closed
/// stdin, 1 on a protocol or executor error).
///
/// `execute` maps (the `init` message, a cell id) to a result payload;
/// its `Err` is reported to the coordinator and ends the worker —
/// executor failures are deterministic by contract, so retrying
/// elsewhere cannot help.
pub fn serve<F>(mut execute: F) -> !
where
    F: FnMut(&Json, u64) -> Result<Json, String>,
{
    let mut source = BlockingSource::new(std::io::stdin().lock());
    let mut sink = WriteSink::new(std::io::stdout().lock());
    let name = format!("w{}", std::process::id());
    match serve_channel(&mut source, &mut sink, &name, Fault::from_env(), &mut execute) {
        SessionEnd::Fatal(e) => {
            eprintln!("rix worker {name}: {e}");
            std::process::exit(1);
        }
        _ => std::process::exit(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    // `serve` never returns, so unit tests drive `run_cell` and
    // `serve_channel` directly with in-memory channels (the pool tests
    // exercise the stdio loop end to end via stand-in workers, and
    // `crates/bench` drives the real binary).

    struct VecSink(Vec<String>);
    impl FrameSink for VecSink {
        fn send(&mut self, line: &str) -> std::io::Result<()> {
            self.0.push(line.to_string());
            Ok(())
        }
        fn close(&mut self) {}
    }

    fn exec_double(_init: &Json, cell: u64) -> Result<Json, String> {
        Json::parse(&format!("{{\"doubled\":{}}}", cell * 2)).map_err(|e| e.to_string())
    }

    fn cell_msg(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn uncached_cell_executes_and_emits_one_result() {
        let init = cell_msg(r#"{"type":"init","schema":"rix-dispatch/2","cache":false}"#);
        let msg = cell_msg(r#"{"type":"cell","cell":21}"#);
        let mut sink = VecSink(Vec::new());
        run_cell(&mut sink, &init, &msg, &mut exec_double)
            .unwrap_or_else(|_| panic!("run_cell failed"));
        assert_eq!(sink.0.len(), 1);
        let out = Json::parse(&sink.0[0]).unwrap();
        assert_eq!(out.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(out.get("cell").and_then(Json::as_u64), Some(21));
        assert!(out.get("cached").is_none());
        assert_eq!(
            out.req("payload").unwrap().get("doubled").and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn executor_error_is_fatal_and_reported() {
        let init = cell_msg(r#"{"type":"init","schema":"rix-dispatch/2","cache":false}"#);
        let msg = cell_msg(r#"{"type":"cell","cell":9}"#);
        let mut sink = VecSink(Vec::new());
        let mut boom =
            |_: &Json, _: u64| -> Result<Json, String> { Err("deterministic failure".into()) };
        match run_cell(&mut sink, &init, &msg, &mut boom) {
            Err(ServeError::Fatal(e)) => assert!(e.contains("deterministic failure"), "{e}"),
            _ => panic!("executor errors must be fatal"),
        }
        let out = Json::parse(&sink.0[0]).unwrap();
        assert_eq!(out.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(out.get("cell").and_then(Json::as_u64), Some(9));
    }

    #[test]
    fn serve_channel_runs_a_session_to_shutdown() {
        let frames = concat!(
            r#"{"schema":"rix-dispatch/2","type":"init","worker":0,"heartbeat_ms":0,"plan":{}}"#,
            "\n",
            r#"{"type":"cell","cell":4}"#,
            "\n",
            r#"{"type":"ping","n":1}"#,
            "\n",
            r#"{"type":"cell","cell":5}"#,
            "\n",
            r#"{"type":"shutdown"}"#,
            "\n",
        );
        let mut source = BlockingSource::new(Cursor::new(frames.as_bytes().to_vec()));
        let mut sink = VecSink(Vec::new());
        let end = serve_channel(&mut source, &mut sink, "t", None, &mut exec_double);
        assert!(matches!(end, SessionEnd::Shutdown));
        assert_eq!(sink.0.len(), 2, "{:?}", sink.0);
        assert!(sink.0[1].contains("\"cell\":5") && sink.0[1].contains("\"doubled\":10"));
        // EOF without `shutdown` is a lost session; a cell before `init`
        // is a protocol error reported to the coordinator.
        let mut eof = BlockingSource::new(Cursor::new(Vec::new()));
        let end = serve_channel(&mut eof, &mut sink, "t", None, &mut exec_double);
        assert!(matches!(end, SessionEnd::Lost { inited: false, .. }));
        let early = b"{\"type\":\"cell\",\"cell\":1}\n".to_vec();
        let mut sink = VecSink(Vec::new());
        let end =
            serve_channel(&mut BlockingSource::new(Cursor::new(early)), &mut sink, "t", None, &mut exec_double);
        assert!(matches!(end, SessionEnd::Fatal(_)));
        assert!(sink.0[0].contains("\"type\":\"error\""), "{:?}", sink.0);
    }

    #[test]
    fn fault_specs_parse_and_reject() {
        let frame = |action, n, repeat| Fault { action, trigger: FaultTrigger::Frame(n), repeat };
        let worker = |action, k| Fault { action, trigger: FaultTrigger::Worker(k), repeat: false };
        for (spec, want) in [
            ("net-drop:2", frame(FaultAction::Drop, 2, false)),
            ("net-drop:3:repeat", frame(FaultAction::Drop, 3, true)),
            ("net-stall:1", frame(FaultAction::Stall, 1, false)),
            ("net-exit:5", frame(FaultAction::Exit, 5, false)),
            ("abort:1", worker(FaultAction::Abort, 1)),
            ("stall:0", worker(FaultAction::Stall, 0)),
        ] {
            assert_eq!(Fault::parse(spec), Some(want), "{spec}");
            assert_eq!(want.to_string(), spec, "Display is the spelling");
        }
        for bad in [
            "net-drop",
            "net-drop:0",
            "net-drop:2:always",
            "net-drop:2:repeat:x",
            "abort:1:repeat",
            "abort",
            "drop:1",
            "net-abort:2",
            "",
        ] {
            assert_eq!(Fault::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn process_faults_fire_at_the_named_workers_cells_only() {
        let f = Fault::parse("abort:1").unwrap();
        assert!(f.fires(2, Some(1)));
        assert!(!f.fires(2, Some(0)), "another worker id");
        assert!(!f.fires(1, None), "not on init");
        let n = Fault::parse("net-drop:2").unwrap();
        assert!(n.fires(2, None) && !n.fires(3, Some(0)));
    }

    #[test]
    fn init_schema_check_accepts_both_versions() {
        for ok in [r#"{"schema":"rix-dispatch/2"}"#, r#"{"schema":"rix-dispatch/1"}"#] {
            assert!(check_init_schema(&cell_msg(ok)).is_ok(), "{ok}");
        }
        let err = check_init_schema(&cell_msg(r#"{"schema":"rix-dispatch/0"}"#)).unwrap_err();
        assert!(err.contains("unsupported protocol schema"), "{err}");
    }
}
