//! The `service` workload: one closed-loop client against
//! `exp serve-api` on loopback. Submissions alternate between a fresh
//! spec (a new seed, so a new fingerprint that must be simulated) and a
//! resubmission of a completed one (which joins the stored run); each
//! is followed by a fetch of the result document. It runs by hand
//! (`--workload service`) and, in small, as the probe that measures
//! `rix-serve` in every traced run; its tail latencies are too unsteady
//! on a shared host for a listed workload.

use crate::cells::{self, Counts};
use crate::trace::span;
use crate::util::{
    digest, latency_metrics, median, peak_rss_mb, repeat_setup, secs, Report, Rng, Speed, Summary,
};
use rix_bench::Trial;
use rix_isa::json::Json;
use rix_serve::client::request;
use rix_workloads::Benchmark;
use std::cell::Cell;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Retired instructions per cell of a submitted spec: small, so that
/// validation, HTTP and the store are not hidden behind simulation.
const INSTRUCTIONS: u64 = 3_000;

/// Server start-up repeats at least this often and this long;
/// `setup_s` is the median start.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// Fresh and duplicate submissions a run makes at least, so each p90
/// has at least ten samples beyond it and the digest covers a fixed set.
pub const MIN_EACH: usize = 100;

/// Submissions per second of `--seconds` (half fresh, half duplicate):
/// about the rate the reference host sustains.
const SUBMISSIONS_PER_S: f64 = 70.0;

/// The pause between status polls. Every request is a new loopback
/// connection that leaves a socket in TIME_WAIT for a minute, and
/// thousands of those to one address slow every later connect to it;
/// so the client polls sparingly.
const POLL: Duration = Duration::from_millis(2);

/// A duplicate resubmits the fresh spec this many pairs back: half the
/// benchmark cycle, so duplicates cycle through the same mix as fresh
/// submissions.
const DUP_LAG: usize = 8;

/// Fresh-then-duplicate pairs per round.
const PAIRS: usize = 8;

/// A running `exp serve-api`, stopped (killed and reaped) on drop.
struct Server {
    child: Child,
    addr: String,
    /// Drains the server's stderr until it exits.
    log: Option<std::thread::JoinHandle<()>>,
}

/// A loopback address (`127.x.y.z:0`) not used by an earlier run.
/// Every request is a new connection, and each leaves a socket in
/// TIME_WAIT for a minute; while thousands of those name the same
/// server address, every connect to it searches longer for a free local
/// port. A server address of its own keeps one run's sockets from
/// slowing the next.
fn fresh_loopback() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let mut rng = Rng::new(u64::from(std::process::id()) << 32 | u64::from(nanos));
    let mut octet = || 1 + rng.below(254);
    format!("127.{}.{}.{}:0", octet(), octet(), octet())
}

impl Server {
    fn start(exp: &Path, data: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(data);
        std::fs::create_dir_all(data).map_err(|e| e.to_string())?;
        let mut child = Command::new(exp)
            // One malloc arena and no cache of exited threads' stacks:
            // the server's peak memory then follows what it allocates,
            // not how many arenas and stacks its per-connection threads
            // happened to leave behind.
            .env(
                "GLIBC_TUNABLES",
                "glibc.malloc.arena_max=1:glibc.pthread.stack_cache_size=0",
            )
            .args([
                "serve-api",
                "--listen",
                &fresh_loopback(),
                "--executors",
                "1",
                "--data-dir",
            ])
            .arg(data)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start exp serve-api: {e}"))?;
        let stderr = child.stderr.take().ok_or("exp serve-api has no stderr")?;
        let (tx, rx) = std::sync::mpsc::channel();
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Self {
            child,
            addr: String::new(),
            log: Some(log),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "exp serve-api did not announce its address".to_string())?;
        // Ready once it answers.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match request(&server.addr, "GET", "/v1/runs", None, None) {
                Ok((200, _)) => return Ok(server),
                other if Instant::now() > deadline => {
                    return Err(format!("exp serve-api never answered: {other:?}"))
                }
                _ => std::thread::sleep(POLL),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

fn field<'a>(body: &'a Json, key: &str) -> Option<&'a str> {
    body.get(key).and_then(Json::as_str)
}

pub struct Service<'a> {
    pub exp: &'a Path,
    pub seed: u64,
    pub work: &'a Path,
    /// Fresh and duplicate submissions to make at least.
    pub min_each: usize,
    /// Submissions refused with `429`.
    pub rejected: Cell<u64>,
}

/// The measured outcome of one fresh submission.
struct Fresh {
    latency: f64,
    queue_wait: f64,
    sim: f64,
    doc: String,
}

impl Service<'_> {
    /// The `i`-th fresh spec: the benchmarks in a seeded order, cycled,
    /// so every run submits the same mix; a new workload seed per spec.
    fn spec_text(&self, order: &[Benchmark], i: usize) -> String {
        let bench = order[i % order.len()].name;
        let seed = self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64) % 1_000_000_007;
        format!(
            "{{\"schema\": \"rix-exp/1\", \"name\": \"perfbench-service\", \"benchmarks\": [\"{bench}\"], \
             \"instructions\": {INSTRUCTIONS}, \"seed\": {seed}, \
             \"arms\": [{{\"label\": \"base\", \"preset\": \"base\"}}, {{\"label\": \"default\", \"preset\": \"default\"}}]}}\n"
        )
    }

    /// Submits a new spec, waits for its run to finish, fetches it.
    /// `None` when the submission is refused (a failed check).
    fn fresh(&self, addr: &str, text: &str, r: &mut Report) -> Result<Option<Fresh>, String> {
        let t0 = Instant::now();
        let (code, body) = span("serve.post", || {
            request(addr, "POST", "/v1/runs", None, Some(text))
        })?;
        let posted = Instant::now();
        let body = Json::parse(&body)?;
        r.check(code == 201, || {
            format!("a fresh submission was answered {code}")
        });
        if code != 201 {
            self.rejected
                .set(self.rejected.get() + u64::from(code == 429));
            return Ok(None);
        }
        let id = field(&body, "id")
            .ok_or("submission reply has no id")?
            .to_string();
        let mut started = None;
        loop {
            let (code, body) = span("serve.status", || {
                request(addr, "GET", &format!("/v1/runs/{id}"), None, None)
            })?;
            let body = Json::parse(&body)?;
            let state = field(&body, "state").unwrap_or("?");
            if code != 200 || state == "failed" {
                return Err(format!("run {id} failed ({code}): {}", body.dump()));
            }
            if state != "queued" && started.is_none() {
                started = Some(Instant::now());
            }
            if state == "done" {
                break;
            }
            std::thread::sleep(POLL);
        }
        let done = Instant::now();
        let (code, doc) = span("serve.fetch", || {
            request(addr, "GET", &format!("/v1/runs/{id}/result"), None, None)
        })?;
        let latency = secs(t0.elapsed());
        r.check(code == 200, || {
            format!("fetching run {id} was answered {code}")
        });
        let started = started.unwrap_or(done);
        Ok(Some(Fresh {
            latency,
            queue_wait: secs(started - posted),
            sim: secs(done - started),
            doc,
        }))
    }

    /// Resubmits a completed spec (it must join) and fetches its result.
    fn dup(&self, addr: &str, text: &str, expect: &str, r: &mut Report) -> Result<f64, String> {
        let t0 = Instant::now();
        let (code, body) = span("serve.post", || {
            request(addr, "POST", "/v1/runs", None, Some(text))
        })?;
        let body = Json::parse(&body)?;
        let joined = body.get("joined").and_then(Json::as_bool) == Some(true);
        self.rejected
            .set(self.rejected.get() + u64::from(code == 429));
        r.check(code == 200 && joined, || {
            format!("a resubmission was answered {code}, joined {joined}")
        });
        let id = field(&body, "id")
            .ok_or("submission reply has no id")?
            .to_string();
        let (code, doc) = span("serve.fetch", || {
            request(addr, "GET", &format!("/v1/runs/{id}/result"), None, None)
        })?;
        let latency = secs(t0.elapsed());
        r.check(code == 200 && doc == expect, || {
            format!("run {id}: the re-served document differs")
        });
        Ok(latency)
    }

    /// The document `exp run --json` would print for `text`, simulated here.
    fn direct(
        &self,
        text: &str,
        r: &mut Report,
        counts: &mut Counts,
    ) -> Result<(String, u64), String> {
        let path = self.work.join("service-spec.json");
        std::fs::write(&path, text).map_err(|e| e.to_string())?;
        let spec = cells::load_spec(&path)?;
        let arms = spec.arms()?;
        let mut trials = Vec::new();
        let mut retired = 0;
        for b in &spec.benchmarks {
            let program = cells::build(b, spec.seed);
            cells::lint(r, b.name, &program);
            for (label, cfg) in &arms {
                let name = format!("{}/{label}", b.name);
                let (result, _) =
                    cells::simulate(r, &name, &program, *cfg, spec.instructions, true);
                counts.add(&program, *cfg, spec.instructions, &result);
                retired += result.stats.retired;
                trials.push(Trial {
                    bench: b.name,
                    config_label: label.clone(),
                    result,
                    wall: Duration::ZERO,
                });
            }
        }
        Ok((cells::doc(&spec, &trials), retired))
    }

    pub fn run(&self, seconds: f64, r: &mut Report, counts: &mut Counts) -> Result<(), String> {
        // One server at a time: each start stops the previous one.
        let mut server: Option<Server> = None;
        let mut k = 0;
        let mut speed = Speed::new(2);
        let (setup_s, ()) = repeat_setup(&mut speed, SETUP_REPS, SETUP_MIN_S, || {
            drop(server.take());
            server = Some(Server::start(self.exp, &self.data_dir(k))?);
            k += 1;
            Ok(())
        })?;
        let server = server.expect("at least one start");
        r.set("setup_s", Summary::of(&setup_s));

        let mut rng = Rng::new(self.seed);
        let mut order = rix_workloads::all_benchmarks();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut completed: Vec<(String, String)> = Vec::new();
        let (mut fresh, mut dup, mut waits, mut sims) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut fresh_round, mut dup_round, mut round_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut retired, mut digest_docs, mut attempts) = (0u64, String::new(), 0);
        // A fixed number of submissions, not a fixed time: the service's
        // store and trial cache grow with every fresh run, so a time
        // budget would make a faster run measure a larger server.
        let each = self
            .min_each
            .max((seconds * SUBMISSIONS_PER_S / 2.0) as usize);
        while fresh.len() < each || dup.len() < each {
            let round_start = Instant::now();
            let (mut f_sum, mut d_sum) = (0.0, 0.0);
            for _ in 0..PAIRS {
                // A pair: a fresh submission, then a duplicate of the one
                // `DUP_LAG` pairs earlier; both scaled by the host speed
                // measured right after them.
                let text = self.spec_text(&order, attempts);
                attempts += 1;
                let Some(f) = self.fresh(&server.addr, &text, r)? else {
                    continue;
                };
                let (direct, n) = self.direct(&text, r, counts)?;
                r.check(f.doc == direct, || {
                    "a fetched document differs from the direct result".into()
                });
                if fresh.len() < self.min_each {
                    digest_docs.push_str(&f.doc);
                }
                retired += n;
                waits.push(f.queue_wait);
                sims.push(f.sim);
                completed.push((text, f.doc));
                let (text, doc) = &completed[completed.len().saturating_sub(DUP_LAG + 1)];
                let d = self.dup(&server.addr, text, doc, r)?;
                let k = speed.factor();
                fresh.push(f.latency * k);
                dup.push(d * k);
                f_sum += f.latency * k;
                d_sum += d * k;
            }
            fresh_round.push(f_sum);
            dup_round.push(d_sum);
            round_s.push(secs(round_start.elapsed()));
        }
        r.digest = digest(&digest_docs);
        r.round_s = median(&round_s);
        r.speed = speed.factors;
        let fresh_total: f64 = fresh.iter().sum();
        r.set("kips", Summary::one(retired as f64 / fresh_total / 1e3));
        r.set("wall_s", Summary::of(&fresh_round));
        r.set("warm_s", Summary::of(&dup_round));
        latency_metrics(r, "fresh_p50_ms", "fresh_p90_ms", &fresh);
        latency_metrics(r, "dup_p50_ms", "dup_p90_ms", &dup);
        let pid = server.child.id().to_string();
        r.set(
            "peak_rss_mb",
            Summary::one(peak_rss_mb(&pid).unwrap_or(f64::NAN)),
        );
        let submissions = (fresh.len() + dup.len()) as f64;
        r.layer("serve.queue_wait_ms", median(&waits) * 1e3);
        r.layer("serve.sim_ms", median(&sims) * 1e3);
        r.layer("serve.join_ratio", dup.len() as f64 / submissions);
        r.layer("serve.rejected", self.rejected.get() as f64);
        drop(server);
        for k in 0..k {
            let _ = std::fs::remove_dir_all(self.data_dir(k));
            let _ = std::fs::remove_file(self.data_dir(k).with_extension("log"));
        }
        Ok(())
    }

    fn data_dir(&self, k: usize) -> PathBuf {
        self.work.join(format!("service-{k}"))
    }
}
