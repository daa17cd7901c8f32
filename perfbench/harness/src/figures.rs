//! The `figures` workload: `exp run` over every committed
//! `specs/*.json` with two worker processes and a fresh trial cache
//! (cold: every cell simulated and stored), then the same runs again
//! against that cache (warm: every cell loaded, none simulated).
//!
//! The specs run with a scaled-down instruction budget and the run's
//! workload seed (`--instructions`/`--seed` override the spec's values,
//! as they do for any `exp run`).

use crate::cells::{self, Counts};
use crate::trace::span;
use crate::util::{
    children_peak_rss_mb, digest, median, per_item_latency_metrics, repeat_setup, secs, Report,
    Speed, Summary,
};
use rix_bench::Trial;
use rix_dispatch::ResultCache;
use rix_isa::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Retired instructions per cell (the committed specs use 100 000).
pub const INSTRUCTIONS: u64 = 2_000;

/// Set-up (`exp run --dry-run` over every spec) repeats at least this
/// often and this long.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// Runs the `exp` binary, returning its standard output and wall time.
pub fn exp(bin: &Path, args: &[&str]) -> Result<(String, f64), String> {
    let t = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run exp: {e}"))?;
    let wall = secs(t.elapsed());
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        return Err(format!(
            "exp {} failed ({}): {}",
            args.join(" "),
            out.status,
            tail.join(" | ")
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|_| "exp printed non-UTF-8".to_string())?;
    Ok((stdout, wall))
}

/// The committed figure specs, in name order.
pub fn committed_specs() -> Result<Vec<PathBuf>, String> {
    let mut specs: Vec<PathBuf> = std::fs::read_dir("specs")
        .map_err(|e| format!("cannot list specs/: {e}"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    specs.sort();
    if specs.is_empty() {
        return Err("specs/ holds no spec".into());
    }
    Ok(specs)
}

/// A result document without its `cache` and `dispatch` sections —
/// what must match byte for byte across worker counts and cache states.
fn trials_only(doc: &str) -> String {
    doc.lines()
        .filter(|l| !l.starts_with("  \"cache\":") && !l.starts_with("  \"dispatch\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A counter of a one-line top-level section (`cache`, `dispatch`) of
/// a result document (`u64::MAX` when absent). Only that line is
/// parsed: the trials can run to megabytes.
fn count(doc: &str, section: &str, key: &str) -> u64 {
    let prefix = format!("  \"{section}\":");
    doc.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|obj| Json::parse(obj.trim_end_matches(',')).ok())
        .and_then(|obj| obj.get(key).and_then(Json::as_u64))
        .unwrap_or(u64::MAX)
}

/// Retired instructions over every trial of a result document.
fn retired(doc: &str) -> u64 {
    doc.split("\"retired\":")
        .skip(1)
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().ok()
        })
        .sum()
}

/// What one measured figures pass needs to know about a spec.
struct SpecRun {
    path: String,
    cells: u64,
}

pub struct Figures<'a> {
    pub exp: &'a Path,
    pub seed: u64,
    pub work: &'a Path,
    /// Spec files to run (all committed specs, or one for a probe).
    pub specs: Vec<PathBuf>,
}

impl Figures<'_> {
    fn flags(&self) -> [String; 4] {
        [
            "--instructions".into(),
            INSTRUCTIONS.to_string(),
            "--seed".into(),
            self.seed.to_string(),
        ]
    }

    fn run_spec(&self, spec: &str, extra: &[&str]) -> Result<(String, f64), String> {
        let flags = self.flags();
        let mut args: Vec<&str> = vec!["run", spec];
        args.extend(flags.iter().map(String::as_str));
        args.extend_from_slice(extra);
        exp(self.exp, &args)
    }

    pub fn run(&self, seconds: f64, r: &mut Report, counts: &mut Counts) -> Result<(), String> {
        let mut specs = Vec::new();
        for path in &self.specs {
            let spec = cells::load_spec(path)?;
            let cells = (spec.benchmarks.len() * spec.arms()?.len()) as u64;
            specs.push(SpecRun {
                path: path.display().to_string(),
                cells,
            });
        }

        let mut speed = Speed::new(2);
        let (setup_s, ()) = repeat_setup(&mut speed, SETUP_REPS, SETUP_MIN_S, || {
            for s in &specs {
                span("exp.dry_run", || self.run_spec(&s.path, &["--dry-run"]))?;
            }
            Ok(())
        })?;
        r.set("setup_s", Summary::of(&setup_s));

        // Latencies per spec: the specs differ tenfold in size.
        let (mut fresh, mut dup) = (vec![Vec::new(); specs.len()], vec![Vec::new(); specs.len()]);
        let (mut cold_s, mut warm_s, mut kips, mut round_s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut hits, mut cells_total, mut retries) = (0u64, 0u64, 0u64);
        let mut cold_docs: Vec<String> = Vec::new();
        let started = Instant::now();
        let mut round = 0;
        while round < 2 || secs(started.elapsed()) < seconds {
            // Raw `exp` time of the round (the trace overhead compares
            // it, so the cache replay between the phases stays out).
            let mut raw_s = 0.0;
            let cache = self.work.join(format!("cache-{round}"));
            let _ = std::fs::remove_dir_all(&cache);
            let cache_arg = cache.display().to_string();
            let flags = [
                "--workers",
                "2",
                "--cache",
                &cache_arg,
                "--json",
                "--dispatch-stats",
            ];
            let (mut cold_sum, mut warm_sum, mut retired_sum) = (0.0, 0.0, 0u64);
            let mut cold_round = Vec::new();
            for (i, s) in specs.iter().enumerate() {
                let (text, wall) = span("exp.run_cold", || self.run_spec(&s.path, &flags))?;
                raw_s += wall;
                let wall = wall * speed.factor();
                let doc = text.as_str();
                // A spec may repeat a cell under two labels; the second
                // is then a hit within the cold run itself.
                let (h, m) = (count(doc, "cache", "hits"), count(doc, "cache", "misses"));
                r.check(m > 0 && h.checked_add(m) == Some(s.cells), || {
                    format!("{}: a cold run did not account for every cell", s.path)
                });
                retries += count(doc, "dispatch", "retries");
                retired_sum += retired(doc);
                fresh[i].push(wall);
                cold_sum += wall;
                cold_round.push(trials_only(&text));
            }
            if crate::trace::enabled() {
                replay_cache(&cache, &self.work.join(format!("cache-copy-{round}")), r);
            }
            for (i, (s, cold)) in specs.iter().zip(&cold_round).enumerate() {
                let (text, wall) = span("exp.run_warm", || self.run_spec(&s.path, &flags))?;
                raw_s += wall;
                let wall = wall * speed.factor();
                let h = count(&text, "cache", "hits");
                r.check(h == s.cells && count(&text, "cache", "misses") == 0, || {
                    format!("{}: a warm run simulated cells", s.path)
                });
                r.check(trials_only(&text) == *cold, || {
                    format!("{}: warm trials differ from the cold ones", s.path)
                });
                hits += h;
                cells_total += s.cells;
                dup[i].push(wall);
                warm_sum += wall;
            }
            let _ = std::fs::remove_dir_all(&cache);
            if round == 0 {
                r.digest = digest(&cold_round.join("\n"));
                cold_docs = cold_round;
            }
            cold_s.push(cold_sum);
            warm_s.push(warm_sum);
            kips.push(retired_sum as f64 / cold_sum / 1e3);
            round_s.push(raw_s);
            round += 1;
        }
        r.round_s = median(&round_s);
        r.set("kips", Summary::of(&kips));
        r.set("wall_s", Summary::of(&cold_s));
        r.set("warm_s", Summary::of(&warm_s));
        per_item_latency_metrics(r, "fresh_p50_ms", "fresh_p90_ms", &fresh);
        per_item_latency_metrics(r, "dup_p50_ms", "dup_p90_ms", &dup);
        r.set("peak_rss_mb", Summary::one(children_peak_rss_mb()));
        r.layer("dispatch.cache_hit_ratio", hits as f64 / cells_total as f64);
        r.layer("dispatch.retries", retries as f64);

        if crate::trace::enabled() {
            // Dispatch overhead: the cold two-worker pass against the
            // same specs in one process with two threads.
            let mut threads_s = 0.0;
            for (s, cold) in specs.iter().zip(&cold_docs) {
                let (text, wall) = span("exp.run_threads", || {
                    self.run_spec(&s.path, &["--threads", "2", "--json"])
                })?;
                r.check(trials_only(&text) == *cold, || {
                    format!("{}: in-process trials differ from the worker ones", s.path)
                });
                threads_s += wall * speed.factor();
            }
            r.layer("dispatch.overhead_s", median(&cold_s) - threads_s);
            self.resimulate(r, counts, &cold_docs)?;
        }
        r.speed = speed.factors;
        Ok(())
    }

    /// Re-simulates the smallest spec here and checks its document
    /// against the cold `exp` one, byte for byte.
    fn resimulate(
        &self,
        r: &mut Report,
        counts: &mut Counts,
        cold_docs: &[String],
    ) -> Result<(), String> {
        let mut smallest = None;
        for (i, path) in self.specs.iter().enumerate() {
            let spec = cells::load_spec(path)?;
            let n = spec.benchmarks.len() * spec.arms()?.len();
            if smallest.as_ref().is_none_or(|(_, m, _)| n < *m) {
                smallest = Some((i, n, spec));
            }
        }
        let (i, _, mut spec) = smallest.ok_or("no spec")?;
        spec.instructions = INSTRUCTIONS;
        spec.seed = self.seed;
        let arms = spec.arms()?;
        let mut trials = Vec::new();
        for b in &spec.benchmarks {
            let program = cells::build(b, spec.seed);
            for (label, cfg) in &arms {
                let name = format!("{}/{label}", b.name);
                let (result, _) =
                    cells::simulate(r, &name, &program, *cfg, spec.instructions, true);
                counts.add(&program, *cfg, spec.instructions, &result);
                trials.push(Trial {
                    bench: b.name,
                    config_label: label.clone(),
                    result,
                    wall: Duration::ZERO,
                });
            }
        }
        let doc = cells::doc(&spec, &trials);
        r.check(trials_only(&doc) == cold_docs[i], || {
            format!(
                "{}: the in-process document differs from exp's",
                self.specs[i].display()
            )
        });
        Ok(())
    }
}

/// Loads every entry of a cold cache and stores it into a copy: the
/// trial-cache traffic of a warm pass and of a cold one, through the
/// cache's own API.
fn replay_cache(cache: &Path, copy: &Path, r: &mut Report) {
    let (Ok(src), Ok(dst)) = (ResultCache::open(cache), ResultCache::open(copy)) else {
        r.check(false, || "cannot open the trial cache".into());
        return;
    };
    let keys: Vec<String> = std::fs::read_dir(cache)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_suffix(".json")
                .map(str::to_string)
        })
        .collect();
    for key in &keys {
        let payload = span("dispatch.cache_load", || src.load(key));
        r.check(payload.is_some(), || {
            format!("cache entry {key} does not load")
        });
        if let Some(p) = payload {
            let stored = span("dispatch.cache_store", || dst.store(key, &p));
            r.check(stored.is_ok(), || {
                format!("cache entry {key} does not store")
            });
        }
    }
    let _ = std::fs::remove_dir_all(copy);
}
