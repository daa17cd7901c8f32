//! The repo benchmark's measuring harness (driven by `perfbench/run.py`,
//! which builds it and `exp`).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --exp PATH --work DIR
//! ```
//!
//! With `--trace 0` it measures the workload and prints the end-to-end
//! metrics; with `--trace 1` it measures the workload untraced, then
//! traced (spans around calls into the workspace crates), then the
//! layer replays, and prints the per-layer metrics. Layers the workload
//! bypasses are measured by a small probe of the workload that reaches
//! them (one service session, one figure spec). The last stdout line is
//! the result object; the line before it records samples and digest.

mod cells;
mod figures;
mod replay;
mod service;
mod trace;
mod util;

use cells::{Counts, Kind};
use figures::Figures;
use service::Service;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;
use util::{secs, Report, Summary};

/// The end-to-end metrics, with their units, in output order.
const E2E: [(&str, &str); 10] = [
    ("kips", "KIPS"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("warm_s", "s"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("dup_p50_ms", "ms"),
    ("dup_p90_ms", "ms"),
];

/// The per-layer metrics, with their units, in output order.
const LAYER: [(&str, &str); 48] = [
    ("sim.ns_per_cycle", "ns"),
    ("sim.run_s", "s"),
    ("sim.new_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.fetched", "count"),
    ("sim.executed", "count"),
    ("sim.squashes", "count"),
    ("sim.useful_fetch_ratio", "ratio"),
    ("integration.it_op_ns.w4", "ns"),
    ("integration.it_op_ns.w1024", "ns"),
    ("integration.it_op_ns.w4096", "ns"),
    ("integration.assoc_share", "ratio"),
    ("integration.rate", "ratio"),
    ("integration.mis_per_million", "count"),
    ("mem.dload_ns", "ns"),
    ("mem.ifetch_ns", "ns"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.l1d_accesses", "count"),
    ("mem.l1i_miss_rate", "ratio"),
    ("mem.l1i_accesses", "count"),
    ("mem.l2_miss_rate", "ratio"),
    ("mem.l2_accesses", "count"),
    ("frontend.predict_ns", "ns"),
    ("frontend.mispredict_rate", "ratio"),
    ("workloads.build_ms", "ms"),
    ("analysis.lint_ms", "ms"),
    ("bench.spec_load_ms", "ms"),
    ("bench.result_doc_ms", "ms"),
    ("dispatch.cache_store_ms", "ms"),
    ("dispatch.cache_load_ms", "ms"),
    ("dispatch.cache_hit_ratio", "ratio"),
    ("dispatch.overhead_s", "s"),
    ("dispatch.retries", "count"),
    ("serve.post_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.sim_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.join_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("self.sim_s", "s"),
    ("self.workloads_s", "s"),
    ("self.analysis_s", "s"),
    ("self.bench_s", "s"),
    ("self.dispatch_s", "s"),
    ("self.serve_s", "s"),
    ("self.exp_s", "s"),
    ("self.harness_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Per-call means recorded from spans, in ms: (metric, span).
const SPAN_MEANS: [(&str, &str); 9] = [
    ("sim.new_ms", "sim.new"),
    ("workloads.build_ms", "workloads.build"),
    ("analysis.lint_ms", "analysis.lint"),
    ("bench.spec_load_ms", "bench.spec_load"),
    ("bench.result_doc_ms", "bench.result_doc"),
    ("dispatch.cache_store_ms", "dispatch.cache_store"),
    ("dispatch.cache_load_ms", "dispatch.cache_load"),
    ("serve.post_ms", "serve.post"),
    ("serve.fetch_ms", "serve.fetch"),
];

/// Layers whose self time is reported (`self.<layer>_s`).
const LAYERS: [&str; 7] = [
    "sim",
    "workloads",
    "analysis",
    "bench",
    "dispatch",
    "serve",
    "exp",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    exp: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = raw
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        raw.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        let v = get(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: num("--trace")? != 0,
        exp: PathBuf::from(get("--exp")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// Runs one workload for `seconds`, filling `r` and `counts`.
fn workload(
    a: &Args,
    name: &str,
    seconds: f64,
    probe: bool,
    r: &mut Report,
    counts: &mut Counts,
) -> Result<(), String> {
    let work: &Path = &a.work;
    match name {
        "core-default" => *counts = cells::run(Kind::CoreDefault, a.seed, seconds, work, r)?,
        "it-assoc" => *counts = cells::run(Kind::ItAssoc, a.seed, seconds, work, r)?,
        "figures" => {
            let mut specs = figures::committed_specs()?;
            if probe {
                // The smallest committed spec by file size stands in.
                specs.sort_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(u64::MAX));
                specs.truncate(1);
            }
            Figures {
                exp: &a.exp,
                seed: a.seed,
                work,
                specs,
            }
            .run(seconds, r, counts)?;
        }
        "service" => {
            let min_each = if probe { 8 } else { service::MIN_EACH };
            Service {
                exp: &a.exp,
                seed: a.seed,
                work,
                min_each,
                rejected: Cell::new(0),
            }
            .run(seconds, r, counts)?;
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(())
}

/// Fills the span-derived per-layer metrics the report does not have
/// yet from everything traced since the last reset, over `wall_s` of
/// traced host time.
fn span_metrics(r: &mut Report, wall_s: f64) {
    let set = |r: &mut Report, name: &str, v: f64| {
        if !r.layer.contains_key(name) {
            r.layer(name, v);
        }
    };
    for (metric, span) in SPAN_MEANS {
        let agg = trace::get(span);
        if agg.calls > 0 {
            set(r, metric, agg.mean_ms());
        }
    }
    let run = trace::get("sim.run");
    let cycles = trace::counter("sim.cycles_run");
    if run.calls > 0 && cycles > 0 {
        set(r, "sim.run_s", run.total_ns as f64 / 1e9);
        set(r, "sim.ns_per_cycle", run.total_ns as f64 / cycles as f64);
    }
    let layers = trace::layer_self_s();
    for layer in LAYERS {
        if let Some(&s) = layers.get(layer) {
            set(r, &format!("self.{layer}_s"), s);
        }
    }
    let spans: f64 = layers.values().sum();
    set(r, "self.harness_s", wall_s - spans);
}

/// The per-layer run: untraced, traced, probes, replays.
fn traced(a: &Args) -> Result<Report, String> {
    let half = a.seconds / 2.0;
    let mut plain = Report::default();
    workload(
        a,
        &a.workload,
        half,
        false,
        &mut plain,
        &mut Counts::default(),
    )?;

    trace::set_enabled(true);
    trace::reset();
    let mut r = Report::default();
    let mut counts = Counts::default();
    let t = Instant::now();
    workload(a, &a.workload, half, false, &mut r, &mut counts)?;
    let wall = secs(t.elapsed());
    span_metrics(&mut r, wall);
    counts.report(&mut r);
    r.layer(
        "trace.overhead_pct",
        (r.round_s / plain.round_s - 1.0) * 100.0,
    );

    for probe in ["figures", "service"] {
        if probe == a.workload {
            continue;
        }
        trace::reset();
        let mut p = Report::default();
        let t = Instant::now();
        workload(a, probe, 0.0, true, &mut p, &mut Counts::default())?;
        span_metrics(&mut p, secs(t.elapsed()));
        for (k, v) in p.layer {
            r.layer.entry(k).or_insert(v);
        }
        r.attempted += p.attempted;
        r.failures.extend(p.failures);
    }
    trace::set_enabled(false);

    replay::run(a.seed, &mut r);
    r.layer("integration.assoc_share", counts.assoc_share());
    r.attempted += plain.attempted;
    r.failures.extend(plain.failures);
    Ok(r)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if a.trace {
        traced(&a)
    } else {
        let mut r = Report::default();
        workload(
            &a,
            &a.workload,
            a.seconds,
            false,
            &mut r,
            &mut Counts::default(),
        )
        .map(|()| r)
    };
    let mut r = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let failed = r.failures.len() as u64;
    r.set(
        "success_rate",
        Summary::one((r.attempted - failed) as f64 / r.attempted.max(1) as f64),
    );

    let (names, values): (&[(&str, &str)], Vec<Option<f64>>) = if a.trace {
        (
            &LAYER,
            LAYER
                .iter()
                .map(|(n, _)| r.layer.get(*n).copied())
                .collect(),
        )
    } else {
        (
            &E2E,
            E2E.iter()
                .map(|(n, _)| r.e2e.get(n).map(|s| s.median))
                .collect(),
        )
    };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for ((name, unit), v) in names.iter().zip(&values) {
        match v {
            Some(v) if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )),
            _ => missing.push(*name),
        }
    }
    if !missing.is_empty() {
        eprintln!("error: no value measured for {}", missing.join(", "));
        std::process::exit(1);
    }
    let samples: Vec<String> = r
        .e2e
        .iter()
        .map(|(k, s)| {
            format!(
                "\"{k}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.n
            )
        })
        .collect();
    let speed = Summary::of(&r.speed);
    let failures: Vec<String> = r
        .failures
        .iter()
        .take(20)
        .map(|f| rix_isa::json::Json::Str(f.clone()).dump())
        .collect();
    println!(
        "{{\"record\": \"perfbench/1\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"digest\": \"{}\", \
         \"host_speed\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}, \"failures\": [{}], \"samples\": {{{}}}}}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        r.digest,
        json_num(speed.median),
        json_num(speed.q1),
        json_num(speed.q3),
        speed.n,
        failures.join(", "),
        samples.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        r.attempted,
        metrics.join(", ")
    );
}
