//! Simulator-throughput harness: simulated KIPS per workload.
//!
//! Times every named workload under the no-integration baseline and the
//! full-integration configuration (the two ends of the fig4 sweep) with
//! `std::time::Instant` and reports **simulated KIPS** — thousands of
//! retired instructions per wall-clock second. Results are written as a
//! machine-readable JSON perf record (default `BENCH_3.json`) so every
//! PR can extend the repo's performance trajectory; pass a previous
//! record as `--baseline` to get per-cell and geometric-mean speedups
//! embedded in the new record.
//!
//! ```text
//! perf [harness flags] [--workloads a,b,c] [--repeat K] [--out FILE] [--baseline FILE]
//! ```
//!
//! `--workloads` restricts the measurement to a comma-separated list of
//! benchmarks (validated with close-name suggestions), so a
//! single-workload measurement does not pay for the full suite; warm-up
//! is the shared harness `--warmup N` / `--warmup-mode` pair.
//!
//! Build with the fully-optimized profile when the numbers matter:
//! `cargo run --profile release-lto -p rix-bench --bin perf`.

use rix_bench::{Harness, Table, Trial};
use rix_sim::SimConfig;
use rix_workloads::Benchmark;

struct PerfArgs {
    harness: Harness,
    workloads: Option<Vec<Benchmark>>,
    repeat: usize,
    out: String,
    baseline: Option<String>,
}

const PERF_USAGE: &str = "\
perf-specific flags:\n\
\x20 --workloads a,b,c       measure only these benchmarks (comma-separated names)\n\
\x20 --repeat K              timing repetitions per cell, best-of-K (default 3)\n\
\x20 --out FILE              alias of the shared --output (default BENCH_3.json)\n\
\x20 --baseline FILE         previous perf record to compare against";

fn parse_args() -> Result<PerfArgs, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}\n\n{PERF_USAGE}", Harness::usage());
        std::process::exit(0);
    }
    let mut rest = Vec::new();
    let mut workloads = None;
    let mut repeat = 3usize;
    let mut out = None;
    let mut baseline = None;
    let mut i = 0;
    let value = |raw: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i).cloned().ok_or_else(|| format!("{flag} is missing its value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workloads" => {
                let v = value(&raw, &mut i, "--workloads")?;
                let list = v
                    .split(',')
                    .map(str::trim)
                    .filter(|n| !n.is_empty())
                    .map(rix_workloads::lookup)
                    .collect::<Result<Vec<_>, _>>()?;
                if list.is_empty() {
                    return Err("--workloads takes a comma-separated list of names".into());
                }
                workloads = Some(list);
            }
            "--repeat" => {
                let v = value(&raw, &mut i, "--repeat")?;
                repeat = v
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| format!("--repeat takes a count >= 1, got `{v}`"))?;
            }
            "--out" => out = Some(value(&raw, &mut i, "--out")?),
            "--baseline" => baseline = Some(value(&raw, &mut i, "--baseline")?),
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    let harness = Harness::try_parse(rest)?;
    if workloads.is_some() && harness.filter.is_some() {
        return Err("--workloads and --bench are mutually exclusive filters".into());
    }
    if harness.workers > 0 || harness.cache.is_some() || harness.listen.is_some() {
        return Err("perf times the simulator in-process; --workers/--cache/--listen would \
                    measure dispatch overhead instead of simulation speed"
            .into());
    }
    // The record path is the shared `--output` flag; `--out` remains as
    // the historical alias. Giving both would silently drop one, so it
    // is an error instead.
    if out.is_some() && harness.output.is_some() {
        return Err("--out is an alias of --output; give only one of them".into());
    }
    let out = out
        .or_else(|| harness.output.clone())
        .unwrap_or_else(|| "BENCH_3.json".to_string());
    Ok(PerfArgs { harness, workloads, repeat, out, baseline })
}

/// Geometric mean of strictly positive samples (0 when empty).
fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// A previous perf record, reduced to its per-cell KIPS numbers.
struct BaselineRecord {
    file: String,
    /// The record's `warmup_mode` field ("detailed" when absent —
    /// records predating the field were all detailed).
    warmup_mode: String,
    cells: Vec<(String, String, f64)>, // (bench, config, kips)
}

impl BaselineRecord {
    /// Minimal extraction from a `rix-perf/1` record (this binary's own
    /// output format): walks the objects of the `"results"` array and
    /// pulls the `bench`/`config`/`kips` fields. No general JSON parser
    /// is needed (or available offline) for a format we emit ourselves.
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
        let results = text
            .split_once("\"results\"")
            .ok_or_else(|| format!("baseline `{path}` has no \"results\" array"))?
            .1;
        let mut cells = Vec::new();
        for obj in results.split('{').skip(1) {
            let Some(obj) = obj.split('}').next() else { continue };
            let (Some(bench), Some(config), Some(kips)) = (
                extract_str(obj, "bench"),
                extract_str(obj, "config"),
                extract_num(obj, "kips"),
            ) else {
                // The trailing summary objects lack the cell fields.
                continue;
            };
            cells.push((bench, config, kips));
        }
        if cells.is_empty() {
            return Err(format!("baseline `{path}` contains no perf cells"));
        }
        let header = text.split("\"results\"").next().unwrap_or("");
        let warmup_mode =
            extract_str(header, "warmup_mode").unwrap_or_else(|| "detailed".to_string());
        Ok(Self { file: path.to_string(), warmup_mode, cells })
    }

    fn kips(&self, bench: &str, config: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|(b, c, _)| b == bench && c == config)
            .map(|&(_, _, k)| k)
    }
}

fn extract_str(obj: &str, key: &str) -> Option<String> {
    let rest = obj.split_once(&format!("\"{key}\":\""))?.1;
    Some(rest.split('"').next()?.to_string())
}

fn extract_num(obj: &str, key: &str) -> Option<f64> {
    let rest = obj.split_once(&format!("\"{key}\":"))?.1;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}\n\n{PERF_USAGE}", Harness::usage());
            std::process::exit(2);
        }
    };
    let baseline = args.baseline.as_deref().map(|p| match BaselineRecord::load(p) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    });
    let h = &args.harness;
    let warmup_mode = h.warmup_mode.name();
    if let Some(b) = &baseline {
        if b.warmup_mode != warmup_mode {
            eprintln!(
                "warning: baseline `{}` was measured with {} warm-up, this run uses {} — \
                 the KIPS comparison mixes methodologies",
                b.file, b.warmup_mode, warmup_mode
            );
        }
    }
    let configs = [
        ("base".to_string(), SimConfig::baseline()),
        ("integration".to_string(), SimConfig::default()),
    ];

    // Time the sweep `repeat` times and keep, per cell, the fastest
    // repetition: simulated results are deterministic across
    // repetitions (asserted below), so best-of-K only de-noises the
    // host-side timing.
    let mut sweep = h.sweep().configs(configs.to_vec());
    if let Some(list) = &args.workloads {
        sweep = sweep.benchmarks(list.iter().copied());
    }
    let mut best: Vec<Trial> = sweep.run();
    for _ in 1..args.repeat {
        let again = sweep.run();
        for (b, a) in best.iter_mut().zip(again) {
            assert_eq!(b.result, a.result, "simulation must be deterministic");
            if a.wall < b.wall {
                *b = a;
            }
        }
    }

    // Text report.
    let has_base = baseline.is_some();
    let header: &[&str] = if has_base {
        &["bench", "base KIPS", "integ KIPS", "base x", "integ x"]
    } else {
        &["bench", "base KIPS", "integ KIPS"]
    };
    let mut table = Table::new(header);
    let mut per_config_kips = vec![Vec::new(); configs.len()];
    let mut per_config_speedups = vec![Vec::new(); configs.len()];
    let mut speedups = Vec::new();
    for row in best.chunks(configs.len()) {
        let mut cells = vec![row[0].bench.to_string()];
        for (ci, t) in row.iter().enumerate() {
            per_config_kips[ci].push(t.kips());
            cells.push(format!("{:.0}", t.kips()));
        }
        if let Some(b) = &baseline {
            for (ci, t) in row.iter().enumerate() {
                let x = b
                    .kips(t.bench, &t.config_label)
                    .map_or(f64::NAN, |before| t.kips() / before);
                if x.is_finite() {
                    speedups.push(x);
                    per_config_speedups[ci].push(x);
                }
                cells.push(if x.is_finite() {
                    format!("{x:.2}x")
                } else {
                    "-".to_string()
                });
            }
        }
        table.row(cells);
    }
    let mut mean_row = vec!["GMean".to_string()];
    for kips in &per_config_kips {
        mean_row.push(format!("{:.0}", gmean(kips)));
    }
    if has_base {
        for spd in &per_config_speedups {
            mean_row.push(format!("{:.2}x", gmean(spd)));
        }
    }
    table.row(mean_row);
    println!("Simulator throughput (simulated KIPS, best of {} runs)", args.repeat);
    println!("{}", table.render());

    // JSON perf record.
    let mut cells_json = Vec::new();
    for t in &best {
        cells_json.push(format!(
            concat!(
                r#"    {{"bench":"{}","config":"{}","retired":{},"cycles":{},"#,
                r#""wall_s":{:.6},"kips":{}}}"#
            ),
            t.bench,
            t.config_label,
            t.result.stats.retired,
            t.result.stats.cycles,
            t.wall.as_secs_f64(),
            json_f64(t.kips()),
        ));
    }
    let gmeans = format!(
        r#"{{"base":{},"integration":{},"all":{}}}"#,
        json_f64(gmean(&per_config_kips[0])),
        json_f64(gmean(&per_config_kips[1])),
        json_f64(gmean(&per_config_kips.concat())),
    );
    let baseline_json = baseline.as_ref().map(|b| {
        format!(
            "  \"baseline\":{{\"file\":\"{}\",\"gmean_speedup\":{}}},\n",
            b.file,
            json_f64(gmean(&speedups)),
        )
    });
    // The warm-up mode is part of the measurement methodology (a
    // functional warm-up measures a differently-prepared interval than
    // a detailed one), so the record carries it: trajectory comparisons
    // across modes are visible in the files, not silent.
    let record = format!(
        "{{\n  \"schema\":\"rix-perf/1\",\n  \"instructions\":{},\n  \"warmup\":{},\n  \
         \"warmup_mode\":\"{}\",\n  \
         \"seed\":{},\n  \"threads\":{},\n  \"repeat\":{},\n{}  \"gmean_kips\":{},\n  \
         \"results\":[\n{}\n  ]\n}}\n",
        h.instructions,
        h.warmup,
        warmup_mode,
        h.seed,
        h.threads,
        args.repeat,
        baseline_json.unwrap_or_default(),
        gmeans,
        cells_json.join(",\n"),
    );
    if let Err(e) = std::fs::write(&args.out, &record) {
        eprintln!("error: cannot write `{}`: {e}", args.out);
        std::process::exit(1);
    }
    println!("perf record written to {}", args.out);
    if let Some(b) = &baseline {
        println!(
            "geometric-mean speedup vs {}: {:.2}x",
            b.file,
            gmean(&speedups)
        );
    }
}
