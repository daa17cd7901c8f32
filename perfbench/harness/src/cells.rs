//! In-process simulation: the `core-default` and `it-assoc` workloads,
//! plus the traced wrappers every workload uses when it builds, lints
//! or simulates a program itself.
//!
//! A cell is run exactly as `Sweep` runs a warm-up-free cell at one
//! thread — `Simulator::new` then a budgeted run from reset — so its
//! `RunResult` is byte-identical to the one `exp` reports for it.

use crate::trace::span;
use crate::util::{
    digest, gmean, latency_metrics, median, peak_rss_mb, repeat_setup, secs, Report, Speed, Summary,
};
use rix_bench::{result_doc, ExperimentSpec, Harness, Trial};
use rix_isa::interp::Interp;
use rix_isa::Program;
use rix_sim::{RunResult, SimConfig, Simulator};
use rix_workloads::Benchmark;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up repeats at least this often and this long; `setup_s` is the
/// median repetition.
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 1.0;

pub fn load_spec(path: &Path) -> Result<ExperimentSpec, String> {
    let path = path.to_str().ok_or("spec path is not UTF-8")?;
    span("bench.spec_load", || ExperimentSpec::load(path))
}

pub fn build(bench: &Benchmark, seed: u64) -> Program {
    span("workloads.build", || bench.build(seed))
}

/// Lints `program`, counting a finding as a failed check.
pub fn lint(r: &mut Report, name: &str, program: &Program) {
    let findings = span("analysis.lint", || rix_analysis::lint_program(program));
    r.check(findings.is_empty(), || {
        format!("{name}: {} lint findings", findings.len())
    });
}

/// Simulates one cell from reset, returning its result and the host
/// time of `Simulator::new` plus the run. With `arch_check`, the final
/// architectural state is then compared with the interpreter's at the
/// same retired position (outside the timed region).
pub fn simulate(
    r: &mut Report,
    name: &str,
    program: &Program,
    cfg: SimConfig,
    instructions: u64,
    arch_check: bool,
) -> (RunResult, f64) {
    let t = Instant::now();
    let mut sim = span("sim.new", || Simulator::new(program, cfg));
    let result = span("sim.run", || sim.run_budget(instructions));
    let host_s = secs(t.elapsed());
    crate::trace::count("sim.cycles_run", result.stats.cycles);
    r.check(!result.timed_out, || {
        format!("{name}: the budget of {instructions} was not met")
    });
    if arch_check {
        let reference = Interp::new(program, cfg.stack_top).fast_forward(sim.retired_total());
        r.check(sim.arch_state() == reference, || {
            format!("{name}: architectural state differs from the interpreter's")
        });
    }
    (result, host_s)
}

/// The `rix-exp-result/1` document `exp run --json` prints for `spec`,
/// built from results simulated here.
pub fn doc(spec: &ExperimentSpec, trials: &[Trial]) -> String {
    span("bench.result_doc", || {
        format!("{}\n", result_doc(spec, trials, None, None))
    })
}

/// Deterministic work counts summed over simulated cells.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    cycles: u64,
    retired: u64,
    fetched: u64,
    executed: u64,
    squashes: u64,
    integrated: u64,
    integ_retired: u64,
    mis_integrations: u64,
    cond_branches: u64,
    mispredicts: u64,
    l1d: (u64, u64),
    l1i: (u64, u64),
    l2: (u64, u64),
    /// The first cells counted, kept for [`Counts::assoc_share`].
    cells: Vec<(Program, SimConfig, u64)>,
}

/// Cells [`Counts`] keeps for the associativity control.
const KEPT_CELLS: usize = 64;

impl Counts {
    pub fn add(&mut self, program: &Program, cfg: SimConfig, instructions: u64, res: &RunResult) {
        if self.cells.len() < KEPT_CELLS {
            self.cells.push((program.clone(), cfg, instructions));
        }
        let s = &res.stats;
        self.cycles += s.cycles;
        self.retired += s.retired;
        self.fetched += s.fetched;
        self.executed += s.executed;
        self.squashes += s.squashes_branch + s.squashes_memorder + s.squashes_diva;
        self.integrated += s.integration.integrations();
        self.integ_retired += s.integration.retired;
        self.mis_integrations += s.integration.mis_integrations;
        self.cond_branches += s.cond_branches_retired;
        self.mispredicts += s.branch_mispredicts;
        for (acc, c) in [
            (&mut self.l1d, s.mem.l1d),
            (&mut self.l1i, s.mem.l1i),
            (&mut self.l2, s.mem.l2),
        ] {
            acc.0 += c.hits;
            acc.1 += c.misses;
        }
    }

    /// The share of `Simulator::run` host time per simulated cycle that
    /// the integration table's associativity beyond 4 ways costs: each
    /// kept cell runs again, alternating with a control whose table has
    /// the same entries at 4 ways (identical for cells already at 4 ways
    /// or less, where the share measures only noise around 0).
    pub fn assoc_share(&self) -> f64 {
        let (mut actual, mut control) = ((0.0, 0u64), (0.0, 0u64));
        for (program, cfg, n) in &self.cells {
            let mut four = *cfg;
            four.integration.it_ways = cfg.integration.it_ways.min(4);
            for (c, acc) in [(*cfg, &mut actual), (four, &mut control)] {
                let t = Instant::now();
                let res = Simulator::new(program, c).run(*n);
                acc.0 += secs(t.elapsed());
                acc.1 += res.stats.cycles;
            }
        }
        1.0 - (control.0 / control.1 as f64) / (actual.0 / actual.1 as f64)
    }

    /// The deterministic per-layer metrics.
    pub fn report(&self, r: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.layer("sim.cycles", self.cycles as f64);
        r.layer("sim.fetched", self.fetched as f64);
        r.layer("sim.executed", self.executed as f64);
        r.layer("sim.squashes", self.squashes as f64);
        r.layer("sim.useful_fetch_ratio", ratio(self.retired, self.fetched));
        r.layer(
            "integration.rate",
            ratio(self.integrated, self.integ_retired),
        );
        r.layer(
            "integration.mis_per_million",
            ratio(self.mis_integrations * 1_000_000, self.integ_retired),
        );
        r.layer(
            "frontend.mispredict_rate",
            ratio(self.mispredicts, self.cond_branches),
        );
        for (name, (hits, misses)) in [("l1d", self.l1d), ("l1i", self.l1i), ("l2", self.l2)] {
            r.layer(
                &format!("mem.{name}_miss_rate"),
                ratio(misses, hits + misses),
            );
            r.layer(&format!("mem.{name}_accesses"), (hits + misses) as f64);
        }
    }
}

/// The two in-process workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// All programs × {baseline, default 1K-entry 4-way IT}.
    CoreDefault,
    /// All programs × `plus_reverse` with a fully-associative IT of 1K
    /// and of 4K entries (4K registers at 4K entries).
    ItAssoc,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Self::CoreDefault => "core-default",
            Self::ItAssoc => "it-assoc",
        }
    }

    /// Retired instructions per cell. The fully-associative cells cost
    /// about 30x a 4-way cell per instruction, so they get a shorter
    /// budget to fit several rounds in one run.
    fn instructions(self) -> u64 {
        match self {
            Self::CoreDefault => 50_000,
            Self::ItAssoc => 4_000,
        }
    }

    fn arms(self) -> &'static str {
        match self {
            Self::CoreDefault => {
                r#"[{"label": "base", "preset": "base"}, {"label": "default", "preset": "default"}]"#
            }
            Self::ItAssoc => concat!(
                r#"[{"label": "full-1K", "preset": "plus_reverse", "#,
                r#""overrides": {"integration": {"it_entries": 1024, "it_ways": 1024}}}, "#,
                r#"{"label": "full-4K", "preset": "plus_reverse", "#,
                r#""overrides": {"integration": {"it_entries": 4096, "it_ways": 4096}, "num_pregs": 4096}}]"#
            ),
        }
    }

    fn spec_text(self, seed: u64) -> String {
        format!(
            "{{\"schema\": \"rix-exp/1\", \"name\": \"perfbench-{}\", \"benchmarks\": \"all\", \
             \"instructions\": {}, \"seed\": {seed}, \"arms\": {}}}\n",
            self.name(),
            self.instructions(),
            self.arms()
        )
    }
}

/// Everything set-up produces: the validated spec, its arms, and one
/// lint-clean program per benchmark.
struct Setup {
    spec: ExperimentSpec,
    arms: Vec<(String, SimConfig)>,
    programs: Vec<Program>,
}

/// Spec load and validation, program build and lint, and one
/// `Simulator::new` per cell (constructed and dropped).
fn setup(r: &mut Report, spec_path: &Path) -> Result<Setup, String> {
    let spec = load_spec(spec_path)?;
    spec.sweep(&Harness::default()).validate()?;
    let arms = spec.arms()?;
    let programs: Vec<Program> = spec
        .benchmarks
        .iter()
        .map(|b| build(b, spec.seed))
        .collect();
    for (b, p) in spec.benchmarks.iter().zip(&programs) {
        lint(r, b.name, p);
        for (_, cfg) in &arms {
            drop(span("sim.new", || Simulator::new(p, *cfg)));
        }
    }
    Ok(Setup {
        spec,
        arms,
        programs,
    })
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    work: &Path,
    r: &mut Report,
) -> Result<Counts, String> {
    let spec_path = work.join(format!("{}.json", kind.name()));
    std::fs::write(&spec_path, kind.spec_text(seed)).map_err(|e| e.to_string())?;

    let mut speed = Speed::new(1);
    let (
        setup_s,
        Setup {
            spec,
            arms,
            programs,
        },
    ) = repeat_setup(&mut speed, SETUP_REPS, SETUP_MIN_S, || setup(r, &spec_path))?;
    r.set("setup_s", Summary::of(&setup_s));

    // Rounds: every cell fresh, then the same cell again (its repeat must
    // be byte-identical). The first round also checks architectural
    // state and fixes the digest.
    let n = spec.instructions;
    let mut first: Vec<String> = Vec::new();
    let mut counts = Counts::default();
    let (mut fresh, mut dup, mut kips) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fresh_round, mut dup_round, mut round_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut round = 0;
    while round < 2 || secs(started.elapsed()) < seconds {
        let round_start = Instant::now();
        let (mut f_sum, mut d_sum) = (0.0, 0.0);
        let mut trials = Vec::new();
        let mut cell = 0;
        for (b, program) in spec.benchmarks.iter().zip(&programs) {
            // An item is one program through every arm: its latency
            // spreads smoothly, where per-cell latencies cluster by arm.
            let (mut row_f, mut row_d) = (0.0, 0.0);
            for (label, cfg) in &arms {
                let name = format!("{}/{label}", b.name);
                let (res, f) = simulate(r, &name, program, *cfg, n, round == 0);
                let f = f * speed.factor();
                if round == 0 {
                    counts.add(program, *cfg, n, &res);
                    first.push(res.to_json());
                    trials.push(Trial {
                        bench: b.name,
                        config_label: label.clone(),
                        result: res.clone(),
                        wall: Duration::ZERO,
                    });
                }
                let (again, d) = simulate(r, &name, program, *cfg, n, false);
                let d = d * speed.factor();
                let expect = &first[cell];
                r.check(
                    res.to_json() == *expect && again.to_json() == *expect,
                    || format!("{name}: a repeated cell gave a different result"),
                );
                kips.push(res.stats.retired as f64 / f / 1e3);
                row_f += f;
                row_d += d;
                cell += 1;
            }
            fresh.push(row_f);
            dup.push(row_d);
            f_sum += row_f;
            d_sum += row_d;
        }
        if round == 0 {
            r.digest = digest(&doc(&spec, &trials));
        }
        fresh_round.push(f_sum);
        dup_round.push(d_sum);
        round_s.push(secs(round_start.elapsed()));
        round += 1;
    }
    r.round_s = median(&round_s);
    r.speed = speed.factors;
    // The gmean over cells, with the cells' quartiles and count.
    r.set(
        "kips",
        Summary {
            median: gmean(&kips),
            ..Summary::of(&kips)
        },
    );
    r.set("wall_s", Summary::of(&fresh_round));
    r.set("warm_s", Summary::of(&dup_round));
    latency_metrics(r, "fresh_p50_ms", "fresh_p90_ms", &fresh);
    latency_metrics(r, "dup_p50_ms", "dup_p90_ms", &dup);
    r.set(
        "peak_rss_mb",
        Summary::one(peak_rss_mb("self").unwrap_or(f64::NAN)),
    );
    Ok(counts)
}
