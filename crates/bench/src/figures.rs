//! The paper's figure tables, rendered from a run's trials.
//!
//! `exp run` and `exp serve` print these in text mode for the committed
//! figure specs under `specs/`. The spec's `name` picks the renderer
//! (`fig4`…`fig7`, `ablations`). Each renderer has a fixed table shape:
//! hard-coded headers and column offsets over the spec's arms in grid
//! order. A spec with one of those names but a different arm count
//! renders nothing here, and `exp` falls back to its generic per-trial
//! table, so an edited spec never loses arms from the output.

use crate::{amean, gmean_speedup, speedup_pct, ExperimentSpec, Table, Trial};
use rix_integration::{IntegrationStats, IntegrationType, ResultStatus};

/// fig4's arms: baseline, then (realistic, oracle) per extension arm.
const FIG4_ARMS: usize = 1 + 2 * 4;
/// fig6's associativity and size points (the spec's two groups), each
/// a (realistic, oracle) pair after the baseline.
const N_ASSOC: usize = 4;
const N_SIZE: usize = 4;
const FIG6_ARMS: usize = 1 + 2 * N_ASSOC + 2 * N_SIZE;
/// fig7's core design points (the spec's core axis), each (none,
/// integration, oracle) after the reference machine.
const N_CORES: usize = 4;
const FIG7_ARMS: usize = 1 + 3 * N_CORES;
/// The ablation studies' points, one spec group per study.
const GEN_BITS: [u32; 4] = [1, 2, 3, 4];
const COUNT_BITS: [u32; 4] = [1, 2, 3, 4];
const PIPE_DEPTHS: [u64; 4] = [0, 2, 4, 8];
const REV_SCOPES: [&str; 3] = ["off", "stack pointer", "all invertible"];
const ABLATION_ARMS: usize =
    GEN_BITS.len() + COUNT_BITS.len() + PIPE_DEPTHS.len() + REV_SCOPES.len();

/// A figure's table renderer over its trials (`true` asks for fig4's
/// diagnostics).
type Renderer = fn(&[Trial], bool) -> String;

/// The tables of the paper figure `spec` reproduces, as printed text,
/// or `None` when `spec.name` names no figure or its arms do not have
/// the shape that figure's tables render. `diagnostics` adds fig4's
/// §3.2 secondary metrics and is ignored by the other figures.
#[must_use]
pub fn render(spec: &ExperimentSpec, trials: &[Trial], diagnostics: bool) -> Option<String> {
    let (arms, render): (usize, Renderer) = match spec.name.as_deref()? {
        "fig4" => (FIG4_ARMS, fig4),
        "fig5" => (1, |t, _| fig5(t)),
        "fig6" => (FIG6_ARMS, |t, _| fig6(t)),
        "fig7" => (FIG7_ARMS, |t, _| fig7(t)),
        "ablations" => (ABLATION_ARMS, |t, _| ablations(t)),
        _ => return None,
    };
    let shaped = spec.arms().ok()?.len() == arms && trials.len().is_multiple_of(arms);
    shaped.then(|| render(trials, diagnostics))
}

/// Figure 4: impact of general reuse, opcode indexing, and speculative
/// memory bypassing.
///
/// Top graph — speedups over the no-integration baseline for the four
/// cumulative extension arms, each with a realistic LISP and with oracle
/// mis-integration suppression. Bottom graph — integration rates split
/// into direct and reverse, with mis-integrations per million retired
/// instructions (the number printed atop each bar in the paper).
///
/// `diagnostics` appends the §3.2 secondary metrics: mis-prediction
/// resolution latency, fetched-instruction delta, and reservation-station
/// occupancy.
fn fig4(trials: &[Trial], diagnostics: bool) -> String {
    let narms = (FIG4_ARMS - 1) / 2;
    let mut speedup = Table::new(&[
        "bench",
        "squash",
        "squash*",
        "+general",
        "+general*",
        "+opcode",
        "+opcode*",
        "+reverse",
        "+reverse*",
    ]);
    let mut rates = Table::new(&[
        "bench",
        "squash",
        "+general",
        "+opcode",
        "+reverse(dir+rev)",
        "mis/M",
    ]);
    let mut diag = Table::new(&[
        "bench", "baseIPC", "IPC", "resolve0", "resolve1", "fetch%", "RS0", "RS1",
    ]);

    let mut per_arm_speedups: Vec<Vec<f64>> = vec![Vec::new(); narms * 2];
    let mut per_arm_rates: Vec<Vec<f64>> = vec![Vec::new(); narms];
    let mut reverse_rates: Vec<f64> = Vec::new();
    let mut mis_rates: Vec<f64> = Vec::new();

    for row in trials.chunks(FIG4_ARMS) {
        let bench = row[0].bench;
        let mut srow = vec![bench.to_string()];
        speedup_pairs(row, 1, &mut srow, &mut per_arm_speedups);
        speedup.row(srow);

        let mut rrow = vec![bench.to_string()];
        for (ai, series) in per_arm_rates.iter_mut().enumerate() {
            let rate = row[1 + 2 * ai].result.stats.integration.rate() * 100.0;
            series.push(rate);
            rrow.push(format!("{rate:.1}%"));
        }
        // The last arm (+reverse, realistic) splits its rate into
        // direct+reverse and adds mis-integrations per million.
        let last = &row[FIG4_ARMS - 2].result;
        let s = &last.stats.integration;
        rrow[narms] = format!(
            "{:.1}% ({:.1}+{:.1})",
            s.rate() * 100.0,
            s.direct_rate() * 100.0,
            s.reverse_rate() * 100.0
        );
        rrow.push(format!("{:.0}", s.mis_per_million()));
        reverse_rates.push(s.reverse_rate() * 100.0);
        mis_rates.push(s.mis_per_million());
        rates.row(rrow);

        if diagnostics {
            let base = &row[0].result;
            diag.row(vec![
                bench.to_string(),
                format!("{:.2}", base.ipc()),
                format!("{:.2}", last.ipc()),
                format!("{:.1}", base.stats.branch_resolution_latency()),
                format!("{:.1}", last.stats.branch_resolution_latency()),
                format!(
                    "{:+.1}",
                    (last.stats.fetched as f64 / base.stats.fetched.max(1) as f64 - 1.0) * 100.0
                ),
                format!("{:.1}", base.stats.avg_rs_occupancy()),
                format!("{:.1}", last.stats.avg_rs_occupancy()),
            ]);
        }
    }

    // Means rows (geometric for speedups, arithmetic for rates — §3.2).
    speedup.row(gmean_row(&per_arm_speedups));
    let mut mean_r = vec!["AMean".to_string()];
    mean_r.extend(per_arm_rates.iter().map(|v| format!("{:.1}%", amean(v))));
    let (total, rev) = (amean(&per_arm_rates[narms - 1]), amean(&reverse_rates));
    mean_r[narms] = format!("{:.1}% ({:.1}+{:.1})", total, total - rev, rev);
    mean_r.push(format!("{:.0}", amean(&mis_rates)));
    rates.row(mean_r);

    let mut out = format!(
        "Figure 4 (top): speedup per extension arm ('*' = oracle suppression)\n{}\n\
         Figure 4 (bottom): integration rate at retirement, realistic LISP\n{}\n",
        speedup.render(),
        rates.render()
    );
    if diagnostics {
        out.push_str(&format!(
            "§3.2 diagnostics (baseline vs +reverse): resolution latency, fetched delta, RS \
             occupancy\n{}\n",
            diag.render()
        ));
    }
    out
}

/// `n` as a percentage of `d`, or `-` when `d` is zero.
fn pct(n: u64, d: u64) -> String {
    if d == 0 {
        "-".into()
    } else {
        format!("{:.1}", n as f64 / d as f64 * 100.0)
    }
}

/// Figure 5: breakdowns of the integration retirement stream under the
/// default configuration (1K-entry 4-way IT, realistic LISP).
///
/// Four stacked-bar breakdowns, printed as percentage tables with the
/// paper's direct/reverse split (`d+r`):
///
/// * **Type** — stack-pointer loads, other loads, ALU, branches, FP,
/// * **Distance** — renamed instructions between entry creator and
///   integrator (pipelinability of integration),
/// * **Status** — result state when the integrating instruction renamed
///   (rename / issue / retire / shadow-squash),
/// * **Refcount** — reference count after integration (sharing degree,
///   i.e. how many counter bits matter).
fn fig5(trials: &[Trial]) -> String {
    let mut ty = Table::new(&["bench", "rate%", "load sp", "load", "ALU", "branch", "FP"]);
    let mut dist = Table::new(&["bench", "<=4", "<=16", "<=64", "<=256", "<=1024", ">1024"]);
    let mut status = Table::new(&["bench", "rename", "issue", "retire", "shadow/squash"]);
    let mut refc = Table::new(&["bench", "1", "<=3", "<=7", "<=15"]);
    // One `direct+reverse` cell per bucket, as a share of `total`.
    let split = |bench: &str, buckets: &[[u64; 2]], total: u64| -> Vec<String> {
        let cells = buckets
            .iter()
            .map(|b| format!("{}+{}", pct(b[0], total), pct(b[1], total)));
        std::iter::once(bench.to_string()).chain(cells).collect()
    };

    for t in trials {
        let s = &t.result.stats.integration;
        let total = s.integrations();
        let by_type: Vec<[u64; 2]> = IntegrationType::ALL
            .iter()
            .map(|ity| s.by_type[ity.index()])
            .collect();
        let mut row = split(t.bench, &by_type, total);
        row.insert(1, format!("{:.1}", s.rate() * 100.0));
        ty.row(row);
        dist.row(split(t.bench, &s.by_distance, total));
        let by_status: Vec<[u64; 2]> = ResultStatus::ALL
            .iter()
            .map(|st| s.by_status[st.index()])
            .collect();
        status.row(split(t.bench, &by_status, total));
        let value_total: u64 = s.by_refcount.iter().map(|b| b[0] + b[1]).sum();
        refc.row(split(t.bench, &s.by_refcount, value_total));
    }

    format!(
        "Figure 5 breakdowns (each cell: direct+reverse, % of integrations)\n\n\
         Type:\n{}\n\
         Distance (renamed instructions creator→integrator):\n{}\n\
         Status (result state at integration):\n{}\n\
         Refcount (count after integration; value integrations only):\n{}\n",
        ty.render(),
        dist.render(),
        status.render(),
        refc.render()
    )
}

/// One `(real, oracle)` speedup pair per point of a sweep whose arms
/// start at `row[first]`: appends the `+x.y%` cells to `cells` and the
/// raw speedups to `means` (two series per point).
fn speedup_pairs(row: &[Trial], first: usize, cells: &mut Vec<String>, means: &mut [Vec<f64>]) {
    let base = &row[0].result;
    for (i, pair) in means.chunks_mut(2).enumerate() {
        for (k, series) in pair.iter_mut().enumerate() {
            let sp = speedup_pct(&row[first + 2 * i + k].result, base);
            cells.push(format!("{sp:+.1}%"));
            series.push(sp);
        }
    }
}

/// A `GMean` row over per-column speedup series.
fn gmean_row(means: &[Vec<f64>]) -> Vec<String> {
    let mut row = vec!["GMean".to_string()];
    row.extend(means.iter().map(|v| format!("{:+.1}%", gmean_speedup(v))));
    row
}

/// Figure 6: impact of integration-table associativity and size.
///
/// Left — 1K-entry IT at associativities 1, 2, 4 and full, each with a
/// realistic LISP and with oracle suppression; the paper's finding is
/// that low associativity degrades integration gracefully (mis-
/// integrations dampen the benefit of more ways).
///
/// Right — fully-associative, LRU-managed ITs of 64, 256, 1K and 4K
/// entries (the 4K point also uses 4K physical registers), measuring the
/// temporal locality of integration.
fn fig6(trials: &[Trial]) -> String {
    let mut assoc = Table::new(&[
        "bench", "1-way", "1-way*", "2-way", "2-way*", "4-way", "4-way*", "full", "full*",
    ]);
    let mut size = Table::new(&[
        "bench", "64", "64*", "256", "256*", "1K", "1K*", "4K", "4K*",
    ]);
    let mut assoc_means = vec![Vec::new(); N_ASSOC * 2];
    let mut size_means = vec![Vec::new(); N_SIZE * 2];

    for row in trials.chunks(FIG6_ARMS) {
        let mut arow = vec![row[0].bench.to_string()];
        speedup_pairs(row, 1, &mut arow, &mut assoc_means);
        assoc.row(arow);
        let mut srow = vec![row[0].bench.to_string()];
        speedup_pairs(row, 1 + 2 * N_ASSOC, &mut srow, &mut size_means);
        size.row(srow);
    }
    assoc.row(gmean_row(&assoc_means));
    size.row(gmean_row(&size_means));

    format!(
        "Figure 6 (left): IT associativity at 1K entries ('*' = oracle)\n{}\n\
         Figure 6 (right): fully-associative IT size ('*' = oracle; 4K uses 4K pregs)\n{}\n",
        assoc.render(),
        size.render()
    )
}

/// Figure 7: trading integration complexity for execution-core
/// complexity (§3.5).
///
/// Four machines — `base` (4-way issue, 40 RS), `RS` (20 RS), `IW`
/// (3-way issue, single load/store port), `IW+RS` (both) — each run
/// without integration, with the realistic default integration, and with
/// oracle suppression. Speedups are relative to `base` *without*
/// integration, and the base IPC row is printed below the table, exactly
/// as the paper annotates the figure.
///
/// The paper's claim to check: integration (a ~17% execution-stream
/// reduction) recovers most of the loss from a 25% issue-width cut or a
/// 50% buffering cut.
fn fig7(trials: &[Trial]) -> String {
    let mut t = Table::new(&[
        "bench", "base", "base+i", "base*", "RS", "RS+i", "RS*", "IW", "IW+i", "IW*", "IW+RS",
        "IW+RS+i", "IW+RS*",
    ]);
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); N_CORES * 3];
    let mut base_ipcs: Vec<String> = Vec::new();

    for row_trials in trials.chunks(FIG7_ARMS) {
        let bench = row_trials[0].bench;
        let reference = &row_trials[0].result;
        base_ipcs.push(format!("{}={:.2}", bench, reference.ipc()));
        let mut row = vec![bench.to_string()];
        for (j, series) in means.iter_mut().enumerate() {
            let sp = speedup_pct(&row_trials[1 + j].result, reference);
            row.push(format!("{sp:+.1}%"));
            series.push(sp);
        }
        t.row(row);
    }
    t.row(gmean_row(&means));

    format!(
        "Figure 7: reduced-complexity engines, speedup vs base-without-integration\n\
         (+i = realistic integration, * = oracle suppression)\n\n{}\n\
         Base IPC per benchmark (printed under the paper's figure):\n{}\n",
        t.render(),
        base_ipcs.join("  ")
    )
}

/// Ablations of the design choices the paper calls out in prose:
///
/// 1. **Generation-counter width** (§2.2): N-bit counters cut register
///    mis-integrations by 2^N (one input) / 2^2N (two inputs); "four-bit
///    counters eliminate virtually all register mis-integrations".
/// 2. **Reference-counter width** (§3.3): saturation makes narrow
///    counters degrade gracefully — a saturated register simply spawns a
///    fresh copy that subsequent instructions integrate instead.
/// 3. **Integration pipelining** (§3.3): separating the IT read and
///    write stages by 4 instructions (a 4-wide machine's pipelined
///    integration circuit) should cost at most ~20% of integrations.
/// 4. **Reverse-entry scope** (§2.4): the paper restricts reverse entries
///    to stack-pointer stores/adjusts to save IT capacity; the
///    generalised all-invertible scope trades capacity for coverage.
///
/// Every point runs over the headline `plus_reverse` configuration; each
/// cell is the arithmetic mean across benchmarks.
fn ablations(trials: &[Trial]) -> String {
    // `column(j)` = arm j's integration stats across all benchmarks.
    let column = |j: usize| {
        trials
            .iter()
            .skip(j)
            .step_by(ABLATION_ARMS)
            .map(|t| &t.result.stats.integration)
    };
    let per_million = |n: u64, retired: u64| n as f64 * 1e6 / retired.max(1) as f64;
    let mean_rate = |j: usize| amean(&column(j).map(|s| s.rate() * 100.0).collect::<Vec<_>>());
    let mut col = 0;

    let mut gen_t = Table::new(&["gen bits", "rate%", "register mis/M", "load mis/M"]);
    for bits in GEN_BITS {
        let reg_mis: Vec<f64> = column(col)
            .map(|s| per_million(s.register_mis_integrations, s.retired))
            .collect();
        let load_mis: Vec<f64> = column(col)
            .map(|s| per_million(s.load_mis_integrations, s.retired))
            .collect();
        gen_t.row(vec![
            bits.to_string(),
            format!("{:.1}", mean_rate(col)),
            format!("{:.0}", amean(&reg_mis)),
            format!("{:.0}", amean(&load_mis)),
        ]);
        col += 1;
    }

    let mut cnt_t = Table::new(&["count bits", "rate%", "saturation note"]);
    for bits in COUNT_BITS {
        cnt_t.row(vec![
            bits.to_string(),
            format!("{:.1}", mean_rate(col)),
            "saturated registers respawn (§3.3)".into(),
        ]);
        col += 1;
    }

    let mut pipe_t = Table::new(&["pipeline depth", "rate%", "loss vs atomic"]);
    let atomic_rate = mean_rate(col); // depth 0, the first point
    for depth in PIPE_DEPTHS {
        let rate = mean_rate(col);
        pipe_t.row(vec![
            depth.to_string(),
            format!("{rate:.1}"),
            if depth == 0 {
                "-".into()
            } else {
                format!("{:.0}%", (1.0 - rate / atomic_rate) * 100.0)
            },
        ]);
        col += 1;
    }

    let mut rev_t = Table::new(&["reverse scope", "rate%", "reverse%", "mis/M"]);
    for name in REV_SCOPES {
        let revs: Vec<f64> = column(col).map(|s| s.reverse_rate() * 100.0).collect();
        let mis: Vec<f64> = column(col).map(IntegrationStats::mis_per_million).collect();
        rev_t.row(vec![
            name.into(),
            format!("{:.1}", mean_rate(col)),
            format!("{:.1}", amean(&revs)),
            format!("{:.0}", amean(&mis)),
        ]);
        col += 1;
    }

    format!(
        "Ablation 1 — generation-counter width (§2.2):\n{}\n\
         Ablation 2 — reference-counter width (§3.3):\n{}\n\
         Ablation 3 — integration pipelining (§3.3, read/write separation):\n{}\n\
         Ablation 4 — reverse-entry scope (§2.4):\n{}\n",
        gen_t.render(),
        cnt_t.render(),
        pipe_t.render(),
        rev_t.render()
    )
}
