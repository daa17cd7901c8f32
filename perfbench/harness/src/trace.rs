//! Spans around calls into the workspace crates' public functions.
//!
//! Off by default: [`span`] is then a plain call behind one relaxed
//! atomic load. Switched on (`--trace 1`), every span records its total
//! and its self time (total minus the spans nested inside it) under its
//! name; a name's layer is the part before the first `.`, so the
//! per-layer self time is the sum over that layer's names.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static TOTALS: Mutex<BTreeMap<&'static str, Agg>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Child time accumulated by each open span on this thread.
    static OPEN: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
}

/// What one span name accumulated.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u128,
    pub self_ns: u128,
}

impl Agg {
    /// Mean total time per call, in milliseconds (0 with no calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` inside the span `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    OPEN.with(|s| s.borrow_mut().push(0));
    let start = Instant::now();
    let out = f();
    let total = start.elapsed().as_nanos();
    let children = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let children = s.pop().unwrap_or(0);
        if let Some(parent) = s.last_mut() {
            *parent += total;
        }
        children
    });
    let mut totals = TOTALS.lock().expect("span totals never poisoned");
    let agg = totals.entry(name).or_default();
    agg.calls += 1;
    agg.total_ns += total;
    agg.self_ns += total.saturating_sub(children);
    out
}

/// Everything recorded so far, by span name.
pub fn snapshot() -> BTreeMap<&'static str, Agg> {
    TOTALS.lock().expect("span totals never poisoned").clone()
}

/// One span name's record (zero when it never ran).
pub fn get(name: &str) -> Agg {
    snapshot().get(name).copied().unwrap_or_default()
}

/// Self time per layer (`sim`, `bench`, ...), in seconds.
pub fn layer_self_s() -> BTreeMap<String, f64> {
    let mut layers = BTreeMap::new();
    for (name, agg) in snapshot() {
        let layer = name.split('.').next().unwrap_or(name).to_string();
        *layers.entry(layer).or_insert(0.0) += agg.self_ns as f64 / 1e9;
    }
    layers
}

static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Adds `n` to the traced counter `name` (a no-op when tracing is off).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        *COUNTERS
            .lock()
            .expect("counters never poisoned")
            .entry(name)
            .or_default() += n;
    }
}

pub fn counter(name: &str) -> u64 {
    COUNTERS
        .lock()
        .expect("counters never poisoned")
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Forgets every span and counter recorded so far.
pub fn reset() {
    TOTALS.lock().expect("span totals never poisoned").clear();
    COUNTERS.lock().expect("counters never poisoned").clear();
}
