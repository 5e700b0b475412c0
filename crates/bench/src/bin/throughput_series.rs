//! Throughput benchmark for both server models: requests/sec, p50/p99
//! latency, and (with the `count-alloc` feature) allocations per
//! request, plus the paper's **Figure 9** / **Figures 10(a)–(d)**
//! per-class throughput curves behind `--series`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p staged-bench --features count-alloc \
//!     --bin throughput_series -- \
//!     --ebs 64 --scan-ns 0 --measure-secs 10 --json out.json
//! ```
//!
//! `--check-baseline PATH` compares the modified server's
//! allocations/request against a previously written `--json` artifact
//! and exits non-zero on a >20 % regression — the CI bench-smoke gate.

use staged_bench::{json_row, print_series, run_model_with, Experiment, Model};
use staged_core::RequestKind;
use staged_metrics::{SeriesPoint, Snapshot};
use staged_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[path = "../alloc_count.rs"]
mod alloc_count;

struct Args {
    exp: Experiment,
    series: bool,
    json: Option<String>,
    check_baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut exp = Experiment::default();
    let mut series = false;
    let mut json = None;
    let mut check_baseline = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--ebs" => exp.ebs = value(i).parse().expect("--ebs"),
            "--measure-secs" => {
                exp.measure =
                    std::time::Duration::from_secs_f64(value(i).parse().expect("--measure-secs"));
            }
            "--ramp-secs" => {
                exp.ramp =
                    std::time::Duration::from_secs_f64(value(i).parse().expect("--ramp-secs"));
            }
            "--scale" => {
                exp.scale = match value(i) {
                    "tiny" => staged_tpcw::ScaleConfig::tiny(),
                    "small" => staged_tpcw::ScaleConfig::small(),
                    "default" | "full" => staged_tpcw::ScaleConfig::default(),
                    other => panic!("unknown scale: {other}"),
                };
            }
            "--scan-ns" => exp.cost.scan_ns_per_row = value(i).parse().expect("--scan-ns"),
            "--db-cap" => exp.db_capacity = value(i).parse().expect("--db-cap"),
            "--series" => {
                series = true;
                i += 1;
                continue;
            }
            "--json" => json = Some(value(i).to_string()),
            "--check-baseline" => check_baseline = Some(value(i).to_string()),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --ebs N --measure-secs S --ramp-secs S \
                     --scale tiny|small|default --scan-ns N --db-cap N \
                     --series --json PATH --check-baseline PATH"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag: {other} (try --help)"),
        }
        i += 2;
    }

    Args {
        exp,
        series,
        json,
        check_baseline,
    }
}

fn merge(a: &[SeriesPoint], b: &[SeriesPoint]) -> Vec<SeriesPoint> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    for i in 0..a.len().max(b.len()) {
        let at = a
            .get(i)
            .or_else(|| b.get(i))
            .map(|p| p.at_secs)
            .unwrap_or(0.0);
        let va = a.get(i).map(|p| p.value).unwrap_or(0.0);
        let vb = b.get(i).map(|p| p.value).unwrap_or(0.0);
        out.push(SeriesPoint {
            at_secs: at,
            value: va + vb,
        });
    }
    out
}

struct ModelRow {
    model: Model,
    ebs: usize,
    requests_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    total_requests: u64,
    allocs_per_request: f64,
}

/// The `--json` artifact row shares the exporter's serialization path:
/// every numeric field is enumerated once here and rendered by
/// [`Snapshot::encode_json`]. `alloc_counting` is 1/0 (the trait emits
/// numbers); `--check-baseline` accepts both that and the older
/// `true`/`false` artifacts.
impl Snapshot for ModelRow {
    fn fields(&self, emit: &mut dyn FnMut(&'static str, f64)) {
        emit("ebs", self.ebs as f64);
        emit("requests_per_s", self.requests_per_s);
        emit("p50_ms", self.p50_ms);
        emit("p99_ms", self.p99_ms);
        emit("mean_ms", self.mean_ms);
        emit("total_requests", self.total_requests as f64);
        emit("allocs_per_request", self.allocs_per_request);
        emit(
            "alloc_counting",
            if alloc_count::enabled() { 1.0 } else { 0.0 },
        );
    }
}

/// Pulls one numeric field out of a `--json` artifact previously
/// written by this binary, for the named model. Hand-rolled on purpose:
/// the artifact format is ours, and the workspace carries no JSON
/// parser dependency.
fn baseline_field(json: &str, model: &str, field: &str) -> Option<f64> {
    let model_key = format!("\"model\":\"{model}\"");
    let obj_start = json.find(&model_key)?;
    let obj = &json[obj_start..];
    let obj_end = obj.find('}').unwrap_or(obj.len());
    let obj = &obj[..obj_end];
    let field_key = format!("\"{field}\":");
    let val_start = obj.find(&field_key)? + field_key.len();
    let rest = &obj[val_start..];
    let val_end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..val_end].trim().parse().ok()
}

fn main() {
    let args = parse_args();
    eprintln!(
        "throughput run: {} EBs, {:?} measure, scan {} ns/row, alloc counting {}",
        args.exp.ebs,
        args.exp.measure,
        args.exp.cost.scan_ns_per_row,
        if alloc_count::enabled() { "on" } else { "off" },
    );

    let mut outcomes = Vec::new();
    let mut rows = Vec::new();
    for model in [Model::Unmodified, Model::Modified] {
        eprintln!("running {} server…", model.label());
        let measure_start_allocs = Arc::new(AtomicU64::new(0));
        let snap = Arc::clone(&measure_start_allocs);
        let outcome = run_model_with(&args.exp, model, &[], move || {
            snap.store(alloc_count::total(), Ordering::Relaxed); // lint: allow(relaxed)
        });
        // The counter read lands after the workload threads join, so
        // the window includes each browser's final in-flight request —
        // a fixed tail that is identical for both models.
        let allocs =
            alloc_count::total().saturating_sub(measure_start_allocs.load(Ordering::Relaxed)); // lint: allow(relaxed)
        let report = &outcome.report;
        let total = report.total_interactions;
        rows.push(ModelRow {
            model,
            ebs: args.exp.ebs,
            requests_per_s: report.goodput_per_second(),
            p50_ms: report.overall_p50_ms,
            p99_ms: report.overall_p99_ms,
            mean_ms: report.overall_mean_ms,
            total_requests: total,
            allocs_per_request: if total > 0 && alloc_count::enabled() {
                allocs as f64 / total as f64
            } else {
                0.0
            },
        });
        outcomes.push((model, outcome));
    }

    if args.series {
        for (model, outcome) in &outcomes {
            print_series(
                &format!(
                    "Figure 9: total throughput per bucket, {} server",
                    model.label()
                ),
                &outcome.server.stats().total_series().counts_per_bucket(),
            );
        }
        for (kind, figure) in [
            (Some(RequestKind::Static), "Figure 10(a): static requests"),
            (None, "Figure 10(b): all dynamic requests"),
            (
                Some(RequestKind::QuickDynamic),
                "Figure 10(c): quick dynamic requests",
            ),
            (
                Some(RequestKind::LengthyDynamic),
                "Figure 10(d): lengthy dynamic requests",
            ),
        ] {
            for (model, outcome) in &outcomes {
                let stats = outcome.server.stats();
                let series = match kind {
                    Some(k) => stats.series(k).counts_per_bucket(),
                    None => merge(
                        &stats.series(RequestKind::QuickDynamic).counts_per_bucket(),
                        &stats
                            .series(RequestKind::LengthyDynamic)
                            .counts_per_bucket(),
                    ),
                };
                print_series(&format!("{figure}, {} server", model.label()), &series);
            }
        }
    }

    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "server", "req/s", "p50 (ms)", "p99 (ms)", "mean (ms)", "requests", "allocs/req"
    );
    println!("{}", "-".repeat(82));
    for row in &rows {
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.2} {:>10} {:>14.1}",
            row.model.label(),
            row.requests_per_s,
            row.p50_ms,
            row.p99_ms,
            row.mean_ms,
            row.total_requests,
            row.allocs_per_request,
        );
    }
    if let (Some(u), Some(m)) = (
        rows.iter().find(|r| r.model == Model::Unmodified),
        rows.iter().find(|r| r.model == Model::Modified),
    ) {
        if u.requests_per_s > 0.0 {
            println!(
                "modified vs unmodified: {:+.1}% requests/sec",
                (m.requests_per_s / u.requests_per_s - 1.0) * 100.0
            );
        }
    }

    let mut json_rows = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json_rows.push(',');
        }
        json_rows.push_str(&json_row(&[("model", row.model.label())], row));
    }
    json_rows.push(']');

    if let Some(path) = &args.json {
        std::fs::write(path, &json_rows).expect("write --json output");
        eprintln!("wrote {path}");
    }

    for (_, outcome) in outcomes {
        outcome.server.shutdown().expect("clean shutdown");
    }

    if let Some(path) = &args.check_baseline {
        let baseline = std::fs::read_to_string(path).expect("read --check-baseline file");
        let base_counting = baseline.contains("\"alloc_counting\":true")
            || baseline.contains("\"alloc_counting\":1");
        let base_allocs = baseline_field(&baseline, "modified", "allocs_per_request")
            .expect("baseline has allocs_per_request for the modified server");
        let current = rows
            .iter()
            .find(|r| r.model == Model::Modified)
            .map(|r| r.allocs_per_request)
            .unwrap_or(0.0);
        if !alloc_count::enabled() || !base_counting {
            eprintln!(
                "check-baseline: allocation counting disabled on one side; \
                 rebuild with --features count-alloc for an enforced check"
            );
            return;
        }
        let limit = base_allocs * 1.20;
        eprintln!(
            "check-baseline: {current:.1} allocs/request vs baseline {base_allocs:.1} (limit {limit:.1})"
        );
        if current > limit {
            eprintln!("check-baseline: FAIL — >20% allocations-per-request regression");
            std::process::exit(1);
        }
        eprintln!("check-baseline: OK");
    }
}
