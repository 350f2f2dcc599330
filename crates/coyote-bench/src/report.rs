//! Report rendering for the experiment harness.
//!
//! Every experiment driver returns structured data; this module renders it
//! as the aligned text tables the `experiments` binary prints and as CSV.
//! Each tabular report declares its columns once ([`SWEEP_COLUMNS`],
//! [`RATIO_COLUMNS`], [`CONFORMANCE_COLUMNS`], [`pareto_columns`],
//! [`FAILURE_COLUMNS`]); [`text_table`] and [`csv_table`] render any column
//! list, and the `*_footer` functions add each report's summary line. JSON
//! goes through `serde_json` on the already-`Serialize` report types.

use crate::conformance::{ConformanceRecord, ConformanceReport, ParetoPoint, ParetoReport};
use crate::failures::{FailureRecord, FailureReport, ModeOutcome};
use crate::scenario::ProtocolRatios;
use crate::sweep::{SweepRecord, SweepReport};
use coyote_obs::Snapshot;

/// Renders an aligned text table. The first row is the header.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let padded: Vec<String> = cells
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1));
    let mut out = line(&mut headers.iter().copied()) + &rule + "\n";
    for row in rows {
        out += &line(&mut row.iter().map(String::as_str));
    }
    out
}

/// Formats a ratio with two decimals (the precision Table I uses).
pub fn ratio(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "inf".to_string()
    }
}

/// Formats a percentage with one decimal.
pub fn percent(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// A labelled series of (x, y) points — one line of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The (x, y) points in x order.
    pub points: Vec<(f64, f64)>,
}

/// Renders several series sharing the same x values as one table with an
/// `x` column followed by one column per series.
pub fn format_series(x_label: &str, series: &[Series]) -> String {
    let mut headers: Vec<&str> = vec![x_label];
    for s in series {
        headers.push(&s.label);
    }
    let xs: Vec<f64> = series
        .first()
        .map(|s| s.points.iter().map(|&(x, _)| x).collect())
        .unwrap_or_default();
    let rows: Vec<Vec<String>> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let mut row = vec![format!("{x:.1}")];
            for s in series {
                row.push(
                    s.points
                        .get(i)
                        .map(|&(_, y)| ratio(y))
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            row
        })
        .collect();
    format_table(&headers, &rows)
}

/// Output format of the `experiments` binary (`--format` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Aligned human-readable tables (the default).
    #[default]
    Text,
    /// Pretty-printed JSON (the full structured result).
    Json,
    /// One comma-separated row per scenario/record.
    Csv,
}

impl std::str::FromStr for ReportFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(Self::Text),
            "json" => Ok(Self::Json),
            "csv" => Ok(Self::Csv),
            other => Err(format!("unknown format {other:?} (expected json|csv|text)")),
        }
    }
}

/// One column of a tabular report over rows of type `R`: its CSV header,
/// its text-table label and how one row renders in each format.
pub struct Column<R> {
    /// CSV header; `None` for a column shown only in the text table.
    name: Option<Name>,
    /// Text-table label; `None` for a column exported only to CSV.
    label: Option<Name>,
    cell: Cell<R>,
}

/// A CSV header or text-table label.
type Name = &'static str;

/// How a column renders one row.
enum Cell<R> {
    /// The same string in both formats.
    Same(fn(&R) -> String),
    /// A number and its text and CSV formatters.
    Num(fn(&R) -> f64, fn(f64) -> String, fn(f64) -> String),
    /// Separate text and CSV renderings.
    Split(fn(&R) -> String, fn(&R) -> String),
}

impl<R> Column<R> {
    const fn with(name: Option<Name>, label: Option<Name>, cell: Cell<R>) -> Self {
        Self { name, label, cell }
    }

    /// A column rendered the same in both formats.
    pub const fn same(name: Name, label: Name, cell: fn(&R) -> String) -> Self {
        Self::with(Some(name), Some(label), Cell::Same(cell))
    }

    /// A numeric column: `fmt` formats it for the table; CSV keeps full
    /// `f64` precision, so reports can be diffed across runs and thread
    /// counts.
    pub const fn num(name: Name, label: Name, fmt: fn(f64) -> String, get: fn(&R) -> f64) -> Self {
        let cell = Cell::Num(get, fmt, |v| v.to_string());
        Self::with(Some(name), Some(label), cell)
    }

    /// A column rendered differently in each format.
    pub const fn split(
        name: Name,
        label: Name,
        text: fn(&R) -> String,
        csv: fn(&R) -> String,
    ) -> Self {
        Self::with(Some(name), Some(label), Cell::Split(text, csv))
    }

    /// A column exported only to CSV.
    pub const fn csv(name: Name, cell: fn(&R) -> String) -> Self {
        Self::with(Some(name), None, Cell::Same(cell))
    }

    /// A column shown only in the text table: a derived value, or one the
    /// table places elsewhere than the CSV does.
    pub const fn text(label: Name, cell: fn(&R) -> String) -> Self {
        Self::with(None, Some(label), Cell::Same(cell))
    }

    /// The per-record wall-clock column every grid report ends with.
    pub const fn wall_secs(value: fn(&R) -> f64) -> Self {
        let cell = Cell::Num(value, |v| format!("{v:.2}s"), |v| format!("{v:.6}"));
        Self::with(Some("wall_secs"), Some("wall"), cell)
    }

    fn text_cell(&self, row: &R) -> String {
        match &self.cell {
            Cell::Same(f) | Cell::Split(f, _) => f(row),
            Cell::Num(value, text, _) => text(value(row)),
        }
    }

    fn csv_cell(&self, row: &R) -> String {
        match &self.cell {
            Cell::Same(f) | Cell::Split(_, f) => f(row),
            Cell::Num(value, _, csv) => csv(value(row)),
        }
    }
}

/// Renders `rows` as an aligned text table of the labelled columns.
pub fn text_table<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let shown: Vec<&Column<R>> = columns.iter().filter(|c| c.label.is_some()).collect();
    let headers: Vec<&str> = shown.iter().filter_map(|c| c.label).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| shown.iter().map(|c| c.text_cell(r)).collect())
        .collect();
    format_table(&headers, &cells)
}

/// Renders `rows` as CSV: one header line of the named columns, then one
/// line per row, in order.
pub fn csv_table<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let shown: Vec<&Column<R>> = columns.iter().filter(|c| c.name.is_some()).collect();
    let header: Vec<&str> = shown.iter().filter_map(|c| c.name).collect();
    let mut out = header.join(",") + "\n";
    for r in rows {
        let cells: Vec<String> = shown.iter().map(|c| c.csv_cell(r)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// `v` with `D` decimals.
fn fixed<const D: usize>(v: f64) -> String {
    format!("{v:.D$}")
}

/// `v` with `digits` decimals, or `missing` when there is no value.
fn maybe(v: Option<f64>, digits: usize, missing: &str) -> String {
    v.map_or_else(|| missing.to_string(), |v| format!("{v:.digits$}"))
}

/// The columns of a sweep report, one row per [`SweepRecord`].
#[rustfmt::skip]
pub const SWEEP_COLUMNS: &[Column<SweepRecord>] = &[
    Column::same("topology", "network", |r| r.spec.topology.clone()),
    Column::same("model", "model", |r| r.spec.model.name().to_string()),
    Column::csv("heuristic", |r| r.spec.heuristic.name().to_string()),
    Column::num("margin", "margin", fixed::<1>, |r| r.spec.margin),
    Column::csv("effort", |r| format!("{:?}", r.spec.effort)),
    Column::num("ecmp", "ECMP", ratio, |r| r.ratios.ecmp),
    Column::num("base", "Base", ratio, |r| r.ratios.base),
    Column::num("coyote_oblivious", "COYOTE obl.", ratio, |r| r.ratios.coyote_oblivious),
    Column::num("coyote_partial", "COYOTE par.know.", ratio, |r| r.ratios.coyote_partial),
    Column::wall_secs(|r| r.wall_secs),
];

/// The sweep report's timing footer.
pub fn sweep_footer(report: &SweepReport) -> String {
    format!(
        "{} scenarios on {} thread(s): {:.2}s wall, {:.2}s cpu ({:.2}x speedup)\n",
        report.scenarios,
        report.threads,
        report.wall_secs,
        report.cpu_secs(),
        if report.wall_secs > 0.0 {
            report.cpu_secs() / report.wall_secs
        } else {
            1.0
        },
    )
}

/// The columns of bare [`ProtocolRatios`] rows: Table I and the margin
/// figures' CSV.
#[rustfmt::skip]
pub const RATIO_COLUMNS: &[Column<ProtocolRatios>] = &[
    Column::same("topology", "network", |r| r.topology.clone()),
    Column::num("margin", "margin", fixed::<1>, |r| r.margin),
    Column::num("ecmp", "ECMP", ratio, |r| r.ecmp),
    Column::num("base", "Base", ratio, |r| r.base),
    Column::num("coyote_oblivious", "COYOTE obl.", ratio, |r| r.coyote_oblivious),
    Column::num("coyote_partial", "COYOTE par.know.", ratio, |r| r.coyote_partial),
];

/// The columns of a conformance report, one row per
/// [`ConformanceRecord`]; CSV flattens the two simulated matrices.
#[rustfmt::skip]
pub const CONFORMANCE_COLUMNS: &[Column<ConformanceRecord>] = &[
    Column::same("topology", "network", |r| r.spec.topology.clone()),
    Column::same("model", "model", |r| r.spec.model.name().to_string()),
    Column::csv("heuristic", |r| r.spec.heuristic.name().to_string()),
    Column::num("margin", "margin", fixed::<1>, |r| r.spec.margin),
    Column::csv("effort", |r| format!("{:?}", r.spec.effort)),
    Column::split("faithful", "faithful",
        |r| if r.faithful { "yes" } else { "NO" }.to_string(), |r| r.faithful.to_string()),
    // The text table shows the fake count before the split error.
    Column::text("fakes", |r| r.fake_nodes.to_string()),
    Column::csv("dags_match", |r| r.dags_match.to_string()),
    Column::num("max_split_error", "split err", fixed::<4>, |r| r.max_split_error),
    Column::csv("fake_nodes", |r| r.fake_nodes.to_string()),
    Column::csv("prefix_advertisements", |r| r.prefix_advertisements.to_string()),
    Column::csv("compression", |r| r.compression.clone()),
    Column::csv("max_fake_nodes_per_destination", |r| r.max_fake_nodes_per_destination.to_string()),
    Column::csv("base_intended_util", |r| r.base.intended.max_utilization.to_string()),
    Column::csv("base_realized_util", |r| r.base.realized.max_utilization.to_string()),
    Column::csv("worst_intended_util", |r| r.worst.intended.max_utilization.to_string()),
    Column::csv("worst_realized_util", |r| r.worst.realized.max_utilization.to_string()),
    Column::csv("base_intended_drop", |r| r.base.intended.drop_rate.to_string()),
    Column::csv("base_realized_drop", |r| r.base.realized.drop_rate.to_string()),
    Column::csv("worst_intended_drop", |r| r.worst.intended.drop_rate.to_string()),
    Column::csv("worst_realized_drop", |r| r.worst.realized.drop_rate.to_string()),
    Column::num("max_utilization_delta", "util Δ", fixed::<4>, |r| r.max_utilization_delta),
    Column::num("drop_rate_delta", "drop Δ", fixed::<4>, |r| r.drop_rate_delta),
    Column::split("within_tolerance", "verdict",
        |r| if r.within_tolerance { "pass" } else { "FAIL" }.to_string(),
        |r| r.within_tolerance.to_string()),
    Column::wall_secs(|r| r.wall_secs),
];

/// The conformance report's verdict footer.
pub fn conformance_footer(report: &ConformanceReport) -> String {
    format!(
        "{}/{} cells within tolerance {} (compression {}, {} fake nodes) on \
         {} thread(s): {:.2}s wall, {:.2}s cpu\n",
        report.pass_count(),
        report.cells,
        report.tolerance,
        report.compression,
        report.total_fake_nodes(),
        report.threads,
        report.wall_secs,
        report.cpu_secs(),
    )
}

/// One row of the Pareto table: a point and the report's cell count.
pub type ParetoRow<'a> = (&'a ParetoPoint, usize);

/// The rows of a compression Pareto sweep, one per level in sweep order.
pub fn pareto_rows(report: &ParetoReport) -> Vec<ParetoRow<'_>> {
    report.points.iter().map(|p| (p, report.cells)).collect()
}

/// The columns of a compression Pareto sweep over [`pareto_rows`] (a
/// function rather than a constant because the rows borrow the report).
#[rustfmt::skip]
pub fn pareto_columns<'a>() -> [Column<ParetoRow<'a>>; 8] {
    [
        Column::same("level", "level", |(p, _)| p.level.clone()),
        Column::csv("epsilon", |(p, _)| p.epsilon.to_string()),
        Column::same("fake_nodes", "fakes", |(p, _)| p.fake_nodes.to_string()),
        Column::same("prefix_advertisements", "adverts",
            |(p, _)| p.prefix_advertisements.to_string()),
        Column::num("fake_node_ratio", "ratio", fixed::<3>, |(p, _)| p.fake_node_ratio),
        Column::num("max_split_error", "split err", fixed::<4>, |(p, _)| p.max_split_error),
        Column::num("max_utilization_delta", "util Δ", fixed::<4>,
            |(p, _)| p.max_utilization_delta),
        Column::split("cells_within_tolerance", "pass",
            |(p, cells)| format!("{}/{cells}", p.cells_within_tolerance),
            |(p, _)| p.cells_within_tolerance.to_string()),
    ]
}

/// The Pareto sweep's footer.
pub fn pareto_footer(report: &ParetoReport) -> String {
    format!(
        "{} levels x {} cells, tolerance {}, on {} thread(s): {:.2}s wall\n",
        report.points.len(),
        report.cells,
        report.tolerance,
        report.threads,
        report.wall_secs,
    )
}

fn utilization(mode: &Option<ModeOutcome>) -> Option<f64> {
    mode.as_ref().map(|m| m.max_utilization)
}

fn drop_rate(mode: &Option<ModeOutcome>) -> Option<f64> {
    mode.as_ref().map(|m| m.sim.drop_rate)
}

/// The columns of a failure report, one row per [`FailureRecord`]. A
/// missing mode (a captured reconvergence or re-optimization failure)
/// renders as `-` in text and as empty fields in CSV, never as NaN.
#[rustfmt::skip]
pub const FAILURE_COLUMNS: &[Column<FailureRecord>] = &[
    Column::csv("cell", |r| r.cell.clone()),
    Column::same("topology", "network", |r| r.spec.topology.clone()),
    Column::same("model", "model", |r| r.spec.model.name().to_string()),
    Column::csv("margin", |r| r.spec.margin.to_string()),
    Column::same("event", "event", |r| r.event.id()),
    Column::csv("verdict", |r| r.outcome.name().to_string()),
    Column::split("oblivious_util", "obl util",
        |r| maybe(utilization(&r.oblivious), 3, "-"), |r| maybe(utilization(&r.oblivious), 6, "")),
    Column::split("oblivious_drop", "obl drop",
        |r| maybe(drop_rate(&r.oblivious), 4, "-"), |r| maybe(drop_rate(&r.oblivious), 6, "")),
    Column::csv("oblivious_unrouted",
        |r| maybe(r.oblivious.as_ref().map(|m| m.sim.unrouted), 6, "")),
    Column::split("reoptimized_util", "reopt util",
        |r| maybe(utilization(&r.reoptimized), 3, "-"),
        |r| maybe(utilization(&r.reoptimized), 6, "")),
    Column::csv("reoptimized_drop", |r| maybe(drop_rate(&r.reoptimized), 6, "")),
    Column::split("degradation_ratio", "degr",
        |r| maybe(r.degradation_ratio, 3, "-"), |r| maybe(r.degradation_ratio, 6, "")),
    Column::same("fake_lsa_delta", "ΔLSA", |r| r.fake_lsa_delta.to_string()),
    Column::text("lost vol", |r| fixed::<3>(r.dead_demand_volume + r.unroutable_volume)),
    // The text table shows the verdict last.
    Column::text("verdict", |r| r.outcome.name().to_string()),
    Column::csv("dead_demand_volume", |r| fixed::<6>(r.dead_demand_volume)),
    Column::csv("unroutable_volume", |r| fixed::<6>(r.unroutable_volume)),
    Column::wall_secs(|r| r.wall_secs),
];

/// The failure report's verdict footer: the within/degraded/unroutable
/// split, the worst degradation ratio and the total lost demand volume.
pub fn failures_footer(report: &FailureReport) -> String {
    format!(
        "{} within / {} degraded / {} unroutable of {} cells, tolerance {}, \
         worst degradation {}, {:.3} demand units lost, on {} thread(s): \
         {:.2}s wall, {:.2}s cpu\n",
        report.within_count(),
        report.degraded_count(),
        report.unroutable_count(),
        report.cells,
        report.tolerance,
        maybe(report.worst_degradation_ratio(), 3, "-"),
        report.lost_volume(),
        report.threads,
        report.wall_secs,
        report.cpu_secs(),
    )
}

/// Formats a nanosecond quantity as seconds with millisecond precision.
fn secs(nanos: u128) -> String {
    format!("{:.3}s", nanos as f64 / 1e9)
}

/// Renders the `--profile` footer appended to text reports: a per-stage
/// wall-time table (one row per span name, from the snapshot's `timings`
/// section) followed by the deterministic workload counters. Stages are
/// sorted by total time, counters alphabetically — the table answers
/// "where did the time go", the counters "how much work was that".
pub fn profile_text(snapshot: &Snapshot) -> String {
    let mut out = String::from("\n== profile: per-stage wall time ==\n");
    if snapshot.timings.is_empty() {
        out.push_str("(no spans recorded)\n");
    } else {
        let mut stages: Vec<(&String, &coyote_obs::HistogramSnapshot)> =
            snapshot.timings.iter().collect();
        stages.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then_with(|| a.0.cmp(b.0)));
        let rows: Vec<Vec<String>> = stages
            .iter()
            .map(|(name, h)| {
                vec![
                    (*name).clone(),
                    h.count.to_string(),
                    secs(h.sum),
                    secs(if h.count > 0 {
                        h.sum / h.count as u128
                    } else {
                        0
                    }),
                    secs(h.max as u128),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &["stage", "calls", "total", "mean", "max"],
            &rows,
        ));
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n== profile: workload counters (deterministic) ==\n");
        let rows: Vec<Vec<String>> = snapshot
            .counters
            .iter()
            .map(|(name, v)| vec![name.clone(), v.to_string()])
            .collect();
        out.push_str(&format_table(&["counter", "value"], &rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{ConformanceRecord, MatrixConformance, SimSummary};
    use crate::scenario::{BaseModel, Effort, ProtocolRatios, WeightHeuristic};
    use crate::sweep::{SweepRecord, SweepSpec};

    /// The CSV header line a column list declares.
    fn header<R>(columns: &[Column<R>]) -> String {
        columns
            .iter()
            .filter_map(|c| c.name)
            .collect::<Vec<_>>()
            .join(",")
    }

    fn sweep_text(r: &SweepReport) -> String {
        text_table(SWEEP_COLUMNS, &r.records) + &sweep_footer(r)
    }

    fn sweep_csv(r: &SweepReport) -> String {
        csv_table(SWEEP_COLUMNS, &r.records)
    }

    fn conformance_text(r: &ConformanceReport) -> String {
        text_table(CONFORMANCE_COLUMNS, &r.records) + &conformance_footer(r)
    }

    fn conformance_csv(r: &ConformanceReport) -> String {
        csv_table(CONFORMANCE_COLUMNS, &r.records)
    }

    fn pareto_text(r: &ParetoReport) -> String {
        text_table(&pareto_columns(), &pareto_rows(r)) + &pareto_footer(r)
    }

    fn pareto_csv(r: &ParetoReport) -> String {
        csv_table(&pareto_columns(), &pareto_rows(r))
    }

    fn failures_text(r: &FailureReport) -> String {
        text_table(FAILURE_COLUMNS, &r.records) + &failures_footer(r)
    }

    fn failures_csv(r: &FailureReport) -> String {
        csv_table(FAILURE_COLUMNS, &r.records)
    }

    fn sample_report() -> SweepReport {
        let spec = SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        };
        SweepReport {
            threads: 2,
            scenarios: 1,
            wall_secs: 1.5,
            records: vec![SweepRecord {
                spec,
                ratios: ProtocolRatios {
                    topology: "Abilene".into(),
                    margin: 2.0,
                    ecmp: 1.5,
                    base: 1.25,
                    coyote_oblivious: 1.4,
                    coyote_partial: 1.2,
                },
                wall_secs: 2.5,
            }],
        }
    }

    fn sample_conformance_report(within: bool) -> ConformanceReport {
        let summary = |util: f64, drop: f64| SimSummary {
            offered: 10.0,
            delivered: 10.0 * (1.0 - drop),
            drop_rate: drop,
            max_utilization: util,
        };
        let spec = SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Bimodal,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        };
        ConformanceReport {
            threads: 2,
            cells: 1,
            tolerance: 0.05,
            compression: "off".into(),
            wall_secs: 1.0,
            records: vec![ConformanceRecord {
                spec,
                dags_match: true,
                max_split_error: 0.01,
                faithful: true,
                fake_nodes: 7,
                prefix_advertisements: 7,
                compression: "off".into(),
                max_fake_nodes_per_destination: 3,
                base: MatrixConformance {
                    intended: summary(0.8, 0.0),
                    realized: summary(0.81, 0.0),
                },
                worst: MatrixConformance {
                    intended: summary(1.0, 0.1),
                    realized: summary(1.0, 0.11),
                },
                max_utilization_delta: 0.01,
                drop_rate_delta: 0.01,
                within_tolerance: within,
                wall_secs: 2.0,
            }],
        }
    }

    fn sample_failure_report() -> FailureReport {
        use crate::failures::{CellOutcome, FailureEvent, FailureRecord, FailureSimSummary};
        let mode = |util: f64, drop: f64, unrouted: f64| ModeOutcome {
            max_utilization: util,
            sim: FailureSimSummary {
                offered: 10.0,
                delivered: 10.0 * (1.0 - drop),
                drop_rate: drop,
                unrouted,
                max_utilization: util,
            },
            fake_nodes: 4,
        };
        let spec = SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        };
        FailureReport {
            threads: 2,
            cells: 2,
            tolerance: 0.05,
            seed: 7,
            wall_secs: 1.25,
            records: vec![
                FailureRecord {
                    spec: spec.clone(),
                    event: FailureEvent::LinkFailure { link: 3 },
                    cell: "Abilene/gravity/reverse-capacities/m2.0+link-3".into(),
                    outcome: CellOutcome::Within,
                    oblivious: Some(mode(0.9, 0.0, 0.0)),
                    reoptimized: Some(mode(0.75, 0.0, 0.0)),
                    degradation_ratio: Some(1.2),
                    fake_lsa_delta: 2,
                    dead_demand_volume: 0.0,
                    unroutable_volume: 0.0,
                    wall_secs: 0.5,
                },
                FailureRecord {
                    spec,
                    event: FailureEvent::NodeFailure { node: 5 },
                    cell: "Abilene/gravity/reverse-capacities/m2.0+node-5".into(),
                    outcome: CellOutcome::Unroutable {
                        reason: "partitioned".into(),
                    },
                    oblivious: Some(mode(1.3125, 0.125, 0.5)),
                    reoptimized: None,
                    degradation_ratio: None,
                    fake_lsa_delta: 11,
                    dead_demand_volume: 0.25,
                    unroutable_volume: 0.5,
                    wall_secs: 0.75,
                },
            ],
        }
    }

    fn sample_ratios() -> Vec<ProtocolRatios> {
        vec![
            ProtocolRatios {
                topology: "Abilene".into(),
                margin: 1.5,
                ecmp: 1.8125,
                base: 1.25,
                coyote_oblivious: 1.375,
                coyote_partial: 1.0625,
            },
            ProtocolRatios {
                topology: "Geant".into(),
                margin: 3.0,
                ecmp: f64::INFINITY,
                base: 2.0,
                coyote_oblivious: 1.5,
                coyote_partial: 1.25,
            },
        ]
    }

    #[test]
    fn sweep_renderings_are_pinned() {
        assert_eq!(
            sweep_text(&sample_report()),
            concat!(
                "network    model  margin  ECMP  Base  COYOTE obl.  COYOTE par.know.   wall\n",
                "--------------------------------------------------------------------------\n",
                "Abilene  gravity     2.0  1.50  1.25         1.40              1.20  2.50s\n",
                "1 scenarios on 2 thread(s): 1.50s wall, 2.50s cpu (1.67x speedup)\n",
            )
        );
        assert_eq!(
            sweep_csv(&sample_report()),
            concat!(
                "topology,model,heuristic,margin,effort,ecmp,base,coyote_oblivious,coyote_partial,wall_secs\n",
                "Abilene,gravity,reverse-capacities,2,Quick,1.5,1.25,1.4,1.2,2.500000\n",
            )
        );
    }

    #[test]
    fn ratios_renderings_are_pinned() {
        assert_eq!(
            csv_table(RATIO_COLUMNS, &sample_ratios()),
            concat!(
                "topology,margin,ecmp,base,coyote_oblivious,coyote_partial\n",
                "Abilene,1.5,1.8125,1.25,1.375,1.0625\n",
                "Geant,3,inf,2,1.5,1.25\n",
            )
        );
    }

    #[test]
    fn conformance_renderings_are_pinned() {
        assert_eq!(
            conformance_text(&sample_conformance_report(true)),
            concat!(
                "network    model  margin  faithful  fakes  split err   util Δ   drop Δ  verdict   wall\n",
                "--------------------------------------------------------------------------------------\n",
                "Abilene  bimodal     2.0       yes      7     0.0100   0.0100   0.0100     pass  2.00s\n",
                "1/1 cells within tolerance 0.05 (compression off, 7 fake nodes) on 2 thread(s): 1.00s wall, 2.00s cpu\n",
            )
        );
        assert_eq!(
            conformance_csv(&sample_conformance_report(true)),
            concat!(
                "topology,model,heuristic,margin,effort,faithful,dags_match,max_split_error,fake_nodes,prefix_advertisements,compression,max_fake_nodes_per_destination,base_intended_util,base_realized_util,worst_intended_util,worst_realized_util,base_intended_drop,base_realized_drop,worst_intended_drop,worst_realized_drop,max_utilization_delta,drop_rate_delta,within_tolerance,wall_secs\n",
                "Abilene,bimodal,reverse-capacities,2,Quick,true,true,0.01,7,7,off,3,0.8,0.81,1,1,0,0,0.1,0.11,0.01,0.01,true,2.000000\n",
            )
        );
    }

    #[test]
    fn pareto_renderings_are_pinned() {
        assert_eq!(
            pareto_text(&sample_pareto_report()),
            concat!(
                "      level  fakes  adverts  ratio  split err   util Δ  pass\n",
                "------------------------------------------------------------\n",
                "        off    100      102  1.000     0.0010   0.0005   1/1\n",
                "   lossless     60       62  0.600     0.0010   0.0005   1/1\n",
                "lossy(0.02)      8       10  0.080     0.0180   0.0090   1/1\n",
                "3 levels x 1 cells, tolerance 0.05, on 2 thread(s): 3.00s wall\n",
            )
        );
        assert_eq!(
            pareto_csv(&sample_pareto_report()),
            concat!(
                "level,epsilon,fake_nodes,prefix_advertisements,fake_node_ratio,max_split_error,max_utilization_delta,cells_within_tolerance\n",
                "off,0,100,102,1,0.001,0.0005,1\n",
                "lossless,0,60,62,0.6,0.001,0.0005,1\n",
                "lossy(0.02),0.02,8,10,0.08,0.018,0.009,1\n",
            )
        );
    }

    #[test]
    fn failures_renderings_are_pinned() {
        assert_eq!(
            failures_text(&sample_failure_report()),
            concat!(
                "network    model   event  obl util  obl drop  reopt util   degr   ΔLSA  lost vol     verdict   wall\n",
                "---------------------------------------------------------------------------------------------------\n",
                "Abilene  gravity  link-3     0.900    0.0000       0.750  1.200      2     0.000      within  0.50s\n",
                "Abilene  gravity  node-5     1.312    0.1250           -      -     11     0.750  unroutable  0.75s\n",
                "1 within / 0 degraded / 1 unroutable of 2 cells, tolerance 0.05, worst degradation 1.200, 0.750 demand units lost, on 2 thread(s): 1.25s wall, 1.25s cpu\n",
            )
        );
        assert_eq!(
            failures_csv(&sample_failure_report()),
            concat!(
                "cell,topology,model,margin,event,verdict,oblivious_util,oblivious_drop,oblivious_unrouted,reoptimized_util,reoptimized_drop,degradation_ratio,fake_lsa_delta,dead_demand_volume,unroutable_volume,wall_secs\n",
                "Abilene/gravity/reverse-capacities/m2.0+link-3,Abilene,gravity,2,link-3,within,0.900000,0.000000,0.000000,0.750000,0.000000,1.200000,2,0.000000,0.000000,0.500000\n",
                "Abilene/gravity/reverse-capacities/m2.0+node-5,Abilene,gravity,2,node-5,unroutable,1.312500,0.125000,0.500000,,,,11,0.250000,0.500000,0.750000\n",
            )
        );
    }

    #[test]
    fn conformance_csv_has_header_and_one_row_per_record() {
        let csv = conformance_csv(&sample_conformance_report(true));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], header(CONFORMANCE_COLUMNS));
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
        assert!(lines[1].starts_with("Abilene,bimodal,reverse-capacities,2,"));
        assert!(lines[1].contains("true"));
    }

    #[test]
    fn conformance_text_renders_verdicts_and_footer() {
        let pass = conformance_text(&sample_conformance_report(true));
        assert!(pass.contains("Abilene"));
        assert!(pass.contains("pass"));
        assert!(pass.contains(
            "1/1 cells within tolerance 0.05 (compression off, 7 fake nodes) on 2 thread(s)"
        ));
        let fail = conformance_text(&sample_conformance_report(false));
        assert!(fail.contains("FAIL"));
        assert!(fail.contains("0/1 cells"));
    }

    fn sample_pareto_report() -> ParetoReport {
        let point = |level: &str, eps: f64, fakes: usize, ratio: f64, err: f64| {
            crate::conformance::ParetoPoint {
                level: level.into(),
                epsilon: eps,
                fake_nodes: fakes,
                prefix_advertisements: fakes + 2,
                fake_node_ratio: ratio,
                max_split_error: err,
                max_utilization_delta: err / 2.0,
                cells_within_tolerance: 1,
            }
        };
        ParetoReport {
            threads: 2,
            cells: 1,
            tolerance: 0.05,
            wall_secs: 3.0,
            points: vec![
                point("off", 0.0, 100, 1.0, 0.001),
                point("lossless", 0.0, 60, 0.6, 0.001),
                point("lossy(0.02)", 0.02, 8, 0.08, 0.018),
            ],
        }
    }

    #[test]
    fn pareto_csv_has_header_and_deterministic_row_order() {
        let csv = pareto_csv(&sample_pareto_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], header(&pareto_columns()));
        // Rows come out in sweep order, one per level, same column count as
        // the header.
        assert!(lines[1].starts_with("off,0,100,102,1,"));
        assert!(lines[2].starts_with("lossless,0,60,62,0.6,"));
        assert!(lines[3].starts_with("lossy(0.02),0.02,8,10,0.08,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), lines[0].split(',').count());
        }
    }

    #[test]
    fn pareto_text_renders_the_tradeoff_table() {
        let text = pareto_text(&sample_pareto_report());
        assert!(text.contains("level"));
        assert!(text.contains("lossy(0.02)"));
        assert!(text.contains("0.080"), "fake-node ratio column:\n{text}");
        assert!(text.contains("1/1"));
        assert!(text.contains("3 levels x 1 cells, tolerance 0.05, on 2 thread(s)"));
    }

    #[test]
    fn empty_pareto_sweep_renders_without_panicking() {
        let report = ParetoReport {
            threads: 1,
            cells: 0,
            tolerance: 0.05,
            wall_secs: 0.0,
            points: vec![],
        };
        let csv = pareto_csv(&report);
        assert_eq!(csv.lines().count(), 1, "header only");
        assert_eq!(csv.lines().next().unwrap(), header(&pareto_columns()));
        let text = pareto_text(&report);
        assert!(text.contains("0 levels x 0 cells"));
    }

    #[test]
    fn report_format_parses_case_insensitively() {
        assert_eq!("JSON".parse::<ReportFormat>().unwrap(), ReportFormat::Json);
        assert_eq!("csv".parse::<ReportFormat>().unwrap(), ReportFormat::Csv);
        assert_eq!("Text".parse::<ReportFormat>().unwrap(), ReportFormat::Text);
        assert!("xml".parse::<ReportFormat>().is_err());
    }

    #[test]
    fn sweep_csv_has_header_and_one_row_per_record() {
        let csv = sweep_csv(&sample_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], header(SWEEP_COLUMNS));
        assert!(lines[1].starts_with("Abilene,gravity,reverse-capacities,2,"));
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
    }

    #[test]
    fn sweep_text_reports_speedup_footer() {
        let text = sweep_text(&sample_report());
        assert!(text.contains("Abilene"));
        assert!(text.contains("1 scenarios on 2 thread(s)"));
        assert!(text.contains("1.67x speedup"));
    }

    #[test]
    fn table_alignment_and_separator() {
        let out = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer-name".into(), "12.34".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("longer-name"));
        // Columns are right-aligned to the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn ratio_and_percent_formatting() {
        assert_eq!(ratio(1.2345), "1.23");
        assert_eq!(ratio(f64::INFINITY), "inf");
        assert_eq!(percent(0.256), "25.6%");
    }

    #[test]
    fn series_share_the_x_column() {
        let s = vec![
            Series {
                label: "ECMP".into(),
                points: vec![(1.0, 1.5), (2.0, 2.5)],
            },
            Series {
                label: "COYOTE".into(),
                points: vec![(1.0, 1.2), (2.0, 1.8)],
            },
        ];
        let out = format_series("margin", &s);
        assert!(out.contains("margin"));
        assert!(out.contains("ECMP"));
        assert!(out.contains("COYOTE"));
        assert!(out.contains("1.20"));
        assert!(out.contains("2.50"));
    }

    #[test]
    fn empty_series_render_without_panicking() {
        let out = format_series("x", &[]);
        assert!(out.contains('x'));
    }

    #[test]
    fn profile_text_sorts_stages_by_total_time() {
        let registry = coyote_obs::Registry::new();
        registry.observe_duration("fast.stage", 1_000_000); // 1 ms total
        registry.observe_duration("slow.stage", 2_000_000_000); // 2 s total
        registry.observe_duration("slow.stage", 1_000_000_000);
        registry.counter("lp.pivots", 42);
        let text = profile_text(&registry.snapshot());
        assert!(text.contains("per-stage wall time"));
        let slow = text.find("slow.stage").unwrap();
        let fast = text.find("fast.stage").unwrap();
        assert!(slow < fast, "stages must be sorted by total time:\n{text}");
        assert!(text.contains("3.000s"), "total for slow.stage:\n{text}");
        assert!(text.contains("lp.pivots"));
        assert!(text.contains("42"));
    }

    #[test]
    fn profile_text_handles_empty_snapshot() {
        let text = profile_text(&coyote_obs::Registry::new().snapshot());
        assert!(text.contains("(no spans recorded)"));
    }
}
