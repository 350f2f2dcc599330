//! The `experiments` binary: regenerates every table and figure of the
//! paper from the command line, runs parallel sweeps, conformance and
//! failure grids over the full scenario grid, and serves the incremental TE
//! daemon.
//!
//! `experiments help` prints the commands and flags, generated from the
//! `COMMANDS` and `FLAGS` tables. Every flag may be given at most once,
//! and only to a command that reads it.
//!
//! Multi-scenario commands (fig6–fig9, fig11, table1, sweep, conform,
//! failures) fan their independent scenario evaluations out across a worker
//! pool; the thread count changes wall-clock time only, never the numbers
//! in the report.

use coyote_bench::conformance::{default_pareto_levels, run_pareto, DEFAULT_TOLERANCE};
use coyote_bench::report::{
    conformance_footer, csv_table, failures_footer, format_series, format_table, pareto_columns,
    pareto_footer, pareto_rows, percent, profile_text, ratio, sweep_footer, text_table, Column,
    ReportFormat, Series, CONFORMANCE_COLUMNS, FAILURE_COLUMNS, RATIO_COLUMNS, SWEEP_COLUMNS,
};
use coyote_bench::{
    fig10_approximation, fig11_stretch, fig11_topologies, fig12_prototype, fig1_running_example,
    fig6_margins, margin_sweep, run_conformance_with, run_failures, run_sweep, table1,
    table1_margins, table1_topologies, theorem1_gadget, theorem4_lower_bound, BaseModel, Effort,
    EventClass, FailureGrid, ProtocolRatios, SweepGrid, WeightHeuristic,
};
use coyote_ospf::{CompressionLevel, DEFAULT_EPSILON};
use std::collections::BTreeMap;
use std::str::FromStr;

type Outcome = Result<(), Box<dyn std::error::Error>>;

/// One subcommand: its name, one line of help, whether `all` runs it, and
/// its driver.
struct Command {
    name: &'static str,
    help: &'static str,
    figure: bool,
    run: fn(&Cli) -> Outcome,
}

/// Every subcommand, in usage order. The `figure` ones are the paper's
/// tables and figures, which `all` runs in this order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "fig1", help: "running example (Fig. 1, Appendix B)", figure: true, run: cmd_fig1 },
    Command { name: "gadget", help: "Theorem 1 BIPARTITION gadget", figure: true, run: cmd_gadget },
    Command { name: "lowerbound", help: "Theorem 4 Ω(|V|) instance", figure: true, run: cmd_lowerbound },
    Command { name: "fig6", help: "Geant, gravity model, ratio vs margin", figure: true,
              run: |cli| cmd_margin_figure(cli, "fig6", "Geant", BaseModel::Gravity) },
    Command { name: "fig7", help: "Digex, gravity model, ratio vs margin", figure: true,
              run: |cli| cmd_margin_figure(cli, "fig7", "Digex", BaseModel::Gravity) },
    Command { name: "fig8", help: "AS1755, bimodal model, ratio vs margin", figure: true,
              run: |cli| cmd_margin_figure(cli, "fig8", "AS1755", BaseModel::Bimodal) },
    Command { name: "fig9", help: "Abilene, bimodal model, local-search weights", figure: true,
              run: cmd_fig9 },
    Command { name: "fig10", help: "splitting-ratio approximation with 3/5/10 virtual next hops",
              figure: true, run: cmd_fig10 },
    Command { name: "fig11", help: "average path stretch across topologies", figure: true,
              run: cmd_fig11 },
    Command { name: "fig12", help: "prototype packet-drop experiment", figure: true, run: cmd_fig12 },
    Command { name: "table1", help: "full ratio table (topologies × margins)", figure: true,
              run: cmd_table1 },
    Command { name: "sweep", help: "full scenario grid (topologies × models × margins), timed per cell",
              figure: false, run: cmd_sweep },
    Command { name: "conform", help: "full-stack conformance: compile → Fibbing routing → flow simulation",
              figure: false, run: cmd_conform },
    Command { name: "failures", help: "conformance grid × fault events: reconvergence vs re-optimization",
              figure: false, run: cmd_failures },
    Command { name: "serve", help: "incremental TE daemon taking demand/link/node updates over HTTP",
              figure: false, run: cmd_serve },
    Command { name: "all", help: "every figure command above, in order", figure: false, run: cmd_all },
    Command { name: "help", help: "print this text", figure: false, run: cmd_help },
];

/// One flag: its name, the placeholder of its value (`None` for a switch),
/// the commands that read it (`figures` stands for every figure command)
/// and one line of help.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    readers: &'static str,
    help: &'static str,
}

const GRIDS: &str = "sweep conform failures";

/// Every flag, in usage order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "full", value: None,
           readers: "fig6 fig7 fig8 fig9 fig10 fig11 table1 sweep conform failures all",
           help: "paper-scale configuration (default: quick)" },
    Flag { name: "threads", value: Some("N"),
           readers: "fig6 fig7 fig8 fig9 fig11 table1 sweep conform failures serve all",
           help: "worker threads: 0 = one per core (default), 1 = serial" },
    Flag { name: "format", value: Some("F"), readers: "figures sweep conform failures all",
           help: "text (default), json, or csv (fig6-fig9, table1 and the grids)" },
    Flag { name: "json", value: None, readers: "figures sweep conform failures all",
           help: "shorthand for --format json" },
    Flag { name: "out", value: Some("PATH"), readers: "figures sweep conform failures",
           help: "write the report to PATH instead of stdout" },
    Flag { name: "filter", value: Some("S"), readers: GRIDS,
           help: "keep cells whose id contains S, e.g. Abilene, bimodal, /m2.0, +link-3" },
    Flag { name: "limit", value: Some("N"), readers: GRIDS,
           help: "evaluate at most the first N cells" },
    Flag { name: "tolerance", value: Some("T"), readers: "conform failures",
           help: "per-cell verdict threshold (default 0.05)" },
    Flag { name: "compress", value: None, readers: "conform",
           help: "compile every cell through the lossy compression pass" },
    Flag { name: "compress-epsilon", value: Some("E"), readers: "conform",
           help: "lossy quantization tolerance (implies --compress; default 0.02)" },
    Flag { name: "pareto", value: None, readers: "conform",
           help: "sweep every compression level: fake nodes vs split error" },
    Flag { name: "events", value: Some("E"), readers: "failures",
           help: "fault classes: link|node|srlg|spike|all (default all)" },
    Flag { name: "profile", value: None, readers: GRIDS,
           help: "append per-stage wall times and workload counters to the text" },
    Flag { name: "trace-out", value: Some("PATH"), readers: GRIDS,
           help: "write a chrome://tracing trace (implies --profile)" },
    Flag { name: "metrics-out", value: Some("PATH"), readers: GRIDS,
           help: "write the metrics snapshot as JSON (implies --profile)" },
    Flag { name: "port", value: Some("N"), readers: "serve",
           help: "TCP port to listen on (default 7300)" },
    Flag { name: "topology", value: Some("T"), readers: "serve",
           help: "topology-zoo name (default abilene)" },
    Flag { name: "model", value: Some("M"), readers: "serve",
           help: "initial demand model: gravity (default) or bimodal" },
    Flag { name: "budget", value: Some("N"), readers: "serve",
           help: "wECMP FIB-entry budget per prefix (default 5)" },
    Flag { name: "no-comparator", value: None, readers: "serve",
           help: "skip timing the batch-pipeline comparator at startup" },
];

impl Flag {
    /// The name the flag is stored under: `--json` shares `--format`'s.
    fn slot(&self) -> &'static str {
        if self.name == "json" {
            "format"
        } else {
            self.name
        }
    }

    fn is_read_by(&self, command: &str) -> bool {
        let figure = COMMANDS.iter().any(|c| c.figure && c.name == command);
        self.readers
            .split(' ')
            .any(|r| r == command || (r == "figures" && figure))
    }
}

/// The usage text, generated from `COMMANDS` and `FLAGS`.
fn usage() -> String {
    let mut out = String::from("usage: experiments <command> [flags]\n\ncommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<12}{}\n", c.name, c.help));
    }
    let figures: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.figure)
        .map(|c| c.name)
        .collect();
    out.push_str(&format!(
        "\nflags (each at most once, and only to a command that reads it;\n\
         \"figures\" stands for {}):\n",
        figures.join(" ")
    ));
    for f in FLAGS {
        let flag = match f.value {
            Some(v) => format!("--{} {v}", f.name),
            None => format!("--{}", f.name),
        };
        out.push_str(&format!(
            "  {flag:<22}{}\n  {:<22}read by: {}\n",
            f.help, "", f.readers
        ));
    }
    out
}

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    command: &'static str,
    effort: Effort,
    threads: usize,
    format: ReportFormat,
    out: Option<String>,
    filter: Option<String>,
    limit: Option<usize>,
    tolerance: f64,
    compress: bool,
    compress_epsilon: Option<f64>,
    pareto: bool,
    events: EventClass,
    profile: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    port: u16,
    topology: String,
    model: String,
    budget: usize,
    no_comparator: bool,
}

/// The parsed value of flag `slot`, if it was given.
fn value<T: FromStr>(given: &BTreeMap<&str, String>, slot: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    given
        .get(slot)
        .map(|v| v.parse().map_err(|e| format!("--{slot}: {e}")))
        .transpose()
}

/// A non-negative (and not NaN) number.
fn non_negative(v: Option<f64>, slot: &str) -> Result<Option<f64>, String> {
    match v {
        Some(x) if x.is_nan() || x < 0.0 => {
            Err(format!("--{slot} must be a non-negative number, got {x}"))
        }
        v => Ok(v),
    }
}

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut command = None;
        let mut given: BTreeMap<&str, String> = BTreeMap::new();
        let mut flags: Vec<&Flag> = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if command.is_some() {
                    return Err(format!("unexpected argument {arg}"));
                }
                command = Some(arg.as_str());
                continue;
            };
            let flag = FLAGS
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match flag.value {
                None if flag.name == "json" => "json".to_string(),
                None => String::new(),
                // A flag never takes the next flag as its value
                // (`--filter --threads 2` is an error, not a filter).
                Some(_) => it
                    .next_if(|v| !v.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs a value"))?,
            };
            if given.insert(flag.slot(), value).is_some() {
                return Err(format!(
                    "flag --{} given more than once (repeated flags are rejected \
                     rather than letting the last occurrence win)",
                    flag.slot()
                ));
            }
            flags.push(flag);
        }
        let command = match command.map(|name| (name, find_command(name))) {
            None => "help",
            Some((_, Some(c))) => c.name,
            Some((name, None)) => return Err(format!("unknown command {name:?}\n\n{}", usage())),
        };
        let model = given.get("model").cloned().unwrap_or("gravity".into());
        if model != "gravity" && model != "bimodal" {
            return Err(format!("--model must be gravity or bimodal, got {model:?}"));
        }
        let compress_epsilon =
            non_negative(value(&given, "compress-epsilon")?, "compress-epsilon")?;
        let cli = Cli {
            command,
            effort: given.get("full").map_or(Effort::Quick, |_| Effort::Full),
            threads: value(&given, "threads")?.unwrap_or(0),
            format: value(&given, "format")?.unwrap_or_default(),
            out: given.get("out").cloned(),
            filter: given.get("filter").cloned(),
            limit: value(&given, "limit")?,
            tolerance: non_negative(value(&given, "tolerance")?, "tolerance")?
                .unwrap_or(DEFAULT_TOLERANCE),
            compress: given.contains_key("compress") || compress_epsilon.is_some(),
            compress_epsilon,
            pareto: given.contains_key("pareto"),
            events: value(&given, "events")?.unwrap_or(EventClass::All),
            profile: given.contains_key("profile"),
            trace_out: given.get("trace-out").cloned(),
            metrics_out: given.get("metrics-out").cloned(),
            port: value(&given, "port")?.unwrap_or(7300),
            topology: given.get("topology").cloned().unwrap_or("abilene".into()),
            model,
            budget: value(&given, "budget")?.unwrap_or(5),
            no_comparator: given.contains_key("no-comparator"),
        };
        if cli.budget == 0 {
            return Err("--budget must be at least 1".to_string());
        }
        // Checked after the values, so a bad value is reported as such.
        if let Some(flag) = flags.iter().find(|f| !f.is_read_by(command)) {
            return Err(format!(
                "--{} does not apply to {command} (read by: {})",
                flag.name, flag.readers
            ));
        }
        Ok(cli)
    }

    /// Emits one report in the requested format, to stdout or `--out`.
    /// `csv` is `None` for commands whose result has no tabular CSV shape.
    fn emit(&self, text: String, json: String, csv: Option<String>) -> Outcome {
        let rendered = match self.format {
            ReportFormat::Text => text,
            ReportFormat::Json => json,
            ReportFormat::Csv => {
                csv.ok_or_else(|| format!("--format csv is not supported for {}", self.command))?
            }
        };
        match &self.out {
            Some(path) => {
                std::fs::write(path, rendered)?;
                println!("wrote {path}");
            }
            None if rendered.ends_with('\n') => print!("{rendered}"),
            None => println!("{rendered}"),
        }
        Ok(())
    }

    /// Emits a tabular report: in text, `title`, the table of `rows` and
    /// `footer`; in CSV, the same columns; in JSON, `report`.
    fn emit_table<R>(
        &self,
        title: &str,
        columns: &[Column<R>],
        rows: &[R],
        footer: &str,
        report: &impl serde::Serialize,
    ) -> Outcome {
        self.emit(
            format!("{title}\n{}{footer}", text_table(columns, rows)),
            serde_json::to_string_pretty(report)?,
            Some(csv_table(columns, rows)),
        )
    }

    /// The worker-thread count as the progress lines show it.
    fn threads_label(&self) -> String {
        match self.threads {
            0 => "auto".to_string(),
            n => n.to_string(),
        }
    }
}

fn find_command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Runs a grid command's `run` with a fresh [`coyote_obs::Registry`]
/// installed as the global sink when any of `--profile`, `--trace-out` or
/// `--metrics-out` is given. Writes the requested artifacts and returns the
/// result with the per-stage footer for the text report (empty when
/// profiling is off).
fn profiled<T, E>(
    cli: &Cli,
    run: impl FnOnce() -> Result<T, E>,
) -> Result<(T, String), Box<dyn std::error::Error>>
where
    Box<dyn std::error::Error>: From<E>,
{
    if !cli.profile && cli.trace_out.is_none() && cli.metrics_out.is_none() {
        return Ok((run()?, String::new()));
    }
    let registry = std::sync::Arc::new(coyote_obs::Registry::new());
    coyote_obs::install(registry.clone());
    let result = run();
    coyote_obs::uninstall();
    let result = result?;
    let snapshot = registry.snapshot();
    if let Some(path) = &cli.trace_out {
        std::fs::write(path, coyote_obs::chrome_trace_json(&registry))?;
        eprintln!("wrote chrome trace to {path} (load in chrome://tracing or Perfetto)");
    }
    if let Some(path) = &cli.metrics_out {
        std::fs::write(path, coyote_obs::metrics_json(&snapshot))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    Ok((result, profile_text(&snapshot)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let command = find_command(cli.command).expect("parse accepts only known commands");
    if let Err(e) = (command.run)(&cli) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_help(_: &Cli) -> Outcome {
    print!("{}", usage());
    Ok(())
}

fn cmd_all(cli: &Cli) -> Outcome {
    // `all` prints a stream of reports, and CSV has no shared schema.
    if cli.format == ReportFormat::Csv {
        return Err("--format csv is not supported with all (the sub-reports \
                    have different schemas); run commands individually"
            .into());
    }
    for command in COMMANDS.iter().filter(|c| c.figure) {
        (command.run)(cli)?;
    }
    Ok(())
}

fn cmd_fig1(cli: &Cli) -> Outcome {
    let r = fig1_running_example()?;
    let rows = vec![
        vec!["ECMP (unit weights)".to_string(), ratio(r.ecmp_ratio)],
        vec!["Fig. 1c configuration".to_string(), ratio(r.fig1c_ratio)],
        vec!["Golden-ratio optimum".to_string(), ratio(r.golden_ratio)],
        vec!["COYOTE (optimized)".to_string(), ratio(r.coyote_ratio)],
    ];
    let text = format!(
        "== Fig. 1 / Appendix B: running example (exact oblivious ratios) ==\n{}",
        format_table(&["configuration", "oblivious ratio"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&r)?, None)
}

fn cmd_gadget(cli: &Cli) -> Outcome {
    let r = theorem1_gadget(&[1.0, 2.0, 3.0, 4.0])?;
    let rows = vec![
        vec!["balanced orientation".to_string(), ratio(r.balanced_ratio)],
        vec![
            "unbalanced orientation".to_string(),
            ratio(r.unbalanced_ratio),
        ],
    ];
    let text = format!(
        "== Theorem 1: BIPARTITION gadget (weights {:?}) ==\n{}",
        r.weights,
        format_table(&["gadget orientation", "ratio"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&r)?, None)
}

fn cmd_lowerbound(cli: &Cli) -> Outcome {
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for n in [3usize, 5, 8, 12] {
        let r = theorem4_lower_bound(n)?;
        rows.push(vec![
            r.n.to_string(),
            ratio(r.oblivious_ratio),
            ratio(r.optimum),
        ]);
        results.push(r);
    }
    let text = format!(
        "== Theorem 4: Ω(|V|) lower bound for oblivious IP routing ==\n{}",
        format_table(&["n", "oblivious ratio", "demands-aware optimum"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&results)?, None)
}

fn protocol_series(rows: &[ProtocolRatios]) -> Vec<Series> {
    let labels = ["ECMP", "Base-TM-opt", "COYOTE-obl", "COYOTE-partial"];
    let ratios = |r: &ProtocolRatios| [r.ecmp, r.base, r.coyote_oblivious, r.coyote_partial];
    (0..labels.len())
        .map(|i| Series {
            label: labels[i].to_string(),
            points: rows.iter().map(|r| (r.margin, ratios(r)[i])).collect(),
        })
        .collect()
}

/// Emits a ratio-vs-margin figure: the series table in text, one
/// `RATIO_COLUMNS` row per margin in CSV.
fn emit_margin_rows(cli: &Cli, title: String, rows: &[ProtocolRatios]) -> Outcome {
    cli.emit(
        format!(
            "{title}\n{}",
            format_series("margin", &protocol_series(rows))
        ),
        serde_json::to_string_pretty(rows)?,
        Some(csv_table(RATIO_COLUMNS, rows)),
    )
}

fn cmd_margin_figure(cli: &Cli, figure: &str, topology: &str, model: BaseModel) -> Outcome {
    let heuristic = WeightHeuristic::InverseCapacity;
    let margins = fig6_margins(cli.effort);
    let rows = margin_sweep(
        topology,
        model,
        heuristic,
        &margins,
        cli.effort,
        cli.threads,
    )?;
    let title = format!(
        "== {figure}: {topology}, {} model, {} weights (ratio vs margin) ==",
        model.name(),
        heuristic.name(),
    );
    emit_margin_rows(cli, title, &rows)
}

fn cmd_fig9(cli: &Cli) -> Outcome {
    let margins = match cli.effort {
        Effort::Quick => vec![1.0, 2.0, 3.0, 5.0],
        Effort::Full => vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
    };
    let rows = margin_sweep(
        "Abilene",
        BaseModel::Bimodal,
        WeightHeuristic::LocalSearch,
        &margins,
        cli.effort,
        cli.threads,
    )?;
    let title = "== fig9: Abilene, bimodal model, local-search weights ==".to_string();
    emit_margin_rows(cli, title, &rows)
}

fn cmd_fig10(cli: &Cli) -> Outcome {
    let (topology, margin) = match cli.effort {
        Effort::Quick => ("Abilene", 2.0),
        Effort::Full => ("AS1755", 2.0),
    };
    let r = fig10_approximation(topology, margin, cli.effort)?;
    let mut rows = vec![vec![
        "ECMP".to_string(),
        ratio(r.ecmp_ratio),
        "0".to_string(),
    ]];
    for p in &r.points {
        let label = match p.budget {
            Some(n) => format!("COYOTE {n} NHs"),
            None => "COYOTE ideal".to_string(),
        };
        rows.push(vec![label, ratio(p.ratio), p.fake_nodes.to_string()]);
    }
    let text = format!(
        "== fig10: {} (margin {}): splitting-ratio approximation ==\n{}",
        r.topology,
        r.margin,
        format_table(&["configuration", "ratio", "fake nodes"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&r)?, None)
}

fn cmd_fig11(cli: &Cli) -> Outcome {
    let topologies = fig11_topologies(cli.effort);
    let rows = fig11_stretch(&topologies, cli.effort, cli.threads)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.topology.clone(),
                format!("{:.3}", r.oblivious_stretch),
                format!("{:.3}", r.partial_stretch),
            ]
        })
        .collect();
    let text = format!(
        "== fig11: average path stretch vs ECMP (margin 2.5) ==\n{}",
        format_table(
            &["topology", "COYOTE-oblivious", "COYOTE-partial-knowledge"],
            &table
        )
    );
    cli.emit(text, serde_json::to_string_pretty(&rows)?, None)
}

fn cmd_fig12(cli: &Cli) -> Outcome {
    let results = fig12_prototype();
    let mut rows = Vec::new();
    for r in &results {
        for (i, phase) in r.phases.iter().enumerate() {
            rows.push(vec![
                r.scheme.clone(),
                format!("phase {}", i + 1),
                format!("({:.0}, {:.0}) Mbps", phase.offered.0, phase.offered.1),
                percent(phase.drop_rate),
            ]);
        }
        rows.push(vec![
            r.scheme.clone(),
            "cumulative".to_string(),
            "-".to_string(),
            percent(r.cumulative_drop_rate()),
        ]);
    }
    let text = format!(
        "== fig12: prototype packet-drop experiment (1 Mbps links) ==\n{}",
        format_table(&["scheme", "phase", "offered (t1, t2)", "drop rate"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&results)?, None)
}

fn cmd_table1(cli: &Cli) -> Outcome {
    let topologies = table1_topologies(cli.effort);
    let margins = table1_margins(cli.effort);
    let rows = table1(
        &topologies,
        &margins,
        BaseModel::Gravity,
        cli.effort,
        cli.threads,
    )?;
    // A summary the paper states in prose: how much further from optimal
    // ECMP is, on average, compared to COYOTE.
    let avg: f64 =
        rows.iter().map(ProtocolRatios::ecmp_vs_coyote).sum::<f64>() / rows.len().max(1) as f64;
    let footer = format!(
        "ECMP is on average {:.0}% further from optimum than COYOTE.",
        (avg - 1.0) * 100.0
    );
    let title = "== Table I: gravity base model, reverse-capacity weights ==";
    cli.emit_table(title, RATIO_COLUMNS, &rows, &footer, &rows)
}

/// What `--filter` and `--limit` need of a scenario or failure grid.
trait Grid: Sized {
    fn filter(self, pattern: &str) -> Self;
    fn limit(self, n: usize) -> Self;
    fn len(&self) -> usize;
}

impl Grid for SweepGrid {
    fn filter(self, pattern: &str) -> Self {
        SweepGrid::filter(self, pattern)
    }
    fn limit(self, n: usize) -> Self {
        SweepGrid::limit(self, n)
    }
    fn len(&self) -> usize {
        SweepGrid::len(self)
    }
}

impl Grid for FailureGrid {
    fn filter(self, pattern: &str) -> Self {
        FailureGrid::filter(self, pattern)
    }
    fn limit(self, n: usize) -> Self {
        FailureGrid::limit(self, n)
    }
    fn len(&self) -> usize {
        FailureGrid::len(self)
    }
}

/// The `--filter`/`--limit` slice of a grid command's grid: the cells to
/// run, the whole grid's size, and the report header's scope (`whole` for
/// the whole grid, else `slice` followed by the filter and limit).
fn select<G: Grid>(
    cli: &Cli,
    grid: G,
    whole: &str,
    slice: &str,
) -> Result<(G, usize, String), String> {
    let of = grid.len();
    // An empty pattern matches every cell.
    let pattern = cli.filter.as_deref().unwrap_or("");
    let grid = grid.filter(pattern).limit(cli.limit.unwrap_or(usize::MAX));
    if grid.len() == 0 {
        return Err("the filter/limit selection matched no grid cells".into());
    }
    let filter = cli.filter.iter().map(|p| format!(", filter {p:?}"));
    let selection: String = filter
        .chain(cli.limit.map(|n| format!(", limit {n}")))
        .collect();
    let scope = if selection.is_empty() {
        whole.to_string()
    } else {
        format!("{slice}{selection}")
    };
    Ok((grid, of, scope))
}

fn cmd_sweep(cli: &Cli) -> Outcome {
    let grid = SweepGrid::full(cli.effort);
    let (grid, of, scope) = select(cli, grid, "full scenario grid", "grid slice")?;
    eprintln!(
        "sweeping {} scenario(s) on {} thread(s)...",
        grid.len(),
        cli.threads_label()
    );
    let (report, profile) = profiled(cli, || run_sweep(&grid, cli.threads))?;
    let title = format!(
        "== sweep: {scope} ({} of {of} topologies × models × margins cells) ==",
        grid.len()
    );
    let footer = sweep_footer(&report) + &profile;
    cli.emit_table(&title, SWEEP_COLUMNS, &report.records, &footer, &report)
}

fn cmd_conform(cli: &Cli) -> Outcome {
    let grid = SweepGrid::conformance(cli.effort);
    let (grid, of, scope) = select(cli, grid, "full conformance grid", "grid slice")?;
    if cli.pareto {
        return cmd_conform_pareto(cli, &grid);
    }
    let level = if cli.compress {
        CompressionLevel::Lossy {
            epsilon: cli.compress_epsilon.unwrap_or(DEFAULT_EPSILON),
        }
    } else {
        CompressionLevel::Off
    };
    eprintln!(
        "checking conformance of {} cell(s) on {} thread(s), tolerance {}, compression {}...",
        grid.len(),
        cli.threads_label(),
        cli.tolerance,
        level.label()
    );
    let (report, profile) = profiled(cli, || {
        run_conformance_with(&grid, cli.threads, cli.tolerance, level)
    })?;
    let title = format!(
        "== conform: {scope} ({} of {of} topology × model cells) ==",
        grid.len()
    );
    let footer = conformance_footer(&report) + &profile;
    cli.emit_table(
        &title,
        CONFORMANCE_COLUMNS,
        &report.records,
        &footer,
        &report,
    )
}

/// The `conform --pareto` path: sweep the selected grid once per
/// compression level and emit the fake-nodes-vs-split-error trade-off.
fn cmd_conform_pareto(cli: &Cli, grid: &SweepGrid) -> Outcome {
    let levels = default_pareto_levels();
    eprintln!(
        "pareto sweep: {} cell(s) x {} compression level(s) on {} thread(s), tolerance {}...",
        grid.len(),
        levels.len(),
        cli.threads_label(),
        cli.tolerance
    );
    let (report, profile) = profiled(cli, || {
        run_pareto(grid, cli.threads, cli.tolerance, &levels)
    })?;
    let title = format!(
        "== conform --pareto: compression trade-off over {} cell(s) ==",
        grid.len()
    );
    let footer = pareto_footer(&report) + &profile;
    let rows = pareto_rows(&report);
    cli.emit_table(&title, &pareto_columns(), &rows, &footer, &report)
}

/// The `serve` command: start the long-running incremental TE daemon.
///
/// Before the server comes up (unless `--no-comparator`), the *batch
/// pipeline* is run once for the same topology/model — the full joint
/// oblivious optimization a sweep cell performs — and its wall-clock time is
/// exposed through `/state` as `batch_recompile_micros`. That is the
/// "full-grid recompile" comparator the serving layer's incremental re-opt
/// latencies are benchmarked against in `BENCH_serve.json`.
fn cmd_serve(cli: &Cli) -> Outcome {
    use coyote_serve::{DemandModel, EngineConfig, Server, ServerConfig, TeEngine};

    let (model, base_model) = match cli.model.as_str() {
        "bimodal" => (DemandModel::Bimodal { seed: 42 }, BaseModel::Bimodal),
        _ => (
            DemandModel::Gravity { total: Some(100.0) },
            BaseModel::Gravity,
        ),
    };

    let batch_recompile_micros = if cli.no_comparator {
        None
    } else {
        eprintln!(
            "measuring batch-pipeline comparator ({} / {} model, one margin cell)...",
            cli.topology, cli.model
        );
        let start = std::time::Instant::now();
        margin_sweep(
            &cli.topology,
            base_model,
            WeightHeuristic::InverseCapacity,
            &[2.0],
            Effort::Quick,
            1,
        )?;
        let micros = start.elapsed().as_micros() as u64;
        eprintln!("batch comparator: {} us per full recompile", micros);
        Some(micros)
    };

    // The daemon exposes /metrics from the global obs sink; install one for
    // the whole server lifetime.
    let registry = std::sync::Arc::new(coyote_obs::Registry::new());
    coyote_obs::install(registry);

    let engine = TeEngine::new(&EngineConfig {
        topology: cli.topology.clone(),
        model,
        budget: cli.budget,
    })
    .map_err(|e| format!("starting engine: {e}"))?;
    let server = Server::start(
        engine,
        &ServerConfig {
            addr: format!("127.0.0.1:{}", cli.port),
            threads: if cli.threads == 0 { 2 } else { cli.threads },
            batch_recompile_micros,
        },
    )
    .map_err(|e| format!("starting server: {e}"))?;
    eprintln!(
        "coyote-serve daemon listening on {} (topology {}, {} model, budget {}); \
         POST /shutdown to stop",
        server.addr(),
        cli.topology,
        cli.model,
        cli.budget
    );
    server.join();
    coyote_obs::uninstall();
    eprintln!("daemon stopped");
    Ok(())
}

fn cmd_failures(cli: &Cli) -> Outcome {
    let events = cli.events.name();
    let grid = FailureGrid::standard(cli.effort, cli.events)?;
    let (grid, of, scope) = select(
        cli,
        grid,
        &format!("full failure grid, {events} events"),
        &format!("grid slice ({events} events)"),
    )?;
    eprintln!(
        "injecting {} failure cell(s) ({events} events) on {} thread(s), tolerance {}...",
        grid.len(),
        cli.threads_label(),
        cli.tolerance
    );
    let (report, profile) = profiled(cli, || run_failures(&grid, cli.threads, cli.tolerance))?;
    let title = format!(
        "== failures: {scope} ({} of {of} scenario × event cells) ==",
        grid.len()
    );
    let footer = failures_footer(&report) + &profile;
    cli.emit_table(&title, FAILURE_COLUMNS, &report.records, &footer, &report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::parse(&owned)
    }

    #[test]
    fn repeated_flag_is_rejected() {
        let err = parse(&["sweep", "--threads", "1", "--threads", "4"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let err = parse(&["failures", "--filter", "a", "--filter", "b"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn json_and_format_share_one_slot() {
        let err = parse(&["sweep", "--json", "--format", "csv"]).unwrap_err();
        assert!(
            err.contains("--format") && err.contains("more than once"),
            "{err}"
        );
        let err = parse(&["sweep", "--format", "csv", "--json"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn a_flag_does_not_swallow_the_next_flag_as_its_value() {
        let err = parse(&["sweep", "--filter", "--threads"]).unwrap_err();
        assert!(err.contains("--filter needs a value"), "{err}");
        let err = parse(&["sweep", "--out"]).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    #[test]
    fn serve_flags_parse() {
        let cli = parse(&[
            "serve",
            "--port",
            "8080",
            "--topology",
            "nsf",
            "--model",
            "bimodal",
            "--budget",
            "3",
            "--no-comparator",
        ])
        .unwrap();
        assert_eq!(cli.command, "serve");
        assert_eq!(cli.port, 8080);
        assert_eq!(cli.topology, "nsf");
        assert_eq!(cli.model, "bimodal");
        assert_eq!(cli.budget, 3);
        assert!(cli.no_comparator);
    }

    #[test]
    fn serve_flag_validation() {
        let err = parse(&["serve", "--model", "bogus"]).unwrap_err();
        assert!(err.contains("gravity or bimodal"), "{err}");
        let err = parse(&["serve", "--budget", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["serve", "--port", "notaport"]).unwrap_err();
        assert!(err.contains("--port"), "{err}");
    }

    #[test]
    fn numeric_flag_values_are_validated_not_unwrapped() {
        let err = parse(&["sweep", "--tolerance", "peanut"]).unwrap_err();
        assert!(err.contains("--tolerance"), "{err}");
        let err = parse(&["sweep", "--tolerance", "-0.5"]).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = parse(&["conform", "--compress-epsilon", "NaN"]).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = parse(&["sweep", "--limit", "three"]).unwrap_err();
        assert!(err.contains("--limit"), "{err}");
    }

    #[test]
    fn unknown_flags_and_extra_arguments_error() {
        let err = parse(&["sweep", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
        let err = parse(&["sweep", "extra"]).unwrap_err();
        assert!(err.contains("unexpected argument extra"), "{err}");
    }

    #[test]
    fn unwritable_out_path_is_an_error_not_a_panic() {
        // Regression for the user-reachable write path: `--out` pointing at a
        // directory that does not exist must surface as Err from emit().
        let cli = parse(&["sweep", "--out", "/nonexistent-dir-for-sure/x.json"]).unwrap();
        let err = cli
            .emit("text".to_string(), "{}".to_string(), None)
            .unwrap_err();
        assert!(err.to_string().contains("No such file"), "{err}");
    }

    #[test]
    fn unknown_commands_are_errors_and_help_is_the_default() {
        let err = parse(&["fig13"]).unwrap_err();
        assert!(err.contains("unknown command \"fig13\""), "{err}");
        assert_eq!(parse(&[]).unwrap().command, "help");
        assert_eq!(parse(&["help"]).unwrap().command, "help");
    }

    #[test]
    fn a_flag_given_to_a_command_that_does_not_read_it_is_an_error() {
        let err = parse(&["fig1", "--events", "link"]).unwrap_err();
        assert!(err.contains("--events does not apply to fig1"), "{err}");
        let err = parse(&["conform", "--port", "1"]).unwrap_err();
        assert!(err.contains("--port does not apply to conform"), "{err}");
        let err = parse(&["all", "--out", "x.txt"]).unwrap_err();
        assert!(err.contains("--out does not apply to all"), "{err}");
        let err = parse(&["serve", "--json"]).unwrap_err();
        assert!(err.contains("--json does not apply to serve"), "{err}");
        // `figures` covers every figure command, and only those.
        assert!(parse(&["fig12", "--json"]).is_ok());
        assert!(parse(&["fig12", "--full"]).is_err());
    }

    /// Every invocation the README, the CI workflow and the verify notes
    /// show must keep parsing.
    #[test]
    fn documented_invocations_parse() {
        for line in [
            "fig1",
            "fig1 --json",
            "table1",
            "fig6 --full",
            "all",
            "sweep",
            "sweep --filter Abilene",
            "sweep --threads 0 --filter Abilene --format csv --out report.csv",
            "sweep --filter Abilene --threads 4 --format json --out sweep.json",
            "sweep --limit 4 --format csv",
            "sweep --filter Abilene --threads 2 --format json --out sweep-report.json",
            "sweep --filter Abilene --threads 2 --format csv --out sweep-report.csv",
            "conform",
            "conform --filter Geant --tolerance 0.02 --format json --out conform.json",
            "conform --filter Abilene --threads 2 --format json --out conform-report.json",
            "conform --compress",
            "conform --compress --compress-epsilon 0.005",
            "conform --filter Abilene --compress --threads 2 --format json --out c.json",
            "conform --filter Abilene --pareto --threads 2",
            "conform --filter Abilene --pareto --threads 2 --format csv --out pareto-abilene.csv",
            "conform --filter Abilene --pareto --format csv --out pareto.csv",
            "conform --filter Abilene --profile --trace-out trace.json --metrics-out metrics.json",
            "conform --filter Abilene --threads 2 --profile --metrics-out m.json --trace-out t.json",
            "conform --threads 1 --format json --out conform_off.json",
            "conform --compress --threads 1 --format json --out conform_lossy.json",
            "failures",
            "failures --filter Abilene --events link --format json --out failures.json",
            "failures --filter Abilene --events link --threads 2 --format json --out f.json",
            "serve --port 47391 --topology abilene --no-comparator",
            "serve --port 47391 --topology abilene --model gravity --budget 5",
            "serve --port 7300 --topology abilene --model gravity --budget 5",
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            if let Err(e) = parse(&args) {
                panic!("{line:?} no longer parses: {e}");
            }
        }
    }

    #[test]
    fn usage_lists_every_command_and_flag() {
        let text = usage();
        for c in COMMANDS {
            assert!(
                text.contains(&format!("  {:<12}{}", c.name, c.help)),
                "{}",
                c.name
            );
        }
        for f in FLAGS {
            assert!(text.contains(&format!("--{}", f.name)), "{}", f.name);
            for reader in f.readers.split(' ') {
                assert!(
                    reader == "figures" || find_command(reader).is_some(),
                    "--{} names unknown command {reader}",
                    f.name
                );
            }
        }
    }
}
