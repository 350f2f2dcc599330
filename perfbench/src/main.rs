//! `perfbench`: runs one benchmark workload, checks its outputs and prints
//! its metrics.
//!
//! ```text
//! perfbench --workload conform|failures|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run sets up several times, then repeats whole
//! passes of the workload for about `--seconds` seconds (at least two) and
//! reports the end-to-end metrics as medians. With `--trace 1` it runs one
//! untraced pass and two traced passes, reports per-layer self time and work
//! counters, the tracing overhead, and fails unless the two traced passes
//! count exactly the same work. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use coyote_bench::FailureGrid;
use coyote_obs::{Registry, Snapshot, TraceEvent};
use coyote_ospf::CompressionLevel;
use coyote_perfbench::serve::Class;
use coyote_perfbench::{conform, failures, selftime, serve, stats};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is timed in blocks of repeated set-ups, each at least this long:
/// one before the first pass and one after each untraced pass. A block's
/// sample is its mean time per set-up, and `setup_s` is the median over
/// blocks. The shared host switches every fraction of a second between two
/// speeds a factor of two apart (a conform set-up takes 75 or 140 µs), so a
/// short burst of set-ups, or the median of single set-ups, reads one speed
/// or the other; a block mean reads their mix, as a whole pass does.
const SETUP_BLOCK: Duration = Duration::from_secs(1);
/// Set-ups per block at least (a daemon start takes milliseconds).
const MIN_BLOCK_SETUPS: usize = 11;
/// Untraced passes per run at least, however short `--seconds` is: host
/// speed drifts within seconds, and a median over passes damps it.
const MIN_PASSES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["conform", "failures", "serve", "all"].contains(&args.workload.as_str()) {
        return Err("--workload must be conform, failures, serve or all".into());
    }
    Ok(args)
}

enum Inputs {
    Conform(conform::Inputs),
    Failures(FailureGrid),
    Serve(Vec<serve::Op>),
}

/// What a traced pass recorded.
struct Trace {
    snapshot: Snapshot,
    events: Vec<TraceEvent>,
}

/// What one pass over a workload produced.
#[derive(Default)]
struct Pass {
    /// Time to finish the grid or the request script.
    wall_s: f64,
    attempted: usize,
    failed: usize,
    /// Failed output checks, described.
    errors: Vec<String>,
    ratio_geomean: f64,
    /// Fake nodes: summed over cells, or (serve) the mean over reads.
    fake_nodes: f64,
    /// Operation latency in ms per class.
    latency_ms: BTreeMap<&'static str, Vec<f64>>,
    /// serve: engine re-optimization time in ms per update class.
    engine_ms: BTreeMap<&'static str, Vec<f64>>,
    /// serve: latency minus engine time in ms per class.
    http_ms: BTreeMap<&'static str, Vec<f64>>,
    trace: Option<Trace>,
}

impl Pass {
    /// The outputs that must repeat exactly from pass to pass.
    fn outputs(&self) -> (usize, usize, u64, u64) {
        (
            self.attempted,
            self.failed,
            self.ratio_geomean.to_bits(),
            self.fake_nodes.to_bits(),
        )
    }

    /// Geometric mean over request classes of each class's median latency.
    /// Tails are reported per class by the traced run: a conform pass has
    /// only 28 cells, too few for a stable p90.
    fn op_p50_ms(&self) -> f64 {
        stats::geomean(self.latency_ms.values().map(|v| stats::percentile(v, 0.5)))
    }
}

fn start_trace(trace: bool) -> Option<Arc<Registry>> {
    trace.then(|| {
        let registry = Arc::new(Registry::new());
        coyote_obs::install(registry.clone());
        registry
    })
}

fn finish_trace(registry: Option<Arc<Registry>>) -> Option<Trace> {
    registry.map(|registry| {
        coyote_obs::uninstall();
        Trace {
            snapshot: registry.snapshot(),
            events: registry.trace_events(),
        }
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_pass(inputs: &Inputs, trace: bool) -> Result<Pass, String> {
    Ok(match inputs {
        Inputs::Conform(inputs) => conform_pass(inputs, trace),
        Inputs::Failures(grid) => failures_pass(grid, trace)?,
        Inputs::Serve(script) => serve_pass(script, trace)?,
    })
}

fn conform_pass(inputs: &conform::Inputs, trace: bool) -> Pass {
    let registry = start_trace(trace);
    let started = Instant::now();
    let mut pass = Pass::default();
    let mut latency = Vec::new();
    let mut ratios = Vec::new();
    for (spec, scenario) in inputs.specs.iter().zip(&inputs.scenarios) {
        let cell_started = Instant::now();
        let cell = conform::compose_cell(
            spec,
            scenario,
            conform::TOLERANCE,
            CompressionLevel::lossy(),
        );
        latency.push(ms(cell_started.elapsed()));
        pass.attempted += 1;
        match cell {
            Ok(cell) => {
                pass.failed += usize::from(!cell.record.within_tolerance);
                pass.fake_nodes += cell.record.fake_nodes as f64;
                ratios.push(cell.coyote_partial);
            }
            Err(e) => {
                pass.failed += 1;
                eprintln!("conform cell {} failed: {e}", spec.id());
            }
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.trace = finish_trace(registry);
    pass.ratio_geomean = stats::geomean(ratios);
    pass.latency_ms.insert("cell", latency);
    pass
}

fn failures_pass(grid: &FailureGrid, trace: bool) -> Result<Pass, String> {
    let registry = start_trace(trace);
    let started = Instant::now();
    let report = failures::run(grid);
    let wall_s = started.elapsed().as_secs_f64();
    let trace = finish_trace(registry);
    let report = report.map_err(|e| format!("run_failures: {e}"))?;
    let records = &report.records;
    Ok(Pass {
        wall_s,
        attempted: records.len(),
        failed: records.iter().filter(|r| failures::failed(r)).count(),
        ratio_geomean: stats::geomean(records.iter().filter_map(|r| r.degradation_ratio)),
        fake_nodes: records
            .iter()
            .filter_map(|r| r.reoptimized.as_ref())
            .map(|m| m.fake_nodes as f64)
            .sum(),
        latency_ms: BTreeMap::from([("cell", records.iter().map(|r| r.wall_secs * 1e3).collect())]),
        trace,
        ..Pass::default()
    })
}

fn serve_pass(script: &[serve::Op], trace: bool) -> Result<Pass, String> {
    let daemon = serve::start()?;
    // The registry goes in after the daemon is healthy, so the traced
    // counters cover the replay alone.
    let registry = start_trace(trace);
    let since = registry.as_ref().map_or_else(Instant::now, |r| r.epoch());
    let mut snapshot = None;
    let replay = serve::replay(daemon.server.addr(), script, since, || {
        snapshot = registry.as_ref().map(|r| r.snapshot());
    });
    let trace = finish_trace(registry);
    serve::stop(daemon.server);
    let replay = replay?;

    let mut pass = Pass {
        wall_s: replay.wall.as_secs_f64(),
        attempted: replay.samples.len(),
        failed: replay.samples.iter().filter(|s| s.status != 200).count(),
        fake_nodes: stats::mean(replay.samples.iter().filter_map(|s| s.fake_nodes)),
        ratio_geomean: stats::geomean(replay.samples.iter().filter_map(|s| s.max_utilization)),
        ..Pass::default()
    };
    if !replay.identical {
        pass.errors
            .push("POST /recompile: incremental state differs from a cold recompile".into());
    }
    for s in &replay.samples {
        let latency = ms(s.latency);
        let engine = s.reopt_micros.map_or(0.0, |us| us as f64 / 1e3);
        pass.latency_ms
            .entry(s.class.name())
            .or_default()
            .push(latency);
        pass.http_ms
            .entry(s.class.name())
            .or_default()
            .push(latency - engine);
        if s.reopt_micros.is_some() {
            pass.engine_ms
                .entry(s.class.name())
                .or_default()
                .push(engine);
        }
    }
    // Attribute the daemon's spans to the scripted requests: with one
    // closed-loop client, every server span inside a request's interval
    // belongs to that request, and set-up and the final checks drop out.
    pass.trace = trace.map(|t| {
        let windows: Vec<(u64, u64)> = replay.samples.iter().map(|s| s.window_ns).collect();
        Trace {
            snapshot: snapshot.unwrap_or(t.snapshot),
            events: selftime::within(&t.events, &windows),
        }
    });
    Ok(pass)
}

fn build_inputs(workload: &str, seed: u64) -> Result<Inputs, String> {
    Ok(match workload {
        "conform" => Inputs::Conform(conform::setup().map_err(|e| e.to_string())?),
        "failures" => Inputs::Failures(failures::setup(seed).map_err(|e| e.to_string())?),
        _ => Inputs::Serve(serve::script(seed)),
    })
}

/// Sets the workload up repeatedly for one [`SETUP_BLOCK`] and returns the
/// inputs with the mean set-up time. A batch set-up builds the grid, its
/// topologies and (failures) the event catalogue; a serve set-up starts the
/// daemon and waits until it is healthy (its `/healthz` poll is timed, its
/// shutdown is not), then stops it again.
fn setup_block(workload: &str, seed: u64) -> Result<(Inputs, f64), String> {
    let block = Instant::now();
    let mut total = Duration::ZERO;
    let mut count = 0;
    let mut inputs = None;
    while count < MIN_BLOCK_SETUPS || block.elapsed() < SETUP_BLOCK {
        if workload == "serve" {
            let daemon = serve::start()?;
            total += daemon.setup;
            serve::stop(daemon.server);
        } else {
            let started = Instant::now();
            inputs = Some(build_inputs(workload, seed)?);
            total += started.elapsed();
        }
        count += 1;
    }
    let inputs = match inputs {
        Some(inputs) => inputs,
        None => build_inputs(workload, seed)?,
    };
    Ok((inputs, total.as_secs_f64() / count as f64))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.to_string(),
    }
}

/// The end-to-end metrics of untraced passes (medians over passes).
fn end_to_end(passes: &[Pass], setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    Ok(vec![
        metric("setup_s", stats::median(setup_s), "s"),
        metric("wall_s", med(&|p| p.wall_s), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("ratio_geomean", passes[0].ratio_geomean, "ratio"),
        metric("fake_nodes", passes[0].fake_nodes, "count"),
        metric("op_p50_ms", med(&|p| p.op_p50_ms()), "ms"),
    ])
}

/// The per-layer metrics of one traced pass; `untraced` supplies the
/// serve latency split, which needs no trace.
fn per_layer(traced: &Pass, untraced: &Pass) -> Vec<Metric> {
    let trace = traced.trace.as_ref().expect("traced pass has a trace");
    let self_ns = selftime::by_name(&trace.events);
    let incl_ns = selftime::inclusive_by_name(&trace.events);
    let secs =
        |map: &BTreeMap<&str, u64>, name: &str| map.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let snap = &trace.snapshot;
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum as f64);
    let timing_s = |name: &str| snap.timings.get(name).map_or(0.0, |h| h.sum as f64 / 1e9);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = Vec::new();
    for stage in ["evaluate", "compile", "realize", "verify", "simulate"] {
        out.push(metric(
            format!("stage.{stage}_s"),
            secs(&incl_ns, &format!("stage.{stage}")),
            "s",
        ));
    }
    let self_spans = [
        "core.optimize_splitting",
        "core.opt_mcf",
        "core.worst_case",
        "lp.solve",
        "ospf.spf",
        "failures.prune",
        "failures.reconverge",
        "failures.reopt",
        "ospf.compile",
        "ospf.compress",
        "sim.flowsim",
        "core.incremental.solve",
    ];
    for span in self_spans {
        out.push(metric(format!("{span}.self_s"), secs(&self_ns, span), "s"));
    }
    let counters = [
        "gp.adam.iterations",
        "core.cg.rounds",
        "core.opt_mcf.solves",
        "core.worst_case.lp_solves",
        "lp.solves",
        "lp.pivots",
        "lp.refactorizations",
        "ospf.spf.runs",
        "ospf.compress.merged",
        "ospf.fake_nodes",
        "sim.flowsim.rounds",
        "core.incremental.solves",
    ];
    for name in counters {
        out.push(metric(name, count(name), "count"));
    }
    out.push(metric(
        "lp.warm_hit_ratio",
        ratio(
            count("lp.warm_solves"),
            count("lp.warm_solves") + count("lp.warm_fallbacks"),
        ),
        "ratio",
    ));
    for name in ["serve.delta.prefixes", "serve.delta.fakes_added"] {
        out.push(metric(name, hist_sum(name), "count"));
    }
    let busy = timing_s("runtime.pool.worker_busy");
    // Workers per parallel pool call (a serial call spawns none).
    let workers = trace
        .events
        .iter()
        .filter(|e| e.name == "runtime.pool.worker")
        .count() as f64;
    let pool_threads = ratio(workers, count("runtime.pool.calls"));
    out.push(metric("runtime.pool.busy_s", busy, "s"));
    out.push(metric(
        "runtime.pool.idle_s",
        timing_s("runtime.pool.worker_idle"),
        "s",
    ));
    out.push(metric(
        "runtime.pool.efficiency",
        ratio(busy, pool_threads * traced.wall_s),
        "ratio",
    ));
    let p50 = |map: &BTreeMap<&str, Vec<f64>>, class: Class| {
        map.get(class.name())
            .map_or(0.0, |v| stats::percentile(v, 0.5))
    };
    for class in [Class::Demand, Class::Link] {
        out.push(metric(
            format!("serve.{}.engine_ms", class.name()),
            p50(&untraced.engine_ms, class),
            "ms",
        ));
    }
    for class in Class::ALL {
        let name = class.name();
        out.push(metric(
            format!("serve.{name}.http_ms"),
            p50(&untraced.http_ms, class),
            "ms",
        ));
        let latency = untraced.latency_ms.get(name).map_or(&[][..], Vec::as_slice);
        out.push(metric(
            format!("serve.{name}.p50_ms"),
            stats::percentile(latency, 0.5),
            "ms",
        ));
        out.push(metric(
            format!("serve.{name}.p90_ms"),
            stats::percentile(latency, 0.9),
            "ms",
        ));
    }
    out
}

/// Element-wise median of per-layer metric lists with the same names.
fn median_metrics(lists: Vec<Vec<Metric>>) -> Vec<Metric> {
    let mut lists = lists.into_iter();
    let mut first = lists.next().unwrap_or_default();
    let rest: Vec<Vec<Metric>> = lists.collect();
    for (i, m) in first.iter_mut().enumerate() {
        let mut values = vec![m.value];
        values.extend(rest.iter().map(|l| l[i].value));
        m.value = stats::median(&values);
    }
    first
}

/// Counters and value-histogram sums of a traced pass (the deterministic
/// part of its snapshot), for the exact-repeat check and the report.
fn work_counts(trace: &Trace) -> BTreeMap<String, u128> {
    let det = trace.snapshot.deterministic();
    let mut counts: BTreeMap<String, u128> = det
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), u128::from(*v)))
        .collect();
    counts.extend(
        det.histograms
            .iter()
            .map(|(k, h)| (format!("{k}.sum"), h.sum)),
    );
    counts
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra `key value` lines printed before the result.
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (inputs, first_block) = setup_block(&args.workload, args.seed)?;
    let mut setup_s = vec![first_block];
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = Vec::new();
    if args.trace {
        for traced in [false, true, true] {
            passes.push(run_pass(&inputs, traced)?);
        }
    } else {
        loop {
            let started = Instant::now();
            passes.push(run_pass(&inputs, false)?);
            setup_s.push(setup_block(&args.workload, args.seed)?.1);
            if passes.len() >= MIN_PASSES && Instant::now() + started.elapsed() > deadline {
                break;
            }
        }
    }

    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    if passes.iter().any(|p| p.outputs() != passes[0].outputs()) {
        errors.push("pass outputs differ between passes".into());
    }
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let counts: Vec<_> = passes[1..]
            .iter()
            .map(|p| work_counts(p.trace.as_ref().expect("traced")))
            .collect();
        if counts[0] != counts[1] {
            errors.push("work counters differ between the two traced passes".into());
        }
        notes.push(format!(
            "counters {}",
            json_object(counts[0].iter().map(|(k, v)| (k.clone(), v.to_string())))
        ));
        let untraced_s = passes[0].wall_s;
        let traced_s = stats::median(&[passes[1].wall_s, passes[2].wall_s]);
        notes.push(fingerprint(args, untraced_s, Some(traced_s)));
        let mut metrics = median_metrics(
            passes[1..]
                .iter()
                .map(|p| per_layer(p, &passes[0]))
                .collect(),
        );
        metrics.push(metric("trace.wall_untraced_s", untraced_s, "s"));
        metrics.push(metric("trace.wall_traced_s", traced_s, "s"));
        metrics.push(metric(
            "trace.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ));
        metrics
    } else {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        notes.push(fingerprint(args, stats::median(&walls), None));
        end_to_end(&passes, &setup_s)?
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("metric {} is not finite", m.name));
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let list =
        |v: &mut dyn Iterator<Item = f64>| v.map(|x| x.to_string()).collect::<Vec<_>>().join(",");
    notes.push(format!(
        "pass_walls_s [{}]",
        list(&mut passes.iter().map(|p| p.wall_s))
    ));
    notes.push(format!(
        "setup_block_means_s [{}]",
        list(&mut setup_s.iter().copied())
    ));
    Ok(Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Host fingerprint: cores, CPU model, toolchain and commit, plus walls.
fn fingerprint(args: &Args, untraced_s: f64, traced_s: Option<f64>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", quote(&cpu)),
        ("rustc", quote(&output("rustc", &["--version"]))),
        // Only a checkout's own `.git`: git would otherwise report the
        // commit of any repository that happens to enclose the directory.
        (
            "git_commit",
            quote(&if std::path::Path::new(".git").exists() {
                output("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            }),
        ),
        ("wall_untraced_s", untraced_s.to_string()),
        (
            "wall_traced_s",
            traced_s.map_or("null".into(), |t| t.to_string()),
        ),
    ];
    format!(
        "fingerprint {}",
        json_object(fields.iter().map(|(k, v)| (k.to_string(), v.clone())))
    )
}

fn quote(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn json_object(fields: impl Iterator<Item = (String, String)>) -> String {
    let body: Vec<String> = fields.map(|(k, v)| format!("{}:{v}", quote(&k))).collect();
    format!("{{{}}}", body.join(","))
}

fn result_line(outcome: &Outcome) -> String {
    let metrics = json_object(outcome.metrics.iter().map(|m| {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        (
            m.name.clone(),
            format!("{{\"value\":{value},\"unit\":{}}}", quote(&m.unit)),
        )
    }));
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn print_outcome(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", result_line(outcome));
}

/// `--workload all`: each workload in a child process of its own (so no
/// process-wide cache carries over), then one combined result line with
/// `workload.metric` names.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut combined = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    for workload in ["conform", "failures", "serve"] {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("== {workload}\n{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let doc = coyote_serve::json::parse(last).map_err(|e| format!("{workload} result: {e}"))?;
        let field = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as usize;
        combined.correct &=
            output.status.success() && doc.get("correct").and_then(|v| v.as_bool()) == Some(true);
        combined.attempted += field("attempted");
        combined.failed += field("failed");
        if let Some(coyote_serve::JsonValue::Object(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let unit = match m.get("unit") {
                    Some(coyote_serve::JsonValue::String(u)) => u.as_str(),
                    _ => "",
                };
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                combined
                    .metrics
                    .push(metric(format!("{workload}.{name}"), value, unit));
            }
        }
    }
    Ok(combined)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(outcome) => {
            print_outcome(&outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
