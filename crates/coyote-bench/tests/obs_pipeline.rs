//! Integration tests for the observability layer wired through the
//! conformance pipeline:
//!
//! * a profiled conformance run on Abilene exports a chrome://tracing
//!   trace that is valid JSON and whose span names cover every pipeline
//!   stage (compile → SPF → LP → flow simulation);
//! * the deterministic snapshot sections (counters + value histograms) are
//!   bit-identical between `threads = 1` and `threads = 2` — the property
//!   the CI profile smoke step asserts on the full artifacts.
//!
//! The vendored `serde_json` stand-in serializes only, so validity is
//! checked with a small recursive-descent JSON recognizer instead of a
//! parser round-trip.

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{run_conformance, BaseModel, Effort, SweepGrid, WeightHeuristic};
use coyote_obs::{chrome_trace_json, install, metrics_json, uninstall, Registry};
use std::sync::{Arc, Mutex, MutexGuard};

/// The observability sink is process-global; tests that install a registry
/// must not run concurrently with each other.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    SINK_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// One conformance cell: Abilene × gravity at margin 2.0 — enough to
/// exercise compile, SPF, LP, CG and flow simulation.
fn abilene_grid() -> SweepGrid {
    SweepGrid::cross(
        &["Abilene"],
        &[BaseModel::Gravity],
        &[2.0],
        &[WeightHeuristic::InverseCapacity],
        Effort::Quick,
    )
}

/// Runs the Abilene conformance cell with a fresh registry installed and
/// returns the registry (caller must hold the sink lock).
fn profiled_run(threads: usize) -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    install(registry.clone());
    let report =
        run_conformance(&abilene_grid(), threads, DEFAULT_TOLERANCE).expect("conformance run");
    uninstall();
    assert_eq!(report.cells, 1);
    registry
}

/// Minimal recursive-descent JSON recognizer (RFC 8259 grammar, no value
/// construction): accepts exactly the strings that are one JSON value.
struct JsonChecker<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonChecker<'a> {
    fn new(text: &'a str) -> Self {
        JsonChecker {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => {
                    let esc = self.peek().ok_or("truncated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            for _ in 0..4 {
                                let h = self.peek().ok_or("truncated \\u escape")?;
                                if !h.is_ascii_hexdigit() {
                                    return Err(format!("bad \\u digit at byte {}", self.pos));
                                }
                                self.pos += 1;
                            }
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control byte in string at {}", self.pos)),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |c: &mut Self| -> Result<(), String> {
            let start = c.pos;
            while matches!(c.peek(), Some(b'0'..=b'9')) {
                c.pos += 1;
            }
            if c.pos == start {
                Err(format!("expected digit at byte {}", c.pos))
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

/// Asserts `text` is exactly one JSON value (plus surrounding whitespace).
fn assert_valid_json(text: &str, what: &str) {
    let mut checker = JsonChecker::new(text);
    checker
        .value()
        .unwrap_or_else(|e| panic!("{what} is not valid JSON: {e}"));
    checker.skip_ws();
    assert_eq!(
        checker.pos,
        text.len(),
        "{what} has trailing garbage after the JSON value"
    );
}

#[test]
fn json_checker_recognizes_the_grammar() {
    assert_valid_json(
        r#"{"a": [1, -2.5e3, "x\n\u00e9", true, null], "b": {}}"#,
        "sample",
    );
    for bad in ["{", "[1,]", "\"\\q\"", "01x", "{\"a\" 1}", "[] []"] {
        let mut checker = JsonChecker::new(bad);
        let complete = checker.value().is_ok() && {
            checker.skip_ws();
            checker.pos == bad.len()
        };
        assert!(!complete, "checker accepted invalid JSON {bad:?}");
    }
}

#[test]
fn chrome_trace_is_valid_json_and_covers_every_pipeline_stage() {
    let _guard = exclusive();
    let registry = profiled_run(1);

    let trace = chrome_trace_json(&registry);
    assert_valid_json(&trace, "chrome trace");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":\"X\""));

    // Every stage of the pipeline left at least one span in the trace.
    for stage in [
        "conform.cell",
        "conform.verify",
        "conform.flowsim",
        "bench.evaluate_scenario",
        "core.optimize_splitting",
        "core.opt_mcf",
        "core.worst_case",
        "lp.solve",
        "ospf.compile",
        "ospf.spf",
        "sim.flowsim",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{stage}\"")),
            "trace is missing pipeline stage {stage}"
        );
    }

    let metrics = metrics_json(&registry.snapshot());
    assert_valid_json(&metrics, "metrics snapshot");
    for section in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"timings\"",
    ] {
        assert!(
            metrics.contains(section),
            "metrics missing section {section}"
        );
    }
}

#[test]
fn deterministic_metrics_are_bit_identical_across_thread_counts() {
    let _guard = exclusive();
    // `BaseModel::generate_cached` keeps base matrices process-wide, so
    // `bench.base_matrices_generated` counts only in whichever run meets a
    // cold cache. Warm it unprofiled so both profiled runs see it warm,
    // whatever ran earlier in this process.
    run_conformance(&abilene_grid(), 1, DEFAULT_TOLERANCE).expect("warm-up run");
    let serial = profiled_run(1);
    let parallel = profiled_run(2);

    let serial_view = serial.snapshot().deterministic();
    let parallel_view = parallel.snapshot().deterministic();
    assert_eq!(
        metrics_json(&serial_view),
        metrics_json(&parallel_view),
        "deterministic metrics diverged between threads=1 and threads=2"
    );

    // The run did real work: the workload counters are non-trivial.
    for counter in [
        "lp.pivots",
        "lp.solves",
        "core.cg.rounds",
        "ospf.fake_nodes",
        "sim.flowsim.rounds",
        "runtime.pool.items",
    ] {
        assert!(
            serial_view.counters.get(counter).copied().unwrap_or(0) > 0,
            "counter {counter} was never incremented"
        );
    }
}
