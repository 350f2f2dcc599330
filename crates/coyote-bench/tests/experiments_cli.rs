//! Binary-level tests of the `experiments` command line: what a user sees
//! on stdout/stderr and the exit code, for a fast command in every format.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).expect("stderr is UTF-8")
}

#[test]
fn gadget_renders_as_text() {
    let out = experiments(&["gadget"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        concat!(
            "== Theorem 1: BIPARTITION gadget (weights [1.0, 2.0, 3.0, 4.0]) ==\n",
            "    gadget orientation  ratio\n",
            "-----------------------------\n",
            "  balanced orientation   1.33\n",
            "unbalanced orientation   2.00\n",
        )
    );
}

#[test]
fn gadget_renders_as_json() {
    let out = experiments(&["gadget", "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = coyote_serve::json::parse(stdout(&out)).expect("stdout is one JSON document");
    let weights: Vec<f64> = doc
        .get("weights")
        .and_then(|w| w.as_array())
        .expect("weights array")
        .iter()
        .map(|w| w.as_f64().expect("numeric weight"))
        .collect();
    assert_eq!(weights, [1.0, 2.0, 3.0, 4.0]);
    let balanced = doc.get("balanced_ratio").and_then(|v| v.as_f64()).unwrap();
    let unbalanced = doc
        .get("unbalanced_ratio")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!((balanced - 4.0 / 3.0).abs() < 1e-4, "{balanced}");
    assert!((unbalanced - 2.0).abs() < 1e-4, "{unbalanced}");
}

#[test]
fn gadget_refuses_csv() {
    let out = experiments(&["gadget", "--format", "csv"]);
    assert!(!out.status.success(), "csv must be refused for gadget");
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("--format csv is not supported for gadget"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_command_prints_usage_to_stderr_and_exits_2() {
    let out = experiments(&["fig13"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(
        stderr(&out).starts_with("error: unknown command \"fig13\""),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("usage: experiments <command> [flags]"));
}

#[test]
fn help_and_a_missing_command_print_usage_and_succeed() {
    for args in [&["help"][..], &[]] {
        let out = experiments(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).starts_with("usage: experiments <command> [flags]"));
        assert!(stdout(&out).contains("  --events E"), "{}", stdout(&out));
    }
}

#[test]
fn a_flag_the_command_does_not_read_exits_2() {
    let out = experiments(&["fig1", "--events", "link"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--events does not apply to fig1"),
        "{}",
        stderr(&out)
    );
}
