//! CLI contract tests: the `hpceval` binary must reject unknown
//! subcommands and malformed flags with usage text and a non-zero exit,
//! and its fleet subcommands must work end-to-end over a real socket.

use std::process::{Command, Output};

fn hpceval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpceval"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    for args in [&["frobnicate"][..], &[][..], &["--help-me"][..]] {
        let out = hpceval(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr(&out).contains("usage: hpceval"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn malformed_fleet_invocations_print_fleet_usage_and_fail() {
    let cases: &[&[&str]] = &[
        &["fleet"],                                             // missing subcommand
        &["fleet", "explode"],                                  // unknown subcommand
        &["fleet", "serve"],                                    // missing required --wal
        &["fleet", "serve", "--wal"],                           // flag without value
        &["fleet", "serve", "--wal", "x", "--bogus", "1"],      // unknown flag
        &["fleet", "serve", "--wal", "x", "--crash-p", "lots"], // bad number
        &["fleet", "submit"],                                   // no job specs
        &["fleet", "submit", "fly:xeon-e5462"],                 // unknown kind
        &["fleet", "submit", "evaluate"],                       // spec lacks server
        &["fleet", "status", "--job", "one"],                   // non-numeric id
        &["fleet", "drain", "extra"],                           // stray positional
        &["fleet", "route"],                                    // missing required --shards
        &["fleet", "route", "--shards", ","],                   // no addresses in list
        &["fleet", "route", "--relay", "x"],                    // unknown flag
        &["fleet", "bench", "--ops", "1"],                      // retired subcommand
    ];
    for args in cases {
        let out = hpceval(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains("usage: hpceval fleet"),
            "{args:?} must print fleet usage, got: {}",
            stderr(&out)
        );
    }
}

#[test]
fn unknown_server_still_fails_cleanly() {
    let out = hpceval(&["evaluate", "cray-1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown server"));
}

#[test]
fn servers_listing_succeeds() {
    let out = hpceval(&["servers"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Xeon-E5462", "Opteron-8347", "Xeon-4870"] {
        assert!(text.contains(name), "{text}");
    }
}

/// The CI smoke entry point: a daemon on an ephemeral port, submits over
/// TCP, one injected node crash, drains to all-Done|Degraded, exits 0.
#[test]
fn fleet_smoke_passes() {
    let out = hpceval(&["fleet", "smoke", "--seed", "2015"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {text}\nstderr: {}", stderr(&out));
    assert!(text.contains("smoke: OK"), "{text}");
}

#[test]
fn malformed_trace_invocations_print_trace_usage_and_fail() {
    let cases: &[&[&str]] = &[
        &["trace"],                                       // missing subcommand
        &["trace", "explode"],                            // unknown subcommand
        &["trace", "capture"],                            // missing kernel
        &["trace", "capture", "ua"],                      // unknown kernel
        &["trace", "capture", "dgemm", "extra"],          // stray positional
        &["trace", "capture", "dgemm", "--mode", "?"],    // bad mode
        &["trace", "capture", "dgemm", "--mode", "off"],  // off captures nothing
        &["trace", "capture", "dgemm", "--bogus", "1"],   // unknown flag
        &["trace", "replay", "cg", "--server", "cray-1"], // unknown server
        &["trace", "replay", "cg", "--seed", "many"],     // bad number
        &["trace", "stats", "extra"],                     // stray positional
    ];
    for args in cases {
        let out = hpceval(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains("usage: hpceval trace"),
            "{args:?} must print trace usage, got: {}",
            stderr(&out)
        );
    }
}

/// `trace capture`/`trace replay` print one line of JSON with the
/// pinned keys; the sampled capture is reproducible run-to-run.
#[test]
fn trace_capture_and_replay_emit_json() {
    let out = hpceval(&["trace", "capture", "is", "--mode", "sampled"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for key in ["\"kernel\":\"is\"", "\"mode\":\"sampled\"", "\"accesses\":", "\"encoded_bytes\":"]
    {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    let again = hpceval(&["trace", "capture", "is", "--mode", "sampled"]);
    assert_eq!(text, String::from_utf8_lossy(&again.stdout), "capture must be deterministic");

    let out = hpceval(&["trace", "replay", "stream", "--server", "xeon-e5462"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    for key in ["\"server\":\"Xeon-E5462\"", "\"mem_reads\":", "\"measured\":{\"l1_hit\":"] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
}

#[test]
fn malformed_tune_invocations_print_tune_usage_and_fail() {
    let cases: &[&[&str]] = &[
        &["tune"],                                  // missing subcommand
        &["tune", "explode"],                       // unknown subcommand
        &["tune", "report", "--servers", "cray-1"], // unknown server
        &["tune", "report", "--kernels", "warp"],   // unknown kernel
        &["tune", "report", "--servers", ","],      // empty list
        &["tune", "report", "--seed", "many"],      // bad number
        &["tune", "report", "--bogus", "1"],        // unknown flag
        &["tune", "report", "extra"],               // stray positional
        &["tune", "sweep", "--crash-p", "lots"],    // bad number
        &["tune", "frontier", "--check", "x"],      // check not a frontier flag
        &["tune", "smoke", "--shards", "0"],        // shardless sweep
        &["tune", "smoke", "--seed", "1"],          // smoke has no --seed
    ];
    for args in cases {
        let out = hpceval(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains("usage: hpceval tune"),
            "{args:?} must print tune usage, got: {}",
            stderr(&out)
        );
    }
}

/// The tune CI smoke entry point: a tiny fault-injected sweep through
/// sharded daemons, bitwise-checked against in-process measurement.
#[test]
fn tune_smoke_passes() {
    let out = hpceval(&["tune", "smoke"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {text}\nstderr: {}", stderr(&out));
    assert!(text.contains("tune smoke: OK"), "{text}");
}

/// `tune report` prints the strict-JSON report and self-checks against
/// its own output at zero drift.
#[test]
fn tune_report_emits_json_and_self_checks() {
    let args =
        &["tune", "report", "--servers", "Xeon-E5462", "--kernels", "ep", "--max-states", "2"];
    let out = hpceval(args);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for key in [
        "\"section_v_score\"",
        "\"frontier\"",
        "\"energy_optimal\"",
        "\"edp_optimal\"",
        "\"Xeon-E5462.energy_opt_j\"",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    let baseline = std::env::temp_dir().join(format!("tune-cli-{}.json", std::process::id()));
    std::fs::write(&baseline, &text).unwrap();
    let mut check = args.to_vec();
    let path = baseline.to_str().unwrap().to_string();
    check.extend(["--check", &path, "--tolerance", "0"]);
    let out = hpceval(&check);
    assert!(out.status.success(), "self-check at zero tolerance: {}", stderr(&out));
    assert_eq!(text, String::from_utf8_lossy(&out.stdout), "report must be deterministic");
    std::fs::remove_file(&baseline).unwrap();
}

/// status/drain against a daemon that isn't there must fail, not hang.
#[test]
fn client_commands_fail_fast_without_a_daemon() {
    // Port 9 (discard) is a safe "nothing listens here" target.
    for sub in ["status", "drain", "shutdown"] {
        let out = hpceval(&["fleet", sub, "--addr", "127.0.0.1:9"]);
        assert!(!out.status.success(), "{sub} must fail");
        assert!(stderr(&out).contains("cannot reach fleet daemon"), "{}", stderr(&out));
    }
}
