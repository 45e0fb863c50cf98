//! End-to-end tests of the `dim` CLI binary.

use std::process::Command;

fn dim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dim"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = dim().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dim-cli-{}-{name}", std::process::id()))
}

#[test]
fn help_lists_commands() {
    let (ok, _, err) = run(&["help"]);
    assert!(ok);
    for cmd in ["stats", "im", "coverage", "simulate", "generate"] {
        assert!(err.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn no_args_fails_with_usage() {
    let out = dim().output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_command_fails() {
    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn stats_on_profile() {
    let (ok, out, _) = run(&["stats", "--graph", "profile:facebook:0.05"]);
    assert!(ok);
    assert!(out.contains("n="));
    assert!(out.contains("LT-compatible: yes"));
}

#[test]
fn generate_then_stats_then_im_roundtrip() {
    let path = temp_path("roundtrip.txt");
    let path_s = path.to_str().unwrap();
    let (ok, out, err) =
        run(&["generate", "--profile", "facebook:0.05", "--out", path_s, "--seed", "3"]);
    assert!(ok, "generate failed: {err}");
    assert!(out.contains("wrote"));

    let (ok, out, _) = run(&["stats", "--graph", path_s]);
    assert!(ok);
    assert!(out.contains("n=202"), "unexpected stats: {out}");

    let (ok, out, err) = run(&[
        "im", "--graph", path_s, "--k", "3", "--machines", "2", "--epsilon", "0.4",
        "--evaluate", "--sims", "2000",
    ]);
    assert!(ok, "im failed: {err}");
    assert!(out.contains("seeds:"));
    assert!(out.contains("estimated spread"));
    assert!(out.contains("simulated spread"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_reports_spread() {
    let (ok, out, _) = run(&[
        "simulate", "--graph", "profile:facebook:0.05", "--seeds", "0,1", "--sims", "1000",
    ]);
    assert!(ok);
    assert!(out.contains("σ("));
}

#[test]
fn simulate_rejects_out_of_range_seed() {
    let (ok, _, err) = run(&[
        "simulate", "--graph", "profile:facebook:0.05", "--seeds", "999999",
    ]);
    assert!(!ok);
    assert!(err.contains("out of range"));
}

#[test]
fn coverage_subcommand() {
    let (ok, out, _) = run(&[
        "coverage", "--graph", "profile:facebook:0.05", "--k", "5", "--machines", "4",
    ]);
    assert!(ok);
    assert!(out.contains("covered"));
}

#[test]
fn im_algorithms_all_run() {
    for algo in ["imm", "diimm", "opim", "subsim"] {
        let (ok, out, err) = run(&[
            "im", "--graph", "profile:facebook:0.05", "--k", "2", "--epsilon", "0.5",
            "--algorithm", algo,
        ]);
        assert!(ok, "{algo} failed: {err}");
        assert!(out.contains("seeds:"), "{algo}: {out}");
    }
}

#[test]
fn im_breakdown_prints_phase_rows() {
    let (ok, out, err) = run(&[
        "im", "--graph", "profile:facebook:0.05", "--k", "2", "--epsilon", "0.5",
        "--machines", "2", "--breakdown",
    ]);
    assert!(ok, "im --breakdown failed: {err}");
    assert!(out.contains("phase"), "missing breakdown header: {out}");
    assert!(out.contains("measured (s)"), "missing measured column: {out}");
    for label in ["rr-sampling", "coverage-upload", "seed-select"] {
        assert!(out.contains(label), "missing {label} row: {out}");
    }
}

#[test]
fn coverage_breakdown_prints_phase_rows() {
    let (ok, out, _) = run(&[
        "coverage", "--graph", "profile:facebook:0.05", "--k", "3", "--machines", "2",
        "--breakdown",
    ]);
    assert!(ok);
    assert!(out.contains("coverage-upload"), "{out}");
}

#[test]
fn subsim_rejects_lt() {
    let (ok, _, err) = run(&[
        "im", "--graph", "profile:facebook:0.05", "--algorithm", "subsim", "--model", "lt",
    ]);
    assert!(!ok);
    assert!(err.contains("IC model only"));
}

#[test]
fn bad_flag_value_reported() {
    let (ok, _, err) = run(&["im", "--graph", "profile:facebook:0.05", "--epsilon", "huge"]);
    assert!(!ok);
    assert!(err.contains("bad --epsilon"));
}

/// Run parameters outside the frameworks' domain exit 1 naming the flag,
/// before any work: not a panic (exit 101), and not an OPIM-C run whose
/// target 1 − 1/e − ε ≤ 0 stops it after round 1 with no guarantee.
#[test]
fn out_of_range_parameters_exit_1_naming_the_flag() {
    for (cmd, bad, flag) in [
        ("im", &["--machines", "0"][..], "--machines"),
        ("im", &["--k", "0"], "--k"),
        ("im", &["--epsilon", "1.5"], "--epsilon"),
        ("im", &["--epsilon", "0"], "--epsilon"),
        ("im", &["--delta", "2"], "--delta"),
        ("im", &["--algorithm", "opim", "--epsilon", "1.5"], "--epsilon"),
        ("im", &["--algorithm", "opim", "--epsilon", "-1"], "--epsilon"),
        ("sample", &["--machines", "0", "--out", "never-written"], "--machines"),
        ("coverage", &["--machines", "0"], "--machines"),
    ] {
        let out = dim()
            .args([cmd, "--graph", "profile:facebook:0.05", "--k", "2"])
            .args(bad)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {bad:?}: {err}");
        assert!(err.contains(flag), "{cmd} {bad:?}: {err}");
    }
}

#[test]
fn uniform_weight_model_flag() {
    let (ok, out, _) = run(&[
        "stats", "--graph", "profile:facebook:0.05", "--weights", "uniform:0.9",
    ]);
    assert!(ok);
    // With Σ in-probs = 0.9·indeg > 1 on multi-in-degree nodes, the LT
    // constraint fails — the stats command surfaces that.
    assert!(out.contains("LT-compatible: no"), "{out}");
}

#[test]
fn sample_then_load_rr_is_byte_identical_across_processes() {
    let dir = temp_path("sketch-roundtrip");
    let dir_s = dir.to_str().unwrap();
    let (ok, out, err) = run(&[
        "sample", "--graph", "profile:facebook:0.05", "--k", "3", "--machines", "2",
        "--epsilon", "0.5", "--seed", "19", "--out", dir_s,
    ]);
    assert!(ok, "sample failed: {err}");
    let sampled_seeds = out
        .lines()
        .find(|l| l.starts_with("seeds:"))
        .expect("sample prints seeds")
        .to_owned();
    assert!(out.contains("sketch: 2 shard(s)"), "{out}");

    // A *separate process* reloads the sketch and must re-derive the very
    // same seed set — the snapshot carries everything the selection needs.
    let (ok, out, err) = run(&[
        "im", "--graph", "profile:facebook:0.05", "--k", "3", "--epsilon", "0.5",
        "--seed", "19", "--load-rr", dir_s,
    ]);
    assert!(ok, "im --load-rr failed: {err}");
    let loaded_seeds = out
        .lines()
        .find(|l| l.starts_with("seeds:"))
        .expect("im prints seeds")
        .to_owned();
    assert_eq!(sampled_seeds, loaded_seeds);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_rr_mismatch_and_corruption_are_typed_errors() {
    let dir = temp_path("sketch-negative");
    let dir_s = dir.to_str().unwrap();
    let (ok, _, err) = run(&[
        "sample", "--graph", "profile:facebook:0.05", "--k", "2", "--machines", "2",
        "--seed", "23", "--out", dir_s,
    ]);
    assert!(ok, "sample failed: {err}");

    // Wrong graph: the fingerprint check refuses to select on someone
    // else's RR sets.
    let (ok, _, err) = run(&[
        "im", "--graph", "profile:facebook:0.08", "--k", "2", "--seed", "23",
        "--load-rr", dir_s,
    ]);
    assert!(!ok);
    assert!(err.contains("fingerprint mismatch"), "{err}");

    // Truncated shard: a typed corruption error, not a panic.
    let victim = dir.join("shard-1-of-2.rrs");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let (ok, _, err) = run(&[
        "im", "--graph", "profile:facebook:0.05", "--k", "2", "--seed", "23",
        "--load-rr", dir_s,
    ]);
    assert!(!ok);
    assert!(err.contains("corrupt snapshot shard"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_query_roundtrip() {
    use std::io::BufRead;

    let dir = temp_path("sketch-serve");
    let dir_s = dir.to_str().unwrap();
    let (ok, _, err) = run(&[
        "sample", "--graph", "profile:facebook:0.05", "--k", "3", "--machines", "2",
        "--seed", "29", "--out", dir_s,
    ]);
    assert!(ok, "sample failed: {err}");

    // Serve on an ephemeral port; the daemon prints its bound address and
    // exits cleanly after --max-queries.
    let mut server = dim()
        .args([
            "serve", "--graph", "profile:facebook:0.05", "--seed", "29", "--store", dir_s,
            "--addr", "127.0.0.1:0", "--max-queries", "3",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let stdout = server.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").unwrap();
    assert!(banner.starts_with("dim-serve: listening on "), "{banner}");
    let addr = banner["dim-serve: listening on ".len()..]
        .split_whitespace()
        .next()
        .unwrap()
        .to_owned();

    let (ok, out, err) = run(&["query", "--addr", &addr, "--stats"]);
    assert!(ok, "query --stats failed: {err}");
    assert!(out.contains("RR sets in 2 shard(s)"), "{out}");

    let (ok, out, err) = run(&["query", "--addr", &addr, "--seeds", "0,1"]);
    assert!(ok, "query --seeds failed: {err}");
    assert!(out.contains("estimated spread"), "{out}");

    let (ok, out, err) = run(&["query", "--addr", &addr, "--k", "2"]);
    assert!(ok, "query --k failed: {err}");
    assert!(out.contains("seeds:"), "{out}");
    assert!(out.contains("marginals:"), "{out}");

    let status = server.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        rest.iter().any(|l| l.contains("shut down after 3 queries")),
        "{rest:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Each `dim stream --apply` line is parsed as one whole JSON object: a
/// key name appearing as a value does not shadow the key, and an
/// unterminated object or trailing bytes exit 1 naming `EDITS:line`.
#[test]
fn stream_parses_each_edit_line_as_one_json_object() {
    let dir = temp_path("stream-json");
    let dir_s = dir.to_str().unwrap();
    let edits = temp_path("stream-json-edits.jsonl");
    let edits_s = edits.to_str().unwrap();
    let common = [
        "--graph", "profile:facebook:0.05", "--k", "2", "--machines", "2", "--epsilon", "0.5",
        "--seed", "31",
    ];
    let (ok, _, err) = run(&[&["sample"], &common[..], &["--out", dir_s, "--generations"]].concat());
    assert!(ok, "sample failed: {err}");

    let stream = |line: &str| {
        std::fs::write(&edits, format!("{line}\n")).unwrap();
        let args = [&["stream"], &common[..], &["--store", dir_s, "--apply", edits_s]].concat();
        let out = dim().args(args).output().expect("binary runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (code, err) = stream(r#"{"note":"u","op":"delete","u":1,"v":2}"#);
    assert_eq!(code, Some(0), "{err}");
    for bad in [r#"{"op":"delete","u":1,"v":2"#, r#"{"op":"delete","u":1,"v":2} junk"#] {
        let (code, err) = stream(bad);
        assert_eq!(code, Some(1), "{bad} accepted: {err}");
        assert!(err.contains(&format!("{edits_s}:1: ")), "{bad}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&edits).ok();
}
