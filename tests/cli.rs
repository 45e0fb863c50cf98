//! End-to-end tests of the `dim` and `dim-worker` CLI binaries.

use std::io::{BufRead, BufReader, Lines};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[path = "../crates/store/src/fnv.rs"]
mod fnv;

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

/// A `dim-worker` flag value that is missing or does not parse exits 2
/// with the usage line naming the flag, before any connect: never a join
/// as "any slot" or a retry loop with no deadline.
#[test]
fn worker_bad_flag_values_exit_2_naming_the_flag() {
    for (bad, flag) in [
        (&["--machine-id", "abc"][..], "--machine-id"),
        (&["--machine-id"], "--machine-id"),
        (&["--join", "--join-deadline", "soon"], "--join-deadline"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dim-worker"))
            .args(["--connect", "127.0.0.1:1"])
            .args(bad)
            .env_remove("DIM_JOIN_DEADLINE_SECS")
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("dim-worker runs");
        // A worker still running after 1 s is killed, and fails the
        // exit-code check below.
        let start = Instant::now();
        while child.try_wait().unwrap().is_none() && start.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let out = child.wait_with_output().expect("wait on dim-worker");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {err}");
        assert!(err.contains(flag), "{bad:?}: {err}");
        assert!(err.contains("usage: dim-worker"), "{bad:?}: {err}");
    }
}

/// Run parameters outside the frameworks' domain exit 1 naming the flag,
/// before any work: not a panic (exit 101), and not an OPIM-C run whose
/// target 1 − 1/e − ε ≤ 0 stops it after round 1 with no guarantee.
#[test]
fn out_of_range_parameters_exit_1_naming_the_flag() {
    for (cmd, bad, flag) in [
        ("im", &["--k", "2", "--machines", "0"][..], "--machines"),
        ("im", &["--k", "0"], "--k"),
        ("im", &["--k", "2", "--epsilon", "1.5"], "--epsilon"),
        ("im", &["--k", "2", "--epsilon", "0"], "--epsilon"),
        ("im", &["--k", "2", "--delta", "2"], "--delta"),
        ("im", &["--k", "2", "--algorithm", "opim", "--epsilon", "1.5"], "--epsilon"),
        ("im", &["--k", "2", "--algorithm", "opim", "--epsilon", "-1"], "--epsilon"),
        ("sample", &["--k", "2", "--machines", "0", "--out", "never-written"], "--machines"),
        ("coverage", &["--k", "2", "--machines", "0"], "--machines"),
    ] {
        let out = dim()
            .args([cmd, "--graph", "profile:facebook:0.05"])
            .args(bad)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {bad:?}: {err}");
        assert!(err.contains(flag), "{cmd} {bad:?}: {err}");
    }
}

/// `imm` is the single-machine baseline: on a TCP backend it exits 1
/// naming `--backend`, before any work, instead of running in process.
#[test]
fn imm_refuses_tcp_backends_naming_the_flag() {
    for backend in ["proc", "join"] {
        let out = dim()
            .args(["im", "--graph", "profile:facebook:0.05", "--k", "2"])
            .args(["--algorithm", "imm", "--backend", backend])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{backend}: {err}");
        assert!(err.contains("--backend"), "{backend}: {err}");
        assert!(out.stdout.is_empty(), "{backend}: did work");
    }
}

/// Unknown, misspelled and repeated flags exit 2 with the usage text,
/// naming the flag, before any work: a typo must not run at a default.
#[test]
fn unknown_and_repeated_flags_exit_2_naming_the_flag() {
    let graph = ["--graph", "profile:facebook:0.02"];
    for (cmd, rest, flag) in [
        ("im", &["--k", "5", "--epsilion", "0.5", "--seed", "3"][..], "--epsilion"),
        ("stats", &["--bogus", "1"], "--bogus"),
        ("im", &["--k", "5", "--k", "3"], "--k"),
    ] {
        let out = dim().arg(cmd).args(graph).args(rest).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} {rest:?}: {err}");
        assert!(err.contains(flag), "{cmd} {rest:?}: {err}");
        assert!(err.contains("commands:"), "{cmd} {rest:?}: no usage in {err}");
        assert!(out.stdout.is_empty(), "{cmd} {rest:?}: did work");
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

/// Runs `dim sample --out DIR` with `args`, asserting it succeeds, and
/// returns its stdout.
fn sample(dir: &Path, args: &[&str]) -> String {
    let (ok, out, err) = run(&[&["sample", "--out", dir.to_str().unwrap()], args].concat());
    assert!(ok, "sample failed: {err}");
    out
}

/// The `seeds:` line of a command's output.
fn seeds_line(out: &str) -> String {
    out.lines().find(|l| l.starts_with("seeds:")).expect("prints seeds").to_owned()
}

/// Starts `dim serve` with `args` on an ephemeral port: the daemon, its
/// banner line, the rest of its stdout, and the address it listens on.
fn serve(args: &[&str]) -> (Child, String, Lines<BufReader<ChildStdout>>, String) {
    let mut server = dim()
        .args([&["serve"], args, &["--addr", "127.0.0.1:0"]].concat())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().expect("banner line").unwrap();
    let addr = banner.strip_prefix("dim-serve: listening on ").expect(&banner);
    let addr = addr.split_whitespace().next().unwrap().to_owned();
    (server, banner, lines, addr)
}

#[test]
fn sample_then_load_rr_is_byte_identical_across_processes() {
    let dir = temp_path("sketch-roundtrip");
    let common = [
        "--graph", "profile:facebook:0.05", "--k", "3", "--epsilon", "0.5", "--seed", "19",
    ];
    let out = sample(&dir, &[&common[..], &["--machines", "2"]].concat());
    assert!(out.contains("sketch: generation 1, 2 shard(s)"), "{out}");

    // A *separate process* reloads the sketch and must re-derive the very
    // same seed set — the snapshot carries everything the selection needs.
    let load = ["im", "--load-rr", dir.to_str().unwrap()];
    let (ok, loaded, err) = run(&[&load[..], &common[..]].concat());
    assert!(ok, "im --load-rr failed: {err}");
    assert_eq!(seeds_line(&out), seeds_line(&loaded));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_rr_mismatch_and_corruption_are_typed_errors() {
    let dir = temp_path("sketch-negative");
    let dir_s = dir.to_str().unwrap();
    let common = ["--k", "2", "--seed", "23", "--load-rr", dir_s];
    sample(&dir, &[
        "--graph", "profile:facebook:0.05", "--k", "2", "--machines", "2", "--seed", "23",
    ]);

    // Wrong graph: the fingerprint check refuses to select on someone
    // else's RR sets.
    let (ok, _, err) = run(&[&["im", "--graph", "profile:facebook:0.08"], &common[..]].concat());
    assert!(!ok);
    assert!(err.contains("fingerprint mismatch"), "{err}");

    // Truncated shard: a typed corruption error, not a panic.
    let victim = dir.join("gen-00000001").join("shard-1-of-2.rrs");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let (ok, _, err) = run(&[&["im", "--graph", "profile:facebook:0.05"], &common[..]].concat());
    assert!(!ok);
    assert!(err.contains("corrupt snapshot shard"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The header block and body of a current shard file.
fn header_and_body(file: &[u8]) -> (&[u8], &[u8]) {
    let header_end = 12 + u32::from_le_bytes(file[8..12].try_into().unwrap()) as usize;
    (&file[12..header_end], &file[header_end + 8..file.len() - 8])
}

/// Rewrites a shard file in the version-1 layout, sealed with FNV-1a as
/// that version was: the same header, and a body of the elements followed
/// by their transpose, each as `count u64 · offsets[count+1] u64 · pool
/// u32[...]`.
fn as_version_1(current: &[u8]) -> Vec<u8> {
    let (header_block, elements) = header_and_body(current);
    let header = dim::dim_store::ShardHeader::decode(header_block).expect("a header");
    let shard = dim::dim_store::decode_shard(current, header.num_sets).expect("a valid shard");
    let index = shard.elements.transpose(header.num_sets as usize);
    let mut body = elements.to_vec();
    body.extend_from_slice(&(index.len() as u64).to_le_bytes());
    let mut offset = 0u64;
    body.extend_from_slice(&offset.to_le_bytes());
    for list in index.iter() {
        offset += list.len() as u64;
        body.extend_from_slice(&offset.to_le_bytes());
    }
    for &v in index.iter().flatten() {
        body.extend_from_slice(&v.to_le_bytes());
    }
    fnv::fnv_seal(*b"DIMR", 1, header_block, &body)
}

/// Rewrites a shard file as version 2 wrote it: the same header and body,
/// sealed with FNV-1a.
fn as_version_2(current: &[u8]) -> Vec<u8> {
    let (header_block, body) = header_and_body(current);
    fnv::fnv_seal(*b"DIMR", 2, header_block, body)
}

/// Rewrites a current shard file's sampler tag (header offset 8, file
/// offset 20), resealing the header checksum.
fn with_sampler_tag(current: &[u8], tag: u8) -> Vec<u8> {
    let mut file = current.to_vec();
    file[20] = tag;
    let header_end = current.len() - header_and_body(current).1.len() - 16;
    let sum = dim::dim_store::checksum(&file[12..header_end]);
    file[header_end..header_end + 8].copy_from_slice(&sum.to_le_bytes());
    file
}

/// A store drawn under the retired jump law (tag 2) is refused by its tag,
/// naming the file and asking for a re-sample: never called corrupt, never
/// extended with the count-first draws.
#[test]
fn load_rr_refuses_a_retired_sampler_tag() {
    let dir = temp_path("sketch-tag2");
    let common = ["--graph", "profile:facebook:0.05", "--k", "2", "--seed", "37"];
    sample(&dir, &[&common[..], &["--machines", "2"]].concat());
    for id in 0..2 {
        let path = dir.join("gen-00000001").join(format!("shard-{id}-of-2.rrs"));
        let current = std::fs::read(&path).unwrap();
        assert_eq!(current[20], 3, "the IC default writes tag 3");
        std::fs::write(&path, with_sampler_tag(&current, 2)).unwrap();
    }
    let out = dim()
        .args([&["im", "--load-rr", dir.to_str().unwrap()], &common[..]].concat())
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("shard-0-of-2.rrs"), "{err}");
    assert!(err.contains("retired sampler tag 2"), "{err}");
    assert!(err.contains("re-sample"), "{err}");
    assert!(!err.contains("corrupt"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A stored sketch answers only the `(k, ε, δ)` it was sampled for: any
/// other run exits 1 naming the first flag that differs, and a store whose
/// manifest does not record the run (an older build's) is refused too.
#[test]
fn load_rr_refuses_another_run() {
    let dir = temp_path("sketch-run");
    let dir_s = dir.to_str().unwrap();
    let graph = ["--graph", "profile:facebook:0.05", "--seed", "41"];
    let sampled = ["--k", "3", "--epsilon", "0.5", "--delta", "0.05"];
    let out = sample(&dir, &[&graph[..], &sampled[..]].concat());
    let load = |run: &[&str]| {
        let out = dim()
            .args([&["im", "--load-rr", dir_s][..], &graph[..], run].concat())
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (code, loaded, err) = load(&sampled);
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(seeds_line(&out), seeds_line(&loaded));
    for (run, flag) in [
        (["--k", "40", "--epsilon", "0.5", "--delta", "0.05"], "--k"),
        (["--k", "3", "--epsilon", "0.05", "--delta", "0.05"], "--epsilon"),
        (["--k", "3", "--epsilon", "0.5", "--delta", "0.01"], "--delta"),
    ] {
        let (code, _, err) = load(&run);
        assert_eq!(code, Some(1), "{run:?}: {err}");
        assert!(err.contains(&format!("sampled for {flag} ")), "{run:?}: {err}");
    }
    let manifest = dir.join("gen-00000001").join("MANIFEST");
    std::fs::write(&manifest, "dim-generation-v1 1\n").unwrap();
    let (code, _, err) = load(&sampled);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("does not record"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A store written in the version-1 format (which also stored the index)
/// is refused with a nonzero exit naming the file, never misread.
#[test]
fn load_rr_refuses_a_version_1_store() {
    let dir = temp_path("sketch-v1");
    let common = ["--graph", "profile:facebook:0.05", "--k", "2", "--seed", "31"];
    sample(&dir, &[&common[..], &["--machines", "2"]].concat());
    for id in 0..2 {
        let path = dir.join("gen-00000001").join(format!("shard-{id}-of-2.rrs"));
        let v2 = std::fs::read(&path).unwrap();
        std::fs::write(&path, as_version_1(&v2)).unwrap();
    }
    let (ok, _, err) = run(&[&["im", "--load-rr", dir.to_str().unwrap()], &common[..]].concat());
    assert!(!ok, "a version-1 store was loaded");
    assert!(err.contains("shard-0-of-2.rrs"), "{err}");
    assert!(err.contains("unsupported format version"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A store written in the version-2 format (FNV-1a checksums) is refused
/// by its version — exit 1, naming the file — and never reported as a
/// checksum mismatch.
#[test]
fn load_rr_refuses_a_version_2_store() {
    let dir = temp_path("sketch-v2");
    let common = ["--graph", "profile:facebook:0.05", "--k", "2", "--seed", "31"];
    sample(&dir, &[&common[..], &["--machines", "2"]].concat());
    for id in 0..2 {
        let path = dir.join("gen-00000001").join(format!("shard-{id}-of-2.rrs"));
        let current = std::fs::read(&path).unwrap();
        std::fs::write(&path, as_version_2(&current)).unwrap();
    }
    let out = dim()
        .args([&["im", "--load-rr", dir.to_str().unwrap()], &common[..]].concat())
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("shard-0-of-2.rrs"), "{err}");
    assert!(err.contains("unsupported format version"), "{err}");
    assert!(!err.contains("checksum"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_query_roundtrip() {
    let dir = temp_path("sketch-serve");
    let common = ["--graph", "profile:facebook:0.05", "--k", "3", "--seed", "29"];
    sample(&dir, &[&common[..], &["--machines", "2"]].concat());

    // Serve on an ephemeral port; the daemon prints its bound address and
    // exits cleanly after --max-queries.
    let store = ["--store", dir.to_str().unwrap(), "--max-queries", "3"];
    let (mut server, _, lines, addr) = serve(&[&common[..], &store[..]].concat());

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
    let edits = temp_path("stream-json-edits.jsonl");
    let edits_s = edits.to_str().unwrap();
    let common = [
        "--graph", "profile:facebook:0.05", "--k", "2", "--machines", "2", "--epsilon", "0.5",
        "--seed", "31",
    ];
    sample(&dir, &common);

    let stream = |line: &str| {
        std::fs::write(&edits, format!("{line}\n")).unwrap();
        let store = ["--store", dir.to_str().unwrap(), "--apply", edits_s];
        let args = [&["stream"], &common[..], &store[..]].concat();
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

/// A default `dim sample` store keeps streaming: two `dim stream` runs
/// chain delta generations onto the sampled base, and `dim im --load-rr`
/// and `dim serve` both read the whole chain. A flat store made the
/// second stream exit 1 with "delta chain base generation missing", and a
/// `--machines` the store disagreed with was silently ignored.
#[test]
fn streams_chain_onto_a_default_sample_and_every_reader_follows() {
    let dir = temp_path("stream-chain");
    let store = ["--store", dir.to_str().unwrap()];
    let edits = temp_path("stream-chain-edits.jsonl");
    let common = [
        "--graph", "profile:facebook:0.05", "--k", "3", "--epsilon", "0.5", "--seed", "37",
    ];
    sample(&dir, &[&common[..], &["--machines", "2"]].concat());

    let stream = |edit: &str| {
        std::fs::write(&edits, format!("{edit}\n")).unwrap();
        let apply = ["--apply", edits.to_str().unwrap(), "--select"];
        let (ok, out, err) = run(&[&["stream"], &common[..], &store[..], &apply[..]].concat());
        assert!(ok, "stream {edit} failed: {err}");
        out
    };
    let first = stream(r#"{"op": "insert", "u": 1, "v": 2, "p": 0.9}"#);
    assert!(first.contains("-> generation 2,"), "{first}");
    let second = stream(r#"{"op": "insert", "u": 3, "v": 2, "p": 0.9}"#);
    assert!(second.contains("resumed at generation 2 (seq 1, 2 machine(s))"), "{second}");
    assert!(second.contains("-> generation 3,"), "{second}");

    // A `--machines` other than the store's shard count exits 1 naming the
    // flag, before anything is applied or restored: on a copy whose machine
    // 1 base shard is cut after its header (and the header's checksum),
    // too. Omitted, as above, it takes the store's count.
    let cut = temp_path("stream-chain-cut");
    for generation in std::fs::read_dir(&dir).unwrap() {
        let generation = generation.unwrap().path();
        let copy = cut.join(generation.file_name().unwrap());
        std::fs::create_dir_all(&copy).unwrap();
        for file in std::fs::read_dir(&generation).unwrap() {
            let file = file.unwrap().path();
            std::fs::copy(&file, copy.join(file.file_name().unwrap())).unwrap();
        }
    }
    let base_shard = cut.join("gen-00000001").join("shard-1-of-2.rrs");
    let bytes = std::fs::read(&base_shard).unwrap();
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    std::fs::write(&base_shard, &bytes[..12 + header_len + 8]).unwrap();
    let restream = [&["stream"], &store[..], &["--apply", edits.to_str().unwrap()]].concat();
    let cut_load = ["im", "--load-rr", cut.to_str().unwrap()];
    for cmd in [&["im", "--load-rr", store[1]][..], &restream, &cut_load] {
        let out = dim().args([cmd, &common[..], &["--machines", "3"]].concat()).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd:?}: {err}");
        assert!(err.contains("--machines 3 disagrees with the store"), "{cmd:?}: {err}");
    }

    let (ok, out, err) = run(&[&["im", "--load-rr", store[1]], &common[..]].concat());
    assert!(ok, "im --load-rr failed: {err}");
    assert_eq!(seeds_line(&out), seeds_line(&second));

    let args = [&common[..], &store[..], &["--max-queries", "1"]].concat();
    let (mut server, banner, _rest, addr) = serve(&args);
    assert!(banner.ends_with("generation 3)"), "{banner}");
    let (ok, out, err) = run(&["query", "--addr", &addr, "--stats"]);
    assert!(ok, "query --stats failed: {err}");
    assert!(out.contains("generation: 3"), "{out}");
    assert!(server.wait().expect("serve exits").success());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cut).ok();
    std::fs::remove_file(&edits).ok();
}

/// A store an older build wrote — shard files directly in the root, no
/// `gen-*` directory — is refused by every reader with an error saying it
/// holds no committed generation and must be re-sampled.
#[test]
fn a_flat_store_is_refused_as_needing_a_resample() {
    let dir = temp_path("flat-store");
    let dir_s = dir.to_str().unwrap();
    let common = [
        "--graph", "profile:facebook:0.05", "--k", "2", "--machines", "2", "--seed", "41",
    ];
    sample(&dir, &common);
    // Flatten the store the way older builds laid it out.
    let generation = dir.join("gen-00000001");
    for name in ["shard-0-of-2.rrs", "shard-1-of-2.rrs"] {
        std::fs::rename(generation.join(name), dir.join(name)).unwrap();
    }
    std::fs::remove_dir_all(&generation).unwrap();

    let edits = temp_path("flat-store-edits.jsonl");
    std::fs::write(&edits, "{\"op\": \"delete\", \"u\": 1, \"v\": 2}\n").unwrap();
    for reader in [
        &["im", "--load-rr", dir_s][..],
        &["stream", "--store", dir_s, "--apply", edits.to_str().unwrap()],
        &["serve", "--store", dir_s, "--addr", "127.0.0.1:0", "--max-queries", "1"],
    ] {
        let (ok, _, err) = run(&[reader, &common[..]].concat());
        assert!(!ok, "{reader:?} read a flat store");
        let expected = format!("error: no committed generation in {dir_s}: ");
        assert!(err.starts_with(&expected), "{reader:?}: {err}");
        assert!(err.contains("must be re-sampled"), "{reader:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&edits).ok();
}

/// A store owns its seed: `dim stream` repairs from the streams that drew
/// the stored sets, whatever `--seed` says. Two copies of one `--seed 1`
/// store, streamed the same edit under `--seed 1` and `--seed 2`, print
/// equal seeds and spread, and write byte-identical generations. (An
/// edge-list graph, so `--seed` cannot change the graph itself.)
#[test]
fn stream_takes_its_seed_from_the_store() {
    let graph = temp_path("seed-owner.txt");
    let graph_s = graph.to_str().unwrap();
    let (ok, _, err) = run(&["generate", "--profile", "facebook:0.05", "--out", graph_s]);
    assert!(ok, "generate failed: {err}");
    let edits = temp_path("seed-owner-edits.jsonl");
    std::fs::write(
        &edits,
        "{\"op\": \"insert\", \"u\": 1, \"v\": 2, \"p\": 0.9}\n",
    )
    .unwrap();
    let common = ["--graph", graph_s, "--k", "5", "--machines", "2"];
    let stream = |seed: &str| {
        let dir = temp_path(&format!("seed-owner-{seed}"));
        sample(&dir, &[&common[..], &["--seed", "1"]].concat());
        let args = [
            "--store",
            dir.to_str().unwrap(),
            "--apply",
            edits.to_str().unwrap(),
        ];
        let flags = ["--compact", "--select", "--seed", seed];
        let (ok, out, err) = run(&[&["stream"], &common[..], &args[..], &flags[..]].concat());
        assert!(ok, "stream --seed {seed} failed: {err}");
        let picked = out
            .lines()
            .filter(|l| l.starts_with("seeds:") || l.starts_with("estimated"));
        let mut files = Vec::new();
        for generation in ["gen-00000001", "gen-00000002", "gen-00000003"] {
            let mut names: Vec<_> = std::fs::read_dir(dir.join(generation)).unwrap().collect();
            names.sort_by_key(|e| e.as_ref().unwrap().file_name());
            for entry in names {
                let path = entry.unwrap().path();
                files.push((
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(&path).unwrap(),
                ));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        (picked.map(str::to_owned).collect::<Vec<_>>(), files)
    };
    let ((own_lines, own_files), (foreign_lines, foreign_files)) = (stream("1"), stream("2"));
    assert_eq!(own_lines.len(), 2, "{own_lines:?}");
    assert_eq!(own_lines, foreign_lines);
    assert_eq!(own_files.len(), foreign_files.len());
    for ((name, own), (_, foreign)) in own_files.iter().zip(&foreign_files) {
        assert!(own == foreign, "{name:?} differs under --seed 2");
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&edits).ok();
}
