//! End-to-end tests of the `mpx` command-line binary.

use std::process::Command;

fn mpx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpx"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mpx-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn gen_stats_partition_pipeline() {
    let graph_path = tmp("g.txt");
    let labels_path = tmp("labels.txt");

    let out = mpx()
        .args(["gen", "grid:30", graph_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("n=900"));

    let out = mpx()
        .args(["stats", graph_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("m=1740"));

    let out = mpx()
        .args([
            "partition",
            graph_path.to_str().unwrap(),
            "0.2",
            "7",
            labels_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified"), "{text}");

    // Labels file: one center per vertex, all in range.
    let labels = std::fs::read_to_string(&labels_path).unwrap();
    let ids: Vec<u32> = labels.lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(ids.len(), 900);
    assert!(ids.iter().all(|&c| c < 900));

    std::fs::remove_file(graph_path).ok();
    std::fs::remove_file(labels_path).ok();
}

#[test]
fn render_grid_writes_ppm() {
    let img_path = tmp("fig.ppm");
    let out = mpx()
        .args(["render-grid", "40", "0.1", img_path.to_str().unwrap(), "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&img_path).unwrap();
    assert!(bytes.starts_with(b"P6\n40 40\n255\n"));
    std::fs::remove_file(img_path).ok();
}

#[test]
fn strategy_flag_is_a_pure_wall_clock_knob() {
    let graph_path = tmp("strat-g.txt");
    let out = mpx()
        .args(["gen", "gnm:300:900", graph_path.to_str().unwrap(), "5"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut labels: Vec<String> = Vec::new();
    for strategy in ["auto", "parallel", "hybrid", "topdown"] {
        let labels_path = tmp(&format!("strat-{strategy}.txt"));
        let out = mpx()
            .args([
                "partition",
                graph_path.to_str().unwrap(),
                "0.3",
                "11",
                labels_path.to_str().unwrap(),
                "--strategy",
                strategy,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{strategy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("engine: strategy="), "{text}");
        labels.push(std::fs::read_to_string(&labels_path).unwrap());
        std::fs::remove_file(labels_path).ok();
    }
    // Byte-identical labels regardless of strategy.
    assert!(labels.windows(2).all(|w| w[0] == w[1]));

    // Unknown strategies report a clean error.
    let out = mpx()
        .args([
            "partition",
            graph_path.to_str().unwrap(),
            "0.3",
            "11",
            "--strategy",
            "bogus",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    std::fs::remove_file(graph_path).ok();
}

#[test]
fn retired_strategy_tokens_are_unknown() {
    let graph_path = tmp("retired-g.txt");
    run_ok(&["gen", "gnm:100:300", graph_path.to_str().unwrap(), "5"]);
    for token in ["sequential", "bottomup"] {
        let out = mpx()
            .args([
                "partition",
                graph_path.to_str().unwrap(),
                "0.3",
                "11",
                "--strategy",
                token,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{token}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("error: --strategy: unknown strategy '{token}'")),
            "{err}"
        );
        assert!(
            err.contains("(expected auto|parallel|hybrid|topdown)"),
            "{err}"
        );
    }
    std::fs::remove_file(graph_path).ok();
}

/// A 13-byte edge list whose header claims 4·10⁹ vertices asks the
/// builder for tens of gigabytes. Under an 8 GB address-space limit the
/// allocation fails, and the reader must report that as an error line and
/// a non-zero exit instead of aborting the process.
#[test]
fn huge_header_vertex_count_is_an_error_not_an_abort() {
    let graph_path = tmp("huge-header.txt");
    std::fs::write(&graph_path, "4000000000 0\n").unwrap();
    let bin = env!("CARGO_BIN_EXE_mpx");
    let path = graph_path.to_str().unwrap();
    for args in [vec!["stats", path], vec!["inspect", path, "--weighted"]] {
        let out = Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -v 8000000; exec "$0" "$@""#)
            .arg(bin)
            .args(&args)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.code().is_some_and(|c| c != 0),
            "{args:?}: expected a non-zero exit, got {:?}: {err}",
            out.status
        );
        assert!(
            err.lines().any(|l| l.starts_with("error:")),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_file(graph_path).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = mpx().args(["bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn sbm_workload_generates() {
    let graph_path = tmp("sbm.txt");
    let out = mpx()
        .args(["gen", "sbm:200:4", graph_path.to_str().unwrap(), "9"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(graph_path).ok();
}

/// Asserts that `mpx args` fails the way every CLI error path does: exit
/// code 2 and an `error:` line on stderr, never a panic. Returns stderr.
fn assert_clean_error(args: &[&str]) -> String {
    let out = mpx().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "mpx {args:?}: {stderr}");
    assert!(stderr.contains("error:"), "mpx {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "mpx {args:?}: {stderr}");
    stderr
}

#[test]
fn generator_specs_outside_their_domain_error_cleanly() {
    let out = tmp("domain.txt");
    let out = out.to_str().unwrap();
    for spec in [
        "grid:0",
        "ba:5:0",
        "ba:3:5",
        "regular:5:3",
        "regular:4:9",
        "sbm:10:0",
        "sbm:5:10",
        "gnm:100:4000",
    ] {
        assert_clean_error(&["gen", spec, out]);
    }
    // render-grid builds its grid through the same size check as `gen`: a
    // side whose square exceeds the cap, or overflows, is a typed error
    // rather than an allocation abort or a capacity-overflow panic.
    for side in ["0", "100000", "5000000000"] {
        assert_clean_error(&["render-grid", side, "0.1", out]);
    }
    std::fs::remove_file(out).ok();
}

#[test]
fn missing_file_reports_error() {
    let out = mpx()
        .args(["partition", "/nonexistent/graph.txt", "0.1"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A labels file that cannot be written is an error on every arm of
    // `partition`, including the final buffered write that only fails
    // when it is flushed.
    #[cfg(target_os = "linux")]
    {
        let txt = tmp("full.txt");
        let v2 = tmp("full-v2.mpx");
        let weighted = tmp("full-w.txt");
        let (txt_s, v2_s, w_s) = (
            txt.to_str().unwrap(),
            v2.to_str().unwrap(),
            weighted.to_str().unwrap(),
        );
        run_ok(&["gen", "grid:20", txt_s]);
        run_ok(&["convert", txt_s, v2_s, "--compress"]);
        run_ok(&["gen", "grid:20", w_s, "7", "--weighted"]);
        assert_clean_error(&["partition", txt_s, "0.2", "7", "/dev/full"]);
        assert_clean_error(&["partition", v2_s, "0.2", "7", "/dev/full"]);
        assert_clean_error(&["partition", w_s, "0.2", "7", "/dev/full", "--weighted"]);
        for p in [txt, v2, weighted] {
            std::fs::remove_file(p).ok();
        }
    }
}

/// Runs `mpx` with args, asserting success and returning stdout.
fn run_ok(args: &[&str]) -> String {
    let out = mpx().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "mpx {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn convert_inspect_and_mmap_partition_pipeline() {
    let txt = tmp("conv.txt");
    let gr = tmp("conv.gr");
    let metis = tmp("conv.metis");
    let snap = tmp("conv.mpx");
    let v2 = tmp("conv-v2.mpx");
    let v2_bfs = tmp("conv-v2-bfs.mpx");
    let v2_degree = tmp("conv-v2-degree.mpx");
    run_ok(&["gen", "gnm:500:2000", txt.to_str().unwrap(), "3"]);

    // Chain conversions across all four formats, and compress the text
    // three ways (plain, and reordered by BFS and by degree).
    run_ok(&["convert", txt.to_str().unwrap(), gr.to_str().unwrap()]);
    run_ok(&["convert", gr.to_str().unwrap(), metis.to_str().unwrap()]);
    run_ok(&["convert", metis.to_str().unwrap(), snap.to_str().unwrap()]);
    let t = txt.to_str().unwrap();
    run_ok(&["convert", t, v2.to_str().unwrap(), "--compress"]);
    for (out, order) in [(&v2_bfs, "bfs"), (&v2_degree, "degree")] {
        run_ok(&[
            "convert",
            t,
            out.to_str().unwrap(),
            "--compress",
            "--reorder",
            order,
        ]);
    }
    let compressed = [&v2, &v2_bfs, &v2_degree];

    // Inspect the snapshot: header + structure.
    let text = run_ok(&["inspect", snap.to_str().unwrap()]);
    assert!(text.contains("format: snapshot"), "{text}");
    assert!(text.contains("version=1"), "{text}");
    assert!(text.contains("n: 500"), "{text}");
    assert!(text.contains("m: 2000"), "{text}");

    // Partition every representation with the same seed: the labels file
    // and the stats line must be byte-identical, and the .mpx paths must
    // report their mmap source.
    let mut runs: Vec<(String, String)> = Vec::new();
    for (i, path) in [&txt, &gr, &metis, &snap]
        .into_iter()
        .chain(compressed)
        .enumerate()
    {
        let labels_path = tmp(&format!("conv-labels-{i}"));
        let text = run_ok(&[
            "partition",
            path.to_str().unwrap(),
            "0.2",
            "11",
            labels_path.to_str().unwrap(),
        ]);
        if path == &snap {
            assert!(text.contains("source=mmap"), "{text}");
        }
        if compressed.contains(&path) {
            assert!(text.contains("source=mmap-compressed"), "{text}");
        }
        let stats_line = text.lines().next().unwrap().to_string();
        runs.push((std::fs::read_to_string(&labels_path).unwrap(), stats_line));
        std::fs::remove_file(labels_path).ok();
    }
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "labels or stats differ across formats: {runs:?}"
    );

    // `stats` reads every format to the same n, m and histogram.
    let reference = run_ok(&["stats", t]);
    for path in [&snap].into_iter().chain(compressed) {
        assert_eq!(run_ok(&["stats", path.to_str().unwrap()]), reference);
    }

    // `profile` accepts any of the files as a workload.
    for path in [&txt].into_iter().chain(compressed) {
        let json = run_ok(&[
            "profile",
            &format!("file:{}", path.to_str().unwrap()),
            "0.2",
            "11",
            "--runs",
            "2",
        ]);
        assert!(json.contains("\"n\": 500"), "{json}");
    }

    for p in [txt, gr, metis, snap, v2, v2_bfs, v2_degree] {
        std::fs::remove_file(p).ok();
    }
}

/// `--weighted` picks the kind and the header picks the format: a
/// snapshot of the other kind is one clean CLI error that names the flag,
/// not a library type.
#[test]
fn snapshot_kind_mismatch_names_the_weighted_flag() {
    let paths = [
        "kind.txt",
        "kind.mpx",
        "kind-v2.mpx",
        "kind-w.mpx",
        "kind-back.txt",
    ]
    .map(tmp);
    let [txt_s, v1_s, v2_s, w_s, back_s] = paths.each_ref().map(|p| p.to_str().unwrap());
    run_ok(&["gen", "gnm:200:600", txt_s, "4"]);
    run_ok(&["convert", txt_s, v1_s]);
    run_ok(&["convert", txt_s, v2_s, "--compress"]);
    run_ok(&["gen", "gnm:200:600", w_s, "4", "--weighted"]);
    let (file_w, file_v2) = (format!("file:{w_s}"), format!("file:{v2_s}"));
    for args in [
        vec!["partition", w_s, "0.1", "1"],
        vec!["stats", w_s],
        vec!["convert", w_s, back_s],
        vec!["profile", &file_w, "0.1", "1", "--runs", "1"],
        vec!["partition", v1_s, "0.1", "1", "--weighted"],
        vec!["partition", v2_s, "0.1", "1", "--weighted"],
        vec!["convert", v1_s, back_s, "--weighted"],
        vec!["profile", &file_v2, "0.1", "1", "--runs", "1", "--weighted"],
    ] {
        let stderr = assert_clean_error(&args);
        // The usage text names every flag, so look at the error line.
        let error = stderr.lines().find(|l| l.starts_with("error:")).unwrap();
        assert!(error.contains("--weighted"), "mpx {args:?}: {error}");
        // No library reader names (`read_*`, `Mapped*Csr`, `*Csr`).
        for word in ["read_", "Mapped", "Csr"] {
            assert!(!stderr.contains(word), "mpx {args:?}: {stderr}");
        }
    }
    for p in paths {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn mmap_partition_matches_across_all_strategies() {
    let txt = tmp("strat-all.txt");
    let snap = tmp("strat-all.mpx");
    run_ok(&["gen", "rmat:9:8", txt.to_str().unwrap(), "5"]);
    run_ok(&["convert", txt.to_str().unwrap(), snap.to_str().unwrap()]);

    let reference = {
        let labels_path = tmp("strat-all-ref");
        run_ok(&[
            "partition",
            txt.to_str().unwrap(),
            "0.3",
            "7",
            labels_path.to_str().unwrap(),
        ]);
        let s = std::fs::read_to_string(&labels_path).unwrap();
        std::fs::remove_file(labels_path).ok();
        s
    };
    for strategy in ["auto", "parallel", "hybrid", "topdown"] {
        let labels_path = tmp(&format!("strat-all-{strategy}"));
        run_ok(&[
            "partition",
            snap.to_str().unwrap(),
            "0.3",
            "7",
            labels_path.to_str().unwrap(),
            "--strategy",
            strategy,
        ]);
        let got = std::fs::read_to_string(&labels_path).unwrap();
        assert_eq!(
            got, reference,
            "{strategy}: mmap labels differ from text labels"
        );
        std::fs::remove_file(labels_path).ok();
    }
    std::fs::remove_file(txt).ok();
    std::fs::remove_file(snap).ok();
}

#[test]
fn convert_produces_identical_snapshots_at_every_thread_count() {
    let txt = tmp("threads.txt");
    let gr = tmp("threads.gr");
    run_ok(&["gen", "ba:800:3", txt.to_str().unwrap(), "2"]);
    run_ok(&["convert", txt.to_str().unwrap(), gr.to_str().unwrap()]);
    for input in [&txt, &gr] {
        let snapshots: Vec<Vec<u8>> = ["1", "2", "4"]
            .iter()
            .map(|threads| {
                let out = tmp(&format!("threads-{threads}.mpx"));
                run_ok(&[
                    "convert",
                    input.to_str().unwrap(),
                    out.to_str().unwrap(),
                    "--threads",
                    threads,
                ]);
                let bytes = std::fs::read(&out).unwrap();
                std::fs::remove_file(out).ok();
                bytes
            })
            .collect();
        assert!(
            snapshots.windows(2).all(|w| w[0] == w[1]),
            "{}: snapshots differ across thread counts",
            input.display()
        );
    }
    for p in [txt, gr] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn flags_are_rejected_by_commands_that_do_not_consume_them() {
    // A flag one command consumes is rejected where it means nothing,
    // instead of silently ignored...
    let out = mpx()
        .args(["profile", "grid:20", "0.2", "7", "--compress"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr)
            .contains("--compress is not supported by this command"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...and a flag no command consumes is unknown everywhere.
    let txt = tmp("flaggate.txt");
    let out_path = tmp("flaggate.mpx");
    run_ok(&["gen", "path:30", txt.to_str().unwrap()]);
    for args in [
        vec![
            "convert",
            txt.to_str().unwrap(),
            out_path.to_str().unwrap(),
            "--parser",
            "sequential",
        ],
        vec![
            "partition",
            txt.to_str().unwrap(),
            "0.3",
            "--parser",
            "sequential",
        ],
    ] {
        let out = mpx().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag '--parser'"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_file(txt).ok();
}

/// Every valued flag means the same in both spellings, `--name value` and
/// `--name=value`: `partition` and `profile` print the same report
/// (profile's timings aside) and show the value took effect. A missing
/// value and a zero count are rejected, naming the flag.
#[test]
fn valued_flags_mean_the_same_in_both_spellings() {
    let txt = tmp("spellings.txt");
    let txt_s = txt.to_str().unwrap();
    run_ok(&["gen", "grid:30", txt_s]);
    // Partition's report, or profile's without the lines that carry
    // wall-clock times.
    let run = |command: &str, spelled: &[&str]| -> String {
        if command == "partition" {
            return run_ok(&[&["partition", txt_s, "0.2", "7"], spelled].concat());
        }
        let timed = ["\"latency_ms\"", "\"throughput", "\"per_run\"", "\"trace\""];
        run_ok(&[&["profile", "grid:30", "0.3", "5"], spelled].concat())
            .lines()
            .filter(|l| !timed.iter().any(|k| l.trim_start().starts_with(k)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (command, flag, value, shown) in [
        ("partition", "threads", "3", "verified"),
        ("partition", "strategy", "parallel", "strategy=parallel"),
        ("partition", "determinism", "fast", "determinism=fast"),
        ("profile", "threads", "3", "\"threads\": 3,"),
        (
            "profile",
            "strategy",
            "parallel",
            "\"strategy\": \"parallel\"",
        ),
        (
            "profile",
            "determinism",
            "fast",
            "\"determinism\": \"fast\"",
        ),
        ("profile", "runs", "2", "\"runs\": 2,"),
    ] {
        let (name, joined) = (format!("--{flag}"), format!("--{flag}={value}"));
        let split = run(command, &[&name, value]);
        assert!(split.contains(shown), "{command} {name} {value}: {split}");
        assert_eq!(
            split,
            run(command, &[&joined]),
            "{command}: {name} {value} vs {joined}"
        );
    }
    // A valued flag that ends the line has no value.
    for args in [
        ["partition", txt_s, "0.2", "--threads"],
        ["profile", "grid:30", "0.3", "--runs"],
        ["partition", txt_s, "0.2", "--determinism"],
    ] {
        let stderr = assert_clean_error(&args);
        let message = format!("{}: missing value", args[3]);
        assert!(stderr.contains(&message), "mpx {args:?}: {stderr}");
    }
    // Every count flag refuses zero, in both spellings.
    for (command, positional, flag) in [
        ("partition", &[txt_s, "0.2"][..], "threads"),
        ("profile", &["grid:30", "0.3"], "runs"),
        ("serve", &[txt_s], "workers"),
        ("loadgen", &["127.0.0.1:1", "0.2"], "clients"),
        ("loadgen", &["127.0.0.1:1", "0.2"], "requests"),
    ] {
        let (name, joined) = (format!("--{flag}"), format!("--{flag}=0"));
        for spelled in [&[name.as_str(), "0"][..], &[joined.as_str()]] {
            let args = [&[command], positional, spelled].concat();
            let stderr = assert_clean_error(&args);
            let message = format!("--{flag}: need at least one");
            assert!(stderr.contains(&message), "mpx {args:?}: {stderr}");
        }
    }
    std::fs::remove_file(txt).ok();
}

#[test]
fn convert_rejects_unknown_output_extension() {
    let txt = tmp("ext.txt");
    run_ok(&["gen", "path:20", txt.to_str().unwrap()]);
    let out = mpx()
        .args(["convert", txt.to_str().unwrap(), "/tmp/typo.pmx"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unrecognized output extension"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(txt).ok();
}

#[test]
fn weighted_pipeline_round_trips_and_strategies_agree() {
    let txt = tmp("w.txt");
    let snap = tmp("w.mpx");
    let back = tmp("w-back.txt");
    run_ok(&[
        "gen",
        "gnm:400:1500",
        txt.to_str().unwrap(),
        "6",
        "--weighted",
    ]);

    // Text -> snapshot -> text preserves every weight bit-for-bit.
    run_ok(&[
        "convert",
        txt.to_str().unwrap(),
        snap.to_str().unwrap(),
        "--weighted",
    ]);
    run_ok(&[
        "convert",
        snap.to_str().unwrap(),
        back.to_str().unwrap(),
        "--weighted",
    ]);
    assert_eq!(
        std::fs::read(&txt).unwrap(),
        std::fs::read(&back).unwrap(),
        "weighted text -> snapshot -> text round trip must be lossless"
    );

    // Inspect auto-detects the weighted snapshot (flags bit set).
    let text = run_ok(&["inspect", snap.to_str().unwrap()]);
    assert!(text.contains("flags=0x1"), "{text}");
    assert!(text.contains("(weighted)"), "{text}");
    assert!(text.contains("weights:"), "{text}");

    // Δ-stepping over the mmap'd snapshot and over the text file, under
    // every strategy token: identical labels.
    let mut labels: Vec<String> = Vec::new();
    for (path, strategy) in [(&snap, "parallel"), (&txt, "hybrid"), (&snap, "auto")] {
        let labels_path = tmp(&format!("w-labels-{strategy}"));
        let text = run_ok(&[
            "partition",
            path.to_str().unwrap(),
            "0.2",
            "9",
            labels_path.to_str().unwrap(),
            "--weighted",
            "--strategy",
            strategy,
        ]);
        assert!(text.contains("verified: weighted partition"), "{text}");
        if path == &snap {
            assert!(text.contains("source=mmap"), "{text}");
        }
        labels.push(std::fs::read_to_string(&labels_path).unwrap());
        std::fs::remove_file(labels_path).ok();
    }
    assert!(
        labels.windows(2).all(|w| w[0] == w[1]),
        "weighted labels differ across strategies/sources"
    );

    for p in [txt, snap, back] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn inspect_rejects_corrupt_snapshot() {
    let snap = tmp("corrupt-cli.mpx");
    std::fs::write(&snap, b"MPXCSR1\ngarbage").unwrap();
    let out = mpx()
        .args(["inspect", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("truncated"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn profile_emits_consistent_json_report() {
    let stdout = run_ok(&["profile", "grid:40", "0.5", "9", "--runs", "3"]);
    let v = mpx::trace::json::parse(&stdout).expect("profile output is valid JSON");
    assert_eq!(v.get("runs").and_then(|x| x.as_f64()), Some(3.0));
    assert_eq!(v.get("workload").and_then(|x| x.as_str()), Some("grid:40"));
    let checks = v.get("checks").expect("checks object");
    for key in [
        "labels_match_traced",
        "telemetry_consistent",
        "trace_balanced",
    ] {
        assert_eq!(
            checks.get(key).and_then(|x| x.as_bool()),
            Some(true),
            "check '{key}' failed:\n{stdout}"
        );
    }
    let latency = v.get("latency_ms").expect("latency_ms object");
    let p50 = latency.get("p50").and_then(|x| x.as_f64()).unwrap();
    let p99 = latency.get("p99").and_then(|x| x.as_f64()).unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "{stdout}");
    assert_eq!(
        v.get("per_run").and_then(|x| x.as_array()).map(|a| a.len()),
        Some(3)
    );
    let rounds = v.get("rounds").expect("rounds object");
    assert!(rounds.get("max").and_then(|x| x.as_f64()).unwrap() > 0.0);
    assert!(rounds.get("bound").and_then(|x| x.as_f64()).unwrap() > 0.0);
    // The embedded trace is a full span tree of the traced run.
    let spans = v
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(|s| s.as_array())
        .expect("embedded trace spans");
    assert!(
        spans
            .iter()
            .any(|s| s.get("name").and_then(|n| n.as_str()) == Some("engine.round")),
        "{stdout}"
    );
}

#[test]
fn profile_accepts_bare_family_names_and_weighted() {
    // The acceptance-criteria invocation: a bare family name and β = 2.0.
    // Kept cheap by overriding the run count (the workload still expands
    // to the grid:200 default).
    let stdout = run_ok(&["profile", "grid", "2.0", "--runs", "2"]);
    let v = mpx::trace::json::parse(&stdout).unwrap();
    assert_eq!(v.get("workload").and_then(|x| x.as_str()), Some("grid:200"));
    assert_eq!(v.get("n").and_then(|x| x.as_f64()), Some(40_000.0));

    // The `regular` default must be a degree the generator can build.
    let stdout = run_ok(&["profile", "regular", "0.1", "--runs", "2"]);
    let v = mpx::trace::json::parse(&stdout).unwrap();
    assert_eq!(
        v.get("workload").and_then(|x| x.as_str()),
        Some("regular:20000:4")
    );

    let stdout = run_ok(&["profile", "grid:30", "0.4", "--runs", "2", "--weighted"]);
    let v = mpx::trace::json::parse(&stdout).unwrap();
    assert_eq!(v.get("weighted").and_then(|x| x.as_bool()), Some(true));
    let wt = v.get("weighted_telemetry").expect("weighted_telemetry");
    for key in ["buckets", "phases", "relaxations", "delta"] {
        let value = wt.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0);
        assert!(value > 0.0, "weighted_telemetry.{key}: {stdout}");
    }
    let checks = v.get("checks").expect("checks object");
    for key in ["telemetry_consistent", "verified"] {
        assert_eq!(
            checks.get(key).and_then(|x| x.as_bool()),
            Some(true),
            "{key}: {stdout}"
        );
    }
}

#[test]
fn partition_trace_flag_and_env_export_traces() {
    let graph = tmp("trace-g.txt");
    let trace_json = tmp("trace-out.json");
    run_ok(&["gen", "grid:30", graph.to_str().unwrap()]);

    // --trace=path: JSON (by extension) written to the file; labels and
    // stdout report unchanged.
    let stdout = run_ok(&[
        "partition",
        graph.to_str().unwrap(),
        "0.2",
        "7",
        &format!("--trace={}", trace_json.display()),
    ]);
    assert!(stdout.contains("verified"), "{stdout}");
    let raw = std::fs::read_to_string(&trace_json).unwrap();
    let v = mpx::trace::json::parse(&raw).expect("trace file is valid JSON");
    let spans = v.get("spans").and_then(|s| s.as_array()).unwrap();
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(|n| n.as_str()) == Some("engine.partition")));
    let counters = v.get("counters").expect("counters");
    assert!(counters.get("rounds").and_then(|x| x.as_f64()).unwrap() > 0.0);

    // MPX_TRACE=chrome enables tracing without the flag and switches the
    // exporter; the Chrome array goes to stderr.
    let out = mpx()
        .args(["partition", graph.to_str().unwrap(), "0.2", "7"])
        .env("MPX_TRACE", "chrome")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let chrome = mpx::trace::json::parse(stderr.trim()).expect("chrome trace on stderr");
    assert!(!chrome.as_array().unwrap().is_empty());

    // An unknown MPX_TRACE value is a hard error, not silent no-tracing.
    let out = mpx()
        .args(["partition", graph.to_str().unwrap(), "0.2"])
        .env("MPX_TRACE", "bogus")
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_file(graph).ok();
    std::fs::remove_file(trace_json).ok();
}
