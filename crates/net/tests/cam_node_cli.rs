//! The `cam-node` command line: help and payload-cap checks exit while
//! parsing arguments, before any cluster is built; the report check runs a
//! small real cluster.

use std::process::{Command, Output};

fn cam_node(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cam-node"))
        .args(args)
        .output()
        .expect("run cam-node")
}

#[test]
fn help_prints_usage_on_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = cam_node(&[flag]);
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: cam-node"));
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}

#[test]
fn payload_that_cannot_fit_one_frame_is_rejected_naming_the_cap() {
    // 60 KiB frame less 23 B data header, 1 B variant tag and the
    // multicast fields (33 B with CAM-Chord's region bounds, 17 B without).
    for (args, cap) in [
        (&["8", "--payload", "70000"][..], "61383"),
        (&["8", "--payload", "61384"][..], "61383"),
        (&["8", "--koorde", "--payload", "61400"][..], "61399"),
    ] {
        let out = cam_node(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} started a run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--payload") && err.contains(cap),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn real_socket_run_reports_frames_per_datagram() {
    let out = cam_node(&["8", "--seed", "7"]);
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("datagrams: "))
        .unwrap_or_else(|| panic!("no datagrams line in:\n{stdout}"));
    // "datagrams: S sent / R received (F frames per datagram)"
    let words: Vec<&str> = line.split_whitespace().collect();
    let [_, sent, "sent", "/", received, "received", per, "frames", "per", "datagram)"] =
        words[..]
    else {
        panic!("unexpected layout: {line}");
    };
    let sent: u64 = sent.parse().expect("sent count");
    let received: u64 = received.parse().expect("received count");
    let per: f64 = per
        .trim_start_matches('(')
        .parse()
        .expect("frames per datagram");
    assert!(sent > 0 && received > 0, "{line}");
    assert!(per > 1.0, "frames are coalesced: {line}");

    // The in-memory wire has no datagrams to report.
    let mem = cam_node(&["8", "--mem", "--seed", "7"]);
    assert!(mem.status.success(), "{:?}", mem.status);
    assert!(!String::from_utf8_lossy(&mem.stdout).contains("datagrams:"));
}
