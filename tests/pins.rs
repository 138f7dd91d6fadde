//! Every output the repository commits to, pinned in one place.
//!
//! A pin is a committed file and the code that prints it. Each test below
//! prints its pins and compares them with their files; a mismatch names
//! the file, the first differing line (pinned and printed) and how many
//! lines differ. A deliberate output change re-pins every file in one run
//! and is reviewed as the diff that run leaves in the tree:
//!
//! ```text
//! cargo test --release --test pins -- --ignored bless
//! ```
//!
//! | pin | what prints it | runs in |
//! |---|---|---|
//! | `tests/pins/figures_quick.txt` | SHA-1 of each static table's CSV at `Options::quick()` | tier-1 |
//! | `tests/pins/reactor.txt` | 20 lossy-wire `Cluster` scenarios and one replay attack | tier-1 |
//! | `tests/pins/chaos_small.txt` | `cam-chaos --preset small --seeds 25 --host both` | tier-1 |
//! | `tests/pins/chaos_torture.txt` | `cam-chaos --preset torture --seeds 4 --host sim` | tier-1, one test per seed in `tests/torture.rs` |
//! | `tests/pins/chaos_default.txt` | `cam-chaos --preset default --seeds 25 --host both` | ignored; release CI |
//! | `tests/pins/chaos_colossal.txt` | `cam-chaos --preset colossal --seeds 1 --host sim` | ignored; release CI |
//! | `results/robustness_results.md` | `cam-chaos --adversary --seeds 50 --report …` | ignored; release CI |
//! | `results/<name>.csv` | `repro all`: every table of `FIGURES` at `Options::paper()` | ignored; release CI |
//!
//! A pin matched by a fresh process is also the determinism check: the
//! same seed printed the same bytes as the run that blessed it.

mod pin_check;

use std::fmt::Write as _;
use std::path::Path;

use bytes::Bytes;
use cam::chaos::{robustness_report, run_plan, FaultPlan, HostKind};
use cam::core::cam_chord::{CamChordProtocol, ChildSelection};
use cam::core::cam_koorde::CamKoordeProtocol;
use cam::core::CamChord;
use cam::net::runtime::{Cluster, RetransmitPolicy};
use cam::net::transport::{InMemoryTransport, WireCounters};
use cam::overlay::dynamic::DhtProtocol;
use cam::overlay::{ByzantineBehavior, DetectionCounters, Member};
use cam::ring::sha1::Sha1;
use cam::ring::{Id, IdSet, IdSpace};
use cam::sim::rng::SimRng;
use cam::sim::{Duration, LatencyModel, SimTime};
use cam::trace::{EventKind, RecordingTracer};
use cam::workload::Scenario;
use cam_experiments::runner::sample_trees;
use cam_experiments::{DataSeries, DataTable, Options, FIGURES};
use pin_check::{chaos_rows, committed, compare, BLESS};

/// A committed file and the code that prints it.
struct Pin {
    /// Path from the repository root.
    file: String,
    print: Box<dyn Fn() -> String>,
}

impl Pin {
    fn new(file: impl Into<String>, print: impl Fn() -> String + 'static) -> Pin {
        Pin {
            file: file.into(),
            print: Box::new(print),
        }
    }
}

/// Every pin, the one list `bless` writes and the tests below check.
fn pins() -> Vec<Pin> {
    const BOTH: &[HostKind] = &[HostKind::Net, HostKind::Sim];
    let mut pins = vec![
        Pin::new("tests/pins/figures_quick.txt", quick_digests),
        Pin::new("tests/pins/reactor.txt", reactor_rows),
        chaos("small", 25, BOTH),
        chaos("torture", 4, &[HostKind::Sim]),
        chaos("default", 25, BOTH),
        chaos("colossal", 1, &[HostKind::Sim]),
        Pin::new("results/robustness_results.md", robustness_markdown),
    ];
    pins.extend(FIGURES.iter().map(|&(name, run)| {
        Pin::new(format!("results/{name}.csv"), move || {
            run(&Options::paper()).to_csv()
        })
    }));
    pins
}

/// Prints every pin whose file `select` accepts and fails on any mismatch.
fn verify(select: impl Fn(&str) -> bool) {
    let chosen: Vec<Pin> = pins().into_iter().filter(|p| select(&p.file)).collect();
    assert!(!chosen.is_empty(), "the selection names no pin");
    let failures: Vec<String> = chosen
        .iter()
        .filter_map(|p| compare(&p.file, &committed(&p.file), &(p.print)()))
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn figures_quick() {
    verify(|f| f == "tests/pins/figures_quick.txt");
}

#[test]
fn reactor() {
    verify(|f| f == "tests/pins/reactor.txt");
}

#[test]
fn chaos_small() {
    verify(|f| f == "tests/pins/chaos_small.txt");
}

#[test]
#[ignore = "about 45 s in a debug build; the chaos-colossal CI job runs it in release"]
fn chaos_default() {
    verify(|f| f == "tests/pins/chaos_default.txt");
}

#[test]
#[ignore = "100,000 nodes, minutes even in release; the chaos-colossal CI job runs it"]
fn chaos_colossal() {
    verify(|f| f == "tests/pins/chaos_colossal.txt");
}

#[test]
#[ignore = "250 chaos runs; the adversary-smoke CI job runs it in release"]
fn robustness() {
    verify(|f| f == "results/robustness_results.md");
}

#[test]
#[ignore = "the paper profile, ~30 s in release; the build-test CI job runs it"]
fn paper_profile() {
    verify(|f| f.starts_with("results/") && f.ends_with(".csv"));
}

/// Re-writes every pin from the current code, `results/` included.
#[test]
#[ignore = "writes the pin files; run it by name"]
fn bless() {
    // An unfiltered `--ignored` run must not rewrite the files the pin
    // checks beside it are reading: bless only when named as the filter.
    if !std::env::args().any(|a| a == "bless") {
        eprintln!("bless skipped: run it by name, `{BLESS}`");
        return;
    }
    for pin in pins() {
        let printed = (pin.print)();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(&pin.file);
        std::fs::create_dir_all(path.parent().expect("pin files live in a directory"))
            .and_then(|()| std::fs::write(&path, printed))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", pin.file));
    }
}

// ------------------------------------------------------- the check itself

/// An edited row in any pin file fails, and the message names that file
/// and line.
#[test]
fn an_edited_row_fails_by_file_and_line() {
    for pin in pins() {
        let pinned = committed(&pin.file);
        let row = pinned.lines().count() / 2;
        let edited: String = pinned
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == row {
                    format!("{l}~\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let err = compare(&pin.file, &edited, &pinned).expect("an edited row must fail");
        let at = format!("{}:{}: 1 of ", pin.file, row + 1);
        assert!(err.starts_with(&at) && err.contains(BLESS), "{err}");
    }
}

/// No pin has gone blind: within each row file the printed values (each
/// row's last field) are pairwise distinct, and a perturbed input prints
/// a value its pin does not hold. The `results/` pins are whole outputs
/// printed by the same code as `figures_quick`'s digests.
#[test]
fn pins_discriminate() {
    for pin in pins().iter().filter(|p| p.file.starts_with("tests/pins/")) {
        let pinned = committed(&pin.file);
        let values: Vec<&str> = pinned
            .lines()
            .map(|l| l.rsplit_once(' ').map_or(l, |(_, value)| value))
            .collect();
        for (i, a) in values.iter().enumerate() {
            assert!(
                !values[i + 1..].contains(a),
                "{}: value {a} printed twice",
                pin.file
            );
        }
    }

    // The digest sees one child-selection rounding change.
    let opts = Options::quick();
    let group = Scenario::paper_default(opts.sub_seed(7))
        .with_n(opts.n)
        .members();
    let table_for = |selection: ChildSelection| {
        let overlay = CamChord::new(group.clone()).with_selection(selection);
        let agg = sample_trees(&overlay, opts.sources, opts.sub_seed(1));
        let mut series = DataSeries::new("avg_path_len");
        series.push(0.0, agg.avg_path_len.mean());
        let mut table = DataTable::new("sensitivity", "variant");
        table.push(series);
        table
    };
    assert_ne!(
        digest(&table_for(ChildSelection::Ceil)),
        digest(&table_for(ChildSelection::Floor))
    );

    // A reactor run one seed over reproduces no pinned row.
    let reactor = committed("tests/pins/reactor.txt");
    for i in [0, 1] {
        let (seed, koorde) = reactor_case(i);
        let row = reactor_census(seed + 1, koorde).row();
        assert!(
            !reactor.lines().any(|l| l.ends_with(&row)),
            "seed {} reproduced a pinned reactor row",
            seed + 1
        );
    }

    // The same chaos schedule without anti-entropy prints a new
    // fingerprint.
    let mut plan = FaultPlan::small(2);
    plan.anti_entropy = false;
    let report = run_plan(&plan, HostKind::Net, false);
    assert!(report.passed(), "{:?}", report.violations.first());
    let fingerprint = format!("{:016x}", report.fingerprint);
    let small = committed("tests/pins/chaos_small.txt");
    assert!(
        !small.lines().any(|l| l.ends_with(&fingerprint)),
        "a run without anti-entropy reproduced a pinned fingerprint: {fingerprint}"
    );
}

// -------------------------------------------------------------- figures

fn digest(table: &DataTable) -> String {
    Sha1::to_hex(&Sha1::digest(table.to_csv().as_bytes()))
}

/// `name digest` for every static table at the quick profile. Ext-A,
/// Ext-F and Ext-H run the dynamic overlay and Ext-L the pub/sub registry;
/// they are too slow for a debug build, so their paper-profile CSVs are
/// their only pins.
fn quick_digests() -> String {
    const SLOW: [&str; 4] = ["resilience", "churn", "loss", "multigroup"];
    let opts = Options::quick();
    FIGURES
        .iter()
        .filter(|(name, _)| !SLOW.contains(name))
        .map(|(name, run)| format!("{name} {}\n", digest(&run(&opts))))
        .collect()
}

// ---------------------------------------------------------------- chaos

/// `tests/pins/chaos_<preset>.txt`: what `cam-chaos --preset <preset>
/// --seeds <seeds>` prints on `hosts`, one summary line per run.
fn chaos(preset: &'static str, seeds: u64, hosts: &'static [HostKind]) -> Pin {
    Pin::new(format!("tests/pins/chaos_{preset}.txt"), move || {
        (1..=seeds)
            .map(|seed| chaos_rows(preset, seed, hosts))
            .collect()
    })
}

/// What `cam-chaos --adversary --seeds 50 --report …` writes. Like that
/// sweep, every behavior must pass its degraded oracles on every seed and
/// clear the 90 % detection bar, so a failing sweep is never pinned.
fn robustness_markdown() -> String {
    let (markdown, rows) = robustness_report(1, 50);
    for r in &rows {
        assert!(
            r.failed_seeds == 0 && r.detection_rate_ok(),
            "results/robustness_results.md: {} failed its oracles on {} seed(s), \
             detected {}/{} activated",
            r.behavior.name(),
            r.failed_seeds,
            r.detected,
            r.activated
        );
    }
    markdown
}

// -------------------------------------------------------------- reactor
//
// Over the deterministic in-memory wire the sans-I/O `Cluster` must keep
// printing the same virtual timeline, wire counters, per-node hop counts,
// delivery outcomes and trace stream across 20 seeds and both protocols.
// The rows were first recorded from the pre-reactor event loop (where the
// reactor matched it bit for bit), so they pin the protocol's observable
// behaviour independently of the reactor's own code.

const SPACE: IdSpace = IdSpace::PAPER;
const NODES: usize = 12;
const LOSS: f64 = 0.12;

/// `NODES` deterministic unique members with the paper's capacity range.
fn members(seed: u64) -> Vec<Member> {
    let mut rng = SimRng::new(seed).split(0x7E57);
    let mut ids = IdSet::default();
    let mut out = Vec::with_capacity(NODES);
    while out.len() < NODES {
        let id = rng.uniform_incl(0, SPACE.size() - 1);
        if ids.insert(id) {
            out.push(Member::with_capacity(
                Id(id),
                rng.uniform_incl(2, 10) as u32,
            ));
        }
    }
    out
}

fn converged<P: DhtProtocol>(
    m: &[Member],
    protocol: P,
    seed: u64,
) -> Cluster<P, InMemoryTransport> {
    let mut wire = InMemoryTransport::new(NODES, seed, LatencyModel::default_wan());
    wire.set_loss_probability(LOSS);
    Cluster::converged(SPACE, m, protocol, seed, wire, RetransmitPolicy::default())
}

/// Everything observable about a run: if two runs agree on all of this,
/// they took the same decisions at the same (virtual) instants.
struct Census {
    now: SimTime,
    counters: WireCounters,
    hops: Vec<Option<u32>>,
    first_done: bool,
    second_done: bool,
    trace: String,
    trace_events: usize,
}

/// `WireCounters` as one row field, in declaration order. The
/// destructuring is exhaustive on purpose: a new counter must be added to
/// the row (and the pin re-blessed) before this compiles again.
fn wire_field(c: &WireCounters) -> String {
    let WireCounters {
        bytes_sent,
        bytes_received,
        frames_encoded,
        frames_decoded,
        frames_rejected,
        encode_oversize,
        frames_dropped,
        send_backpressure,
        frames_retransmitted,
        internal_errors,
    } = *c;
    format!(
        "wire={bytes_sent},{bytes_received},{frames_encoded},{frames_decoded},\
         {frames_rejected},{encode_oversize},{frames_dropped},{send_backpressure},\
         {frames_retransmitted},{internal_errors}"
    )
}

/// The Chrome-trace JSON as one row field: its SHA-1, so the pin holds
/// every event's stamp, actor and payload without committing ~100 KB of
/// JSON per seed.
fn trace_field(trace: &str) -> String {
    format!("trace={}", Sha1::to_hex(&Sha1::digest(trace.as_bytes())))
}

impl Census {
    fn row(&self) -> String {
        let hops: Vec<String> = self
            .hops
            .iter()
            .map(|h| h.map_or_else(|| "-".to_owned(), |h| h.to_string()))
            .collect();
        format!(
            "now={} {} hops={} done={},{} events={} {}",
            self.now.micros(),
            wire_field(&self.counters),
            hops.join(","),
            self.first_done,
            self.second_done,
            self.trace_events,
            trace_field(&self.trace)
        )
    }
}

/// The scenario: converge, stabilize, multicast, kill a node, multicast
/// again, settle.
fn run_scenario<P: DhtProtocol>(mut cluster: Cluster<P, InMemoryTransport>) -> Census {
    cluster.set_tracer(Box::new(RecordingTracer::with_capacity(1 << 14)));
    cluster.run_for(Duration::from_secs(1));
    let first = cluster.start_multicast(0, true, Bytes::from(vec![0xA5u8; 384]));
    let first_done =
        cluster.run_until(Duration::from_secs(45), |c| c.delivery_ratio(first) >= 1.0);
    cluster.kill(NODES / 2);
    // Several stabilization rounds (500 ms default period) so the
    // survivors purge the dead node before the second multicast.
    cluster.run_for(Duration::from_secs(5));
    let second = cluster.start_multicast(1, false, Bytes::from(vec![0x5Au8; 128]));
    let second_done =
        cluster.run_until(Duration::from_secs(45), |c| c.delivery_ratio(second) >= 1.0);
    cluster.run_for(Duration::from_secs(2)); // settle in-flight acks
    let hops: Vec<Option<u32>> = (0..cluster.len())
        .map(|i| cluster.node(i).actor().payload_hops(second))
        .collect();
    let boxed = cluster.take_tracer();
    let rec = boxed.as_recording().expect("recording tracer installed");
    Census {
        now: cluster.now(),
        counters: cluster.counters(),
        hops,
        first_done,
        second_done,
        trace: rec.chrome_trace_json(),
        trace_events: rec.len(),
    }
}

fn reactor_census(seed: u64, koorde: bool) -> Census {
    let m = members(seed);
    if koorde {
        run_scenario(converged(&m, CamKoordeProtocol, seed))
    } else {
        run_scenario(converged(&m, CamChordProtocol, seed))
    }
}

/// Row `i` runs this seed on this protocol (Koorde on odd `i`).
fn reactor_case(i: usize) -> (u64, bool) {
    (i as u64 * 31 + 7, i % 2 == 1)
}

/// 20 scenario rows (12 nodes, 12 % loss, mid-run crash), then the
/// replay-attack row.
fn reactor_rows() -> String {
    let mut out = String::new();
    let mut delivered = 0;
    for i in 0..20 {
        let (seed, koorde) = reactor_case(i);
        let census = reactor_census(seed, koorde);
        delivered += usize::from(census.first_done && census.second_done);
        let protocol = if koorde { "koorde" } else { "chord" };
        writeln!(out, "{protocol} seed={seed} {}", census.row()).expect("writing to a String");
    }
    // Rows of trivially-failing runs would pin nothing.
    assert!(
        delivered >= 15,
        "only {delivered}/20 seeds delivered both multicasts — scenario too hostile to be meaningful"
    );
    writeln!(out, "replay seed=1337 {}", replay_row(1337)).expect("writing to a String");
    out
}

/// The replay-attack scenario: attach a [`ByzantineBehavior::Replay`]
/// adversary, deliver one region-split multicast everywhere, then give
/// the adversary ~20 stabilize rounds to re-send remembered frames over
/// the lossy acked wire. Asserts that no honest node forwards (or
/// first-receives) the payload after full delivery — every replayed copy
/// dies in duplicate suppression — and that honest nodes flag the
/// replays; returns the run's row.
fn replay_row(seed: u64) -> String {
    const ADVERSARY: usize = 3;
    let mut cluster = converged(&members(seed), CamChordProtocol, seed);
    cluster.set_tracer(Box::new(RecordingTracer::with_capacity(1 << 14)));
    cluster
        .actor_mut(ADVERSARY)
        .expect("the adversary is alive")
        .attach_adversary(ByzantineBehavior::Replay, seed);
    cluster.run_for(Duration::from_secs(1));
    let payload = cluster.start_multicast(0, true, Bytes::from(vec![0xC3u8; 256]));
    let done = cluster.run_until(Duration::from_secs(45), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    assert!(done, "multicast must deliver before the replay phase");
    let delivered_at = cluster.now().micros();
    // ~20 stabilize periods (500 ms default): each round the adversary
    // may re-send a remembered frame to a random neighbor; loss on the
    // wire is recovered by the ack/retransmit layer, so replayed frames
    // do arrive.
    cluster.run_for(Duration::from_secs(10));

    let acts = cluster
        .node(ADVERSARY)
        .actor()
        .adversary()
        .map_or(0, |s| s.acts);
    let mut detections = DetectionCounters::default();
    for i in 0..cluster.len() {
        if i != ADVERSARY {
            detections.add(&cluster.node(i).actor().detections());
        }
    }
    let boxed = cluster.take_tracer();
    let rec = boxed.as_recording().expect("recording tracer installed");
    let mut suppressed = 0usize;
    for e in rec.events() {
        if e.actor == ADVERSARY as u64 || e.at_micros <= delivered_at {
            continue;
        }
        match e.kind {
            // A forward or first receipt of the payload after everyone
            // already has it would mean a replayed frame re-entered the
            // dissemination tree instead of being suppressed.
            EventKind::MulticastForward { payload: p, .. }
            | EventKind::MulticastReceive { payload: p, .. }
                if p == payload =>
            {
                panic!(
                    "honest node {} re-propagated replayed payload at t={}us: {:?}",
                    e.actor, e.at_micros, e.kind
                );
            }
            EventKind::DuplicateSuppress { payload: p, .. } if p == payload => suppressed += 1,
            _ => {}
        }
    }
    assert!(acts > 0, "adversary never replayed anything");
    assert!(
        suppressed > 0,
        "no replayed frame was suppressed — did none arrive?"
    );
    let DetectionCounters {
        region_violations,
        capacity_forgeries,
        replay_suspects,
        stale_claims,
        repair_recoveries,
    } = detections;
    assert!(
        replay_suspects > 0,
        "honest nodes never flagged the replays: {detections:?}"
    );
    // Replay is the only misbehavior, so no *frame-level* accusation
    // besides replay_suspects may fire. stale_claims is exempt: at 12 %
    // sustained loss a run of dropped probes can transiently confirm a
    // live node dead, after which honest stabilize replies advertising it
    // are flagged — the documented false-positive mode of loss-only
    // detection (the chaos harness's honest baseline is lossless).
    assert_eq!(
        (region_violations, capacity_forgeries),
        (0, 0),
        "unrelated frame-level accusations on an honest-except-replay run: {detections:?}"
    );
    format!(
        "now={} {} acts={acts} detect={region_violations},{capacity_forgeries},\
         {replay_suspects},{stale_claims},{repair_recoveries} suppressed={suppressed} {}",
        cluster.now().micros(),
        wire_field(&cluster.counters()),
        trace_field(&rec.chrome_trace_json())
    )
}
