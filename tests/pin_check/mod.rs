//! The pin check shared by the test binaries that compare printed output
//! with a committed pin file: reading the file, the failure message, and
//! the chaos summary lines. The list of pins and the bless path live in
//! `tests/pins.rs`.

use std::fmt::Write as _;
use std::path::Path;

use cam::chaos::{run_plan, FaultPlan, HostKind};

/// The one way every pin is re-written.
pub const BLESS: &str = "cargo test --release --test pins -- --ignored bless";

/// The committed text of `file` (a path from the repository root); empty
/// when the file is missing, so a new pin fails until it is blessed.
pub fn committed(file: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file))
        .unwrap_or_default()
}

/// `None` when `printed` equals `pinned`; otherwise the failure message:
/// file and first differing line, both versions of it, how many lines
/// differ, and the bless command.
pub fn compare(file: &str, pinned: &str, printed: &str) -> Option<String> {
    if pinned == printed {
        return None;
    }
    let want: Vec<&str> = pinned.split_inclusive('\n').collect();
    let got: Vec<&str> = printed.split_inclusive('\n').collect();
    let lines = want.len().max(got.len());
    let differ: Vec<usize> = (0..lines).filter(|&i| want.get(i) != got.get(i)).collect();
    let show =
        |line: Option<&&str>| line.map_or_else(|| "<no line>".to_owned(), |l| format!("{l:?}"));
    let first = differ[0];
    Some(format!(
        "{file}:{}: {} of {lines} lines differ from what the code prints\n  \
         pinned:  {}\n  printed: {}\n\
         If the change is deliberate, re-pin with `{BLESS}` and review the diff.",
        first + 1,
        differ.len(),
        show(want.get(first)),
        show(got.get(first)),
    ))
}

/// What `cam-chaos --preset <preset> --start-seed <seed> --seeds 1` prints
/// on `hosts`: one summary line per run. Every run must pass its oracles
/// and deliver its quiescent-point multicast to every live member, so
/// neither a check nor a bless can record a failing verdict; the panic
/// names the pin file and lists the violations.
pub fn chaos_rows(preset: &str, seed: u64, hosts: &[HostKind]) -> String {
    let plan = FaultPlan::by_preset(preset, seed).expect("a preset name");
    let mut out = String::new();
    for &host in hosts {
        let report = run_plan(&plan, host, false);
        let at = format!(
            "tests/pins/chaos_{preset}.txt: seed {seed} [{}]",
            host.name()
        );
        assert!(report.passed(), "{at}: {:#?}", report.violations);
        let &(payload, live, delivered) = report.census.last().expect("final multicast ran");
        assert_eq!(
            delivered, live,
            "{at}: payload {payload} delivered to {delivered}/{live}"
        );
        writeln!(out, "{}", report.summary(&plan)).expect("writing to a String");
    }
    out
}
