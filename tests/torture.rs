//! Randomized torture test: an arbitrary interleaving of crashes, joins,
//! and multicasts must always leave the overlay able to self-heal back to
//! complete delivery once churn stops.
//!
//! Torture is a preset of the seeded fault-plan generator: each seed runs
//! the full oracle catalog (delivery, duplicate suppression, ring
//! convergence, neighbor-table ideal, cleanup) at the quiescent point on
//! the simulator host, and a failure shrinks and replays through
//! `cam-chaos --replay`. Each test checks its seed's row of the pin
//! `tests/pins/chaos_torture.txt`: the `ok:` verdict, the event count and
//! the fingerprint, which holds the simulator to one delivery order. The
//! pin is listed and blessed with every other pin in `tests/pins.rs`.

mod pin_check;

use cam::chaos::HostKind;
use pin_check::{chaos_rows, committed, compare};

const PIN: &str = "tests/pins/chaos_torture.txt";

/// Fails, naming the pin file and line, unless seed `seed` prints row
/// `seed` of the pin.
fn torture(seed: u64) {
    let pinned = committed(PIN);
    let row = usize::try_from(seed - 1).expect("a small seed");
    let mut printed: Vec<String> = pinned.split_inclusive('\n').map(str::to_owned).collect();
    printed.resize(printed.len().max(row + 1), String::new());
    printed[row] = chaos_rows("torture", seed, &[HostKind::Sim]);
    if let Some(err) = compare(PIN, &pinned, &printed.concat()) {
        panic!("{err}");
    }
}

#[test]
fn torture_seed_1() {
    torture(1);
}

#[test]
fn torture_seed_2() {
    torture(2);
}

#[test]
fn torture_seed_3() {
    torture(3);
}

#[test]
fn torture_seed_4() {
    torture(4);
}
