//! Regenerates the paper's figures (and the extension experiments) as
//! plain-text tables on stdout and CSV files under `results/`.
//!
//! ```text
//! repro [--quick] [--plot] [--n <size>] [--sources <k>] [--out <dir>]
//!       [--trace-out <file>] [FIGURE...]
//!
//! FIGURE: fig6 fig7 fig8 fig9 fig10 fig11 resilience overhead ablation
//!         lookup load churn proximity loss theory heterogeneity stability
//!         multigroup all    (default: all; the list is `FIGURES`)
//! --quick     4,000-node groups instead of the paper's 100,000
//! --plot      also render each table as an ASCII chart
//! --n         explicit group size
//! --sources   multicast sources sampled per configuration
//! --out       output directory for CSVs (default: results)
//! --trace-out capture one Ext-A resilience run as Chrome Trace Event
//!             Format JSON at <file> (open in chrome://tracing/Perfetto);
//!             a text summary goes to stderr
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the CLI times each figure for its stderr progress line; no table or CSV reads it"
)]

use std::process::ExitCode;

use cam_experiments::{ext, Options, FIGURES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options::paper();
    let mut out_dir = "results".to_string();
    let mut plot = false;
    let mut trace_out: Option<String> = None;
    let mut figures: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                let q = Options::quick();
                opts.n = q.n;
                opts.sources = q.sources;
            }
            "--n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.n = n,
                None => return usage("--n needs an integer"),
            },
            "--sources" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.sources = s,
                None => return usage("--sources needs an integer"),
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = dir,
                None => return usage("--out needs a directory"),
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path),
                None => return usage("--trace-out needs a file path"),
            },
            "--plot" => plot = true,
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => return usage(&format!("unknown flag {other}")),
            fig => figures.push(fig.to_string()),
        }
    }
    // `--trace-out` with no figure names is a pure trace capture; naming
    // figures (or `all`) alongside it runs both.
    if figures.iter().any(|f| f == "all") || (figures.is_empty() && trace_out.is_none()) {
        figures = FIGURES.iter().map(|(name, _)| name.to_string()).collect();
    }

    eprintln!(
        "# n = {}, sources = {}, seed = {:#x}",
        opts.n, opts.sources, opts.seed
    );
    if let Some(path) = &trace_out {
        let started = std::time::Instant::now();
        let rec = ext::resilience_trace(&opts);
        eprint!("{}", rec.text_report());
        if let Err(e) = std::fs::write(path, rec.chrome_trace_json()) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!(
            "# wrote {path} ({} events, {:.1}s)",
            rec.len(),
            started.elapsed().as_secs_f64()
        );
    }
    for fig in &figures {
        let started = std::time::Instant::now();
        let Some((_, run)) = FIGURES.iter().find(|(name, _)| name == fig) else {
            return usage(&format!("unknown figure {fig}"));
        };
        let table = run(&opts);
        println!("{}", table.to_text());
        if plot {
            println!("{}", cam_experiments::ascii_plot(&table, 72, 20));
        }
        let path = format!("{out_dir}/{fig}.csv");
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            eprintln!("# wrote {path} ({:.1}s)", started.elapsed().as_secs_f64());
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro [--quick] [--plot] [--n SIZE] [--sources K] [--out DIR] \
         [--trace-out FILE] [{}|all]...",
        names.join("|")
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
