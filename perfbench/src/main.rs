//! Repository benchmark: command-line entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the workload's
//! end-to-end metrics; `--trace 1` runs the per-layer ledger instead.
//! Comment lines (`# ...`) carry host facts, per-metric values and any
//! failures; the last line of stdout is the JSON result.

use std::path::Path;
use std::time::{Duration, Instant};

use columbia_perfbench::facts::{build_profile, git_rev, peak_rss_mb};
use columbia_perfbench::ledger::{self, columbia_fabrics, LedgerConfig};
use columbia_perfbench::metric::{result_line, Metric, Tally};
use columbia_perfbench::stats::{median, percentile};
use columbia_perfbench::workload::{
    check, compile_all, experiments, run_pass, Capture, Experiment, Threads, Workload,
};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 1;
/// Default `--seconds`.
const DEFAULT_SECONDS: f64 = 30.0;
/// Shortest set-up sample.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);
/// The set-up burst between two passes lasts this share of the pass
/// before, up to [`SETUP_BURST_MAX`]; the bursts before the first pass
/// and after the last one take [`SETUP_BURST_MAX`].
const SETUP_SHARE: f64 = 0.05;
const SETUP_BURST_MAX: Duration = Duration::from_millis(500);
/// A run's peak RSS above this multiple of the first pass's is flagged.
const RSS_GROWTH_FLAG: f64 = 2.0;
/// Rank counts of the lowering probe; up to 1,024 ranks keeps a
/// quadratic lowering under about two seconds per repetition.
const PROBE_RANKS: [usize; 3] = [256, 512, 1024];
const PROBE_REPS: usize = 3;
const PDES_REPS: usize = 3;
const COMPILE_REPS: usize = 10;
/// Where captured passes write their documents, inside the checkout.
const SCRATCH: &str = ".bench_build/perfbench-scratch";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::PaperSweep,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    out.workload = workload.ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload is required (one of {})", names.join(", "))
    })?;
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let root = Path::new(".");
    let nproc = columbia::par::available_parallelism();
    let threads = args.workload.threads(nproc);
    println!(
        "# host: available_parallelism={nproc} jobs={} sim_threads={} git_rev={} profile={} \
         workload={} seed={} seconds={} trace={}",
        threads.jobs,
        threads.sim_threads,
        git_rev(root),
        build_profile(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let names = args.workload.spec_names(root)?;
    let exps = experiments(root, &names, args.seed)?;
    let scratch = root.join(SCRATCH);

    let result = if args.trace {
        let pdes_exps = experiments(root, &["columbia".to_string()], args.seed)?;
        let cfg = LedgerConfig {
            threads,
            compile_reps: COMPILE_REPS,
            probe_ranks: PROBE_RANKS.to_vec(),
            probe_reps: PROBE_REPS,
            pdes_threads: nproc,
            pdes_reps: PDES_REPS,
            pdes_fabrics: columbia_fabrics(),
            scratch: scratch.clone(),
        };
        ledger::run(args.workload, &exps, &pdes_exps, &cfg)
    } else {
        end_to_end(&exps, args, threads, &scratch)
    };
    // Remove the exported documents before reporting, even on error.
    for file in ["trace.json", "analysis.json"] {
        let _ = std::fs::remove_file(scratch.join(file));
    }
    let _ = std::fs::remove_dir(&scratch);
    let (metrics, tally) = result?;

    for m in &metrics {
        println!("# {:<20} {:>18} {}", m.def.name, m.value, m.def.unit);
    }
    for f in &tally.failures {
        println!("# FAILED {f}");
    }
    println!("{}", result_line(&tally, &metrics));
    Ok(())
}

/// `--trace 0`: whole passes until `--seconds` have elapsed (at least
/// one), with set-up sampled in short bursts before every pass and once
/// after the last. `wall_s` is the median pass, `setup_s` the fastest
/// set-up sample, `peak_rss_mb` the process's `VmHWM` at the end.
///
/// A set-up sample lasts about a millisecond, shorter than the spells
/// in which a shared host runs slower, so the median sample reads the
/// share of the run spent in slow spells rather than the code. The
/// fastest of a thousand or more samples, spread over the whole run by
/// the bursts, reads the set-up itself.
///
/// The peak is read over the whole run, not after one pass: which of
/// glibc's per-thread arenas the pool's short-lived threads allocate
/// in, and so how much freed memory stays resident, changes from pass
/// to pass. One pass's peak is a draw from that; the run's peak is the
/// largest of several draws and varies less.
fn end_to_end(
    exps: &[Experiment],
    args: &Args,
    threads: Threads,
    scratch: &Path,
) -> Result<(Vec<Metric>, Tally), String> {
    let mut setup = Vec::new();
    setup_burst(exps, &mut setup, SETUP_BURST_MAX)?;

    let capture = if args.workload.captures() {
        Capture::Full
    } else {
        Capture::Off
    };
    let mut tally = Tally::default();
    let mut walls: Vec<f64> = Vec::new();
    let mut first_export: Option<(usize, String)> = None;
    let mut first_rss = None;
    let started = Instant::now();
    loop {
        if let Some(w) = walls.last() {
            let burst = Duration::from_secs_f64(w * SETUP_SHARE).min(SETUP_BURST_MAX);
            setup_burst(exps, &mut setup, burst)?;
        }
        let pass = run_pass(exps, threads, capture, scratch)?;
        walls.push(pass.total_s);
        if first_rss.is_none() {
            first_rss = Some(rss()?);
        }
        tally.absorb(check(exps, &pass.rendered));
        if capture == Capture::Full {
            // The capture and its analysis are deterministic: every
            // pass must export the same bundles and analysis bytes.
            let this = (pass.bundles, pass.analysis_hash);
            let first = first_export.get_or_insert_with(|| this.clone());
            tally.record((*first != this).then(|| {
                format!(
                    "export: {} bundles / analysis {} differ from the first pass's {} / {}",
                    this.0, this.1, first.0, first.1
                )
            }));
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    setup_burst(exps, &mut setup, SETUP_BURST_MAX)?;
    let peak = rss()?;
    let first_rss = first_rss.unwrap_or(f64::NAN);
    let growth = peak / first_rss;
    println!(
        "# passes: {} (p10 {:.6} p25 {:.6} p75 {:.6} s)  set-up samples: {} (median {:.7} s)",
        walls.len(),
        percentile(&walls, 0.1),
        percentile(&walls, 0.25),
        percentile(&walls, 0.75),
        setup.len(),
        median(&setup)
    );
    println!("# peak RSS after the first pass: {first_rss:.3} MB; the run's is {growth:.3}x that");
    if growth > RSS_GROWTH_FLAG {
        println!("# FLAG peak RSS grew more than {RSS_GROWTH_FLAG}x after the first pass");
    }
    Ok((
        vec![
            Metric::new("wall_s", median(&walls)),
            Metric::new("setup_s", percentile(&setup, 0.0)),
            Metric::new("peak_rss_mb", peak),
        ],
        tally,
    ))
}

fn rss() -> Result<f64, String> {
    peak_rss_mb().ok_or_else(|| "VmHWM is not available in /proc/self/status".into())
}

/// Time set-up for at least `budget` (and at least one sample),
/// appending each sample's host seconds per repetition to `out`. A
/// sample repeats load and compile of every spec for at least
/// [`SETUP_SAMPLE`], so a spec set that compiles in microseconds is not
/// timed to within a few clock reads.
fn setup_burst(exps: &[Experiment], out: &mut Vec<f64>, budget: Duration) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || t.elapsed() < SETUP_SAMPLE {
            std::hint::black_box(compile_all(exps)?);
            reps += 1;
        }
        out.push(t.elapsed().as_secs_f64() / f64::from(reps));
        if started.elapsed() >= budget {
            return Ok(());
        }
    }
}
