//! Host-time benchmark of the Static Bubble reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload recovery_live --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload repeatedly for `--seconds` host seconds, checks every
//! simulated run against its recorded reference and liveness guard, and
//! prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` gives the end-to-end
//! metrics; `--trace 1` alternates plain and traced repetitions and gives
//! the per-layer split. `--record` re-records `reference.txt`. See
//! README.md for the workloads and what each metric should move.

mod metrics;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use metrics::{layer_metrics, median, tail, verdict, Metric};
use workload::{rep, Rep, Workload, INPUT_SETS};

/// Fewest timed repetitions, whatever `--seconds` says.
const MIN_REPS: usize = 5;

const REFERENCE: &str = include_str!("../reference.txt");

const USAGE: &str =
    "usage: sb-benchmark --workload <recovery_live|recovery_overload|updown_live|sweep_ladder> \
--seed <n> --seconds <s> --trace <0|1>\n       sb-benchmark --record";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record"] {
        return Ok(None);
    }
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        if kv.insert(key.as_str(), value.as_str()).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    if let Some(k) = kv
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(k))
    {
        return Err(format!("unknown option {k}"));
    }
    let w = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Some(Args {
        workload: Workload::from_name(w).ok_or(format!("unknown workload {w}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    }))
}

/// Reference digests per `(workload, input set)`.
fn reference() -> BTreeMap<(String, u64), Vec<u64>> {
    REFERENCE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut f = line.split_whitespace();
            let name = f.next().expect("reference line has a workload").to_string();
            let set = f
                .next()
                .and_then(|s| s.parse().ok())
                .expect("reference input set");
            let digests = f
                .map(|d| u64::from_str_radix(d, 16).expect("reference digest is hex"))
                .collect();
            ((name, set), digests)
        })
        .collect()
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(None) => record(),
        Ok(Some(args)) => run(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run one repetition under `catch_unwind`; a panic fails every run the
/// repetition would have made.
fn guarded(w: Workload, set: u64, traced: bool) -> Rep {
    catch_unwind(AssertUnwindSafe(|| rep(w, set, traced))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        let mut rep = Rep::default();
        rep.fail_all(format!("repetition panicked: {msg}"));
        rep
    })
}

/// Tally of attempted and failed runs, with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    reasons: Vec<String>,
}

impl Tally {
    /// Check `rep` against the reference (and, for a traced repetition, the
    /// plain one it must reproduce) and count its runs.
    fn add(&mut self, rep: &Rep, want: &[u64], plain: Option<&Rep>) {
        let mut failed = rep.failed.clone();
        let mut reasons = rep.failures.clone();
        if rep.digests.len() != want.len() {
            failed.extend(0..rep.runs);
            reasons.push("outputs missing: the repetition did not finish".into());
        } else {
            // One digest per run; any further one (the sweep report) covers all.
            for (i, (got, want)) in rep.digests.iter().zip(want).enumerate() {
                if got != want {
                    let runs = if i < rep.runs { i..i + 1 } else { 0..rep.runs };
                    failed.extend(runs);
                    reasons.push(format!("output {i} differs from the reference"));
                }
            }
        }
        if let Some(plain) = plain {
            if plain.outs != rep.outs || plain.digests != rep.digests {
                failed.extend(0..rep.runs);
                reasons.push("the traced repetition changed the simulated output".into());
            }
        }
        self.attempted += rep.runs.max(1);
        self.failed += failed.len();
        for r in reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let set = args.seed % INPUT_SETS;
    let Some(want) = reference().remove(&(w.name().to_string(), set)) else {
        eprintln!(
            "no reference for {} input set {set}; run --record",
            w.name()
        );
        return ExitCode::from(2);
    };
    let mut tally = Tally::default();

    // One untimed repetition first: page faults and lazy set-up happen
    // once per process, not once per repetition.
    let first = guarded(w, set, false);
    tally.add(&first, &want, None);

    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let p = guarded(w, set, false);
        tally.add(&p, &want, None);
        if args.trace {
            let t = guarded(w, set, true);
            tally.add(&t, &want, Some(&p));
            traced.push(t);
        }
        plain.push(p);
    }

    let wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let setup: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    let rate: Vec<f64> = plain
        .iter()
        .map(|r| r.cycles as f64 / r.sim_s.max(f64::MIN_POSITIVE))
        .collect();
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;

    let mut info = String::new();
    let _ = write!(
        info,
        "{{\"workload\":\"{}\",\"seed\":{},\"input_set\":{set},\"repetitions\":{},\
         \"traced_repetitions\":{},\"cores\":{},\"rustc\":\"{}\",\
         \"git_revision\":\"{}\",\"clock\":\"host time, std::time::Instant\",\"timings\":{{",
        w.name(),
        args.seed,
        plain.len(),
        traced.len(),
        workload::jobs(),
        command_line("rustc", &["-V"]),
        git_revision(),
    );
    for (i, (name, xs)) in [
        ("wall_s", &wall),
        ("setup_s", &setup),
        ("sim_cycles_per_s", &rate),
    ]
    .into_iter()
    .enumerate()
    {
        let sep = if i > 0 { "," } else { "" };
        let tail = tail(xs).map_or("null".to_string(), |(p, v)| {
            format!("{{\"percentile\":{p},\"value\":{v}}}")
        });
        let samples: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
        let _ = write!(
            info,
            "{sep}\"{name}\":{{\"median\":{},\"tail\":{tail},\"n\":{},\"samples\":[{}]}}",
            median(xs),
            xs.len(),
            samples.join(",")
        );
    }
    info.push_str("}}");
    println!("{info}");
    for r in &tally.reasons {
        eprintln!("check failed: {r}");
    }

    let metrics: Vec<Metric> = if args.trace {
        per_layer(w, &traced, &wall, fail_ratio)
    } else {
        vec![
            ("wall_s", median(&wall), "s"),
            ("setup_s", median(&setup), "s"),
            ("sim_cycles_per_s", median(&rate), "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    let correct = tally.failed == 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Medians of the per-layer metrics over the traced repetitions, plus the
/// tracing overhead and the failure ratio, after a layer-share report line.
fn per_layer(w: Workload, traced: &[Rep], plain_wall: &[f64], fail_ratio: f64) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = traced
        .iter()
        .filter(|r| r.trace.is_some())
        .map(|r| layer_metrics(w, r))
        .collect();
    let mut out: Vec<Metric> = match per_rep.first() {
        Some(first) => first
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                let xs: Vec<f64> = per_rep.iter().map(|m| m[i].1).collect();
                (name, median(&xs), unit)
            })
            .collect(),
        None => Vec::new(),
    };
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    out.push((
        "bench.trace_overhead_frac",
        median(&traced_wall) / median(plain_wall) - 1.0,
        "ratio",
    ));
    out.push(("run_fail_ratio", fail_ratio, "ratio"));

    // The layer split of the median traced repetition, and whether the
    // predicted dominant layer held.
    if let Some(mid) = traced.iter().filter(|r| r.trace.is_some()).min_by(|a, b| {
        let m = median(&traced_wall);
        (a.wall_s - m).abs().total_cmp(&(b.wall_s - m).abs())
    }) {
        let t = mid.trace.as_ref().expect("filtered on trace");
        let v = verdict(w, t, mid);
        let mut line = String::from("{\"layer_self_time_share\":{");
        for (i, (name, share)) in v.shares.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(line, "{sep}\"{name}\":{share:.4}");
        }
        let _ = write!(
            line,
            "}},\"predicted\":\"{}\",\"predicted_share\":{:.4},\"largest_other\":\"{}\",\
             \"largest_other_share\":{:.4},\"prediction\":\"{}\"}}",
            metrics::predicted(w).join("+"),
            v.predicted_share,
            v.largest_other.0,
            v.largest_other.1,
            if v.held { "held" } else { "failed" }
        );
        println!("{line}");
    }
    out
}

/// Re-record `reference.txt`: one plain repetition of every workload on
/// every input set, each of which must pass its liveness guard.
fn record() -> ExitCode {
    let mut text = String::from(
        "# Reference outputs: workload, input set, then FNV-1a digests of each run's\n\
         # Stats JSON (and, for sweep_ladder, of the aggregated report). Written by\n\
         # `sb-benchmark --record`.\n",
    );
    for w in Workload::ALL {
        for set in 0..INPUT_SETS {
            let r = guarded(w, set, false);
            if !r.failed.is_empty() {
                eprintln!("{} input set {set}: {:?}", w.name(), r.failures);
                return ExitCode::from(1);
            }
            let digests: Vec<String> = r.digests.iter().map(|d| format!("{d:016x}")).collect();
            let _ = writeln!(text, "{} {set} {}", w.name(), digests.join(" "));
            eprintln!("{} {set}: {:.3} s", w.name(), r.wall_s);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
    match std::fs::write(path, text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("write {path}: {e}");
            ExitCode::from(1)
        }
    }
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of a command's stdout, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision, if the working directory is a git checkout.
fn git_revision() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unavailable (not a git checkout)".into()
    }
}
