//! End-to-end and per-layer benchmark of the paper pipeline.
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--update-goldens]
//! benchmark --compare PARENT.txt CHANGE.txt
//! ```
//!
//! Each workload runs in a child process of its own, with the `MCDN_*`
//! overrides stripped from its environment, one workload at a time. The
//! child repeats the workload for `--seconds` and reports, per metric,
//! the best repetition (times and throughput) or the median (set-up);
//! its last line of output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). Every repetition's output digest
//! must match the committed golden for the seed, or, for a seed without
//! one, every other repetition's. See `README.md` for the workloads, the
//! metrics and how to compare two commits.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process counters and supports 64-bit Linux only");

mod digest;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{Metric, Pick, END_TO_END, PER_LAYER};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use workloads::{run_rep, Rep, RepOptions, Workload};

const USAGE: &str = "usage: benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
[--update-goldens]\n       benchmark --compare PARENT.txt CHANGE.txt";

/// Environment overrides the program reads; a workload must not inherit
/// them from whoever started the benchmark.
const SCRUBBED_ENV: [&str; 4] = [
    "MCDN_THREADS",
    "MCDN_NO_REUSE",
    "MCDN_OBS",
    "MCDN_KILL_AFTER_ROUND",
];

/// The held-out seed whose goldens are committed beside the default's.
const HELD_OUT_SEED: u64 = 7;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    update_goldens: bool,
    child: bool,
    compare: Option<(String, String)>,
}

impl Args {
    fn parse(it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: mcdn_scenario::ScenarioConfig::paper().seed,
            seconds: 28,
            trace: false,
            update_goldens: false,
            child: false,
            compare: None,
        };
        let mut it = it.peekable();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
            match arg.as_str() {
                "--workload" => {
                    let w = value("a workload name")?;
                    a.workload =
                        Some(Workload::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
                }
                "--seed" => {
                    a.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    a.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    a.trace = it
                        .next_if(|v| v == "0" || v == "1")
                        .is_none_or(|v| v == "1")
                }
                "--update-goldens" => a.update_goldens = true,
                "--child" => a.child = true,
                "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        Ok(a)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match (&args.compare, args.child, args.workload) {
        (Some((parent, change)), ..) => compare(parent, change),
        (None, true, Some(w)) if args.update_goldens => update_goldens(w),
        (None, true, Some(w)) => child(&args, w),
        (None, true, None) => {
            eprintln!("benchmark: --child needs --workload");
            2
        }
        (None, false, _) => parent(&args),
    };
    std::process::exit(code);
}

/// Spawns one child per workload, in turn, and relays its exit status.
fn parent(args: &Args) -> i32 {
    let cpus = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    let rustc = Command::new("rustc").arg("--version").output().map_or_else(
        |_| "unknown".to_string(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
    );
    let par = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: cpus={cpus} available_parallelism={par} rustc={rustc:?} rev={}",
        git_rev()
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", w.name()])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.update_goldens {
            cmd.arg("--update-goldens");
        }
        for var in SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => code = s.code().unwrap_or(1),
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                code = 1;
            }
        }
    }
    code
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where traces and journals go: `benchmark/` under the cargo target
/// directory, created if missing.
fn out_dir() -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Runs `w` for `--seconds` after one warm-up repetition, checks every
/// repetition's output, and prints the result line.
fn child(args: &Args, w: Workload) -> i32 {
    let dir = match out_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 1;
        }
    };
    let origin = Instant::now();
    let rep = |traced, verify_resume| {
        let opts = RepOptions {
            traced,
            verify_resume,
        };
        run_rep(w, args.seed, opts, origin, &dir)
    };
    // The warm-up pays for lazy process set-up (the worker pool, first
    // page faults) and, on `faulted`, checks resume against an
    // uninterrupted campaign. It is checked but not timed.
    let warm = rep(false, true);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // A repetition starts only if one as long as the last still ends
    // within the budget, so a run lasts `--seconds`, not up to a
    // repetition more.
    let mut last = Duration::ZERO;
    while plain.is_empty() || (args.trace && traced.is_empty()) || start.elapsed() + last <= budget
    {
        let began = Instant::now();
        // Traced and untraced repetitions alternate, so both see the
        // same machine conditions.
        if args.trace && traced.len() < plain.len() {
            traced.push(rep(true, false));
        } else {
            plain.push(rep(false, false));
        }
        last = began.elapsed();
    }
    let peak = peak_rss_mb();

    let golden = digest::golden(digest::GOLDENS, w.name(), args.seed);
    let reference = golden.unwrap_or(warm.digest);
    let all: Vec<&Rep> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let mut failed = 0;
    for (i, r) in all.iter().enumerate() {
        for v in &r.violations {
            eprintln!("{}: repetition {i}: {v}", w.name());
        }
        if r.digest != reference {
            eprintln!(
                "{}: repetition {i}: digest {:016x}, expected {reference:016x} ({})",
                w.name(),
                r.digest,
                if golden.is_some() {
                    "committed golden"
                } else {
                    "first repetition"
                }
            );
        }
        failed += usize::from(!r.violations.is_empty() || r.digest != reference);
    }

    let metrics: Vec<(&Metric, f64)> = if args.trace {
        let values = layer_values(&plain, &traced);
        report_self_times(w, &traced);
        if let Err(e) = write_traces(&dir, w, &traced) {
            eprintln!("benchmark: cannot write trace: {e}");
        }
        PER_LAYER.iter().map(|m| (m, values(m.name))).collect()
    } else {
        let series = |f: fn(&Rep) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
        let samples = [
            series(|r| r.wall_s),
            series(|r| r.setup_s),
            series(|r| r.cpu_s),
            series(|r| r.resolutions_per_s),
            vec![peak],
        ];
        eprintln!("{} (seed {}, n = {}):", w.name(), args.seed, plain.len());
        END_TO_END
            .iter()
            .zip(samples)
            .map(|(m, s)| {
                let sum = Summary::of(&s).expect("at least one repetition");
                let value = match m.pick {
                    Pick::Best => stats::best(m.better, &s),
                    Pick::Median => sum.median,
                };
                eprintln!(
                    "  {:<18} {:>14.6} {:<4} ({:?}) median {:.6} q1 {:.6} q3 {:.6} samples {:?}",
                    m.name, value, m.unit, m.pick, sum.median, sum.q1, sum.q3, s
                );
                (m, value)
            })
            .collect()
    };
    println!("{}", result_line(failed == 0, all.len(), failed, &metrics));
    if failed == 0 {
        0
    } else {
        1
    }
}

/// Per-layer value lookup: the median over traced repetitions, plus the
/// tracing overhead against the untraced ones.
fn layer_values<'a>(plain: &'a [Rep], traced: &'a [Rep]) -> impl Fn(&str) -> f64 + 'a {
    for name in traced.iter().flat_map(|r| r.layers.keys()) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "per-layer value {name} is not in the catalogue"
        );
    }
    let median = |v: Vec<f64>| Summary::of(&v).map_or(0.0, |s| s.median);
    let untraced = median(plain.iter().map(|r| r.wall_s).collect());
    let overhead = (median(traced.iter().map(|r| r.wall_s).collect()) / untraced - 1.0) * 100.0;
    move |name| match name {
        "bench.trace_overhead_pct" => overhead,
        _ => median(
            traced
                .iter()
                .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                .collect(),
        ),
    }
}

/// Prints each layer's median self time across traced repetitions.
fn report_self_times(w: Workload, traced: &[Rep]) {
    let mut names: Vec<&'static str> = traced
        .iter()
        .flat_map(|r| r.spans.iter().map(|s| s.name))
        .collect();
    names.sort_unstable();
    names.dedup();
    let wall =
        Summary::of(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>()).map_or(0.0, |s| s.median);
    let mut rows: Vec<(&str, f64)> = names
        .into_iter()
        .map(|name| {
            let per_rep: Vec<f64> = traced
                .iter()
                .map(|r| {
                    let st = trace::self_times(&r.spans);
                    r.spans
                        .iter()
                        .zip(st)
                        .filter(|(s, _)| s.name == name)
                        .map(|(_, t)| t)
                        .sum()
                })
                .collect();
            (name, Summary::of(&per_rep).map_or(0.0, |s| s.median))
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!(
        "{} self time per layer (median of {} traced repetitions):",
        w.name(),
        traced.len()
    );
    for (name, secs) in rows {
        eprintln!(
            "  {name:<34} {secs:>10.6} s {:>6.1}% of timed wall",
            secs / wall * 100.0
        );
    }
}

fn write_traces(dir: &Path, w: Workload, traced: &[Rep]) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, r) in traced.iter().enumerate() {
        trace::write_jsonl(&mut out, &r.spans, w.name(), i);
    }
    std::fs::write(dir.join(format!("trace-{}.jsonl", w.name())), out)
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Recomputes the committed digests of `w` for the default and the
/// held-out seed from two repetitions each, one traced, refusing to
/// write unless they agree, hold every invariant, and (on `faulted`) the
/// resumed campaign equals the uninterrupted one.
fn update_goldens(w: Workload) -> i32 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/digests.txt");
    let mut text = std::fs::read_to_string(&path).unwrap_or_default();
    let dir = match out_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 1;
        }
    };
    let origin = Instant::now();
    for seed in [mcdn_scenario::ScenarioConfig::paper().seed, HELD_OUT_SEED] {
        let rep = |traced, verify_resume| {
            run_rep(
                w,
                seed,
                RepOptions {
                    traced,
                    verify_resume,
                },
                origin,
                &dir,
            )
        };
        let (a, b) = (rep(false, true), rep(true, false));
        let broken: Vec<&String> = a.violations.iter().chain(&b.violations).collect();
        if !broken.is_empty() || a.digest != b.digest {
            eprintln!(
                "{} seed {seed}: not writing goldens: digests {:016x} / {:016x}, violations {broken:?}",
                w.name(),
                a.digest,
                b.digest
            );
            return 1;
        }
        eprintln!("{} seed {seed}: {:016x}", w.name(), a.digest);
        text = digest::with_golden(&text, w.name(), seed, a.digest);
    }
    match std::fs::write(&path, text) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            1
        }
    }
}

/// Metric values of one result line, by name.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(at) = line.find("\"metrics\"") else {
        return Vec::new();
    };
    let mut rest = &line[at + "\"metrics\"".len()..];
    let mut out = Vec::new();
    while let Some(v) = rest.find("{\"value\":") {
        let name = rest[..v].rsplit('"').nth(1).unwrap_or_default().to_string();
        let num = rest[v + "{\"value\":".len()..].trim_start();
        let end = num
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(num.len());
        if let Ok(value) = num[..end].parse() {
            out.push((name, value));
        }
        rest = &num[end..];
    }
    out
}

/// Compares result lines of a parent and a change, run in alternating
/// pairs: line `i` of each file is pair `i`. Exits 1 when an end-to-end
/// metric regressed beyond its bound.
fn compare(parent: &str, change: &str) -> i32 {
    let load = |p: &str| -> Result<Vec<Vec<(String, f64)>>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Ok(text
            .lines()
            .filter(|l| l.starts_with("{\"correct\""))
            .map(parse_metrics)
            .collect())
    };
    let (p, c) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) if !p.is_empty() && !c.is_empty() => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
        _ => {
            eprintln!("benchmark: no result lines to compare");
            return 2;
        }
    };
    let column = |runs: &[Vec<(String, f64)>], name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect()
    };
    println!(
        "{:<30} {:>26} {:>26} {:>8}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let (pv, cv) = (column(&p, m.name), column(&c, m.name));
        let (Some(ps), Some(cs)) = (Summary::of(&pv), Summary::of(&cv)) else {
            continue;
        };
        let better = |a: f64, b: f64| match m.better {
            stats::Better::Lower => a < b,
            stats::Better::Higher => a > b,
        };
        let wins = pv.iter().zip(&cv).filter(|(p, c)| better(**c, **p)).count();
        let pairs = pv.len().min(cv.len());
        let spread = ps.q3 - ps.q1;
        let verdict = if m.bound == 0.0 {
            "per-layer"
        } else if spread > m.bound * ps.median.abs()
            && !cv.iter().all(|c| pv.iter().all(|p| better(*c, *p)))
        {
            "unresolved"
        } else if stats::regressed(m.better, m.bound, m.floor, ps.median, cs.median) {
            regressed = true;
            "REGRESSED"
        } else if wins * 10 >= pairs * 9 && (cs.median - ps.median).abs() > spread {
            "improved"
        } else {
            "within bound"
        };
        println!(
            "{:<30} {:>26} {:>26} {:>8}  {verdict}",
            m.name,
            format!("{:.6} [{:.6}, {:.6}]", ps.median, ps.q1, ps.q3),
            format!("{:.6} [{:.6}, {:.6}]", cs.median, cs.q1, cs.q3),
            format!("{wins}/{pairs}"),
        );
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_comparer() {
        let line = result_line(
            true,
            3,
            0,
            &[(&END_TO_END[0], 1.25), (&END_TO_END[3], 123456.5)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"resolutions_per_s\": {\"value\": 123456.5, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(
            parse_metrics(&line),
            vec![
                ("wall_s".to_string(), 1.25),
                ("resolutions_per_s".to_string(), 123456.5)
            ]
        );
    }

    #[test]
    fn args_accept_valued_and_bare_trace_flags() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload faulted --seed 3 --seconds 4 --trace 0").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Faulted), 3, 4, false)
        );
        assert!(parse("--trace 1").expect("valid").trace);
        assert!(parse("--trace --seed 2").expect("valid").trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
    }
}
