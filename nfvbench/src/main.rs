//! Command line of the benchmark; see the crate docs of `nfvbench`.

use nfvbench::report::{decisions_per_s, end_to_end, peak_rss_mb, per_layer, result_line};
use nfvbench::trace::Tracer;
use nfvbench::workloads::{prepare, run_pass, Params, Size, Workload, PIPELINE_WORKERS};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed used when `--seed` is not given (recorded in `BENCHMARK.json`).
const DEFAULT_SEED: u64 = 1;
/// The run length used when `--seconds` is not given: `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: u64 = 30;

const USAGE: &str =
    "usage: nfvbench --workload <offline_waxman250|online_fattree5120|stream_faults_waxman250> \
[--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value.parse().map_err(bad)?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The machine and build, printed with every result.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("NFVBENCH_RUSTC"),
        env!("NFVBENCH_COMMIT")
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nfvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("nfvbench: refusing to time a build without optimisations; build with --release");
        return ExitCode::from(2);
    }
    if std::env::var_os("NFV_AUDIT").is_some() {
        eprintln!("nfvbench: refusing to time with NFV_AUDIT set; the auditor would run inside the timed phase");
        return ExitCode::from(2);
    }
    let env = environment();
    let name = args.workload.name();
    println!(
        "# nfvbench {name} seed={} seconds={} trace={} {env}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let params = Params {
        workload: args.workload,
        seed: args.seed,
        size: Size::for_seconds(args.workload, args.seconds),
    };
    let mut tracer = Tracer::new(args.trace);
    let (prepared, setup) = prepare(params, &mut tracer);
    let servers = prepared.servers();
    let untraced = run_pass(&prepared, PIPELINE_WORKERS, &mut Tracer::new(false));
    let mut passes = vec![&untraced];
    println!(
        "# host slowdown over the nominal probe: median {:.3} (set-up {:.3})",
        untraced.slowdown, setup.slowdown
    );
    println!(
        "# {} rounds x {} requests: {} decisions in {:.3} s, {} admitted, {} faults; latency samples n={}",
        params.size.rounds,
        params.size.round_len,
        untraced.offered,
        untraced.timed_s,
        untraced.admitted,
        untraced.faults,
        untraced.latencies_ms.len()
    );

    let traced;
    let metrics = if args.trace {
        telemetry::reset();
        telemetry::enable();
        traced = run_pass(&prepared, PIPELINE_WORKERS, &mut tracer);
        telemetry::disable();
        passes.push(&traced);
        let table = tracer.layer_table();
        println!("# per-layer spans of the traced pass:");
        for line in table.lines() {
            println!("# {line}");
        }
        let dir = out_dir();
        let stem = format!("{name}-seed{}", args.seed);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), tracer.to_jsonl())
            })
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.layers.md")),
                    format!("{name} seed={} {env}\n\n{table}", args.seed),
                )
            });
        match written {
            Ok(()) => println!(
                "# spans written to {}",
                dir.join(format!("{stem}.spans.jsonl")).display()
            ),
            Err(e) => eprintln!("nfvbench: could not write spans: {e}"),
        }
        per_layer(
            &setup,
            &traced,
            &tracer,
            servers,
            decisions_per_s(&untraced),
        )
    } else {
        let Some(rss) = peak_rss_mb() else {
            eprintln!("nfvbench: cannot read VmHWM from /proc/self/status");
            return ExitCode::from(1);
        };
        end_to_end(&setup, &untraced, rss - prepared.probe_mb())
    };

    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.failures.len()).sum();
    for failure in passes.iter().flat_map(|p| &p.failures) {
        println!("# FAILED: {failure}");
    }
    for metric in &metrics {
        println!(
            "# {:<48} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
