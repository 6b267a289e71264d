//! `adafl-benchmark --workload W --seed N --seconds S --trace 0|1`

use adafl_benchmark::alloc::CountingAlloc;
use adafl_benchmark::run::{run, Args};
use adafl_benchmark::sys;
use adafl_benchmark::workloads::Workload;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn cpu_features() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        ) {
            (true, true) => "avx2+fma",
            (true, false) => "avx2",
            _ => "no-avx2",
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            "neon"
        } else {
            "no-neon"
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "none"
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            eprintln!(
                "usage: adafl-benchmark --workload <{}> --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    for (def, value) in &report.metrics {
        eprintln!("{:<32} {value:>16.4} {}", def.name, def.unit);
    }
    eprintln!(
        "fingerprint {:016x} final_accuracy {:.4}",
        report.fingerprint, report.final_accuracy
    );
    eprintln!("raw {}", report.raw);
    eprintln!(
        "meta workload={} seed={} nproc={} pool_width={} simd={} cpu={} target-cpu={} \
         rustc=\"{}\" commit={} repetitions={} host_samples={}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        args.workload.pool_width(),
        cfg!(feature = "simd"),
        cpu_features(),
        env!("BENCH_TARGET_CPU"),
        env!("BENCH_RUSTC_VERSION"),
        sys::git_commit(),
        report.repetitions,
        report.host_samples,
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
