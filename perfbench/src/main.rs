//! Benchmark command: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a readable report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
//! or with `--trace 1` the per-layer ones). Exits 1 when any operation
//! failed its check and 2 when the run could not start.

use foresight_perfbench::{median, run, Metric, Outcome, RunConfig, Scale, Workload, CLOSURE};
use std::process::ExitCode;

/// Every end-to-end metric the report names, with its unit. Each
/// workload measures a subset; the rest print as not applicable.
const NAMED: [(&str, &str); 14] = [
    ("compress_mbs", "MB/s"),
    ("decompress_mbs", "MB/s"),
    ("ratio", "x"),
    ("psnr_db", "dB"),
    ("reads_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("sim_p50_ms", "ms(sim)"),
    ("sim_p99_ms", "ms(sim)"),
    ("sim_sustained_gbs", "GB/s(sim)"),
    ("error_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("positive seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scale: Scale::full(),
    })
}

fn fmt(value: f64) -> String {
    if value == 0.0 || (1e-3..1e6).contains(&value.abs()) {
        format!("{value:.4}")
    } else {
        format!("{value:.4e}")
    }
}

fn print_named(out: &Outcome, traced: bool) {
    for (name, unit) in NAMED {
        let value = match name {
            "ratio" => Some(out.ratio),
            "psnr_db" => Some(out.psnr_db),
            "error_rate" => Some(out.error_rate()),
            "setup_s" => Some(out.setup_s),
            "peak_rss_mb" => Some(out.peak_rss_mb()),
            _ => out.named.iter().find(|m| m.name == name).map(|m| m.value),
        };
        let Some(value) = value else {
            println!("  {name:<18} n/a (this workload does not exercise it)");
            continue;
        };
        let mut line = format!("  {name:<18} {} {unit}", fmt(value));
        if traced {
            if let Some((_, layers)) = out.attribution.iter().find(|(m, _)| *m == name) {
                let parts: Vec<String> = layers
                    .iter()
                    .map(|l| format!("{l} {}", fmt(out.layer(l))))
                    .collect();
                line.push_str(&format!("   <- {}", parts.join(", ")));
            }
        }
        println!("{line}");
    }
}

fn json(correct: bool, out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    let n = cfg.scale.n_side;
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        rayon::current_num_threads()
    );
    println!(
        "inputs: {n}^3 six-field Nyx snapshot ({:.1} MiB of f32) generated in {:.3} s, outside setup_s; \
         resident set {:.1} MB once generated",
        (n * n * n * 6 * 4) as f64 / (1 << 20) as f64,
        out.gen_s,
        out.input_rss_mb
    );
    println!(
        "untraced passes: {}, timed seconds min {} median {} max {}  (host wall unless marked (sim): simulated clock)",
        out.pass_s.len(),
        fmt(out.pass_s.iter().copied().fold(f64::INFINITY, f64::min)),
        fmt(median(&out.pass_s)),
        fmt(out.pass_s.iter().copied().fold(0.0, f64::max))
    );
    println!(
        "pass seconds: {:?}",
        out.pass_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "peak resident set per untraced pass: min {} max {} MB",
        fmt(out
            .pass_rss_mb
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)),
        fmt(out.pass_rss_mb.iter().copied().fold(0.0, f64::max))
    );
    if let Some(steal) = out.steal_share {
        println!(
            "hypervisor steal while the passes ran: {:.1}% of CPU time",
            steal * 100.0
        );
    }
    if let Some(faults) = out.faults_per_pass {
        println!("minor page faults per pass: {faults:.0}");
    }
    if cfg.trace {
        let closure = out.layer("trace.closure");
        out.check(CLOSURE.contains(&closure), || {
            format!("per-layer self times add up to {closure:.4} of the calls' wall, outside {CLOSURE:?}")
        });
        println!(
            "end-to-end (untraced passes of this run), with the per-layer self times behind each:"
        );
        print_named(&out, true);
        println!("per-layer (traced passes; seconds are per pass, 0 = layer not run):");
        for m in out.per_layer() {
            println!("  {:<30} {} {}", m.name, fmt(m.value), m.unit);
        }
        println!(
            "tracing overhead {} s per pass; the per-layer self times add up to {} of the calls' wall",
            fmt(out.layer("trace.overhead_s")),
            fmt(closure)
        );
    } else {
        println!("end-to-end:");
        print_named(&out, false);
    }
    for note in &out.notes {
        println!("{note}");
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let metrics = if cfg.trace {
        out.per_layer()
    } else {
        out.end_to_end()
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    println!("{}", json(correct, &out, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
