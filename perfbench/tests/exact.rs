//! The benchmark's own checks: exact metrics repeat for one seed, and
//! another seed yields different inputs that still pass every check.

use foresight_perfbench::{run, Outcome, RunConfig, Scale, Workload, CLOSURE};
use std::sync::Mutex;

/// Traced runs share the process-global telemetry collector.
static COLLECTOR: Mutex<()> = Mutex::new(());

fn traced(workload: Workload, seed: u64) -> Outcome {
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace: true,
        scale: Scale::small(),
    };
    let out = run(&cfg).expect("small run starts");
    assert_eq!(
        out.failed,
        0,
        "{} seed {seed}: {:?}",
        workload.name(),
        out.failures
    );
    assert!(out.attempted > 0);
    out
}

/// Values that depend only on the inputs, never on timing.
fn exact(out: &Outcome) -> Vec<(String, f64)> {
    let mut v = vec![
        ("ratio".to_string(), out.ratio),
        ("psnr_db".to_string(), out.psnr_db),
    ];
    v.extend(
        out.named
            .iter()
            .filter(|m| m.name.starts_with("sim_"))
            .map(|m| (m.name.to_string(), m.value)),
    );
    for name in [
        "store.read_amplification",
        "store.chunks_decoded",
        "store.compressed_bytes_read",
        "gpu.h2d_sim_s",
        "gpu.kernel_sim_s",
        "gpu.d2h_sim_s",
        "serve.units",
        "cluster.rejected",
        "cluster.failovers",
    ] {
        v.push((name.to_string(), out.layer(name)));
    }
    v
}

#[test]
fn exact_metrics_repeat_for_one_seed() {
    let _guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let a = exact(&traced(w, 7));
        let b = exact(&traced(w, 7));
        assert_eq!(a, b, "{}", w.name());
        assert!(a.iter().all(|(_, v)| v.is_finite()), "{}: {a:?}", w.name());
    }
}

#[test]
fn another_seed_gives_different_valid_inputs() {
    let _guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let a = traced(w, 7);
        let b = traced(w, 8);
        // Fixed-rate ZFP pins the ratio, so compare quality too.
        assert_ne!(
            (a.ratio, a.psnr_db),
            (b.ratio, b.psnr_db),
            "{}: seeds 7 and 8 compressed identical inputs",
            w.name()
        );
        for out in [&a, &b] {
            assert!(
                out.ratio > 1.0 && out.psnr_db > 20.0,
                "{}: {out:?}",
                w.name()
            );
        }
    }
}

#[test]
fn traced_runs_cover_their_wall_and_split_the_layers() {
    let _guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    for (w, busy) in [
        (Workload::NyxSz, "sz.compress.busy_s"),
        (Workload::NyxZfp, "zfp.compress.busy_s"),
        (Workload::ArchiveRead, "store.read_region.busy_s"),
        (Workload::ClusterZipf, "serve.execute_units.busy_s"),
    ] {
        let out = traced(w, 7);
        let closure = out.layer("trace.closure");
        assert!(
            CLOSURE.contains(&closure),
            "{}: closure {closure}",
            w.name()
        );
        assert!(out.layer(busy) > 0.0, "{}: {busy} not measured", w.name());
    }
}
