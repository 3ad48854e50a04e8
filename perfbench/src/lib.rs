//! End-to-end and per-layer benchmark of the foresight codecs, archive
//! and cluster serving stack.
//!
//! Four seeded workloads (see `README.md` for why each exists):
//!
//! - `nyx-sz` / `nyx-zfp`: a synthetic Nyx snapshot through
//!   `lossy_sz` / `lossy_zfp` compress + decompress, one closed-loop caller;
//! - `archive-read`: Zipf-skewed `StoreReader::read_region` calls against
//!   an in-memory `.fstr` archive of the snapshot, one closed-loop caller;
//! - `cluster-zipf`: thousands of small Zipf-keyed requests through one
//!   `foresight::serve_cluster` call per pass, open loop on the simulated
//!   clock.
//!
//! Every workload runs passes of a fixed amount of work until the time
//! budget is spent, checks every output, and reports medians over passes.
//! Traced runs alternate untraced and traced passes: the untraced ones
//! give the end-to-end numbers printed beside the per-layer breakdown,
//! the traced ones feed the per-layer metrics (always per pass, so they
//! compare across commits whatever the pass count).

pub mod archive;
pub mod cluster;
pub mod codecs;
pub mod trace;

use cosmo_data::{generate_nyx, SynthOptions};
use foresight_util::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Snapshot fields through SZ compress + decompress.
    NyxSz,
    /// Snapshot fields through ZFP compress + decompress.
    NyxZfp,
    /// Region reads from a packed archive.
    ArchiveRead,
    /// Zipf-keyed request mix through the serving cluster.
    ClusterZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::NyxSz,
        Workload::NyxZfp,
        Workload::ArchiveRead,
        Workload::ClusterZipf,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NyxSz => "nyx-sz",
            Workload::NyxZfp => "nyx-zfp",
            Workload::ArchiveRead => "archive-read",
            Workload::ClusterZipf => "cluster-zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Particle-mesh steps that cluster the synthetic snapshot. One step
/// already gives most of the density contrast the codecs care about (the
/// SZ ratio of the baryon density is about 10% below that after ten
/// steps) at a fifth of the generation time.
pub const PM_STEPS: usize = 1;

/// Range `trace.closure` must lie in for a traced run to pass. The self
/// times are residuals of the same spans, so a complete breakdown closes
/// to rounding error; a missing or doubled stage moves it by that stage's
/// share of the wall.
pub const CLOSURE: std::ops::RangeInclusive<f64> = 0.99..=1.01;

/// Passes every run makes (of each kind, in a traced run), whatever its
/// time budget, so medians and the tracing overhead always exist.
pub const MIN_PASSES: usize = 2;

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::small`] keeps
/// the same shape of work at a size unit tests can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Snapshot grid side (fields are `n_side³`).
    pub n_side: usize,
    /// Times the set-up stage runs; `setup_s` is their median.
    pub setup_reps: usize,
    /// Archive chunk edge.
    pub chunk: usize,
    /// Region reads per `archive-read` pass.
    pub reads_per_pass: usize,
    /// Requests per `cluster-zipf` pass (one `serve_cluster` call).
    pub requests_per_call: usize,
    /// Distinct request keys in the `cluster-zipf` catalog.
    pub catalog_keys: usize,
    /// Serving-layer shard threshold in bytes.
    pub shard_bytes: u64,
}

impl Scale {
    /// The benchmark's sizes: a 128³ snapshot (6 fields, 48 MiB of f32).
    pub fn full() -> Self {
        Self {
            n_side: 128,
            setup_reps: 3,
            chunk: 32,
            reads_per_pass: 300,
            requests_per_call: 2000,
            catalog_keys: 512,
            shard_bytes: 256 * 1024,
        }
    }

    /// Test sizes: a 32³ snapshot and a few hundred operations.
    pub fn small() -> Self {
        Self {
            n_side: 32,
            setup_reps: 1,
            chunk: 8,
            reads_per_pass: 60,
            requests_per_call: 120,
            catalog_keys: 24,
            shard_bytes: 4 * 1024,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed; the program only ever sees the generated inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports (and `BENCHMARK.json`
/// bounds), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("ratio", "x"),
    ("psnr_db", "dB"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. Times are
/// seconds per pass; a layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sz.compress.busy_s", "s"),
    ("sz.compress.self_s", "s"),
    ("sz.decompress.busy_s", "s"),
    ("sz.decompress.self_s", "s"),
    ("sz.quantize.self_s", "s"),
    ("sz.histogram.self_s", "s"),
    ("sz.huffman_encode.self_s", "s"),
    ("sz.huffman_decode.self_s", "s"),
    ("sz.lzss.self_s", "s"),
    ("sz.histogram.us_per_call", "us"),
    ("sz.parallel_eff", "ratio"),
    ("zfp.compress.busy_s", "s"),
    ("zfp.compress.self_s", "s"),
    ("zfp.decompress.busy_s", "s"),
    ("zfp.decompress.self_s", "s"),
    ("zfp.encode.self_s", "s"),
    ("zfp.decode.self_s", "s"),
    ("store.read_region.busy_s", "s"),
    ("store.read_region.self_s", "s"),
    ("store.chunks_decoded", "count"),
    ("store.read_amplification", "ratio"),
    ("store.compressed_bytes_read", "bytes"),
    ("store.pack_s", "s"),
    ("store.open_s", "s"),
    ("serve.execute_units.busy_s", "s"),
    ("serve.execute_units.self_s", "s"),
    ("serve.unit.self_s", "s"),
    ("cluster.scheduler_s", "s"),
    ("cluster.scheduler_us_per_req", "us"),
    ("serve.units", "count"),
    ("cluster.rejected", "count"),
    ("cluster.failovers", "count"),
    ("gpu.h2d_sim_s", "s"),
    ("gpu.kernel_sim_s", "s"),
    ("gpu.d2h_sim_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.closure", "ratio"),
];

/// The codec stage metrics and the program's existing spans they read.
pub const CODEC_STAGES: [(&str, &str); 7] = [
    ("sz.quantize.self_s", "sz.quantize"),
    ("sz.histogram.self_s", "sz.histogram"),
    ("sz.huffman_encode.self_s", "sz.huffman_encode"),
    ("sz.huffman_decode.self_s", "sz.huffman_decode"),
    ("sz.lzss.self_s", "sz.lzss"),
    ("zfp.encode.self_s", "zfp.encode"),
    ("zfp.decode.self_s", "zfp.decode"),
];

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored or returned wrong output.
    pub failed: u64,
    /// First failures, for the log.
    pub failures: Vec<String>,
    /// Seconds spent generating the snapshot (not part of set-up).
    pub gen_s: f64,
    /// Resident set in MB once the inputs exist.
    pub input_rss_mb: f64,
    /// Peak resident set in MB of each untraced pass.
    pub pass_rss_mb: Vec<f64>,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Completed operations per host-wall second in a typical pass.
    pub ops_per_s: f64,
    /// Exact compression ratio of what the workload compresses.
    pub ratio: f64,
    /// Exact lowest per-field PSNR of what the workload decodes.
    pub psnr_db: f64,
    /// The workload's own end-to-end numbers, named as in the README.
    pub named: Vec<Metric>,
    /// Per-layer values (traced runs only); missing names read as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Which layers' self times explain each named metric (traced runs).
    pub attribution: Vec<(&'static str, Vec<&'static str>)>,
    /// Timed seconds of each untraced pass.
    pub pass_s: Vec<f64>,
    /// Share of this machine's CPU time the hypervisor stole while the
    /// passes ran, when the kernel reports it.
    pub steal_share: Option<f64>,
    /// Minor page faults per pass while the passes ran.
    pub faults_per_pass: Option<f64>,
    /// Extra report lines, such as sample counts behind percentiles.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// Per-layer value, 0 when the workload does not run the layer.
    pub fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    /// Peak resident set in MB of a typical pass: the median over the
    /// untraced passes of each one's peak.
    pub fn peak_rss_mb(&self) -> f64 {
        median(&self.pass_rss_mb)
    }

    /// The end-to-end metrics of [`END_TO_END`], in order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            self.ops_per_s,
            self.ratio,
            self.psnr_db,
            self.setup_s,
            self.peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// The per-layer metrics of [`PER_LAYER`], in order.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.layer(name),
                unit,
            })
            .collect()
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let t = Instant::now();
    let snapshot = snapshot(cfg.scale, cfg.seed)?;
    let gen_s = t.elapsed().as_secs_f64();
    // The generator's buffers and its own copy of the fields are freed by
    // now: what stays resident is the snapshot.
    trim_heap();
    let input_rss_mb = rss_mb();
    let mut out = match cfg.workload {
        Workload::NyxSz => codecs::run(cfg, &snapshot, codecs::Codec::Sz),
        Workload::NyxZfp => codecs::run(cfg, &snapshot, codecs::Codec::Zfp),
        Workload::ArchiveRead => archive::run(cfg, &snapshot),
        Workload::ClusterZipf => cluster::run(cfg, &snapshot),
    }?;
    out.gen_s = gen_s;
    out.input_rss_mb = input_rss_mb;
    Ok(out)
}

/// The six snapshot fields, in the generator's order.
pub struct Snapshot {
    /// Grid side.
    pub n_side: usize,
    /// `(name, values)` pairs.
    pub fields: Vec<(&'static str, Vec<f32>)>,
}

impl Snapshot {
    /// Uncompressed bytes of every field.
    pub fn raw_bytes(&self) -> u64 {
        self.fields.iter().map(|(_, f)| f.len() as u64 * 4).sum()
    }
}

/// Generates the seeded synthetic Nyx snapshot.
pub fn snapshot(scale: Scale, seed: u64) -> Result<Snapshot, String> {
    let opts = SynthOptions {
        n_side: scale.n_side,
        seed,
        steps: PM_STEPS,
        ..SynthOptions::default()
    };
    let snap = generate_nyx(&opts).map_err(|e| format!("snapshot generation failed: {e}"))?;
    let fields = snap
        .fields()
        .iter()
        .map(|&(name, data)| (name, data.to_vec()))
        .collect();
    Ok(Snapshot {
        n_side: snap.n_side,
        fields,
    })
}

/// True for the fields the guideline compresses at the looser bound.
pub fn is_velocity(field: &str) -> bool {
    field.starts_with("velocity")
}

/// `max - min` in f64.
pub fn value_range(data: &[f32]) -> f64 {
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v as f64), hi.max(v as f64))
        });
    hi - lo
}

/// Sum of squared errors and the largest absolute error.
pub fn error_stats(orig: &[f32], recon: &[f32]) -> (f64, f64) {
    orig.iter()
        .zip(recon)
        .fold((0.0, 0.0), |(sse, max), (&a, &b)| {
            let d = (a as f64 - b as f64).abs();
            (sse + d * d, f64::max(max, d))
        })
}

/// PSNR in dB of a mean squared error against a value range.
pub fn psnr(range: f64, mse: f64) -> f64 {
    20.0 * range.log10() - 10.0 * mse.log10()
}

/// Median (mean of the middle two for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Typical seconds of one pass: every timed operation's median over the
/// passes, summed. A pause that slows a few operations of one pass moves
/// a per-operation median far less than it moves that pass's total.
pub fn typical_pass_s<'a>(passes: impl Iterator<Item = &'a [f64]>) -> f64 {
    let passes: Vec<&[f64]> = passes.collect();
    let ops = passes.first().map_or(0, |p| p.len());
    (0..ops)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Ranks `0..n` with Zipf popularity `1 / (rank+1)^s`.
pub struct Zipf {
    share: Vec<f64>,
}

impl Zipf {
    /// Popularity over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        Self {
            share: weights.into_iter().map(|w| w / total).collect(),
        }
    }

    /// Exactly `count` ranks in rank order, each rank as often as its
    /// popularity says (largest-remainder rounding). Every seed thus
    /// requests each rank equally often; a seed only decides the order
    /// (see [`shuffle`]).
    pub fn quota(&self, count: usize) -> Vec<usize> {
        let want: Vec<f64> = self.share.iter().map(|p| p * count as f64).collect();
        let mut counts: Vec<usize> = want.iter().map(|w| w.floor() as usize).collect();
        let short = count - counts.iter().sum::<usize>();
        let mut by_remainder: Vec<usize> = (0..want.len()).collect();
        by_remainder.sort_by(|&a, &b| want[b].fract().total_cmp(&want[a].fract()).then(a.cmp(&b)));
        for &k in &by_remainder[..short] {
            counts[k] += 1;
        }
        counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect()
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
    }
}

/// Seeded RNG for one purpose of one run (`salt` keeps streams apart).
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `setup` `reps` times (at least once), returning the last state
/// and the median wall seconds. Each repetition starts from scratch.
pub fn repeat_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), median(&times)))
}

/// Drives passes until the budget is spent. `pass` returns the seconds
/// spent inside the public calls it timed (the pass minus its output
/// checks) and whatever else the workload measures per pass. In a traced
/// run every other pass runs with the global collector on and
/// contributes its spans instead of its timing.
pub fn drive<T>(
    cfg: &RunConfig,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Outcome) -> (f64, T),
) -> Passes<T> {
    let mut p = Passes {
        untraced: Vec::new(),
        traced: Vec::new(),
        spans: Default::default(),
    };
    let ticks = cpu_ticks();
    let faults = minor_faults();
    let start = Instant::now();
    loop {
        let traced = cfg.trace && p.untraced.len() > p.traced.len();
        if traced {
            telemetry::reset();
            telemetry::enable();
        } else {
            reset_peak_rss();
        }
        let (op_s, extra) = pass(out);
        if traced {
            telemetry::disable();
            p.traced.push(op_s);
            p.spans.add(&telemetry::snapshot().spans);
            telemetry::reset();
        } else {
            out.pass_rss_mb.push(peak_rss_mb());
            p.untraced.push((op_s, extra));
        }
        let enough = p.untraced.len() >= MIN_PASSES && (!cfg.trace || p.traced.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    out.pass_s = p.untraced.iter().map(|(s, _)| *s).collect();
    let n = (p.untraced.len() + p.traced.len()) as f64;
    out.faults_per_pass = faults
        .zip(minor_faults())
        .map(|(a, b)| b.saturating_sub(a) as f64 / n);
    out.steal_share = ticks.zip(cpu_ticks()).map(|((s0, t0), (s1, t1))| {
        s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
    });
    p
}

/// Untraced pass results and the traced passes' span totals.
pub struct Passes<T> {
    /// Timed seconds and workload measurements of each untraced pass.
    pub untraced: Vec<(f64, T)>,
    /// Timed seconds of each traced pass.
    pub traced: Vec<f64>,
    /// Span totals over every traced pass.
    pub spans: trace::SpanTotals,
}

impl<T> Passes<T> {
    /// Records the tracing overhead and the closure of the traced passes:
    /// `layers` is the per-pass sum of the self times the workload
    /// reports (in wall seconds), `roots` the benchmark's own spans
    /// around the timed calls. The closure is 1 when the reported layers
    /// account for all of the calls' wall, below 1 when a stage span goes
    /// unreported, and above 1 when one is counted twice.
    pub fn trace_summary(&self, out: &mut Outcome, roots: &[&str], layers: f64) {
        let untraced: Vec<f64> = self.untraced.iter().map(|(s, _)| *s).collect();
        out.layers
            .insert("trace.overhead_s", median(&self.traced) - median(&untraced));
        let per_pass = self.traced.len().max(1) as f64;
        let busy: f64 = roots.iter().map(|r| self.spans.busy(r)).sum::<f64>() / per_pass;
        out.layers.insert(
            "trace.closure",
            if busy > 0.0 { layers / busy } else { 0.0 },
        );
    }

    /// Copies `span`'s per-pass busy time into `metric`.
    pub fn busy(&self, out: &mut Outcome, metric: &'static str, span: &str) {
        out.layers.insert(
            metric,
            self.spans.busy(span) / self.traced.len().max(1) as f64,
        );
    }

    /// Copies `span`'s per-pass self time into `metric`.
    pub fn self_time(&self, out: &mut Outcome, metric: &'static str, span: &str) {
        out.layers.insert(
            metric,
            self.spans.self_time(span) / self.traced.len().max(1) as f64,
        );
    }

    /// The SZ and ZFP stage metrics, wherever the codecs ran.
    pub fn codec_stages(&self, out: &mut Outcome) {
        for (metric, span) in CODEC_STAGES {
            self.self_time(out, metric, span);
        }
        let calls = self.spans.calls("sz.histogram");
        let us = if calls > 0 {
            self.spans.busy("sz.histogram") / calls as f64 * 1e6
        } else {
            0.0
        };
        out.layers.insert("sz.histogram.us_per_call", us);
    }
}

/// Peak resident set of this process in MB (`VmHWM`) since the last
/// [`reset_peak_rss`], 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process in MB (`VmRSS`), 0 if unknown.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A kB figure of `/proc/self/status` in MB, 0 if unknown.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands the allocator's free heap pages back to the system. Pages the
/// input generator freed would otherwise stay resident under the timed
/// passes and hide that much of their growth.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free memory; it takes
        // the allocator's own locks and touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's peak resident set to its current resident set
/// (Linux 4.0 and later; a no-op where `/proc` does not allow it).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Steal and total jiffies of all CPUs from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// Little-endian bytes of `values` (the serving layer's decode format).
pub fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_quota_is_exact_and_follows_popularity() {
        let q = Zipf::new(50, 1.1).quota(1000);
        assert_eq!(q.len(), 1000);
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "rank order");
        let count = |k| q.iter().filter(|&&r| r == k).count();
        assert!(count(0) > count(1) && count(1) > count(10));
        // The same quota whatever the seed; the seed only shuffles it.
        let mut a = q.clone();
        shuffle(&mut rng(1, 0), &mut a);
        a.sort_unstable();
        assert_eq!(a, q);
    }
}
