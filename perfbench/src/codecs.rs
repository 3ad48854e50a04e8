//! `nyx-sz` and `nyx-zfp`: every snapshot field compressed and then
//! decompressed by one closed-loop caller, at the guideline best-fit
//! settings (SZ rel 1e-3 for densities and temperature, rel 1e-2 for
//! velocities; ZFP fixed rate 8).

use crate::{
    drive, error_stats, is_velocity, psnr, repeat_setup, typical_pass_s, value_range, Metric,
    Outcome, RunConfig, Snapshot,
};
use foresight_util::telemetry;
use std::time::Instant;

/// Which codec the workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// `lossy_sz`.
    Sz,
    /// `lossy_zfp`.
    Zfp,
}

impl Codec {
    /// The compress and decompress roots, in that order.
    fn roots(self) -> &'static [Root; 2] {
        match self {
            Codec::Sz => &SZ_ROOTS,
            Codec::Zfp => &ZFP_ROOTS,
        }
    }
}

/// A benchmark span around one public call, its per-layer metrics, and
/// the end-to-end metric it feeds with the self times that add up to the
/// call (its stages' and its own).
struct Root {
    span: &'static str,
    busy: &'static str,
    self_time: &'static str,
    named: &'static str,
    stages: &'static [&'static str],
}

const SZ_ROOTS: [Root; 2] = [
    Root {
        span: "sz.compress",
        busy: "sz.compress.busy_s",
        self_time: "sz.compress.self_s",
        named: "compress_mbs",
        stages: &[
            "sz.quantize.self_s",
            "sz.histogram.self_s",
            "sz.huffman_encode.self_s",
            "sz.lzss.self_s",
            "sz.compress.self_s",
        ],
    },
    Root {
        span: "sz.decompress",
        busy: "sz.decompress.busy_s",
        self_time: "sz.decompress.self_s",
        named: "decompress_mbs",
        stages: &["sz.huffman_decode.self_s", "sz.decompress.self_s"],
    },
];

const ZFP_ROOTS: [Root; 2] = [
    Root {
        span: "zfp.compress",
        busy: "zfp.compress.busy_s",
        self_time: "zfp.compress.self_s",
        named: "compress_mbs",
        stages: &["zfp.encode.self_s", "zfp.compress.self_s"],
    },
    Root {
        span: "zfp.decompress",
        busy: "zfp.decompress.busy_s",
        self_time: "zfp.decompress.self_s",
        named: "decompress_mbs",
        stages: &["zfp.decode.self_s", "zfp.decompress.self_s"],
    },
];

/// ZFP fixed rate (bits per value) the guideline picks for Nyx.
pub const ZFP_RATE: f64 = 8.0;

/// SZ value-range-relative bound the guideline picks for `field`.
pub fn sz_rel(field: &str) -> f64 {
    if is_velocity(field) {
        1e-2
    } else {
        1e-3
    }
}

struct Field<'a> {
    name: &'static str,
    data: &'a [f32],
    range: f64,
    /// Absolute SZ bound: rel × range, as the codec derives it.
    eb: f64,
}

fn compress(codec: Codec, n: usize, f: &Field) -> foresight_util::Result<Vec<u8>> {
    let _span = telemetry::span(codec.roots()[0].span);
    match codec {
        Codec::Sz => lossy_sz::compress(
            f.data,
            lossy_sz::Dims::D3(n, n, n),
            &lossy_sz::SzConfig::rel(sz_rel(f.name)),
        ),
        Codec::Zfp => lossy_zfp::compress(
            f.data,
            lossy_zfp::Dims3::D3(n, n, n),
            &lossy_zfp::ZfpConfig::rate(ZFP_RATE),
        ),
    }
}

/// Decodes `stream`, returning the values and whether the dims match.
fn decompress(codec: Codec, n: usize, stream: &[u8]) -> foresight_util::Result<(Vec<f32>, bool)> {
    let _span = telemetry::span(codec.roots()[1].span);
    Ok(match codec {
        Codec::Sz => {
            let (v, d) = lossy_sz::decompress(stream)?;
            (v, d == lossy_sz::Dims::D3(n, n, n))
        }
        Codec::Zfp => {
            let (v, d) = lossy_zfp::decompress(stream)?;
            (v, d == lossy_zfp::Dims3::D3(n, n, n))
        }
    })
}

/// Whether a decode is correct: right dims and length, and for SZ every
/// value within the field's absolute bound.
fn decode_ok(codec: Codec, f: &Field, values: &[f32], dims_ok: bool) -> bool {
    dims_ok
        && values.len() == f.data.len()
        && (codec == Codec::Zfp || error_stats(f.data, values).1 <= f.eb)
}

/// Runs `nyx-sz` or `nyx-zfp`.
pub fn run(cfg: &RunConfig, snap: &Snapshot, codec: Codec) -> Result<Outcome, String> {
    let n = snap.n_side;
    let fields: Vec<Field> = snap
        .fields
        .iter()
        .map(|(name, data)| {
            let range = value_range(data);
            Field {
                name,
                data,
                range,
                eb: sz_rel(name) * range,
            }
        })
        .collect();
    let raw_bytes = snap.raw_bytes() as f64;
    let mut out = Outcome::default();

    // Set-up: one warm-up roundtrip per field, whose streams are the
    // reference every timed pass must reproduce byte for byte.
    let (reference, setup_s) = repeat_setup(cfg.scale.setup_reps, || {
        fields
            .iter()
            .map(|f| {
                let stream = compress(codec, n, f).map_err(|e| format!("{}: {e}", f.name))?;
                let (values, dims_ok) =
                    decompress(codec, n, &stream).map_err(|e| format!("{}: {e}", f.name))?;
                if !decode_ok(codec, f, &values, dims_ok) {
                    return Err(format!("{}: warm-up roundtrip failed its check", f.name));
                }
                let (sse, _) = error_stats(f.data, &values);
                Ok((stream, psnr(f.range, sse / values.len() as f64)))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    out.setup_s = setup_s;
    out.ratio = raw_bytes / reference.iter().map(|(s, _)| s.len() as f64).sum::<f64>();
    out.psnr_db = reference
        .iter()
        .map(|&(_, p)| p)
        .fold(f64::INFINITY, f64::min);

    let passes = drive(cfg, &mut out, |out| {
        let (mut tc, mut td) = (Vec::new(), Vec::new());
        for (f, (want, _)) in fields.iter().zip(&reference) {
            let t = Instant::now();
            let stream = compress(codec, n, f);
            tc.push(t.elapsed().as_secs_f64());
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    out.check(false, || format!("{} compress: {e}", f.name));
                    td.push(0.0);
                    continue;
                }
            };
            out.check(stream == *want, || {
                format!("{} stream differs from set-up", f.name)
            });
            let t = Instant::now();
            let decoded = decompress(codec, n, &stream);
            td.push(t.elapsed().as_secs_f64());
            match decoded {
                Ok((values, dims_ok)) => out.check(decode_ok(codec, f, &values, dims_ok), || {
                    format!("{} decode out of bound or misshapen", f.name)
                }),
                Err(e) => out.check(false, || format!("{} decompress: {e}", f.name)),
            }
        }
        (tc.iter().chain(&td).sum(), [tc, td].concat())
    });

    // Each pass times every field's compress, then every decompress.
    let nf = fields.len();
    let typical = |ops: std::ops::Range<usize>| {
        typical_pass_s(
            passes
                .untraced
                .iter()
                .map(|(_, t)| t.get(ops.clone()).unwrap_or(&[])),
        )
    };
    let (tc, td) = (typical(0..nf), typical(nf..2 * nf));
    out.ops_per_s = 2.0 * nf as f64 / (tc + td);
    out.named = vec![
        Metric {
            name: "compress_mbs",
            value: raw_bytes / tc / 1e6,
            unit: "MB/s",
        },
        Metric {
            name: "decompress_mbs",
            value: raw_bytes / td / 1e6,
            unit: "MB/s",
        },
    ];

    if cfg.trace {
        let roots = codec.roots();
        for r in roots {
            passes.busy(&mut out, r.busy, r.span);
            passes.self_time(&mut out, r.self_time, r.span);
        }
        passes.codec_stages(&mut out);
        let layers = roots
            .iter()
            .flat_map(|r| r.stages)
            .map(|m| out.layer(m))
            .sum();
        passes.trace_summary(&mut out, &[roots[0].span, roots[1].span], layers);
        out.attribution = roots.iter().map(|r| (r.named, r.stages.to_vec())).collect();
        if codec == Codec::Sz {
            out.layers
                .insert("sz.parallel_eff", parallel_efficiency(n, &fields));
        }
    }
    Ok(out)
}

/// SZ compress throughput on every worker thread over one thread,
/// divided by the thread count.
fn parallel_efficiency(n: usize, fields: &[Field]) -> f64 {
    let threads = rayon::current_num_threads();
    let time_with = |workers: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("the thread-pool shim never fails to build");
        let t = Instant::now();
        pool.install(|| {
            for f in fields {
                std::hint::black_box(compress(Codec::Sz, n, f).ok());
            }
        });
        t.elapsed().as_secs_f64()
    };
    let one = time_with(1);
    let all = time_with(threads);
    one / all / threads as f64
}
