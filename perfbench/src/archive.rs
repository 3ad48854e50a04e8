//! `archive-read`: the snapshot packed into an in-memory `.fstr` archive
//! (SZ rel 1e-3 for densities and temperature, ZFP rate 8 for the
//! velocities), then one closed-loop caller issuing seeded region reads.

use crate::{
    drive, error_stats, is_velocity, percentile, psnr, repeat_setup, rng, shuffle, typical_pass_s,
    value_range, Metric, Outcome, RunConfig, Snapshot, Zipf,
};
use foresight::ClusterWorkloadSpec;
use foresight_store::{ChunkCodec, FieldShape, ReadStats, Region, StoreReader, StoreWriter};
use foresight_util::telemetry;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Field popularity, most requested first. SZ and ZFP fields alternate so
/// every seed decodes the same codec mix.
pub const POPULARITY: [&str; 6] = [
    "baryon_density",
    "velocity_x",
    "temperature",
    "velocity_y",
    "dark_matter_density",
    "velocity_z",
];

/// The archive codec for `field`.
pub fn chunk_codec(field: &str) -> ChunkCodec {
    if is_velocity(field) {
        ChunkCodec::zfp_rate(crate::codecs::ZFP_RATE)
    } else {
        ChunkCodec::sz_rel(1e-3)
    }
}

/// A sealed archive of the snapshot and its full-field decodes.
pub struct Archive {
    /// The opened archive.
    pub reader: Arc<StoreReader>,
    /// Every field decoded in full, in snapshot order: the reference
    /// region reads must match.
    pub decoded: Vec<Vec<f32>>,
    /// Archive image size in bytes.
    pub bytes: usize,
    /// Seconds to compress and seal the archive.
    pub pack_s: f64,
    /// Seconds to open (parse and verify the superblock and directory).
    pub open_s: f64,
}

/// Packs every snapshot field with `chunk`³ chunks, opens the image and
/// decodes every field in full.
pub fn pack(snap: &Snapshot, chunk: usize) -> Result<Archive, String> {
    let n = snap.n_side;
    let t = Instant::now();
    let mut w = StoreWriter::new();
    for (name, data) in &snap.fields {
        w.add_field(
            0,
            name,
            data,
            FieldShape::d3(n, n, n),
            [chunk; 3],
            &chunk_codec(name),
        )
        .map_err(|e| format!("pack {name}: {e}"))?;
    }
    let image = w.finish().map_err(|e| format!("seal archive: {e}"))?;
    let pack_s = t.elapsed().as_secs_f64();
    let bytes = image.len();
    let t = Instant::now();
    let reader = StoreReader::from_bytes(image).map_err(|e| format!("open archive: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    let decoded = snap
        .fields
        .iter()
        .map(|(name, _)| {
            reader
                .extract(0, name)
                .map(|(v, _)| v)
                .map_err(|e| format!("extract {name}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Archive {
        reader: Arc::new(reader),
        decoded,
        bytes,
        pack_s,
        open_s,
    })
}

impl Archive {
    /// Lowest per-field PSNR of the full decodes against the snapshot.
    pub fn psnr_db(&self, snap: &Snapshot) -> f64 {
        snap.fields
            .iter()
            .zip(&self.decoded)
            .map(|((_, orig), dec)| {
                psnr(
                    value_range(orig),
                    error_stats(orig, dec).0 / orig.len() as f64,
                )
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The values of `region` cut from a full `n`³ field (x fastest).
pub fn region_slice(field: &[f32], n: usize, region: &Region) -> Vec<f32> {
    let [x0, y0, z0] = region.lo;
    let [x1, y1, z1] = region.hi;
    let mut out = Vec::with_capacity((x1 - x0) * (y1 - y0) * (z1 - z0));
    for z in z0..z1 {
        for y in y0..y1 {
            let row = (z * n + y) * n;
            out.extend_from_slice(&field[row + x0..row + x1]);
        }
    }
    out
}

/// One seeded region read.
#[derive(Debug, Clone)]
pub struct Read {
    /// Index into the snapshot's fields.
    pub field: usize,
    /// The region.
    pub region: Region,
}

/// A random origin for a span of `edge` values along an axis of `n`
/// cut into `chunk`-sized chunks: never chunk-aligned, yet always
/// touching the same number of chunks for a given edge, so a seed moves
/// where reads land but not how many chunks they decode. Spans shorter
/// than a chunk sit inside one chunk, or cross into a second when
/// `straddle` is set.
pub fn unaligned_origin(
    rng: &mut impl Rng,
    n: usize,
    chunk: usize,
    edge: usize,
    straddle: bool,
) -> usize {
    let rem = edge % chunk;
    let (lo, hi) = match (rem, straddle) {
        (0, _) => (1, chunk - 1),
        (_, false) => (1, chunk - rem),
        (_, true) => (chunk - rem + 1, chunk - 1),
    };
    let off = rng.gen_range(lo as u64..hi as u64 + 1) as usize;
    let last = (n - edge - off) / chunk;
    rng.gen_range(0..last as u64 + 1) as usize * chunk + off
}

/// Read class of slot `i`: in every 20 reads one large cube (0), three
/// z-plane slices (1) and sixteen small cubes (2). The mix is an
/// assumption, not taken from a measured access pattern.
fn read_class(i: usize) -> usize {
    match i % 20 {
        0 => 0,
        1..=3 => 1,
        _ => 2,
    }
}

/// `count` seeded reads on Zipf-popular fields (the exponent of the
/// repository's traffic model, `ClusterWorkloadSpec::default`). Large
/// cubes are n/2 on a side and unaligned (27 chunks of a 32³ grid at
/// n = 128); small cubes run through edges of n/32 to 3n/16 and through
/// every pattern of chunk straddles. Each read class gets its own exact
/// popularity quota of fields, so a seed moves which field and where a
/// read lands, but not how many reads of each size and codec a pass
/// makes nor how many chunks they decode.
pub fn reads(snap: &Snapshot, seed: u64, count: usize, chunk: usize) -> Vec<Read> {
    let n = snap.n_side;
    let mut rng = rng(seed, 1);
    let zipf = Zipf::new(POPULARITY.len(), ClusterWorkloadSpec::default().zipf_s);
    let mut fields = [0, 1, 2].map(|class| {
        let mut q = zipf.quota((0..count).filter(|&i| read_class(i) == class).count());
        shuffle(&mut rng, &mut q);
        q
    });
    let index = |name: &str| {
        snap.fields
            .iter()
            .position(|(f, _)| *f == name)
            .expect("popularity names snapshot fields")
    };
    let small = ((n / 32).max(2), (3 * n / 16).max(3));
    let mut small_reads = 0;
    (0..count)
        .map(|i| {
            let class = read_class(i);
            let rank = fields[class].pop().expect("one quota entry per read");
            let region = match class {
                0 => {
                    let lo = [0; 3].map(|_| unaligned_origin(&mut rng, n, chunk, n / 2, true));
                    Region::new(lo, lo.map(|l| l + n / 2)).expect("cube lies inside the field")
                }
                1 => {
                    let z = rng.gen_range(0..n as u64) as usize;
                    Region::new([0, 0, z], [n, n, z + 1]).expect("plane lies inside the field")
                }
                _ => {
                    let j = small_reads;
                    small_reads += 1;
                    let edge = small.0 + j % (small.1 - small.0 + 1);
                    let lo = [0, 1, 2]
                        .map(|axis| unaligned_origin(&mut rng, n, chunk, edge, j >> axis & 1 == 1));
                    Region::new(lo, lo.map(|l| l + edge)).expect("cube lies inside the field")
                }
            };
            Read {
                field: index(POPULARITY[rank]),
                region,
            }
        })
        .collect()
}

/// Per-pass totals of the store's read accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    chunks: u64,
    compressed: u64,
    touched: u64,
    returned: u64,
}

impl Totals {
    fn add(&mut self, s: &ReadStats) {
        self.chunks += s.chunks_decoded;
        self.compressed += s.compressed_bytes_read;
        self.touched += s.bytes_touched;
        self.returned += s.bytes_returned;
    }
}

/// Runs `archive-read`.
pub fn run(cfg: &RunConfig, snap: &Snapshot) -> Result<Outcome, String> {
    let n = snap.n_side;
    let mut out = Outcome::default();
    let reads = reads(snap, cfg.seed, cfg.scale.reads_per_pass, cfg.scale.chunk);
    let (archive, setup_s) = repeat_setup(cfg.scale.setup_reps, || pack(snap, cfg.scale.chunk))?;
    out.setup_s = setup_s;
    out.ratio = snap.raw_bytes() as f64 / archive.bytes as f64;
    out.psnr_db = archive.psnr_db(snap);
    let expected: Vec<Vec<f32>> = reads
        .iter()
        .map(|r| region_slice(&archive.decoded[r.field], n, &r.region))
        .collect();

    let mut first: Option<Totals> = None;
    let passes = drive(cfg, &mut out, |out| {
        let mut totals = Totals::default();
        let mut latencies = Vec::with_capacity(reads.len());
        for (r, want) in reads.iter().zip(&expected) {
            let name = snap.fields[r.field].0;
            let t = Instant::now();
            let got = {
                let _span = telemetry::span("store.read_region");
                archive.reader.read_region(0, name, r.region)
            };
            latencies.push(t.elapsed().as_secs_f64());
            match got {
                Ok((values, stats)) => {
                    totals.add(&stats);
                    let same = values.len() == want.len()
                        && values
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    out.check(same, || {
                        format!("read {:?} of {name} differs from the full decode", r.region)
                    });
                }
                Err(e) => out.check(false, || format!("read {:?} of {name}: {e}", r.region)),
            }
        }
        let want = *first.get_or_insert(totals);
        out.check(totals == want, || {
            format!("read accounting changed between passes: {totals:?} vs {want:?}")
        });
        (latencies.iter().sum(), latencies)
    });

    let reads_per_s =
        reads.len() as f64 / typical_pass_s(passes.untraced.iter().map(|(_, l)| l.as_slice()));
    let all: Vec<f64> = passes
        .untraced
        .iter()
        .flat_map(|(_, l)| l.iter().copied())
        .collect();
    out.ops_per_s = reads_per_s;
    out.notes.push(format!(
        "read latency percentiles over {} reads ({} passes of {})",
        all.len(),
        passes.untraced.len(),
        reads.len()
    ));
    out.named = vec![
        Metric {
            name: "reads_per_s",
            value: reads_per_s,
            unit: "1/s",
        },
        Metric {
            name: "read_p50_ms",
            value: percentile(&all, 50.0) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "read_p99_ms",
            value: percentile(&all, 99.0) * 1e3,
            unit: "ms",
        },
    ];

    if cfg.trace {
        let totals = first.unwrap_or_default();
        passes.busy(&mut out, "store.read_region.busy_s", "store.read_region");
        passes.self_time(&mut out, "store.read_region.self_s", "store.read_region");
        passes.codec_stages(&mut out);
        out.layers
            .insert("store.chunks_decoded", totals.chunks as f64);
        out.layers
            .insert("store.compressed_bytes_read", totals.compressed as f64);
        out.layers.insert(
            "store.read_amplification",
            totals.touched as f64 / totals.returned as f64,
        );
        out.layers.insert("store.pack_s", archive.pack_s);
        out.layers.insert("store.open_s", archive.open_s);
        let stages = vec![
            "store.read_region.self_s",
            "sz.huffman_decode.self_s",
            "zfp.decode.self_s",
        ];
        let layers = stages.iter().map(|m| out.layer(m)).sum();
        passes.trace_summary(&mut out, &["store.read_region"], layers);
        out.attribution = ["reads_per_s", "read_p50_ms", "read_p99_ms"]
            .into_iter()
            .map(|m| (m, stages.clone()))
            .collect();
    }
    Ok(out)
}
