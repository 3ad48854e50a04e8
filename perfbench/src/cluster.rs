//! `cluster-zipf`: thousands of small requests cut from the snapshot go
//! through one `foresight::serve_cluster` call per pass, on the default
//! four-node, two-replica cluster with quiet chaos. Keys follow Zipf
//! popularity and arrivals are open loop (Poisson) on the simulated clock,
//! with the popularity exponent, decompress share, priority tiers and
//! arrival rate of the repository's traffic model
//! (`ClusterWorkloadSpec::default`).

use crate::archive::{self, region_slice, unaligned_origin, Archive, POPULARITY};
use crate::{
    drive, error_stats, is_velocity, le_bytes, median, percentile, psnr, repeat_setup, rng,
    shuffle, value_range, Metric, Outcome, RunConfig, Snapshot, Zipf, CODEC_STAGES,
};
use foresight::codec;
use foresight::serve::shard_plan;
use foresight::{
    serve_cluster, ClusterOptions, ClusterReport, ClusterRequest, ClusterWorkloadSpec, CodecConfig,
    Region, ServeCluster, ServePayload, ServeRequest, ServeStatus, Shape,
};
use foresight_util::telemetry;
use rand::Rng;
use std::time::Instant;

/// Share of requests that read a key's region from the archive. An
/// assumption: the repository's traffic model
/// (`ClusterWorkloadSpec::default`, which supplies the popularity
/// exponent, decompress share, priority tiers and arrival rate) has no
/// store reads, and no measured access pattern fixes the share, so later
/// router or store work must not tune against it.
pub const STORE_READ_SHARE: f64 = 0.1;

/// Nodes of the serving cluster.
pub const NODES: usize = 4;
/// Replicas per key.
pub const REPLICAS: usize = 2;

/// What one catalog key holds: a sub-volume of one snapshot field, its
/// codec, and every response the cluster must reproduce for it.
struct Key {
    name: String,
    field: usize,
    shape: Shape,
    config: CodecConfig,
    data: Vec<f32>,
    /// Direct `foresight::codec` streams, one per shard of the serving
    /// layer's plan (one for fields below the shard threshold).
    shards: Vec<Vec<u8>>,
    /// The stream decompress requests carry: the single shard, or the
    /// cluster's own multi-shard response.
    stream: Vec<u8>,
    /// Expected decompress response: every shard decoded, little endian.
    decoded: Vec<u8>,
    /// Region of the archived field a store read asks for.
    region: Region,
    /// Expected store-read response.
    stored: Vec<u8>,
}

/// Kinds of `count` requests: decompress and store reads at their shares,
/// spread evenly by error diffusion, the rest compress.
fn kinds(count: usize, decompress: f64, store_read: f64) -> Vec<Kind> {
    let (mut d, mut r) = (0.0, 0.0);
    (0..count)
        .map(|_| {
            d += decompress;
            r += store_read;
            if d >= 1.0 {
                d -= 1.0;
                Kind::Decompress
            } else if r >= 1.0 {
                r -= 1.0;
                Kind::StoreRead
            } else {
                Kind::Compress
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compress,
    Decompress,
    StoreRead,
}

/// Where key `rank`'s sub-volume sits and what shape the codec sees.
/// Popularity ranks fix the size mix, so every seed does the same kind
/// of work: cubes of n/8 on a side, 1-D slices (half a z-plane) and
/// cubes of n/4 in turn, plus three cubes of n/2 that shard, at ranks
/// popular enough to be requested in every call (16³, 8192 values, 32³
/// and 64³ at n = 128). Origins are seeded but never chunk-aligned, and
/// the rank also fixes how many archive chunks a store read of the key
/// decodes.
fn geometry(
    rank: usize,
    keys: usize,
    n: usize,
    chunk: usize,
    rng: &mut impl Rng,
) -> (Region, Shape) {
    let cube = |rng: &mut _, e: usize| {
        let lo =
            [0, 1, 2].map(|axis| unaligned_origin(rng, n, chunk, e, (rank / 3) >> axis & 1 == 1));
        (
            Region::new(lo, lo.map(|l| l + e)).expect("cube lies inside the field"),
            Shape::D3(e, e, e),
        )
    };
    if [keys / 16, keys / 8, keys / 4].contains(&rank) {
        return cube(rng, n / 2);
    }
    match rank % 3 {
        0 => cube(rng, n / 8),
        1 => {
            let y = unaligned_origin(rng, n, chunk, n / 2, true);
            let z = rng.gen_range(0..n as u64) as usize;
            let r =
                Region::new([0, y, z], [n, y + n / 2, z + 1]).expect("slice lies inside the field");
            (r, Shape::D1(n * n / 2))
        }
        _ => cube(rng, n / 4),
    }
}

fn codec_config(field: &str, range: f64) -> CodecConfig {
    if is_velocity(field) {
        CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(crate::codecs::ZFP_RATE))
    } else {
        CodecConfig::Sz(lossy_sz::SzConfig::abs(1e-3 * range))
    }
}

/// Builds the catalog's inputs and direct-codec references.
fn catalog(
    cfg: &RunConfig,
    snap: &Snapshot,
    archive: &Archive,
    shard_bytes: u64,
) -> Result<Vec<Key>, String> {
    let n = snap.n_side;
    let mut rng = rng(cfg.seed, 2);
    (0..cfg.scale.catalog_keys)
        .map(|rank| {
            let name = POPULARITY[rank % POPULARITY.len()];
            let field = snap
                .fields
                .iter()
                .position(|(f, _)| *f == name)
                .expect("known field");
            let (region, shape) =
                geometry(rank, cfg.scale.catalog_keys, n, cfg.scale.chunk, &mut rng);
            let full = &snap.fields[field].1;
            let data = region_slice(full, n, &region);
            let config = codec_config(name, value_range(full));
            let mut shards = Vec::new();
            let mut decoded = Vec::new();
            for (off, sub) in shard_plan(shape, shard_bytes) {
                let s = codec::compress(&data[off..off + sub.len()], sub, &config)
                    .map_err(|e| format!("reference compress of key {rank}: {e}"))?;
                let (v, _) = codec::decompress(&s)
                    .map_err(|e| format!("reference decompress of key {rank}: {e}"))?;
                decoded.extend(le_bytes(&v));
                shards.push(s);
            }
            Ok(Key {
                name: format!("k{rank}"),
                field,
                shape,
                config,
                stream: shards[0].clone(),
                shards,
                decoded,
                stored: le_bytes(&region_slice(&archive.decoded[field], n, &region)),
                region,
                data,
            })
        })
        .collect()
}

/// Whether `got` holds every direct-codec shard stream, in order: equal
/// to the only shard, or a container around several.
fn holds_shards(got: &[u8], shards: &[Vec<u8>]) -> bool {
    if let [only] = shards {
        return got == only.as_slice();
    }
    let mut at = 0;
    for s in shards {
        match got
            .get(at..)
            .and_then(|rest| rest.windows(s.len()).position(|w| w == s.as_slice()))
        {
            Some(i) => at += i + s.len(),
            None => return false,
        }
    }
    true
}

fn request(
    id: usize,
    arrival_s: f64,
    priority: u8,
    key: &Key,
    kind: Kind,
    archive: &Archive,
    snap: &Snapshot,
) -> ClusterRequest {
    let payload = match kind {
        Kind::Compress => ServePayload::Compress {
            data: key.data.clone(),
            shape: key.shape,
            config: key.config.clone(),
        },
        Kind::Decompress => ServePayload::Decompress {
            stream: key.stream.clone(),
        },
        Kind::StoreRead => ServePayload::StoreRead {
            store: archive.reader.clone(),
            snapshot: 0,
            field: snap.fields[key.field].0.to_string(),
            region: key.region,
        },
    };
    ClusterRequest {
        key: key.name.clone(),
        priority,
        req: ServeRequest {
            id: id as u64,
            arrival_s,
            deadline_s: None,
            payload,
        },
    }
}

/// Everything set-up builds.
struct Setup {
    keys: Vec<Key>,
    requests: Vec<ClusterRequest>,
    /// Catalog index and kind of each request.
    plan: Vec<(usize, Kind)>,
}

fn setup(
    cfg: &RunConfig,
    snap: &Snapshot,
    spec: &ServeCluster,
    opts: &ClusterOptions,
    archive: &Archive,
) -> Result<Setup, String> {
    let mut keys = catalog(cfg, snap, archive, opts.serve.shard_bytes)?;
    // Multi-shard streams exist only as the serving layer's own compress
    // responses: fetch them with one call so decompress requests can
    // carry them.
    let sharded: Vec<usize> = (0..keys.len())
        .filter(|&k| keys[k].shards.len() > 1)
        .collect();
    if !sharded.is_empty() {
        let reqs: Vec<ClusterRequest> = sharded
            .iter()
            .enumerate()
            .map(|(i, &k)| request(i, 0.0, 0, &keys[k], Kind::Compress, archive, snap))
            .collect();
        let report =
            serve_cluster(spec, opts, &reqs).map_err(|e| format!("sharded compress: {e}"))?;
        for (i, &k) in sharded.iter().enumerate() {
            let out = report
                .response(i as u64)
                .and_then(|r| r.output.clone())
                .ok_or_else(|| format!("sharded compress of key {k} did not complete"))?;
            if !holds_shards(&out, &keys[k].shards) {
                return Err(format!("sharded compress of key {k} lost a shard stream"));
            }
            keys[k].stream = out;
        }
    }
    // Every seed makes the same requests (each key as often as its
    // popularity says, each kind at its share, assigned in rank order);
    // the seed shuffles their order and draws arrivals and priorities.
    let model = ClusterWorkloadSpec::default();
    let count = cfg.scale.requests_per_call;
    let ranks = Zipf::new(keys.len(), model.zipf_s).quota(count);
    let mut plan: Vec<(usize, Kind)> = ranks
        .into_iter()
        .zip(kinds(count, model.decompress_fraction, STORE_READ_SHARE))
        .collect();
    let mut rng = rng(cfg.seed, 3);
    shuffle(&mut rng, &mut plan);
    let mut t = 0.0f64;
    let requests = plan
        .iter()
        .enumerate()
        .map(|(id, &(k, kind))| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / model.arrival_hz;
            let priority = rng.gen_range(0..u64::from(model.priorities)) as u8;
            request(id, t, priority, &keys[k], kind, archive, snap)
        })
        .collect();
    Ok(Setup {
        keys,
        requests,
        plan,
    })
}

/// The simulated-clock results of one call; every pass must repeat them
/// exactly.
#[derive(Debug, Clone, Default, PartialEq)]
struct SimView {
    p50_s: f64,
    p99_s: f64,
    sustained_gbs: f64,
    h2d_s: f64,
    kernel_s: f64,
    d2h_s: f64,
    rejected: usize,
    failovers: u64,
}

fn sim_view(report: &ClusterReport) -> SimView {
    let lat: Vec<f64> = report.responses.iter().map(|r| r.latency_s).collect();
    let lane = |track: &str| {
        report
            .trace
            .iter()
            .filter(|e| e.track == track)
            .map(|e| e.dur_s)
            .sum()
    };
    SimView {
        p50_s: percentile(&lat, 50.0),
        p99_s: percentile(&lat, 99.0),
        sustained_gbs: report.sustained_gbs,
        h2d_s: lane("h2d"),
        kernel_s: lane("kernel"),
        d2h_s: lane("d2h"),
        rejected: report.rejected,
        failovers: report.failovers,
    }
}

/// Runs `cluster-zipf`.
pub fn run(cfg: &RunConfig, snap: &Snapshot) -> Result<Outcome, String> {
    let spec = ServeCluster::summit(NODES, REPLICAS);
    let mut opts = ClusterOptions::default();
    opts.serve.shard_bytes = cfg.scale.shard_bytes;
    let mut out = Outcome::default();
    let ((archive, s), setup_s) = repeat_setup(cfg.scale.setup_reps, || {
        let archive = archive::pack(snap, cfg.scale.chunk)?;
        let s = setup(cfg, snap, &spec, &opts, &archive)?;
        Ok((archive, s))
    })?;
    out.setup_s = setup_s;

    // Exact quality of what the calls return (checked equal below),
    // counting every catalog key once so that which keys a seed makes
    // hot does not swing it: compression ratio of the compress
    // responses, and the lowest per-field PSNR over every value the
    // decompress and store-read responses return, against the field's
    // range.
    let (mut raw, mut packed) = (0.0, 0.0);
    let mut sse = vec![(0.0f64, 0usize); snap.fields.len()];
    for key in &s.keys {
        raw += key.data.len() as f64 * 4.0;
        packed += key.stream.len() as f64;
        for decoded in [&key.decoded, &key.stored] {
            let values: Vec<f32> = decoded
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            let e = &mut sse[key.field];
            e.0 += error_stats(&key.data, &values).0;
            e.1 += values.len();
        }
    }
    out.ratio = raw / packed;
    out.psnr_db = sse
        .iter()
        .zip(&snap.fields)
        .filter(|(e, _)| e.1 > 0)
        .map(|(e, (_, f))| psnr(value_range(f), e.0 / e.1 as f64))
        .fold(f64::INFINITY, f64::min);

    let mut first: Option<SimView> = None;
    let n_req = s.requests.len() as f64;
    let passes = drive(cfg, &mut out, |out| {
        let t = Instant::now();
        let report = {
            let _span = telemetry::span("cluster.serve_cluster");
            serve_cluster(&spec, &opts, &s.requests)
        };
        let wall = t.elapsed().as_secs_f64();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                for _ in &s.requests {
                    out.check(false, || format!("serve_cluster: {e}"));
                }
                return (wall, ());
            }
        };
        for ((k, kind), req) in s.plan.iter().zip(&s.requests) {
            let key = &s.keys[*k];
            let resp = report.response(req.req.id);
            let ok = resp.is_some_and(|r| {
                r.status == ServeStatus::Done
                    && r.output.as_deref().is_some_and(|o| match kind {
                        Kind::Compress => holds_shards(o, &key.shards),
                        Kind::Decompress => o == key.decoded.as_slice(),
                        Kind::StoreRead => o == key.stored.as_slice(),
                    })
            });
            out.check(ok, || {
                format!(
                    "request {} ({kind:?} {}) not Done with the direct-codec bytes",
                    req.req.id, key.name
                )
            });
        }
        let view = sim_view(&report);
        let want = first.get_or_insert_with(|| view.clone()).clone();
        out.check(view == want, || {
            format!("simulated results changed between passes: {view:?} vs {want:?}")
        });
        (wall, ())
    });

    let sim = first.unwrap_or_default();
    out.ops_per_s = median(
        &passes
            .untraced
            .iter()
            .map(|(w, _)| n_req / w)
            .collect::<Vec<_>>(),
    );
    out.notes.push(format!(
        "sim latency percentiles over the {} requests of one call (identical in every pass)",
        s.requests.len()
    ));
    out.named = vec![
        Metric {
            name: "requests_per_s",
            value: out.ops_per_s,
            unit: "1/s",
        },
        Metric {
            name: "sim_p50_ms",
            value: sim.p50_s * 1e3,
            unit: "ms(sim)",
        },
        Metric {
            name: "sim_p99_ms",
            value: sim.p99_s * 1e3,
            unit: "ms(sim)",
        },
        Metric {
            name: "sim_sustained_gbs",
            value: sim.sustained_gbs,
            unit: "GB/s(sim)",
        },
    ];

    if cfg.trace {
        let per = passes.traced.len().max(1) as f64;
        passes.busy(
            &mut out,
            "serve.execute_units.busy_s",
            "serve.execute_units",
        );
        passes.self_time(
            &mut out,
            "serve.execute_units.self_s",
            "serve.execute_units",
        );
        passes.self_time(&mut out, "serve.unit.self_s", "serve.unit");
        passes.self_time(&mut out, "cluster.scheduler_s", "cluster.serve_cluster");
        passes.codec_stages(&mut out);
        // Units run on every worker thread, so their self times are
        // thread-seconds; they become wall seconds in proportion to the
        // share of the units' busy time they make up.
        let unit_busy = passes.spans.busy("serve.unit") / per;
        let unit_layers = out.layer("serve.unit.self_s")
            + CODEC_STAGES.iter().map(|(m, _)| out.layer(m)).sum::<f64>();
        let (phase_busy, phase_self) = (
            out.layer("serve.execute_units.busy_s"),
            out.layer("serve.execute_units.self_s"),
        );
        let units_wall = if unit_busy > 0.0 {
            (phase_busy - phase_self) * unit_layers / unit_busy
        } else {
            0.0
        };
        let layers = out.layer("cluster.scheduler_s") + phase_self + units_wall;
        passes.trace_summary(&mut out, &["cluster.serve_cluster"], layers);
        let sched = out.layer("cluster.scheduler_s");
        out.layers
            .insert("cluster.scheduler_us_per_req", sched / n_req * 1e6);
        out.layers
            .insert("serve.units", passes.spans.calls("serve.unit") as f64 / per);
        out.layers.insert("cluster.rejected", sim.rejected as f64);
        out.layers.insert("cluster.failovers", sim.failovers as f64);
        out.layers.insert("gpu.h2d_sim_s", sim.h2d_s);
        out.layers.insert("gpu.kernel_sim_s", sim.kernel_s);
        out.layers.insert("gpu.d2h_sim_s", sim.d2h_s);
        out.layers.insert("store.pack_s", archive.pack_s);
        out.layers.insert("store.open_s", archive.open_s);
        let host = vec![
            "cluster.scheduler_s",
            "serve.execute_units.busy_s",
            "serve.execute_units.self_s",
            "serve.unit.self_s",
            "sz.quantize.self_s",
            "sz.histogram.self_s",
            "sz.huffman_encode.self_s",
            "sz.huffman_decode.self_s",
            "zfp.encode.self_s",
            "zfp.decode.self_s",
        ];
        let sim_lanes = vec!["gpu.h2d_sim_s", "gpu.kernel_sim_s", "gpu.d2h_sim_s"];
        out.attribution = vec![
            ("requests_per_s", host),
            ("sim_p50_ms", sim_lanes.clone()),
            ("sim_p99_ms", sim_lanes.clone()),
            ("sim_sustained_gbs", sim_lanes),
        ];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_meet_their_shares() {
        let k = kinds(2000, 0.25, STORE_READ_SHARE);
        let count = |kind| k.iter().filter(|&&x| x == kind).count();
        assert_eq!(count(Kind::Decompress), 500);
        assert!((199..=200).contains(&count(Kind::StoreRead)));
        assert_eq!(k.len(), 2000);
    }
}
