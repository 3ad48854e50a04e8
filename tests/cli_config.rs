//! Integration: the JSON-config entry points used by `foresight-cli`.

use foresight::runner::run_pipeline;
use foresight::{
    ClusterOptions, ClusterSettings, ClusterWorkloadSpec, ForesightConfig, ServeNode, ServeOptions,
    ServeSettings, SlurmSim, WorkloadSpec,
};
use foresight_util::Error;
use std::path::{Path, PathBuf};

#[test]
fn config_file_roundtrip_drives_a_full_pipeline() {
    let out = std::env::temp_dir().join(format!("cli_it_{}", std::process::id()));
    let json = format!(
        r#"{{
        "input": {{ "dataset": "nyx", "n_side": 16, "seed": 3, "steps": 2 }},
        "compressors": [ {{ "name": "cuzfp", "rates": [8] }} ],
        "analysis": ["distortion", "power-spectrum"],
        "output": {{ "dir": "{}", "cinema": true }}
    }}"#,
        out.display()
    );
    let path = std::env::temp_dir().join(format!("cli_it_{}.json", std::process::id()));
    std::fs::write(&path, &json).unwrap();

    let cfg = ForesightConfig::from_file(&path).unwrap();
    let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
    assert_eq!(report.records.len(), 6);
    assert!(report.artifacts >= 2, "cinema artifacts expected");
    assert!(out.join("data.csv").exists(), "cinema index written");
    assert!(out.join("cbench.csv").exists());

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn missing_and_malformed_config_files_error_cleanly() {
    assert!(ForesightConfig::from_file("/nonexistent/config.json").is_err());
    let path = std::env::temp_dir().join(format!("cli_bad_{}.json", std::process::id()));
    std::fs::write(&path, "{ this is not json").unwrap();
    let err = ForesightConfig::from_file(&path).unwrap_err();
    assert!(matches!(err, Error::Config(_)));
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// The declarative config schema: examples, emit, rejection, defaults, docs
// ---------------------------------------------------------------------------

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn read_example(name: &str) -> String {
    std::fs::read_to_string(repo_file(&format!("examples/{name}.json"))).unwrap()
}

/// `to_json` of each shipped example, byte for byte as the hand-written
/// emitter this schema replaced produced it (key order included).
const FROZEN_EMIT: [(&str, &str); 3] = [
    (
        "cluster_bench",
        r#"{"input":{"dataset":"nyx","n_side":16,"seed":7,"steps":3,"box_size":256},"compressors":[{"name":"gpu-sz","mode":"rel","bounds":[0.01]},{"name":"cuzfp","rates":[8]}],"analysis":["throughput"],"output":{"dir":"results/cluster_bench","cinema":false},"cluster":{"nodes":4,"replication":2,"devices":2,"link":"pcie","queue_depth":64,"shard_kb":256,"window_ms":1,"seed":7,"heartbeat_ms":2,"probe_misses":2,"breaker_threshold":3,"breaker_open_ms":20,"backoff_base_ms":0.5,"backoff_cap_ms":8,"requests":96,"arrival_hz":6000,"fields":12,"zipf_s":1.1,"decompress_fraction":0.25,"deadline_ms":0,"priorities":3,"faults":[{"kind":"crash","node":1,"at_ms":4,"duration_ms":1000,"factor":1},{"kind":"slow","node":2,"at_ms":2,"duration_ms":6,"factor":3},{"kind":"partition","node":3,"at_ms":6,"duration_ms":3,"factor":1}]}}"#,
    ),
    (
        "store_pack",
        r#"{"input":{"dataset":"nyx","n_side":32,"seed":11,"steps":3,"box_size":256},"compressors":[{"name":"gpu-sz","mode":"abs","bounds":[0.001]}],"analysis":["distortion"],"output":{"dir":"results/store_pack","cinema":false},"store":{"file":"snapshot.fstr","chunk":16,"snapshot":0}}"#,
    ),
    (
        "telemetry_smoke",
        r#"{"input":{"dataset":"nyx","n_side":16,"seed":7,"steps":3,"box_size":256},"compressors":[{"name":"gpu-sz","mode":"rel","bounds":[0.01]},{"name":"cuzfp","rates":[8]}],"analysis":["distortion","throughput"],"output":{"dir":"results/telemetry_smoke","cinema":false},"chaos":{"seed":13,"transfer":0.2,"bit_flip":0.1,"kernel":0.1,"oom":0.05,"node":0,"device_retries":2,"op_retries":2,"job_retries":2}}"#,
    ),
];

/// A document touching every section and key kind.
const FULL: &str = r#"{"input":{"dataset":"hacc","n_side":32,"seed":5,"steps":2,"box_size":128.5},
 "compressors":[{"name":"gpu-sz","mode":"pw_rel","bounds":[0.01,0.02],"block_size":6},{"name":"cuzfp","rates":[2,4.5]}],
 "analysis":["distortion","power-spectrum","halo-finder","throughput"],
 "output":{"dir":"out/x","cinema":true},
 "chaos":{"seed":3,"transfer":0.01,"job_retries":4},
 "sanitize":{"racecheck":false},
 "serve":{"devices":4,"link":"pcie","deadline_ms":2.5},
 "cluster":{"nodes":3,"replication":3,"priorities":2,"probe_misses":4,"faults":[{"kind":"slow","node":2,"at_ms":0.5,"duration_ms":3,"factor":2.5},{"kind":"crash","node":1,"at_ms":9}]},
 "slo":[{"metric":"cluster.latency.p99","threshold_ms":5,"window":0.002,"objective":0.95},{"metric":"cluster.shed","threshold_ms":1,"window":0.004,"slow_window":0.02}],
 "store":{"file":"a.fstr","chunk":8,"snapshot":7}}"#;

/// `FULL` through the replaced emitter: every default filled in, in
/// declaration order.
const FULL_EMIT: &str = r#"{"input":{"dataset":"hacc","n_side":32,"seed":5,"steps":2,"box_size":128.5},"compressors":[{"name":"gpu-sz","mode":"pw_rel","bounds":[0.01,0.02],"block_size":6},{"name":"cuzfp","rates":[2,4.5]}],"analysis":["distortion","power-spectrum","halo-finder","throughput"],"output":{"dir":"out/x","cinema":true},"chaos":{"seed":3,"transfer":0.01,"bit_flip":0,"kernel":0,"oom":0,"node":0,"device_retries":3,"op_retries":2,"job_retries":4},"sanitize":{"memcheck":true,"racecheck":false},"serve":{"devices":4,"link":"pcie","max_batch":8,"queue_depth":64,"shard_kb":256,"window_ms":1,"seed":0,"requests":48,"arrival_hz":4000,"deadline_ms":2.5,"decompress_fraction":0.25},"cluster":{"nodes":3,"replication":3,"devices":2,"link":"nvlink","queue_depth":64,"shard_kb":256,"window_ms":1,"seed":0,"heartbeat_ms":2,"probe_misses":4,"breaker_threshold":3,"breaker_open_ms":20,"backoff_base_ms":0.5,"backoff_cap_ms":8,"requests":96,"arrival_hz":6000,"fields":12,"zipf_s":1.1,"decompress_fraction":0.25,"deadline_ms":0,"priorities":2,"faults":[{"kind":"slow","node":2,"at_ms":0.5,"duration_ms":3,"factor":2.5},{"kind":"crash","node":1,"at_ms":9,"duration_ms":0,"factor":1}]},"slo":[{"metric":"cluster.latency.p99","threshold_ms":5,"window":0.002,"slow_window":0.008,"objective":0.95},{"metric":"cluster.shed","threshold_ms":1,"window":0.004,"slow_window":0.02,"objective":0.99}],"store":{"file":"a.fstr","chunk":8,"snapshot":7}}"#;

/// The `Error::Config` message `json` is rejected with.
fn config_error(json: &str) -> String {
    match ForesightConfig::from_json(json) {
        Err(Error::Config(msg)) => msg,
        Err(other) => panic!("expected a config error, got {other}"),
        Ok(_) => panic!("config unexpectedly loaded:\n{json}"),
    }
}

/// `base` with the first `from` replaced by `to` (which must occur).
fn edit(base: &str, from: &str, to: &str) -> String {
    assert!(base.contains(from), "fixture lacks {from}");
    base.replacen(from, to, 1)
}

#[test]
fn every_example_config_loads() {
    let mut loaded = 0;
    for entry in std::fs::read_dir(repo_file("examples")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            ForesightConfig::from_file(&path)
                .unwrap_or_else(|e| panic!("{} does not load: {e}", path.display()));
            loaded += 1;
        }
    }
    assert!(loaded >= FROZEN_EMIT.len(), "only {loaded} example configs found");
}

#[test]
fn to_json_is_a_fixed_point() {
    let docs = FROZEN_EMIT.iter().map(|(name, _)| read_example(name)).chain([FULL.to_string()]);
    for doc in docs {
        let once = ForesightConfig::from_json(&doc).unwrap().to_json();
        let twice = ForesightConfig::from_json(&once).unwrap().to_json();
        assert_eq!(once, twice);
    }
}

#[test]
fn examples_emit_byte_identical_json() {
    for (name, frozen) in FROZEN_EMIT {
        let cfg = ForesightConfig::from_json(&read_example(name)).unwrap();
        assert_eq!(cfg.to_json(), frozen, "examples/{name}.json emits different bytes");
    }
    assert_eq!(ForesightConfig::from_json(FULL).unwrap().to_json(), FULL_EMIT);
}

#[test]
fn typos_fail_with_path_and_suggestion() {
    let cluster = read_example("cluster_bench");
    let full = FULL.to_string();
    let cases = [
        (&cluster, "\"replication\"", "\"replicaton\"", "cluster.replicaton", "replication"),
        (&cluster, "\"cluster\"", "\"clustr\"", "clustr", "cluster"),
        (&cluster, "\"steps\"", "\"stepz\"", "input.stepz", "steps"),
        (&cluster, "\"bounds\"", "\"bound\"", "compressors[0].bound", "bounds"),
        (&full, "\"objective\"", "\"objectve\"", "slo[0].objectve", "objective"),
        (
            &cluster,
            "\"duration_ms\"",
            "\"durration_ms\"",
            "cluster.faults[0].durration_ms",
            "duration_ms",
        ),
    ];
    for (base, from, to, path, near) in cases {
        let msg = config_error(&edit(base, from, to));
        let want = format!("{path}: unknown key, did you mean '{near}'?");
        assert_eq!(msg, want, "typo {to}");
    }
    // A key nothing resembles lists the section's keys instead of guessing.
    let msg = config_error(&edit(&cluster, "\"nodes\"", "\"zzzzzzzz\""));
    assert!(msg.starts_with("cluster.zzzzzzzz: unknown key (expected one of nodes, "), "{msg}");
    // Keys of the other compressor are unknown, not ignored.
    let msg = config_error(&edit(&cluster, "\"rates\": [8]", "\"rates\": [8], \"mode\": \"abs\""));
    assert!(msg.starts_with("compressors[1].mode: unknown key"), "{msg}");
}

#[test]
fn duplicate_keys_are_rejected() {
    let cluster = read_example("cluster_bench");
    let cases = [
        ("\"nodes\": 4,", "\"nodes\": 4, \"nodes\": 1,", "cluster.nodes"),
        ("\"input\":", "\"input\": {}, \"input\":", "input"),
        ("\"mode\": \"rel\",", "\"mode\": \"rel\", \"mode\": \"abs\",", "compressors[0].mode"),
        (
            "\"kind\": \"crash\",",
            "\"kind\": \"crash\", \"kind\": \"slow\",",
            "cluster.faults[0].kind",
        ),
    ];
    for (from, to, path) in cases {
        assert_eq!(config_error(&edit(&cluster, from, to)), format!("{path}: duplicate key"));
    }
}

#[test]
fn integers_outside_their_field_width_are_rejected() {
    let cluster = read_example("cluster_bench");
    let chaos = read_example("telemetry_smoke");
    let u32_max = u32::MAX;
    let cases = [
        (
            &cluster,
            "\"probe_misses\": 2",
            "\"probe_misses\": 4294967298",
            "cluster.probe_misses",
            u32_max as u64,
        ),
        (
            &cluster,
            "\"breaker_threshold\": 3",
            "\"breaker_threshold\": 4294967296",
            "cluster.breaker_threshold",
            u32_max as u64,
        ),
        (
            &cluster,
            "\"fields\": 12",
            "\"fields\": 12, \"priorities\": 257",
            "cluster.priorities",
            255,
        ),
        (
            &chaos,
            "\"device_retries\": 2",
            "\"device_retries\": 4294967296",
            "chaos.device_retries",
            u32_max as u64,
        ),
        (
            &chaos,
            "\"op_retries\": 2",
            "\"op_retries\": 4294967296",
            "chaos.op_retries",
            u32_max as u64,
        ),
        (
            &chaos,
            "\"job_retries\": 2",
            "\"job_retries\": 4294967296",
            "chaos.job_retries",
            u32_max as u64,
        ),
    ];
    for (base, from, to, path, max) in cases {
        let msg = config_error(&edit(base, from, to));
        assert!(
            msg.starts_with(&format!("{path}: expected an integer in [0, {max}], got ")),
            "{msg}"
        );
    }
    // The widest value of each type still loads.
    let edge =
        edit(&cluster, "\"probe_misses\": 2", "\"probe_misses\": 4294967295, \"priorities\": 255");
    let c = ForesightConfig::from_json(&edge).unwrap().cluster.unwrap();
    assert_eq!((c.probe_misses, c.priorities), (u32::MAX, 255));
}

#[test]
fn settings_defaults_agree_with_runtime_defaults() {
    // Debug output prints every f64 in shortest round-trip form, so equal
    // strings mean bit-identical values.
    let same = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    };
    let serve = ServeSettings::default();
    same(&serve.to_serve_options(Default::default()), &ServeOptions::default());
    same(&serve.to_workload_spec(), &WorkloadSpec::default());
    same(&serve.to_node(), &ServeNode::summit());
    let cluster = ClusterSettings::default();
    same(&cluster.to_cluster_options().unwrap(), &ClusterOptions::default());
    same(&cluster.to_workload_spec(), &ClusterWorkloadSpec::default());
    let shape = cluster.to_cluster();
    same(&shape.node, &ServeNode { devices: shape.node.devices, ..ServeNode::summit() });
}

#[test]
fn readme_configuration_reference_matches_the_declarations() {
    const START: &str = "<!-- config-reference:start -->\n";
    const END: &str = "<!-- config-reference:end -->";
    let path = repo_file("README.md");
    let readme = std::fs::read_to_string(&path).unwrap();
    let (head, rest) = readme.split_once(START).expect("README lacks the config-reference block");
    let (block, tail) =
        rest.split_once(END).expect("README config-reference block is unterminated");
    let rendered = ForesightConfig::reference();
    if block == rendered {
        return;
    }
    if std::env::var("FORESIGHT_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, format!("{head}{START}{rendered}{END}{tail}")).unwrap();
        return;
    }
    panic!(
        "README configuration reference differs from ForesightConfig::reference()\n\
         re-render it with `FORESIGHT_BLESS=1 cargo test --test cli_config`"
    );
}
