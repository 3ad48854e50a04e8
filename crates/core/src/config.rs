//! JSON configuration for Foresight pipelines.
//!
//! The real Foresight is driven by "a simple JSON file" (paper §IV-A);
//! this module mirrors that: dataset selection, compressor sweeps,
//! analysis stages, and output location, parsed with the workspace's
//! own JSON module and validated before a run.
//!
//! ```json
//! {
//!   "input":       { "dataset": "nyx", "n_side": 64, "seed": 42, "steps": 10 },
//!   "compressors": [ { "name": "gpu-sz", "mode": "abs", "bounds": [0.1, 0.2] },
//!                    { "name": "cuzfp", "rates": [2, 4, 8] } ],
//!   "analysis":    [ "distortion", "power-spectrum" ],
//!   "output":      { "dir": "out", "cinema": true },
//!   "chaos":       { "seed": 7, "transfer": 0.05, "node": 0.1 },
//!   "sanitize":    { "memcheck": true, "racecheck": true },
//!   "serve":       { "devices": 6, "link": "nvlink", "requests": 48 }
//! }
//! ```
//!
//! Every section is declared once, by a `section!` block: one row per
//! key giving the JSON key, the struct field, its type, its default, its
//! unit, and its doc line. One generic parse walks the rows: an absent
//! key takes its default, while a missing required key, a wrong type, an
//! integer outside its field's width, a duplicate key, or an unknown key
//! is an [`Error::Config`] that names the key's path (unknown keys also
//! get a did-you-mean hint). One generic emit walks the same rows for
//! [`ForesightConfig::to_json`], and [`ForesightConfig::reference`]
//! renders them as the README's configuration reference. Enum-valued keys
//! each have one name list (`names!`). Checks that relate keys to each
//! other live in each section's `validate`.
//!
//! The optional `chaos` section turns on seeded fault injection: the
//! sweep runs through the simulated GPU with the given failure rates and
//! the PAT workflow retries jobs under node-level faults (see
//! [`ChaosSettings`]). The optional `sanitize` section attaches the
//! device sanitizer to every GPU run (see [`SanitizeSettings`]). The
//! optional `serve` section configures the `serve-bench` scheduler
//! benchmark (see [`ServeSettings`]), and the optional `cluster` section
//! configures the `cluster-bench` multi-node serving benchmark — node
//! count, replication, router knobs, Zipf workload, and an explicit
//! node-fault schedule (see [`ClusterSettings`]). The optional `slo`
//! array declares service-level objectives evaluated over the windowed
//! telemetry series with multi-window burn-rate alerts (see
//! [`SloSetting`] and [`crate::obs`]). Their defaults come from the
//! runtime types they configure ([`ServeOptions`], [`WorkloadSpec`],
//! [`ClusterOptions`], [`ClusterWorkloadSpec`], [`ChaosConfig`],
//! [`SloSpec`]), converted to the config's units (ms, KiB).

use crate::cbench::ChaosConfig;
use crate::cluster::{ClusterOptions, ClusterWorkloadSpec, ServeCluster};
use crate::codec::CodecConfig;
use crate::obs::SloSpec;
use crate::serve::{ServeNode, ServeOptions, WorkloadSpec};
use foresight_util::json::Value;
use foresight_util::{Error, Result};
use gpu_sim::{
    FaultRates, NodeChaosPlan, NodeFaultEvent, NodeFaultKind, PcieLink, SanitizerConfig,
};
use std::path::PathBuf;

/// A config error at `path` (the document root when empty).
fn bad(path: &str, msg: impl std::fmt::Display) -> Error {
    Error::Config(format!("{}: {msg}", if path.is_empty() { "config root" } else { path }))
}

/// `path.key`, or `key` at the root.
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// A type a config key can hold: parsed from the JSON value at a path,
/// emitted back, and described in the configuration reference.
trait Key: Sized {
    /// Whether a JSON `null` reads as an empty list of these.
    const NULL_LIST_IS_EMPTY: bool = false;
    /// The reference table's type column.
    fn type_name() -> String;
    /// Parses the value found at `path`.
    fn parse(v: &Value, path: &str) -> Result<Self>;
    /// The JSON form; `None` leaves the key out of the document.
    fn emit(&self) -> Option<Value>;
    /// Appends the reference rows of a nested section at `path`.
    fn reference(_path: &str, _rows: &mut Vec<[String; 6]>) {}
}

/// Scalar keys: the JSON type check, then the value itself.
macro_rules! leaf {
    ($($ty:ty: $name:literal, $get:expr, $put:expr;)*) => {$(
        impl Key for $ty {
            fn type_name() -> String {
                $name.into()
            }
            fn parse(v: &Value, path: &str) -> Result<Self> {
                $get(v).ok_or_else(|| bad(path, concat!("expected a ", $name)))
            }
            fn emit(&self) -> Option<Value> {
                Some($put(self))
            }
        }
    )*};
}

leaf! {
    f64: "number", Value::as_f64, |n: &f64| Value::Number(*n);
    bool: "bool", Value::as_bool, |b: &bool| Value::Bool(*b);
    String: "string", |v: &Value| v.as_str().map(String::from),
        |s: &String| Value::String(s.clone());
    PathBuf: "string", |v: &Value| v.as_str().map(PathBuf::from),
        |p: &PathBuf| Value::String(p.to_string_lossy().into_owned());
}

/// Integers are range-checked against their field's width, never cast.
macro_rules! int_key {
    ($($ty:ty),*) => {$(
        impl Key for $ty {
            fn type_name() -> String {
                concat!("integer (", stringify!($ty), ")").into()
            }
            fn parse(v: &Value, path: &str) -> Result<Self> {
                v.as_u64().and_then(|n| <$ty>::try_from(n).ok()).ok_or_else(|| {
                    let max = <$ty>::MAX;
                    bad(path, format!("expected an integer in [0, {max}], got {}", v.to_json()))
                })
            }
            fn emit(&self) -> Option<Value> {
                Some(Value::Number(*self as f64))
            }
        }
    )*};
}

int_key!(u8, u32, u64, usize);

impl<T: Key> Key for Option<T> {
    fn type_name() -> String {
        T::type_name()
    }
    fn parse(v: &Value, path: &str) -> Result<Self> {
        match v {
            Value::Null => Ok(None),
            v => T::parse(v, path).map(Some),
        }
    }
    fn emit(&self) -> Option<Value> {
        self.as_ref().and_then(T::emit)
    }
    fn reference(path: &str, rows: &mut Vec<[String; 6]>) {
        T::reference(path, rows)
    }
}

impl<T: Key> Key for Vec<T> {
    fn type_name() -> String {
        format!("array of {}", T::type_name())
    }
    fn parse(v: &Value, path: &str) -> Result<Self> {
        if T::NULL_LIST_IS_EMPTY && *v == Value::Null {
            return Ok(Vec::new());
        }
        let items = v.as_array().ok_or_else(|| bad(path, "expected an array"))?;
        items.iter().enumerate().map(|(i, item)| T::parse(item, &format!("{path}[{i}]"))).collect()
    }
    fn emit(&self) -> Option<Value> {
        Some(Value::Array(self.iter().filter_map(T::emit).collect()))
    }
    fn reference(path: &str, rows: &mut Vec<[String; 6]>) {
        T::reference(&format!("{path}[]"), rows)
    }
}

/// Implements [`Key`] for an enum from its one name↔variant list.
macro_rules! names {
    ($ty:ident { $($variant:ident = $name:literal),+ $(,)? }) => {
        impl Key for $ty {
            fn type_name() -> String {
                [$($name),+].join("|")
            }
            fn parse(v: &Value, path: &str) -> Result<Self> {
                match v.as_str() {
                    $(Some($name) => Ok($ty::$variant),)+
                    _ => {
                        let want = Self::type_name();
                        Err(bad(path, format!("expected {want}, got {}", v.to_json())))
                    }
                }
            }
            fn emit(&self) -> Option<Value> {
                Some(Value::String(match self { $($ty::$variant => $name,)+ }.into()))
            }
        }
    };
}

/// The fields of the object at `path`, after rejecting duplicate keys
/// and keys outside `keys`.
fn object<'a>(v: &'a Value, path: &str, keys: &[&str]) -> Result<&'a [(String, Value)]> {
    let fields = v.as_object().ok_or_else(|| bad(path, "expected an object"))?;
    for (i, (key, _)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(seen, _)| seen == key) {
            return Err(bad(&join(path, key), "duplicate key"));
        }
        if !keys.contains(&key.as_str()) {
            return Err(bad(&join(path, key), unknown_key(key, keys)));
        }
    }
    Ok(fields)
}

/// The unknown-key message, suggesting the nearest known key when it is
/// a plausible typo.
fn unknown_key(key: &str, keys: &[&str]) -> String {
    match keys.iter().map(|k| (edit_distance(key, k), *k)).min() {
        Some((d, near)) if d <= (key.len() / 3).max(2) => {
            format!("unknown key, did you mean '{near}'?")
        }
        _ => format!("unknown key (expected one of {})", keys.join(", ")),
    }
}

/// Levenshtein distance over chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb)).min(row[j] + 1).min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Parses `key` of `fields`, if present.
fn take<T: Key>(fields: &[(String, Value)], path: &str, key: &str) -> Result<Option<T>> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| T::parse(v, &join(path, key))).transpose()
}

/// An object of the present `(key, value)` pairs, in order.
fn object_value<'a>(pairs: impl IntoIterator<Item = (&'a str, Option<Value>)>) -> Value {
    Value::Object(pairs.into_iter().filter_map(|(k, v)| Some((k.to_string(), v?))).collect())
}

/// The reference table's default column for an evaluated default.
fn shown(default: Option<Value>) -> String {
    default.map_or_else(|| "absent".into(), |v| format!("`{}`", v.to_json()))
}

/// One reference-table row.
fn row(at: &str, key: &str, ty: String, default: String, unit: &str, doc: &str) -> [String; 6] {
    [at.into(), key.into(), ty, default, unit.into(), doc.trim().into()]
}

/// A row's JSON key: the field name unless the row renames it.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// A row's value: parsed from `fields` if present, else the row's
/// default, else a missing-key error.
macro_rules! field {
    ($fields:ident, $path:ident, $key:expr, $ty:ty) => {
        match take::<$ty>($fields, $path, $key)? {
            Some(v) => v,
            None => return Err(bad(&join($path, $key), "missing required key")),
        }
    };
    ($fields:ident, $path:ident, $key:expr, $ty:ty, $default:expr) => {
        match take::<$ty>($fields, $path, $key)? {
            Some(v) => v,
            None => $default,
        }
    };
}

/// A row's default column: required, an explicit text, or the
/// evaluated default.
macro_rules! shown {
    ($ty:ty;) => {
        "required".to_string()
    };
    ($ty:ty; $default:expr; $text:literal) => {
        $text.to_string()
    };
    ($ty:ty; $default:expr) => {
        shown(<$ty as Key>::emit(&$default))
    };
}

/// Declares a config section once. Each row is
/// `/// doc` `field ("json key")?: Type ["unit"]? (= default (; "shown")?)?,`
/// — the key defaults to the field name, a row without a default is
/// required, and `"shown"` replaces the evaluated default in the
/// reference. `struct Name: Default` also builds `Default` from the rows.
/// The enum form is a list of struct-like variants selected by a tag key.
macro_rules! section {
    (@default [] $name:ident { $($rest:tt)* }) => {};
    (@default [Default] $name:ident { $($field:ident = $default:expr,)* }) => {
        impl Default for $name {
            fn default() -> Self {
                $name { $($field: $default),* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(: $derive:ident)? {
            $(
                $(#[doc = $doc:literal])*
                $field:ident $(($key:literal))? : $ty:ty $([$unit:literal])?
                    $(= $default:expr $(; $shown:literal)?)?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        section!(@default [$($derive)?] $name { $($field $(= $default)?,)* });

        impl Key for $name {
            const NULL_LIST_IS_EMPTY: bool = true;

            fn type_name() -> String {
                "object".into()
            }

            fn parse(v: &Value, path: &str) -> Result<Self> {
                let fields = object(v, path, &[$(key!($field $($key)?)),*])?;
                $(let $field = field!(fields, path, key!($field $($key)?), $ty $(, $default)?);)*
                Ok($name { $($field),* })
            }

            fn emit(&self) -> Option<Value> {
                Some(object_value([$((key!($field $($key)?), self.$field.emit())),*]))
            }

            fn reference(path: &str, rows: &mut Vec<[String; 6]>) {
                $(rows.push(row(
                    path,
                    key!($field $($key)?),
                    <$ty as Key>::type_name(),
                    shown!($ty; $($default $(; $shown)?)?),
                    concat!($($unit)?),
                    concat!($($doc),*),
                ));)*
                $(<$ty as Key>::reference(&join(path, key!($field $($key)?)), rows);)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($tag:literal) {
            $(
                $(#[doc = $vdoc:literal])*
                $variant:ident ($vname:literal) {
                    $(
                        $(#[doc = $doc:literal])*
                        $field:ident : $ty:ty $(= $default:expr $(; $shown:literal)?)?,
                    )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[doc = $vdoc])* $variant { $($(#[doc = $doc])* $field: $ty,)* },)*
        }

        impl Key for $name {
            fn type_name() -> String {
                "object".into()
            }

            fn parse(v: &Value, path: &str) -> Result<Self> {
                let fields = v.as_object().ok_or_else(|| bad(path, "expected an object"))?;
                let tag = field!(fields, path, $tag, String);
                match tag.as_str() {
                    $($vname => {
                        let fields = object(v, path, &[$tag, $(stringify!($field)),*])?;
                        $(
                            let $field =
                                field!(fields, path, stringify!($field), $ty $(, $default)?);
                        )*
                        Ok($name::$variant { $($field),* })
                    })*
                    other => Err(bad(
                        &join(path, $tag),
                        format!("expected {}, got \"{other}\"", [$($vname),*].join("|")),
                    )),
                }
            }

            fn emit(&self) -> Option<Value> {
                Some(match self {
                    $($name::$variant { $($field),* } => object_value([
                        ($tag, Some(Value::String($vname.into()))),
                        $((stringify!($field), $field.emit()),)*
                    ]),)*
                })
            }

            fn reference(path: &str, rows: &mut Vec<[String; 6]>) {
                let variants = [$(format!("`{}`:{}", $vname, concat!($($vdoc),*))),*];
                let names = [$($vname),*].join("|");
                rows.push(row(path, $tag, names, "required".into(), "", &variants.join(" ")));
                $(
                    let at = format!("{path} ({}: {})", $tag, $vname);
                    $(rows.push(row(
                        &at,
                        stringify!($field),
                        <$ty as Key>::type_name(),
                        shown!($ty; $($default $(; $shown)?)?),
                        "",
                        concat!($($doc),*),
                    ));)*
                )*
            }
        }
    };
}

/// Which synthetic dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// HACC-like particle snapshot (six 1-D arrays).
    Hacc,
    /// Nyx-like grid snapshot (six 3-D fields).
    Nyx,
}

names!(DatasetKind { Hacc = "hacc", Nyx = "nyx" });

section! {
    /// Input dataset parameters.
    #[derive(Debug, Clone)]
    pub struct InputConfig {
        /// Dataset family.
        dataset: DatasetKind,
        /// Grid/particle-lattice side (a power of two >= 8).
        n_side: usize = 64,
        /// RNG seed for the synthetic universe.
        seed: u64 = 0,
        /// PM steps (clustering strength).
        steps: usize = 10,
        /// Box side length.
        box_size: f64 = 256.0,
    }
}

section! {
    /// One compressor sweep entry.
    #[derive(Debug, Clone)]
    pub enum CompressorSweep ("name") {
        /// GPU-SZ with a list of error bounds.
        GpuSz ("gpu-sz") {
            /// Error-bound mode.
            mode: SzModeKind,
            /// Bounds to sweep.
            bounds: Vec<f64>,
            /// Optional block-size override.
            block_size: Option<usize> = None; "codec default",
        },
        /// cuZFP with a list of fixed rates.
        Cuzfp ("cuzfp") {
            /// Bitrates to sweep, bits per value in (0, 64].
            rates: Vec<f64>,
        },
    }
}

/// SZ error-bound mode names used in configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SzModeKind {
    /// Absolute bound.
    Abs,
    /// Value-range relative bound.
    Rel,
    /// Point-wise relative bound (log-transform scheme).
    PwRel,
}

names!(SzModeKind { Abs = "abs", Rel = "rel", PwRel = "pw_rel" });

/// Analysis stages to run after compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// PSNR/MSE/MRE and rate-distortion.
    Distortion,
    /// Matter power spectrum pk-ratio.
    PowerSpectrum,
    /// FoF halo finder comparison.
    HaloFinder,
    /// GPU/CPU throughput modeling.
    Throughput,
}

names!(AnalysisKind {
    Distortion = "distortion",
    PowerSpectrum = "power-spectrum",
    HaloFinder = "halo-finder",
    Throughput = "throughput",
});

section! {
    /// Output location and options.
    #[derive(Debug, Clone)]
    pub struct OutputConfig {
        /// Directory for CSVs and the Cinema database.
        dir: PathBuf,
        /// Whether to emit a Cinema-style database.
        cinema: bool = false,
    }
}

/// The quiet chaos configuration the `chaos` section's defaults mirror.
fn chaos_defaults() -> ChaosConfig {
    ChaosConfig::new(0, FaultRates::default())
}

section! {
    /// Optional fault-injection ("chaos") settings for a pipeline run.
    ///
    /// When present, CBench runs through the simulated GPU with the given
    /// fault rates (quarantining persistently failing pairs) and the PAT
    /// workflow executes with per-job retries under node-level faults. All
    /// injection is seeded, so a run is reproducible bit-for-bit.
    #[derive(Debug, Clone)]
    pub struct ChaosSettings {
        /// Master fault seed.
        seed: u64 = chaos_defaults().seed,
        /// Per-transfer PCIe failure probability.
        transfer: f64 = chaos_defaults().rates.transfer,
        /// Per-download silent bit-flip probability.
        bit_flip: f64 = chaos_defaults().rates.bit_flip,
        /// Per-launch kernel-fault probability.
        kernel: f64 = chaos_defaults().rates.kernel,
        /// Per-allocation spurious-OOM probability.
        oom: f64 = chaos_defaults().rates.oom,
        /// Per-wave node-failure probability.
        node: f64 = chaos_defaults().rates.node,
        /// Per-device-operation retry budget.
        device_retries: u32 = chaos_defaults().device_retries,
        /// Whole-GPU-roundtrip retries before CPU fallback.
        op_retries: u32 = chaos_defaults().op_retries,
        /// Per-job workflow retries.
        job_retries: u32 = 2,
    }
}

impl ChaosSettings {
    /// The device-level fault rates.
    pub fn fault_rates(&self) -> FaultRates {
        FaultRates {
            transfer: self.transfer,
            bit_flip: self.bit_flip,
            kernel: self.kernel,
            oom: self.oom,
            node: self.node,
        }
    }

    /// The CBench chaos-sweep configuration these settings describe.
    pub fn to_chaos_config(&self) -> ChaosConfig {
        ChaosConfig {
            device_retries: self.device_retries,
            op_retries: self.op_retries,
            ..ChaosConfig::new(self.seed, self.fault_rates())
        }
    }

    fn validate(&self) -> Result<()> {
        self.fault_rates()
            .validate()
            .map_err(|e| Error::Config(format!("chaos rates: {e}")))
    }
}

section! {
    /// Optional device-sanitizer ("sanitize") settings for a pipeline run.
    ///
    /// When present, the sweep runs through the simulated GPU with a
    /// sanitizer attached: codec kernels execute on the traced launch path,
    /// memcheck shadows every device allocation, and racecheck intersects
    /// per-block access ranges. Findings surface in the pipeline report (and
    /// fail the CLI with a dedicated exit code). Both checks default to on;
    /// disable one with `"memcheck": false` / `"racecheck": false`.
    #[derive(Debug, Clone, Copy)]
    pub struct SanitizeSettings {
        /// Shadow-heap checks: bounds, uninitialized reads, double-free,
        /// use-after-free, leaks.
        memcheck: bool = true,
        /// Cross-block race detection on traced launches.
        racecheck: bool = true,
    }
}

impl SanitizeSettings {
    /// The device-level checker configuration.
    pub fn to_sanitizer_config(self) -> SanitizerConfig {
        SanitizerConfig { memcheck: self.memcheck, racecheck: self.racecheck }
    }

    fn validate(&self) -> Result<()> {
        if !self.memcheck && !self.racecheck {
            return Err(Error::Config(
                "'sanitize' enables neither memcheck nor racecheck; drop the section instead"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Host link of every simulated serving device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// NVLink 2.0, as on Summit.
    NvLink,
    /// PCIe 3.0 x16.
    Pcie,
}

names!(LinkKind { NvLink = "nvlink", Pcie = "pcie" });

impl LinkKind {
    /// A node of `devices` V100s on this link.
    fn node(self, devices: usize) -> ServeNode {
        let mut node = ServeNode::v100_pcie(devices);
        if self == LinkKind::NvLink {
            node.link = PcieLink::nvlink2();
        }
        node
    }
}

/// Compares with the link's config name (`"nvlink"` or `"pcie"`).
impl PartialEq<&str> for LinkKind {
    fn eq(&self, name: &&str) -> bool {
        self.emit().as_ref().and_then(Value::as_str) == Some(*name)
    }
}

section! {
    /// Optional serving-scheduler ("serve") settings.
    ///
    /// When present, `foresight-cli serve-bench` uses these instead of its
    /// built-in defaults: the node shape (device count and host link), the
    /// scheduler knobs ([`ServeOptions`]), and the synthetic open-loop
    /// workload ([`WorkloadSpec`]), whose defaults these mirror. Device
    /// fault rates are *not* duplicated here — serve-bench reads them from
    /// the existing `chaos` section so one knob governs all fault injection.
    #[derive(Debug, Clone)]
    pub struct ServeSettings: Default {
        /// Simulated devices on the serving node.
        devices: usize = ServeNode::summit().devices,
        /// Host link of every device.
        link: LinkKind = LinkKind::NvLink,
        /// Max units per dispatched batch.
        max_batch: usize = ServeOptions::default().max_batch,
        /// Outstanding-unit bound before admission rejects.
        queue_depth: usize = ServeOptions::default().queue_depth,
        /// Shard threshold: larger fields split across devices.
        shard_kb: usize ["KiB"] = (ServeOptions::default().shard_bytes / 1024) as usize,
        /// Batching window.
        window_ms: f64 ["ms"] = ServeOptions::default().window_s * 1e3,
        /// Scheduler fault seed, also the workload seed.
        seed: u64 = ServeOptions::default().seed,
        /// Synthetic workload: request count.
        requests: usize = WorkloadSpec::default().requests,
        /// Synthetic workload: mean arrival rate.
        arrival_hz: f64 ["1/s"] = WorkloadSpec::default().arrival_hz,
        /// Synthetic workload: per-request deadline; 0 means none.
        deadline_ms: f64 ["ms"] = WorkloadSpec::default().deadline_s.map_or(0.0, |s| s * 1e3),
        /// Synthetic workload: decompression fraction.
        decompress_fraction: f64 = WorkloadSpec::default().decompress_fraction,
    }
}

impl ServeSettings {
    /// The serving node these settings describe (V100 devices on the
    /// configured link).
    pub fn to_node(&self) -> ServeNode {
        self.link.node(self.devices)
    }

    /// Scheduler options; `rates` come from the `chaos` section (or
    /// default quiet).
    pub fn to_serve_options(&self, rates: FaultRates) -> ServeOptions {
        ServeOptions {
            max_batch: self.max_batch,
            queue_depth: self.queue_depth,
            shard_bytes: self.shard_kb as u64 * 1024,
            window_s: self.window_ms * 1e-3,
            seed: self.seed,
            rates,
            ..ServeOptions::default()
        }
    }

    /// The synthetic open-loop workload these settings describe.
    pub fn to_workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            requests: self.requests,
            seed: self.seed,
            arrival_hz: self.arrival_hz,
            deadline_s: (self.deadline_ms > 0.0).then_some(self.deadline_ms * 1e-3),
            decompress_fraction: self.decompress_fraction,
            ..WorkloadSpec::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.devices == 0 {
            return Err(Error::Config("serve.devices must be >= 1".into()));
        }
        if self.max_batch == 0 || self.queue_depth == 0 || self.shard_kb == 0 {
            return Err(Error::Config(
                "serve.max_batch, queue_depth, and shard_kb must be >= 1".into(),
            ));
        }
        if !(self.window_ms > 0.0 && self.window_ms.is_finite()) {
            return Err(Error::Config("serve.window_ms must be positive".into()));
        }
        if !(self.arrival_hz > 0.0 && self.arrival_hz.is_finite()) {
            return Err(Error::Config("serve.arrival_hz must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.decompress_fraction) {
            return Err(Error::Config(
                "serve.decompress_fraction must be in [0, 1]".into(),
            ));
        }
        if !(self.deadline_ms >= 0.0 && self.deadline_ms.is_finite()) {
            return Err(Error::Config("serve.deadline_ms must be >= 0".into()));
        }
        Ok(())
    }
}

names!(NodeFaultKind { Crash = "crash", Slow = "slow", Partition = "partition" });

section! {
    /// One scheduled node-level fault in a `cluster` section.
    #[derive(Debug, Clone)]
    pub struct ClusterFaultSetting {
        /// Fault kind.
        kind: NodeFaultKind,
        /// Target node index.
        node: usize = 0,
        /// Onset on the simulated clock.
        at_ms: f64 ["ms"] = 0.0,
        /// Duration (ignored for `crash`).
        duration_ms: f64 ["ms"] = 0.0,
        /// Straggler factor (only for `slow`; must be >= 1).
        factor: f64 = 1.0,
    }
}

impl ClusterFaultSetting {
    fn to_event(&self) -> NodeFaultEvent {
        NodeFaultEvent {
            node: self.node,
            kind: self.kind,
            at_s: self.at_ms * 1e-3,
            duration_s: self.duration_ms * 1e-3,
            slow_factor: self.factor,
        }
    }
}

section! {
    /// Optional multi-node serving ("cluster") settings.
    ///
    /// When present, `foresight-cli cluster-bench` uses these instead of its
    /// built-in defaults: the cluster shape (node count, replication, devices
    /// per node), the router knobs ([`ClusterOptions`]), the Zipf open-loop
    /// workload ([`ClusterWorkloadSpec`]), whose defaults these mirror, and
    /// an explicit node-fault schedule (`faults`). Absent `faults` means a
    /// healthy run; `cluster-bench` injects its own node-kill when asked for
    /// chaos.
    #[derive(Debug, Clone)]
    pub struct ClusterSettings: Default {
        /// Serving nodes.
        nodes: usize = 4,
        /// Replicas per placement key.
        replication: usize = 2,
        /// Devices per node.
        devices: usize = 2,
        /// Host link of every device.
        link: LinkKind = LinkKind::NvLink,
        /// Per-node outstanding-unit bound.
        queue_depth: usize = ClusterOptions::default().serve.queue_depth,
        /// Shard threshold: larger fields split across devices.
        shard_kb: usize ["KiB"] = (ClusterOptions::default().serve.shard_bytes / 1024) as usize,
        /// Batching window.
        window_ms: f64 ["ms"] = ClusterOptions::default().serve.window_s * 1e3,
        /// Seed for jitter, workload, and fault streams.
        seed: u64 = ClusterOptions::default().serve.seed,
        /// Health-probe interval.
        heartbeat_ms: f64 ["ms"] = ClusterOptions::default().heartbeat_s * 1e3,
        /// Missed probes before a node is marked down.
        probe_misses: u32 = ClusterOptions::default().probe_misses,
        /// Failures that open a node's circuit breaker.
        breaker_threshold: u32 = ClusterOptions::default().breaker_threshold,
        /// Open-breaker cooldown.
        breaker_open_ms: f64 ["ms"] = ClusterOptions::default().breaker_open_s * 1e3,
        /// First redirect backoff.
        backoff_base_ms: f64 ["ms"] = ClusterOptions::default().backoff_base_s * 1e3,
        /// Redirect backoff cap.
        backoff_cap_ms: f64 ["ms"] = ClusterOptions::default().backoff_cap_s * 1e3,
        /// Workload: request count.
        requests: usize = ClusterWorkloadSpec::default().requests,
        /// Workload: mean arrival rate.
        arrival_hz: f64 ["1/s"] = ClusterWorkloadSpec::default().arrival_hz,
        /// Workload: catalog size, distinct placement keys.
        fields: usize = ClusterWorkloadSpec::default().fields,
        /// Workload: Zipf popularity exponent.
        zipf_s: f64 = ClusterWorkloadSpec::default().zipf_s,
        /// Workload: decompression fraction.
        decompress_fraction: f64 = ClusterWorkloadSpec::default().decompress_fraction,
        /// Workload: per-request deadline; 0 means none.
        deadline_ms: f64 ["ms"] =
            ClusterWorkloadSpec::default().deadline_s.map_or(0.0, |s| s * 1e3),
        /// Workload: priority tiers.
        priorities: u8 = ClusterWorkloadSpec::default().priorities,
        /// Scheduled node faults (`null` reads as none).
        faults: Vec<ClusterFaultSetting> = Vec::new(),
    }
}

impl ClusterSettings {
    /// The cluster shape these settings describe.
    pub fn to_cluster(&self) -> ServeCluster {
        ServeCluster::new(self.nodes, self.replication, self.link.node(self.devices))
    }

    /// Router options including the configured fault schedule.
    pub fn to_cluster_options(&self) -> Result<ClusterOptions> {
        Ok(ClusterOptions {
            serve: ServeOptions {
                queue_depth: self.queue_depth,
                shard_bytes: self.shard_kb as u64 * 1024,
                window_s: self.window_ms * 1e-3,
                seed: self.seed,
                ..ServeOptions::default()
            },
            heartbeat_s: self.heartbeat_ms * 1e-3,
            probe_misses: self.probe_misses,
            breaker_threshold: self.breaker_threshold,
            breaker_open_s: self.breaker_open_ms * 1e-3,
            backoff_base_s: self.backoff_base_ms * 1e-3,
            backoff_cap_s: self.backoff_cap_ms * 1e-3,
            chaos: self.to_chaos_plan()?,
            obs: None,
        })
    }

    /// The configured node-fault schedule (quiet when `faults` is empty).
    pub fn to_chaos_plan(&self) -> Result<NodeChaosPlan> {
        NodeChaosPlan::new(self.faults.iter().map(ClusterFaultSetting::to_event).collect())
            .map_err(|e| Error::Config(format!("cluster faults: {e}")))
    }

    /// The Zipf open-loop workload these settings describe.
    pub fn to_workload_spec(&self) -> ClusterWorkloadSpec {
        ClusterWorkloadSpec {
            requests: self.requests,
            seed: self.seed,
            arrival_hz: self.arrival_hz,
            fields: self.fields,
            zipf_s: self.zipf_s,
            decompress_fraction: self.decompress_fraction,
            deadline_s: (self.deadline_ms > 0.0).then_some(self.deadline_ms * 1e-3),
            priorities: self.priorities,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::Config("cluster.nodes must be >= 1".into()));
        }
        if self.replication == 0 || self.replication > self.nodes {
            return Err(Error::Config(format!(
                "cluster.replication must be in [1, nodes={}], got {}",
                self.nodes, self.replication
            )));
        }
        if self.devices == 0 {
            return Err(Error::Config("cluster.devices must be >= 1".into()));
        }
        if self.queue_depth == 0 || self.shard_kb == 0 || self.fields == 0 {
            return Err(Error::Config(
                "cluster.queue_depth, shard_kb, and fields must be >= 1".into(),
            ));
        }
        if self.probe_misses == 0 || self.breaker_threshold == 0 || self.priorities == 0 {
            return Err(Error::Config(
                "cluster.probe_misses, breaker_threshold, and priorities must be >= 1".into(),
            ));
        }
        for (name, v) in [
            ("window_ms", self.window_ms),
            ("heartbeat_ms", self.heartbeat_ms),
            ("breaker_open_ms", self.breaker_open_ms),
            ("backoff_base_ms", self.backoff_base_ms),
            ("backoff_cap_ms", self.backoff_cap_ms),
            ("arrival_hz", self.arrival_hz),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(Error::Config(format!("cluster.{name} must be positive")));
            }
        }
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(Error::Config(
                "cluster.backoff_cap_ms must be >= backoff_base_ms".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.decompress_fraction) {
            return Err(Error::Config(
                "cluster.decompress_fraction must be in [0, 1]".into(),
            ));
        }
        if !(self.deadline_ms >= 0.0
            && self.deadline_ms.is_finite()
            && self.zipf_s >= 0.0
            && self.zipf_s.is_finite())
        {
            return Err(Error::Config(
                "cluster.deadline_ms and zipf_s must be finite and >= 0".into(),
            ));
        }
        for f in &self.faults {
            if f.node >= self.nodes {
                return Err(Error::Config(format!(
                    "cluster fault targets node {} but the cluster has {}",
                    f.node, self.nodes
                )));
            }
        }
        // Delegate range checks the chaos model enforces itself.
        self.to_chaos_plan()?;
        Ok(())
    }
}

section! {
    /// One declarative service-level objective, from the optional `slo`
    /// array:
    ///
    /// ```json
    /// { "slo": [ { "metric": "cluster.latency.p99", "threshold_ms": 5.0,
    ///              "window": 0.002 } ] }
    /// ```
    ///
    /// `metric` is either `<series>.<stat>` over a histogram series (stat in
    /// `p50|p95|p99|mean|max`, compared in milliseconds) or a bare counter
    /// name (compared as a raw count). `window` is the fast alert window in
    /// sim seconds; `slow_window` and `objective` default as in
    /// [`SloSpec::new`]. See [`SloSpec`] for the burn-rate semantics.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SloSetting {
        /// Metric selector, e.g. `cluster.latency.p99` or `cluster.shed`.
        metric: String,
        /// Per-window bad threshold (ms for latency stats, count otherwise).
        threshold_ms: f64,
        /// Fast burn-rate alert window in sim seconds.
        window_s ("window"): f64 ["s"],
        /// Slow burn-rate alert window in sim seconds.
        slow_window_s ("slow_window"): f64 ["s"] =
            SloSpec::new("", 0.0, window_s).slow_window_s; "4 × window",
        /// Availability objective in (0, 1); the error budget is `1 - objective`.
        objective: f64 = SloSpec::new("", 0.0, 0.0).objective,
    }
}

impl SloSetting {
    /// The evaluator-side spec these settings describe.
    pub fn to_spec(&self) -> SloSpec {
        SloSpec {
            metric: self.metric.clone(),
            threshold_ms: self.threshold_ms,
            window_s: self.window_s,
            slow_window_s: self.slow_window_s,
            objective: self.objective,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.metric.is_empty() {
            return Err(Error::Config("slo.metric must be non-empty".into()));
        }
        for (name, v) in [
            ("threshold_ms", self.threshold_ms),
            ("window", self.window_s),
            ("slow_window", self.slow_window_s),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(Error::Config(format!("slo.{name} must be positive")));
            }
        }
        if self.slow_window_s < self.window_s {
            return Err(Error::Config("slo.slow_window must be >= window".into()));
        }
        if !(self.objective > 0.0 && self.objective < 1.0) {
            return Err(Error::Config("slo.objective must be in (0, 1)".into()));
        }
        Ok(())
    }
}

section! {
    /// Optional archive-packing settings for the pipeline.
    ///
    /// When present, the pipeline adds an `archive` stage after dataset
    /// generation: every generated field is chunked, compressed through the
    /// first codec configuration of the sweep, and sealed into a
    /// `foresight-store` container under the output directory. The archive
    /// then serves chunk-granular `(snapshot, field, region)` reads via
    /// `foresight-cli store` and the store-backed serve path.
    #[derive(Debug, Clone)]
    pub struct StoreSettings: Default {
        /// Archive file name inside the output directory.
        file: String = "snapshot.fstr".into(),
        /// Chunk side length in values along each axis.
        chunk: usize = 16,
        /// Snapshot id recorded for the packed fields.
        snapshot: u32 = 0,
    }
}

impl StoreSettings {
    fn validate(&self) -> Result<()> {
        if self.file.is_empty() {
            return Err(Error::Config("store.file must be non-empty".into()));
        }
        if self.chunk < 4 {
            return Err(Error::Config("store.chunk must be >= 4".into()));
        }
        Ok(())
    }
}

section! {
    /// A full pipeline configuration.
    #[derive(Debug, Clone)]
    pub struct ForesightConfig {
        /// Dataset to generate.
        input: InputConfig,
        /// Compressors and their parameter sweeps.
        compressors: Vec<CompressorSweep>,
        /// Analyses to run.
        analysis: Vec<AnalysisKind>,
        /// Output options.
        output: OutputConfig,
        /// Optional fault-injection settings (absent means a quiet run).
        chaos: Option<ChaosSettings> = None,
        /// Optional device-sanitizer settings (absent means untraced runs).
        sanitize: Option<SanitizeSettings> = None,
        /// Optional serving-scheduler settings for `serve-bench` (absent
        /// means built-in defaults).
        serve: Option<ServeSettings> = None,
        /// Optional multi-node serving settings for `cluster-bench` (absent
        /// means built-in defaults).
        cluster: Option<ClusterSettings> = None,
        /// Optional service-level objectives evaluated over the windowed
        /// telemetry series (absent means no SLO report).
        slo: Option<Vec<SloSetting>> = None,
        /// Optional archive-packing settings (absent means no archive
        /// stage).
        store: Option<StoreSettings> = None,
    }
}

impl ForesightConfig {
    /// Parses and validates a JSON document.
    pub fn from_json(json: &str) -> Result<Self> {
        let cfg = <Self as Key>::parse(&Value::parse(json)?, "")?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serializes back to a compact JSON document that [`Self::from_json`]
    /// accepts.
    pub fn to_json(&self) -> String {
        self.emit().map(|v| v.to_json()).unwrap_or_default()
    }

    /// The configuration reference: a markdown table with one row per key
    /// of every section (type, default, unit, description), rendered from
    /// the section declarations. The README embeds it verbatim.
    pub fn reference() -> String {
        let mut rows = Vec::new();
        <Self as Key>::reference("", &mut rows);
        let mut out = String::from(
            "| Section | Key | Type | Default | Unit | Description |\n|---|---|---|---|---|---|\n",
        );
        for [section, key, ty, default, unit, doc] in rows {
            let section =
                if section.is_empty() { "(top level)".into() } else { format!("`{section}`") };
            let cells = [section, format!("`{key}`"), ty, default, unit, doc];
            out += &format!("| {} |\n", cells.map(|c| c.replace('|', "\\|")).join(" | "));
        }
        out
    }

    /// Reads a config file.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Validates semantic constraints beyond the schema.
    pub fn validate(&self) -> Result<()> {
        if self.input.n_side < 8 || !self.input.n_side.is_power_of_two() {
            return Err(Error::Config(format!(
                "n_side must be a power of two >= 8, got {}",
                self.input.n_side
            )));
        }
        if self.compressors.is_empty() {
            return Err(Error::Config("at least one compressor sweep required".into()));
        }
        for c in &self.compressors {
            match c {
                CompressorSweep::GpuSz { bounds, block_size, .. } => {
                    if bounds.is_empty() || bounds.iter().any(|&b| !(b > 0.0 && b.is_finite())) {
                        return Err(Error::Config("gpu-sz bounds must be positive".into()));
                    }
                    if let Some(bs) = block_size {
                        if *bs < 2 {
                            return Err(Error::Config("gpu-sz block_size must be >= 2".into()));
                        }
                    }
                }
                CompressorSweep::Cuzfp { rates } => {
                    if rates.is_empty()
                        || rates.iter().any(|&r| !(r > 0.0 && r <= 64.0 && r.is_finite()))
                    {
                        return Err(Error::Config("cuzfp rates must be in (0, 64]".into()));
                    }
                }
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
        }
        if let Some(sanitize) = &self.sanitize {
            sanitize.validate()?;
        }
        if let Some(serve) = &self.serve {
            serve.validate()?;
        }
        if let Some(cluster) = &self.cluster {
            cluster.validate()?;
        }
        if let Some(slo) = &self.slo {
            for s in slo {
                s.validate()?;
            }
        }
        if let Some(store) = &self.store {
            store.validate()?;
        }
        Ok(())
    }

    /// Expands all sweeps into concrete codec configurations.
    pub fn codec_configs(&self) -> Vec<CodecConfig> {
        let mut out = Vec::new();
        for c in &self.compressors {
            match c {
                CompressorSweep::GpuSz { mode, bounds, block_size } => {
                    for &b in bounds {
                        let mut cfg = match mode {
                            SzModeKind::Abs => lossy_sz::SzConfig::abs(b),
                            SzModeKind::Rel => lossy_sz::SzConfig::rel(b),
                            SzModeKind::PwRel => lossy_sz::SzConfig::pw_rel(b),
                        };
                        if let Some(bs) = block_size {
                            cfg.block_size = *bs;
                        }
                        out.push(CodecConfig::Sz(cfg));
                    }
                }
                CompressorSweep::Cuzfp { rates } => {
                    for &r in rates {
                        out.push(CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(r)));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "input": { "dataset": "nyx", "n_side": 32, "seed": 42, "steps": 6 },
        "compressors": [
            { "name": "gpu-sz", "mode": "abs", "bounds": [0.1, 0.2] },
            { "name": "cuzfp", "rates": [2, 4] }
        ],
        "analysis": ["distortion", "power-spectrum"],
        "output": { "dir": "out", "cinema": true }
    }"#;

    #[test]
    fn parses_sample() {
        let cfg = ForesightConfig::from_json(SAMPLE).unwrap();
        assert_eq!(cfg.input.dataset, DatasetKind::Nyx);
        assert_eq!(cfg.input.n_side, 32);
        assert_eq!(cfg.analysis.len(), 2);
        assert!(cfg.output.cinema);
        let configs = cfg.codec_configs();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].param_label(), "abs=0.1");
        assert_eq!(configs[3].param_label(), "rate=4");
    }

    #[test]
    fn defaults_applied() {
        let cfg = ForesightConfig::from_json(
            r#"{
            "input": { "dataset": "hacc" },
            "compressors": [ { "name": "cuzfp", "rates": [4] } ],
            "analysis": [],
            "output": { "dir": "o" }
        }"#,
        )
        .unwrap();
        assert_eq!(cfg.input.n_side, 64);
        assert_eq!(cfg.input.box_size, 256.0);
        assert!(!cfg.output.cinema);
    }

    #[test]
    fn invalid_configs_rejected() {
        // Bad n_side.
        let bad = SAMPLE.replace("\"n_side\": 32", "\"n_side\": 33");
        assert!(ForesightConfig::from_json(&bad).is_err());
        // Negative bound.
        let bad = SAMPLE.replace("[0.1, 0.2]", "[-0.1]");
        assert!(ForesightConfig::from_json(&bad).is_err());
        // Rate too high.
        let bad = SAMPLE.replace("\"rates\": [2, 4]", "\"rates\": [100]");
        assert!(ForesightConfig::from_json(&bad).is_err());
        // Syntax error.
        assert!(ForesightConfig::from_json("{ nope").is_err());
        // No compressors.
        let bad = SAMPLE.replace(
            r#"[
            { "name": "gpu-sz", "mode": "abs", "bounds": [0.1, 0.2] },
            { "name": "cuzfp", "rates": [2, 4] }
        ]"#,
            "[]",
        );
        assert!(ForesightConfig::from_json(&bad).is_err());
    }

    #[test]
    fn unknown_enum_names_rejected() {
        let bad = SAMPLE.replace("\"nyx\"", "\"enzo\"");
        assert!(ForesightConfig::from_json(&bad).is_err());
        let bad = SAMPLE.replace("\"abs\"", "\"absolute\"");
        assert!(ForesightConfig::from_json(&bad).is_err());
        let bad = SAMPLE.replace("\"distortion\"", "\"spectrum\"");
        assert!(ForesightConfig::from_json(&bad).is_err());
    }

    #[test]
    fn chaos_section_parses_with_defaults() {
        let json = SAMPLE.replace(
            "\"output\": { \"dir\": \"out\", \"cinema\": true }",
            "\"output\": { \"dir\": \"out\", \"cinema\": true },\n        \
             \"chaos\": { \"seed\": 7, \"transfer\": 0.1, \"node\": 0.2, \"job_retries\": 4 }",
        );
        let cfg = ForesightConfig::from_json(&json).unwrap();
        let chaos = cfg.chaos.as_ref().unwrap();
        assert_eq!(chaos.seed, 7);
        assert_eq!(chaos.transfer, 0.1);
        assert_eq!(chaos.bit_flip, 0.0);
        assert_eq!(chaos.device_retries, 3);
        assert_eq!(chaos.job_retries, 4);
        let cc = chaos.to_chaos_config();
        assert_eq!(cc.seed, 7);
        assert_eq!(cc.rates.node, 0.2);
        // Roundtrip keeps the section.
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg2.chaos.as_ref().unwrap().job_retries, 4);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().chaos.is_none());
    }

    #[test]
    fn sanitize_section_parses_roundtrips_and_validates() {
        let json = SAMPLE.replace(
            "\"output\": { \"dir\": \"out\", \"cinema\": true }",
            "\"output\": { \"dir\": \"out\", \"cinema\": true },\n        \
             \"sanitize\": { \"racecheck\": false }",
        );
        let cfg = ForesightConfig::from_json(&json).unwrap();
        let san = cfg.sanitize.as_ref().unwrap();
        assert!(san.memcheck, "memcheck defaults on");
        assert!(!san.racecheck);
        let sc = san.to_sanitizer_config();
        assert!(sc.memcheck && !sc.racecheck);
        // Roundtrip keeps the section.
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        assert!(!cfg2.sanitize.unwrap().racecheck);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().sanitize.is_none());
        // Enabling neither check is a config error, not a silent no-op.
        let json = json.replace(
            "\"sanitize\": { \"racecheck\": false }",
            "\"sanitize\": { \"memcheck\": false, \"racecheck\": false }",
        );
        assert!(ForesightConfig::from_json(&json).is_err());
    }

    #[test]
    fn chaos_rates_out_of_range_rejected() {
        let json = SAMPLE.replace(
            "\"output\": { \"dir\": \"out\", \"cinema\": true }",
            "\"output\": { \"dir\": \"out\", \"cinema\": true },\n        \
             \"chaos\": { \"transfer\": 1.5 }",
        );
        assert!(ForesightConfig::from_json(&json).is_err());
    }

    #[test]
    fn roundtrips_through_json() {
        let cfg = ForesightConfig::from_json(SAMPLE).unwrap();
        let json = cfg.to_json();
        let cfg2 = ForesightConfig::from_json(&json).unwrap();
        assert_eq!(cfg2.codec_configs().len(), 4);
        assert_eq!(cfg2.input.seed, 42);
        assert_eq!(cfg2.analysis, cfg.analysis);
    }

    fn with_serve(section: &str) -> Result<ForesightConfig> {
        ForesightConfig::from_json(&format!(
            r#"{{
            "input": {{ "dataset": "nyx", "n_side": 16 }},
            "compressors": [ {{ "name": "cuzfp", "rates": [4] }} ],
            "analysis": [],
            "output": {{ "dir": "o" }},
            "serve": {section}
        }}"#
        ))
    }

    #[test]
    fn serve_section_parses_with_defaults() {
        let cfg = with_serve("{}").unwrap();
        let s = cfg.serve.expect("serve section present");
        assert_eq!(s.devices, 6);
        assert_eq!(s.link, "nvlink");
        assert_eq!(s.max_batch, 8);
        assert_eq!(s.queue_depth, 64);
        assert_eq!(s.shard_kb, 256);
        assert_eq!(s.requests, 48);
        assert!(s.to_workload_spec().deadline_s.is_none());
        let node = s.to_node();
        assert_eq!(node.devices, 6);
        // nvlink is the Summit-like default link.
        assert!(node.link.bandwidth_gbs > 50.0);
        // Absent section stays absent.
        let plain = ForesightConfig::from_json(SAMPLE).unwrap();
        assert!(plain.serve.is_none());
    }

    #[test]
    fn serve_section_roundtrips_and_maps_to_options() {
        let cfg = with_serve(
            r#"{ "devices": 4, "link": "pcie", "max_batch": 16, "queue_depth": 32,
                 "shard_kb": 128, "window_ms": 0.5, "seed": 9, "requests": 12,
                 "arrival_hz": 1000, "deadline_ms": 2.5, "decompress_fraction": 0.5 }"#,
        )
        .unwrap();
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        let s = cfg2.serve.unwrap();
        assert_eq!(s.devices, 4);
        assert_eq!(s.link, "pcie");
        let opts = s.to_serve_options(FaultRates::default());
        assert_eq!(opts.max_batch, 16);
        assert_eq!(opts.queue_depth, 32);
        assert_eq!(opts.shard_bytes, 128 * 1024);
        assert!((opts.window_s - 5e-4).abs() < 1e-12);
        assert_eq!(opts.seed, 9);
        let w = s.to_workload_spec();
        assert_eq!(w.requests, 12);
        assert!((w.deadline_s.unwrap() - 2.5e-3).abs() < 1e-12);
        assert!((w.decompress_fraction - 0.5).abs() < 1e-12);
    }

    fn with_cluster(section: &str) -> Result<ForesightConfig> {
        ForesightConfig::from_json(&format!(
            r#"{{
            "input": {{ "dataset": "nyx", "n_side": 16 }},
            "compressors": [ {{ "name": "cuzfp", "rates": [4] }} ],
            "analysis": [],
            "output": {{ "dir": "o" }},
            "cluster": {section}
        }}"#
        ))
    }

    #[test]
    fn cluster_section_parses_with_defaults() {
        let cfg = with_cluster("{}").unwrap();
        let c = cfg.cluster.expect("cluster section present");
        assert_eq!(c.nodes, 4);
        assert_eq!(c.replication, 2);
        assert_eq!(c.devices, 2);
        assert_eq!(c.priorities, 3);
        assert!(c.faults.is_empty());
        let spec = c.to_cluster();
        assert_eq!(spec.nodes, 4);
        assert_eq!(spec.node.devices, 2);
        let opts = c.to_cluster_options().unwrap();
        assert!((opts.heartbeat_s - 2e-3).abs() < 1e-12);
        assert!(opts.chaos.is_quiet());
        let w = c.to_workload_spec();
        assert_eq!(w.fields, 12);
        assert!((w.zipf_s - 1.1).abs() < 1e-12);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().cluster.is_none());
    }

    #[test]
    fn cluster_section_roundtrips_with_fault_schedule() {
        let cfg = with_cluster(
            r#"{ "nodes": 3, "replication": 2, "devices": 1, "link": "pcie",
                 "heartbeat_ms": 1.0, "breaker_open_ms": 10, "seed": 11,
                 "faults": [
                   { "kind": "crash", "node": 1, "at_ms": 0.8 },
                   { "kind": "slow", "node": 0, "at_ms": 0.2, "duration_ms": 2.0, "factor": 4.0 },
                   { "kind": "partition", "node": 2, "at_ms": 0.5, "duration_ms": 1.5 }
                 ] }"#,
        )
        .unwrap();
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        let c = cfg2.cluster.unwrap();
        assert_eq!(c.nodes, 3);
        assert_eq!(c.faults.len(), 3);
        let plan = c.to_chaos_plan().unwrap();
        assert!(!plan.is_quiet());
        assert!(!plan.reachable(1, 1.0), "crash at 0.8ms is permanent");
        assert!((plan.slow_factor(0, 1e-3) - 4.0).abs() < 1e-12);
        assert!(plan.reachable(2, 2.1e-3), "partition recovered");
        let opts = c.to_cluster_options().unwrap();
        assert!((opts.breaker_open_s - 1e-2).abs() < 1e-12);
        assert_eq!(opts.serve.seed, 11);
    }

    #[test]
    fn cluster_section_rejects_bad_values() {
        assert!(with_cluster(r#"{ "nodes": 0 }"#).is_err());
        assert!(with_cluster(r#"{ "replication": 5 }"#).is_err(), "R > nodes");
        assert!(with_cluster(r#"{ "link": "ethernet" }"#).is_err());
        assert!(with_cluster(r#"{ "heartbeat_ms": 0 }"#).is_err());
        assert!(with_cluster(r#"{ "backoff_base_ms": 9, "backoff_cap_ms": 1 }"#).is_err());
        assert!(with_cluster(r#"{ "priorities": 0 }"#).is_err());
        assert!(
            with_cluster(r#"{ "faults": [ { "kind": "meteor", "node": 0 } ] }"#).is_err(),
            "unknown fault kind"
        );
        assert!(
            with_cluster(r#"{ "faults": [ { "kind": "crash", "node": 9 } ] }"#).is_err(),
            "fault on a node outside the cluster"
        );
        assert!(
            with_cluster(r#"{ "faults": [ { "kind": "slow", "node": 0, "factor": 0.5 } ] }"#)
                .is_err(),
            "slow factor below 1"
        );
    }

    fn with_slo(section: &str) -> Result<ForesightConfig> {
        ForesightConfig::from_json(&format!(
            r#"{{
            "input": {{ "dataset": "nyx", "n_side": 16 }},
            "compressors": [ {{ "name": "cuzfp", "rates": [4] }} ],
            "analysis": [],
            "output": {{ "dir": "o" }},
            "slo": {section}
        }}"#
        ))
    }

    #[test]
    fn slo_section_parses_defaults_and_roundtrips() {
        let cfg = with_slo(
            r#"[ { "metric": "cluster.latency.p99", "threshold_ms": 5.0, "window": 0.002 },
                 { "metric": "cluster.shed", "threshold_ms": 1, "window": 0.004,
                   "slow_window": 0.02, "objective": 0.999 } ]"#,
        )
        .unwrap();
        let slo = cfg.slo.as_ref().expect("slo section present");
        assert_eq!(slo.len(), 2);
        assert_eq!(slo[0].metric, "cluster.latency.p99");
        assert!((slo[0].slow_window_s - 0.008).abs() < 1e-12, "slow defaults to 4x");
        assert!((slo[0].objective - 0.99).abs() < 1e-12);
        assert!((slo[1].slow_window_s - 0.02).abs() < 1e-12);
        let spec = slo[1].to_spec();
        assert_eq!(spec.metric, "cluster.shed");
        assert!((spec.objective - 0.999).abs() < 1e-12);
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg2.slo.as_ref().unwrap(), slo);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().slo.is_none());
    }

    #[test]
    fn slo_section_rejects_bad_values() {
        assert!(with_slo(r#"{ "metric": "x" }"#).is_err(), "must be an array");
        assert!(with_slo(r#"[ { "threshold_ms": 1, "window": 0.1 } ]"#).is_err(), "no metric");
        assert!(
            with_slo(r#"[ { "metric": "m", "threshold_ms": 0, "window": 0.1 } ]"#).is_err(),
            "zero threshold"
        );
        assert!(
            with_slo(r#"[ { "metric": "m", "threshold_ms": 1, "window": 0 } ]"#).is_err(),
            "zero window"
        );
        assert!(
            with_slo(
                r#"[ { "metric": "m", "threshold_ms": 1, "window": 0.1, "slow_window": 0.01 } ]"#
            )
            .is_err(),
            "slow window shorter than fast"
        );
        assert!(
            with_slo(r#"[ { "metric": "m", "threshold_ms": 1, "window": 0.1, "objective": 1.0 } ]"#)
                .is_err(),
            "objective must be < 1"
        );
    }

    #[test]
    fn serve_section_rejects_bad_values() {
        assert!(with_serve(r#"{ "devices": 0 }"#).is_err());
        assert!(with_serve(r#"{ "link": "infiniband" }"#).is_err());
        assert!(with_serve(r#"{ "window_ms": 0 }"#).is_err());
        assert!(with_serve(r#"{ "decompress_fraction": 1.5 }"#).is_err());
        assert!(with_serve(r#"{ "queue_depth": 0 }"#).is_err());
        assert!(with_serve(r#"[1]"#).is_err());
    }
}
