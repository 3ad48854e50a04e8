//! Busy and self time per span name from the global collector's spans.
//!
//! A span's self time is its duration minus the part of its interval
//! that its direct children cover. Children that ran in parallel on
//! several threads overlap, so coverage is the union of their intervals,
//! clipped to the parent.

use foresight_util::telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// Totals per span name, accumulated over any number of snapshots.
#[derive(Debug, Default)]
pub struct SpanTotals {
    busy_us: BTreeMap<String, f64>,
    self_us: BTreeMap<String, f64>,
    calls: BTreeMap<String, u64>,
}

impl SpanTotals {
    /// Adds one snapshot's finished spans.
    pub fn add(&mut self, spans: &[SpanRecord]) {
        let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.wall_start_us, s.wall_start_us + s.wall_dur_us));
            }
        }
        for s in spans {
            let (lo, hi) = (s.wall_start_us, s.wall_start_us + s.wall_dur_us);
            let covered = children.get(&s.id).map_or(0.0, |c| union_within(c, lo, hi));
            *self.busy_us.entry(s.name.clone()).or_default() += s.wall_dur_us;
            *self.self_us.entry(s.name.clone()).or_default() += (s.wall_dur_us - covered).max(0.0);
            *self.calls.entry(s.name.clone()).or_default() += 1;
        }
    }

    /// Total seconds inside spans named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.busy_us.get(name).copied().unwrap_or(0.0) * 1e-6
    }

    /// Total self seconds of spans named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0.0) * 1e-6
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            attrs: Vec::new(),
            wall_start_us: start,
            wall_dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        let spans = [
            span(1, 0, "root", 0.0, 100.0),
            span(2, 1, "kid", 10.0, 50.0),
            span(3, 1, "kid", 20.0, 50.0), // overlaps the first kid
            span(4, 2, "grandkid", 10.0, 5.0),
        ];
        let mut t = SpanTotals::default();
        t.add(&spans);
        assert!((t.self_time("root") - 40e-6).abs() < 1e-12);
        assert!((t.busy("kid") - 100e-6).abs() < 1e-12);
        assert!((t.self_time("kid") - 95e-6).abs() < 1e-12);
        assert_eq!(t.calls("kid"), 2);
        assert_eq!(t.busy("missing"), 0.0);
    }
}
