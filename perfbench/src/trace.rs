//! Span accounting for the traced run.
//!
//! The program already records `spq_obs` spans; the benchmark switches them
//! on, adds its own spans around the calls it times (`query`,
//! `bench.compile`, `bench.prepare`, `bench.search`), exports the buffered
//! events as chrome-tracing JSON and folds them into per-name totals. A
//! span's *self* time is its duration minus the part covered by its direct
//! children (spans of the same thread that lie inside it).

use spq_service::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// Per-name totals of one trace.
#[derive(Debug, Default)]
pub struct SpanProfile {
    /// Totals keyed by span name.
    pub by_name: BTreeMap<String, SpanTotals>,
}

impl SpanProfile {
    /// Totals of `name` (zero when no such span was recorded).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Fold `(tid, name, start_ns, dur_ns)` events into totals.
    pub fn from_events(mut events: Vec<(u64, String, u64, u64)>) -> SpanProfile {
        // Per thread, by start; an enclosing span sorts before its children.
        events.sort_by(|a, b| {
            (a.0, a.2, std::cmp::Reverse(a.3)).cmp(&(b.0, b.2, std::cmp::Reverse(b.3)))
        });
        let mut covered = vec![0u64; events.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..events.len() {
            let (tid, _, start, dur) = &events[i];
            let end = start + dur;
            while let Some(&top) = stack.last() {
                let (ttid, _, tstart, tdur) = &events[top];
                if ttid != tid || tstart + tdur <= *start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                if end <= events[top].2 + events[top].3 {
                    covered[top] += dur;
                }
            }
            stack.push(i);
        }
        let mut profile = SpanProfile::default();
        for (i, (_, name, _, dur)) in events.iter().enumerate() {
            let totals = profile.by_name.entry(name.clone()).or_default();
            totals.count += 1;
            totals.total_s += *dur as f64 * 1e-9;
            totals.self_s += dur.saturating_sub(covered[i]) as f64 * 1e-9;
        }
        profile
    }

    /// Export every buffered span to `path` and fold it.
    pub fn export(path: &Path) -> Result<SpanProfile, String> {
        spq_obs::trace::export_to(path).map_err(|e| format!("trace export: {e}"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("trace read: {e}"))?;
        let ns = |v: Option<&Json>| -> Option<u64> {
            v.and_then(Json::as_f64)
                .map(|us| (us * 1000.0).round() as u64)
        };
        let mut events = Vec::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with("{\"name\"") {
                continue;
            }
            let event = parse(line).map_err(|e| format!("trace line `{line}`: {e}"))?;
            let (Some(name), Some(start), Some(dur), Some(tid)) = (
                event.str_field("name"),
                ns(event.get("ts")),
                ns(event.get("dur")),
                event.u64_field("tid"),
            ) else {
                return Err(format!("malformed trace event `{line}`"));
            };
            events.push((tid, name.to_string(), start, dur));
        }
        Ok(SpanProfile::from_events(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let ev = |tid: u64, name: &str, start: u64, dur: u64| (tid, name.to_string(), start, dur);
        let profile = SpanProfile::from_events(vec![
            ev(1, "query", 0, 100),
            ev(1, "solve", 10, 80),
            ev(1, "milp", 20, 30),
            ev(1, "milp", 60, 10),
            ev(1, "inner", 25, 5),
            // Another thread's span overlapping in time is not a child.
            ev(2, "validate", 0, 50),
        ]);
        let q = profile.get("query");
        assert_eq!(q.count, 1);
        assert!((q.self_s - 20e-9).abs() < 1e-15);
        assert!((profile.get("solve").self_s - 40e-9).abs() < 1e-15);
        assert!((profile.get("milp").self_s - 35e-9).abs() < 1e-15);
        assert_eq!(profile.get("milp").count, 2);
        assert!((profile.get("validate").self_s - 50e-9).abs() < 1e-15);
        assert_eq!(profile.get("absent"), SpanTotals::default());
    }
}
