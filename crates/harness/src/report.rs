//! Cell results and their on-disk cache encoding.
//!
//! A [`CellReport`] carries the workload's output digest (the bit-equality
//! currency of the whole repo) and the full [`Counters`] snapshot — every
//! statistic any figure or table derives from. The cache encoding is a flat
//! `key value` text format, versioned with
//! [`SCHEMA_VERSION`] and closed by an `end`
//! trailer so truncated or corrupt files parse to `None` (a cache miss)
//! instead of a wrong result.

use crate::cache::cache_records;
use crate::digest::SCHEMA_VERSION;
use ctbia_machine::Counters;
use std::collections::HashMap;

/// Every `u64` counter field, by cache-file key and `Counters` field path.
/// One list drives both the serializer and the parser so they can never
/// disagree on coverage.
macro_rules! with_counter_fields {
    ($m:ident) => {
        $m!("cycles", cycles);
        $m!("insts", insts);
        $m!("ct_loads", ct_loads);
        $m!("ct_stores", ct_stores);
        $m!("phase.compute", phases.compute);
        $m!("phase.demand_access", phases.demand_access);
        $m!("phase.linearize_sweep", phases.linearize_sweep);
        $m!("phase.bia_maintenance", phases.bia_maintenance);
        $m!("phase.dram_stall", phases.dram_stall);
        $m!("phase.degraded", phases.degraded);
        $m!("phase.speculative", phases.speculative);
        $m!("linearize.passes", linearize.passes);
        $m!("linearize.lines_skipped", linearize.lines_skipped);
        $m!("linearize.lines_fetched", linearize.lines_fetched);
        $m!("l1i.reads", hier.l1i.reads);
        $m!("l1i.writes", hier.l1i.writes);
        $m!("l1i.hits", hier.l1i.hits);
        $m!("l1i.misses", hier.l1i.misses);
        $m!("l1i.fills", hier.l1i.fills);
        $m!("l1i.evictions", hier.l1i.evictions);
        $m!("l1i.writebacks", hier.l1i.writebacks);
        $m!("l1i.invalidations", hier.l1i.invalidations);
        $m!("l1i.probes", hier.l1i.probes);
        $m!("l1d.reads", hier.l1d.reads);
        $m!("l1d.writes", hier.l1d.writes);
        $m!("l1d.hits", hier.l1d.hits);
        $m!("l1d.misses", hier.l1d.misses);
        $m!("l1d.fills", hier.l1d.fills);
        $m!("l1d.evictions", hier.l1d.evictions);
        $m!("l1d.writebacks", hier.l1d.writebacks);
        $m!("l1d.invalidations", hier.l1d.invalidations);
        $m!("l1d.probes", hier.l1d.probes);
        $m!("l2.reads", hier.l2.reads);
        $m!("l2.writes", hier.l2.writes);
        $m!("l2.hits", hier.l2.hits);
        $m!("l2.misses", hier.l2.misses);
        $m!("l2.fills", hier.l2.fills);
        $m!("l2.evictions", hier.l2.evictions);
        $m!("l2.writebacks", hier.l2.writebacks);
        $m!("l2.invalidations", hier.l2.invalidations);
        $m!("l2.probes", hier.l2.probes);
        $m!("llc.reads", hier.llc.reads);
        $m!("llc.writes", hier.llc.writes);
        $m!("llc.hits", hier.llc.hits);
        $m!("llc.misses", hier.llc.misses);
        $m!("llc.fills", hier.llc.fills);
        $m!("llc.evictions", hier.llc.evictions);
        $m!("llc.writebacks", hier.llc.writebacks);
        $m!("llc.invalidations", hier.llc.invalidations);
        $m!("llc.probes", hier.llc.probes);
        $m!("dram.reads", hier.dram.reads);
        $m!("dram.writes", hier.dram.writes);
        $m!("dram.row_hits", hier.dram.row_hits);
        $m!("dram.row_misses", hier.dram.row_misses);
        $m!("prefetch_fills", hier.prefetch_fills);
        $m!("bia.accesses", bia.accesses);
        $m!("bia.hits", bia.hits);
        $m!("bia.installs", bia.installs);
        $m!("bia.evictions", bia.evictions);
        $m!("bia.events_applied", bia.events_applied);
        $m!("bia.events_ignored", bia.events_ignored);
        $m!("robust.audit_batches", robust.audit_batches);
        $m!("robust.audit_violations", robust.audit_violations);
        $m!("robust.inline_desyncs", robust.inline_desyncs);
        $m!("robust.downgrades", robust.downgrades);
        $m!("robust.degraded_ct_ops", robust.degraded_ct_ops);
        $m!("robust.resyncs", robust.resyncs);
        $m!("robust.faults_injected", robust.faults_injected);
        $m!("taint.marked_bytes", taint.marked_bytes);
        $m!("taint.leak_violations", taint.leak_violations);
        $m!("spec.branches", spec.branches);
        $m!("spec.mispredicts", spec.mispredicts);
        $m!("spec.squashes", spec.squashes);
        $m!("spec.wrong_path_accesses", spec.wrong_path_accesses);
        $m!("spec.wrong_path_fills", spec.wrong_path_fills);
    };
}

/// Every counter as a `(dotted key, value)` pair, in the canonical cache
/// order. The same macro drives the cache text format and `--metrics`
/// documents, so the two encodings can never disagree on field coverage.
pub fn counter_fields(c: &Counters) -> Vec<(&'static str, u64)> {
    let mut out = Vec::with_capacity(80);
    macro_rules! push {
        ($key:expr, $($f:ident).+) => {
            out.push(($key, c.$($f).+));
        };
    }
    with_counter_fields!(push);
    out
}

/// The result of one executed (or cached) experiment cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// The cell label at execution time (`hist_2k/BIA@L1d`, ...).
    pub label: String,
    /// FNV-1a digest of the workload's architectural output.
    pub digest: u64,
    /// Full counter snapshot of the measured kernel region.
    pub counters: Counters,
}

impl CellReport {
    /// Encodes the report in the versioned cache text format.
    pub fn to_cache_text(&self) -> String {
        let c = &self.counters;
        let mut out = String::with_capacity(1600);
        out.push_str(SCHEMA_VERSION);
        out.push('\n');
        out.push_str("label ");
        out.push_str(&self.label);
        out.push('\n');
        out.push_str(&format!("digest {}\n", self.digest));
        macro_rules! emit {
            ($key:expr, $($f:ident).+) => {
                out.push_str(concat!($key, " "));
                out.push_str(&c.$($f).+.to_string());
                out.push('\n');
            };
        }
        with_counter_fields!(emit);
        out.push_str("end\n");
        out
    }

    /// Decodes a report from the cache text format. Any anomaly — wrong
    /// version, missing field, unparsable value, missing `end` trailer —
    /// returns `None`, which callers treat as a cache miss.
    pub fn from_cache_text(text: &str) -> Option<CellReport> {
        let mut label = None;
        let mut digest = None;
        let mut fields: HashMap<&str, u64> = HashMap::new();
        for (key, value) in cache_records(text, SCHEMA_VERSION)? {
            match key {
                "label" => label = Some(value.to_string()),
                "digest" => digest = Some(value.parse().ok()?),
                _ => {
                    fields.insert(key, value.parse().ok()?);
                }
            }
        }
        let mut c = Counters::default();
        macro_rules! take {
            ($key:expr, $($f:ident).+) => {
                c.$($f).+ = *fields.get($key)?;
            };
        }
        with_counter_fields!(take);
        Some(CellReport {
            label: label?,
            digest: digest?,
            counters: c,
        })
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn sample() -> CellReport {
        let mut c = Counters::default();
        c.cycles = 123_456;
        c.insts = 999;
        c.phases.compute = 100_000;
        c.phases.dram_stall = 23_456;
        c.linearize.passes = 4;
        c.linearize.lines_skipped = 120;
        c.hier.l1d.reads = 42;
        c.hier.dram.row_misses = 7;
        c.bia.events_applied = 11;
        c.robust.resyncs = 3;
        c.taint.leak_violations = 2;
        c.phases.speculative = 640;
        c.spec.mispredicts = 5;
        c.spec.wrong_path_fills = 9;
        CellReport {
            label: "hist_2k/BIA@L1d".into(),
            digest: 0xdead_beef_cafe_f00d,
            counters: c,
        }
    }

    #[test]
    fn cache_text_round_trips() {
        let r = sample();
        let text = r.to_cache_text();
        assert_eq!(CellReport::from_cache_text(&text), Some(r));
    }

    #[test]
    fn truncation_and_corruption_miss() {
        let text = sample().to_cache_text();
        let truncated = &text[..text.len() - 10];
        assert_eq!(CellReport::from_cache_text(truncated), None);
        let wrong_version = text.replacen("v3", "v0", 1);
        assert_eq!(CellReport::from_cache_text(&wrong_version), None);
        let missing_field = text.replacen("cycles", "cyclops", 1);
        assert_eq!(CellReport::from_cache_text(&missing_field), None);
        let garbage_value = text.replacen("999", "99x", 1);
        assert_eq!(CellReport::from_cache_text(&garbage_value), None);
        assert_eq!(CellReport::from_cache_text(""), None);
    }
}
