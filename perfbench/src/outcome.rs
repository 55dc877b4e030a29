//! What one benchmark run produces: checked outputs, metrics, and the
//! load-shape record, plus their encodings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Run-wide parameters every workload receives.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Cap on client threads, engine workers and connections.
    pub nproc: usize,
    /// How many times set-up is repeated (the median is reported).
    pub setup_reps: usize,
    /// Scratch directory inside the checkout for caches and sockets.
    pub scratch: std::path::PathBuf,
}

/// Checked-output bookkeeping plus the numbers a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check or regime witness.
    pub problems: Vec<String>,
    /// Metrics by name: (value, unit). The first value set for a name wins.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Load-shape record: key → JSON value text. The first value set for
    /// a key wins, so a traced run's probes never overwrite the workload's.
    pub record: BTreeMap<String, String>,
}

impl Outcome {
    /// Counts one checked output; records `problem` when the check failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// A regime witness: not an output, but a failed witness fails the run.
    pub fn witness(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(format!("regime witness: {}", problem()));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .entry(name.to_string())
            .or_insert((value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    pub fn record(&mut self, key: &str, json_value: impl Into<String>) {
        self.record
            .entry(key.to_string())
            .or_insert_with(|| json_value.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// `names` metrics.
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(*name).map_or(0.0, |m| m.0);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        out.push_str("}}");
        out
    }

    /// The metrics file: every metric, the record, and the problems.
    pub fn doc_json(&self, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "{{\"schema\":\"perfbench-metrics-v1\",\"workload\":\"{workload}\",\"trace\":{trace},\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},\"record\":{{",
            self.correct(),
            self.attempted,
            self.failed,
            num(self.failed_frac())
        );
        for (i, (k, v)) in self.record.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"metrics\":{");
        for (i, (k, (v, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v));
        }
        out.push_str("},\"problems\":[");
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(p));
        }
        out.push_str("]}\n");
        out
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (a percentile over failed requests) become 1e308.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The record value for a percentile: its value with its sample count.
pub fn pct_record(value: f64, samples: usize) -> String {
    format!("{{\"value\":{},\"samples\":{samples}}}", num(value))
}

/// CPU seconds this process has used so far, over all its threads,
/// including those that have exited (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The gated metrics start from CPU time rather than wall time (and then
/// convert it to reference seconds, see [`crate::calib`]). On a shared VM,
/// while another process or the hypervisor holds a vCPU, the program waits
/// but does no less work per cell. The kernel charges a thread only for
/// the time it runs, and with paravirtual steal accounting not for stolen
/// time, so CPU time counts the work the program does, including the CPU
/// its engines spend coordinating workers. Idle waits are not in it; the
/// traced run reports those as `*.engine_overhead_frac`.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Reads one of the kernel's CPU-time clocks, in seconds.
pub fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) through the pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident memory of this process so far in MB (`VmHWM`), 0 if
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_exactly_the_named_metrics() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metric("a", 1.5, "s");
        o.metric("a", 9.0, "s");
        o.metric("b", 2.0, "ms");
        let line = o.result_json(&[("a", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        o.check(false, || "bad \"x\"".into());
        assert!(!o.correct());
        assert!(o.doc_json("w", false).contains("bad \\\"x\\\""));
    }
}
