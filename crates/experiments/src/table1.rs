//! Table 1: the baseline processor configuration, plus the proposed LTP
//! design derived from it.

use crate::report::Report;
use ltp_pipeline::PipelineConfig;

/// Renders Table 1 (baseline configuration) and the proposed LTP variant.
#[must_use]
pub fn run() -> Report {
    let base = PipelineConfig::micro2015_baseline();
    let ltp = PipelineConfig::ltp_proposed();
    let fmt = |v: usize| {
        if v == usize::MAX {
            "inf".to_string()
        } else {
            v.to_string()
        }
    };
    // One row per parameter: its label and its value on either machine.
    let row = |label: &str, value: &dyn Fn(&PipelineConfig) -> String| {
        vec![label.to_string(), value(&base), value(&ltp)]
    };
    let rows = vec![
        row("Width F/D/R | I | C", &|c| {
            format!("{} | {} | {}", c.front_width, c.issue_width, c.commit_width)
        }),
        row("ROB", &|c| fmt(c.rob_size)),
        row("IQ", &|c| fmt(c.iq_size)),
        row("LQ", &|c| fmt(c.lq_size)),
        row("SQ", &|c| fmt(c.sq_size)),
        row("Int/FP registers (available)", &|c| {
            format!("{}/{}", fmt(c.int_regs), fmt(c.fp_regs))
        }),
        vec![
            "LTP".into(),
            "none".into(),
            format!(
                "{} entries, {} ports, UIT {}",
                fmt(ltp.ltp.entries),
                fmt(ltp.ltp.ports),
                fmt(ltp.ltp.uit_entries)
            ),
        ],
        row("L1D", &|c| {
            format!("{} kB, {}c", c.mem.l1d.size_bytes / 1024, c.mem.l1d.latency)
        }),
        row("L2 (+ stride prefetcher deg 4)", &|c| {
            format!("{} kB, {}c", c.mem.l2.size_bytes / 1024, c.mem.l2.latency)
        }),
        row("L3", &|c| {
            format!(
                "{} MB, {}c",
                c.mem.l3.size_bytes / (1024 * 1024),
                c.mem.l3.latency
            )
        }),
        row("DRAM (row hit / miss, cycles)", &|c| {
            format!(
                "{} / {}",
                c.mem.dram.row_hit_latency, c.mem.dram.row_miss_latency
            )
        }),
        row("MSHRs", &|c| fmt(c.mem.mshrs)),
    ];

    let mut report = Report::new("table1");
    report.push_text("Table 1: processor configuration (baseline and proposed LTP design)\n");
    report.push_table(&["parameter", "baseline", "LTP design"], rows);
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_mentions_key_sizes() {
        let s = super::run().render_text();
        assert!(s.contains("ROB"));
        assert!(s.contains("256"));
        assert!(s.contains("128 entries"));
    }
}
