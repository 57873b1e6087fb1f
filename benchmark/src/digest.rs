//! Report digests: the simulated outcome of a trial reduced to its exact
//! counts, so two runs that must agree (pass vs pass, traced vs untraced,
//! one thread vs two) compare with `==`.

use hcsim_service::ServiceStats;
use hcsim_sim::SimReport;
use std::fmt::Write as _;

/// Canonical one-line rendering of everything a trial's report counts:
/// outcome counts, mapping events, end time, churn and cold-start tallies,
/// and the service driver's accounting when there is one.
pub fn trial_digest(report: &SimReport, service: Option<&ServiceStats>) -> String {
    let o = &report.metrics.outcomes;
    let c = &report.churn;
    let mut s = format!(
        "records={} on_time={} late={} approx={} expired_unstarted={} expired_executing={} \
         pruned={} unfinished={} shed={} mapping_events={} end_time={} joins={} drains={} \
         fails={} requeued={} dropped_after_retry={} epochs={} cold_starts={} warm_hits={}",
        report.records.len(),
        o.on_time,
        o.late,
        o.approx,
        o.expired_unstarted,
        o.expired_executing,
        o.pruned,
        o.unfinished,
        o.shed,
        report.mapping_events,
        report.end_time,
        c.joins,
        c.drains,
        c.fails,
        c.requeued,
        c.dropped_after_retry,
        report.epochs.len(),
        report.faas.cold_starts,
        report.faas.warm_hits,
    );
    if let Some(st) = service {
        write!(
            s,
            " admitted={} service_shed={} duplicates_dropped={} checkpoints={} restores={}",
            st.admitted, st.shed, st.duplicates_dropped, st.checkpoints, st.restores
        )
        .expect("writing to a String cannot fail");
    }
    s
}

/// Per-trial structural check: one record per task, and the outcome
/// counts account for every record.
pub fn records_consistent(report: &SimReport, tasks: usize) -> bool {
    report.records.len() == tasks
        && report.metrics.counted == tasks
        && report.metrics.outcomes.total() == tasks
}

/// 64-bit FNV-1a over the per-trial digests in trial order: the workload
/// digest pinned in `golden.json`.
pub fn workload_digest<'a>(trials: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in trials {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_digest_is_stable_and_order_sensitive() {
        // Pinned: a change here silently invalidates every golden.
        assert_eq!(workload_digest(std::iter::empty()), "cbf29ce484222325");
        assert_eq!(workload_digest(["a"]), "089bdc07b544e7b2");
        let ab = workload_digest(["records=1", "records=2"]);
        let ba = workload_digest(["records=2", "records=1"]);
        assert_ne!(ab, ba);
        assert_eq!(ab, workload_digest(["records=1", "records=2"]));
        // Trial boundaries matter: ["ab"] != ["a", "b"].
        assert_ne!(workload_digest(["ab"]), workload_digest(["a", "b"]));
    }
}
