//! The score-table mapping loop PAM, PAMF and MOC share: per event, the
//! batch window is scored against every machine once (reusing the
//! previous event's table where it still holds), then pairs are
//! committed one at a time, each refreshing only the assigned machine's
//! column. The mappers differ only in the policy that picks the pair.

use crate::scorer::{ProbScorer, ScoreTable};
use hcsim_model::{MachineId, TaskTypeId};
use hcsim_sim::MapContext;

/// A mapper's [`ProbScorer`] and (window × machine) [`ScoreTable`], and
/// the per-event loop over them.
#[derive(Debug)]
pub(crate) struct TableLoop {
    /// Built against the system spec at the first mapping event.
    pub(crate) scorer: Option<ProbScorer>,
    table: ScoreTable,
    impulse_budget: usize,
    batch_window: usize,
    threads: usize,
}

impl TableLoop {
    pub(crate) fn new(impulse_budget: usize, batch_window: usize, threads: usize) -> Self {
        Self { scorer: None, table: ScoreTable::new(), impulse_budget, batch_window, threads }
    }

    /// Anchors the scorer (built at the first call) to this event: its
    /// clock, the cluster's membership — a change re-gates the worker
    /// pool on the live machine count and releases the chains of departed
    /// machines — and the fan-out width. Each is one compare while
    /// nothing moved. Returns the scorer for passes ahead of the mapping
    /// loop (PAM's pruner).
    pub(crate) fn start_event(&mut self, ctx: &MapContext<'_>) -> &mut ProbScorer {
        let scorer = self.scorer.get_or_insert_with(|| {
            ProbScorer::for_spec(ctx.spec(), ctx.drop_policy(), self.impulse_budget)
        });
        scorer.begin_event(ctx.now());
        scorer.sync_membership(ctx.membership_epoch(), ctx.machines());
        scorer.set_parallelism(self.threads);
        scorer
    }

    /// Maps until no machine has a free slot, the batch is empty, or
    /// `choose` — handed the table, the scorer, the context and the
    /// window length — finds no (window row, machine) pair to commit. The
    /// table is revalidated once (see [`ScoreTable::ensure`]); after each
    /// assignment it drops the row, admits the batch task that slid into
    /// the window and rescores only the assigned machine's column. Rows
    /// the bound pass proves below `skip_below` stay unscored, so it must
    /// be the threshold under which `choose` rejects a row anyway. Every
    /// score `choose` reads is bit-identical to per-pair rescoring.
    /// Returns whether the table was reused rather than rebuilt.
    pub(crate) fn map<C>(
        &mut self,
        ctx: &mut MapContext<'_>,
        skip_below: &dyn Fn(TaskTypeId) -> f64,
        mut choose: C,
    ) -> bool
    where
        C: FnMut(
            &ScoreTable,
            &mut ProbScorer,
            &MapContext<'_>,
            usize,
        ) -> Option<(usize, MachineId)>,
    {
        let scorer = self.scorer.as_mut().expect("start_event builds the scorer");
        let window = |ctx: &MapContext<'_>| self.batch_window.min(ctx.batch().len());
        // Revalidated inside the loop, at its first pass: `total_free_slots`
        // walks every machine, so it is asked once per commit, not twice.
        let mut reused = None;
        while ctx.total_free_slots() > 0 && window(ctx) > 0 {
            if reused.is_none() {
                let rows = &ctx.batch()[..window(ctx)];
                reused = Some(self.table.ensure(scorer, ctx.machines(), rows, skip_below));
            }
            debug_assert_eq!(self.table.rows(), window(ctx), "table drifted from batch window");
            let Some((row, machine)) = choose(&self.table, scorer, ctx, window(ctx)) else { break };
            ctx.assign(ctx.batch()[row].id, machine).expect("machine had a free slot");
            let rows = &ctx.batch()[..window(ctx)];
            self.table.apply_assignment(
                scorer,
                ctx.machines(),
                rows,
                row,
                machine.index(),
                skip_below,
            );
        }
        reused == Some(true)
    }

    /// Forgets what the table and the scorer's chains learned from the
    /// pre-snapshot event stream: both are keyed on machine versions,
    /// which a restored timeline may re-issue with other contents.
    pub(crate) fn restore(&mut self) {
        self.table.invalidate();
        if let Some(scorer) = &mut self.scorer {
            scorer.clear_caches();
        }
    }

    /// Joins the scorer's worker pool, if one was ever built.
    pub(crate) fn shutdown(&mut self) {
        if let Some(scorer) = &mut self.scorer {
            scorer.shutdown(std::time::Duration::from_secs(5));
        }
    }
}
