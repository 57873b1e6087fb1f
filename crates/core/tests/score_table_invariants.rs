//! Replay proof for the [`ScoreTable`]'s cell contract: drive a table
//! through random event sequences — assignments (with and without a row
//! sliding into the window), completions, mid-queue drops, clock advances
//! inside and across head windows, per-type threshold drift in both
//! directions, arrivals (singly and in bursts of one (type, deadline)
//! class) and expiries, and warm-set churn — and after every
//! [`ScoreTable::ensure`] and [`ScoreTable::apply_assignment`] assert
//!
//! * the table's own invariants ([`ScoreTable::check_invariants`]): every
//!   cached shard best is the first-wins scan of its columns, every scored
//!   pair is exact, every unscored pair on a free machine is proven below
//!   the threshold its row is held to;
//! * decision-level agreement with a scorer that caches nothing across
//!   checks: pair by pair the table holds the exact score or nothing for a
//!   pair exactly below the threshold, and wherever the exact best of a
//!   row clears its threshold the table returns that machine, bit for bit.
//!
//! 72 machines keep three shards live (32 + 32 + 8); the systems are a
//! heterogeneous and a homogeneous PET (the latter ties scores bit for
//! bit, so only scan order separates machines), each classic and under a
//! cold-start model.

use hcsim_core::{PairScore, ProbScorer, ScoreTable};
use hcsim_model::{MachineId, PetMatrix, Task, TaskId, TaskTypeId, Time};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::testkit::{self, QueueOp};
use hcsim_sim::MachineState;
use proptest::prelude::*;

const MACHINES: usize = 72;
const TYPES: usize = 3;
const CAPACITY: usize = 3;
const MAX_WINDOW: usize = 10;
const THRESHOLDS: [f64; 6] = [0.0, 0.15, 0.3, 0.5, 0.7, 0.9];

/// Warm and (for the cold-start systems) cold PETs.
fn build_pets(heterogeneous: bool, cold_start: bool) -> (PetMatrix, Option<PetMatrix>) {
    let warm: Vec<Pmf> = (0..TYPES * MACHINES)
        .map(|i| {
            let (tt, m) = ((i / MACHINES) as u64, (i % MACHINES) as u64);
            let o = if heterogeneous { (tt * 7 + m * 3) % 11 } else { 2 };
            Pmf::from_points(&[(4 + o, 0.3), (9 + o, 0.5), (20 + o, 0.2)]).unwrap()
        })
        .collect();
    let cold = cold_start.then(|| {
        let shifted =
            warm.iter().enumerate().map(|(i, p)| p.shift(25 + 10 * (i / MACHINES) as u64));
        PetMatrix::from_pmfs(TYPES, MACHINES, shifted.collect())
    });
    (PetMatrix::from_pmfs(TYPES, MACHINES, warm), cold)
}

/// The replayed cluster: the table and scorer under test, a second scorer
/// whose caches are dropped before every check, and the state a mapper
/// would see — machines, batch window, clock, per-type thresholds.
struct Replay {
    scorer: ProbScorer,
    exact: ProbScorer,
    table: ScoreTable,
    machines: Vec<MachineState>,
    window: Vec<Task>,
    thresholds: [f64; TYPES],
    now: Time,
    next_id: u32,
    /// Something the table has not seen yet moved since the last `ensure`.
    dirty: bool,
}

impl Replay {
    fn new(heterogeneous: bool, cold_start: bool) -> Self {
        let (pet, cold) = build_pets(heterogeneous, cold_start);
        let scorer = || ProbScorer::with_cold(&pet, cold.as_ref(), DropPolicy::All, 16);
        let mut replay = Self {
            scorer: scorer(),
            exact: scorer(),
            table: ScoreTable::new(),
            machines: (0..MACHINES)
                .map(|m| MachineState::new(MachineId::from(m), CAPACITY))
                .collect(),
            window: Vec::new(),
            thresholds: [0.5; TYPES],
            now: 0,
            next_id: 0,
            dirty: true,
        };
        // Three machines in four execute, queues of depth 0–2 behind them,
        // and every seventh machine holds a warm container.
        for m in 0..MACHINES {
            if !m.is_multiple_of(4) {
                let head = replay.new_task(m, 300);
                assert!(testkit::start_executing(&mut replay.machines[m], head, 0, 200));
            }
            for i in 0..m % 3 {
                let queued = replay.new_task(m + i, 150 + 40 * i as Time);
                assert!(testkit::apply(&mut replay.machines[m], QueueOp::Push(queued)));
            }
            if m.is_multiple_of(7) {
                testkit::set_warm(&mut replay.machines[m], TaskTypeId((m % TYPES) as u16), 1_000);
            }
        }
        for i in 0..6 {
            let row = replay.new_task(i, 12 + 17 * i as Time);
            replay.window.push(row);
        }
        replay
    }

    fn new_task(&mut self, salt: usize, slack: Time) -> Task {
        self.next_id += 1;
        Task {
            id: TaskId(self.next_id),
            type_id: TaskTypeId((salt % TYPES) as u16),
            arrival: self.now,
            deadline: self.now + slack,
        }
    }

    /// First machine at or after `from` (wrapping) that `pick` accepts.
    fn find(&self, from: usize, pick: impl Fn(&MachineState) -> bool) -> Option<usize> {
        (0..MACHINES).map(|i| (from + i) % MACHINES).find(|&m| pick(&self.machines[m]))
    }

    /// A mapping event at the current instant: revalidate, then check.
    fn event(&mut self) {
        let thresholds = self.thresholds;
        self.scorer.begin_event(self.now);
        self.table
            .ensure(&mut self.scorer, &self.machines, &self.window, &|tt| thresholds[tt.index()]);
        self.dirty = false;
        self.check("ensure");
    }

    /// Commits window row `a % rows` to a free machine — the table's own
    /// best on even `a`, an arbitrary one otherwise — and, two times in
    /// three, lets an arrival slide into the window behind it.
    fn assign(&mut self, a: usize, b: usize) {
        if self.dirty {
            self.event();
        }
        if self.window.is_empty() {
            return;
        }
        let row = a % self.window.len();
        let best = self.table.best_for_row(&self.machines, row).map(|(m, _)| m.index());
        let Some(m) = best
            .filter(|_| a.is_multiple_of(2))
            .or_else(|| self.find(b, MachineState::has_free_slot))
        else {
            return;
        };
        let assigned = self.window.remove(row);
        assert!(testkit::apply(&mut self.machines[m], QueueOp::Push(assigned)));
        if !b.is_multiple_of(3) {
            let arrival = self.new_task(b, 5 + (a % 120) as Time);
            self.window.push(arrival);
        }
        let thresholds = self.thresholds;
        self.table.apply_assignment(
            &mut self.scorer,
            &self.machines,
            &self.window,
            row,
            m,
            &|tt| thresholds[tt.index()],
        );
        self.check("apply_assignment");
    }

    fn step(&mut self, kind: u32, a: usize, b: usize) {
        let now = self.now;
        match kind {
            0..=2 => return self.assign(a, b),
            // Completion: the head leaves, the next pending task starts.
            3 | 4 => {
                if let Some(m) = self.find(a, |m| m.executing().is_some()) {
                    assert!(testkit::apply(&mut self.machines[m], QueueOp::FinishExecuting));
                    testkit::apply(
                        &mut self.machines[m],
                        QueueOp::StartNext { now, total_exec: 200 },
                    );
                }
            }
            // The pruner drops a pending task mid-queue.
            5 => {
                if let Some(m) = self.find(a, |m| m.pending().len() > 0) {
                    let nth = b % self.machines[m].pending().len();
                    let id = self.machines[m].pending().nth(nth).expect("nth < len").id;
                    assert!(testkit::apply(&mut self.machines[m], QueueOp::RemovePending(id)));
                }
            }
            6 => {
                if let Some(m) = self.find(a, |m| m.executing().is_none() && m.pending().len() > 0)
                {
                    assert!(testkit::apply(
                        &mut self.machines[m],
                        QueueOp::StartNext { now, total_exec: 200 }
                    ));
                }
            }
            // The clock: a tick or two stays inside most head windows (the
            // first PET impulse is at 4 or later), a jump crosses them.
            7 | 8 => self.now += 1 + (a % 2) as Time,
            9 => self.now += 5 + (a % 30) as Time,
            10 | 11 => self.thresholds[a % TYPES] = THRESHOLDS[b % THRESHOLDS.len()],
            12 => {
                if self.window.len() < MAX_WINDOW {
                    let arrival = self.new_task(a, 5 + (b % 120) as Time);
                    self.window.push(arrival);
                }
            }
            13 => {
                if self.window.len() > 1 {
                    self.window.remove(a % self.window.len());
                }
            }
            14 => {
                let (machine, tt) =
                    (&mut self.machines[a % MACHINES], TaskTypeId((b % TYPES) as u16));
                if !testkit::expire_warm(machine, tt, 1_000) {
                    testkit::set_warm(machine, tt, 1_000);
                }
            }
            // A burst: two to four arrivals of one (type, deadline) class,
            // which later assignments break up head first or from behind.
            _ => {
                if self.window.len() < MAX_WINDOW {
                    let head = self.new_task(a, 5 + (b % 120) as Time);
                    self.window.push(head);
                    for _ in 1..2 + b % 3 {
                        self.next_id += 1;
                        self.window.push(Task { id: TaskId(self.next_id), ..head });
                    }
                }
            }
        }
        self.dirty = true;
    }

    fn check(&mut self, after: &str) {
        let Self { scorer, exact, table, machines, window, thresholds, now, .. } = self;
        if let Err(violation) = table.check_invariants(scorer, machines) {
            panic!("t={now} after {after}: {violation}");
        }
        exact.clear_caches();
        exact.begin_event(*now);
        for (row, task) in window.iter().enumerate() {
            let threshold = thresholds[task.type_id.index()];
            let mut best: Option<(usize, PairScore)> = None;
            for (m, machine) in machines.iter().enumerate() {
                if !machine.has_free_slot() {
                    continue;
                }
                let score = exact.score(machine, task);
                match table.get(row, m) {
                    Some(held) => assert!(
                        same_bits(&held, &score),
                        "t={now} after {after} ({row},{m}): holds {held:?}, exact is {score:?}"
                    ),
                    None => assert!(
                        score.robustness < threshold,
                        "t={now} after {after} ({row},{m}): unscored, but exact r={} clears \
                         {threshold}",
                        score.robustness
                    ),
                }
                if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                    best = Some((m, score));
                }
            }
            let got = table.best_for_row(machines, row);
            match best {
                Some((m, score)) if score.robustness >= threshold => assert!(
                    got.is_some_and(|(gm, gs)| gm.index() == m && same_bits(&gs, &score)),
                    "t={now} after {after} row {row}: exact best is {score:?} on {m}, table \
                     says {got:?}"
                ),
                _ => assert!(
                    got.is_none_or(|(_, s)| s.robustness < threshold),
                    "t={now} after {after} row {row}: nothing clears {threshold}, table says \
                     {got:?}"
                ),
            }
        }
    }
}

/// The exact phase-1 comparison, restated: higher robustness, then lower
/// expected completion; strict, so an ascending scan keeps the first.
fn better_pair(score: &PairScore, best: &PairScore) -> bool {
    score.robustness > best.robustness
        || (score.robustness == best.robustness
            && score.expected_completion < best.expected_completion)
}

fn same_bits(a: &PairScore, b: &PairScore) -> bool {
    a.robustness.to_bits() == b.robustness.to_bits()
        && a.expected_completion.to_bits() == b.expected_completion.to_bits()
        && a.mean_exec.to_bits() == b.mean_exec.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn table_invariants_hold_under_replay(
        system in 0usize..4,
        steps in prop::collection::vec((0u32..16, 0usize..1_000, 0usize..1_000, 0u32..3), 8..40),
    ) {
        let mut replay = Replay::new(system % 2 == 0, system / 2 == 1);
        replay.event();
        for (kind, a, b, settle) in steps {
            replay.step(kind, a, b);
            // One step in three piles onto the next before the table looks.
            if replay.dirty && settle != 0 {
                replay.event();
            }
        }
        replay.event();
    }
}
