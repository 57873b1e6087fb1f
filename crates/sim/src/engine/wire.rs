//! The engine snapshot's wire layout: [`Engine::snapshot`] and
//! [`Engine::from_snapshot`] plus the layouts of the types they carry.
//!
//! The engine owns the field layout; `snapshot.rs` owns the [`Wire`]
//! trait, the primitives and the ids. The machine layout sits beside
//! `MachineState`, whose fields are private to `machine.rs`.

use super::{ChurnStats, Engine, EpochSlice, Event, FaasStats, SimEvent};
use crate::config::SimConfig;
use crate::machine::{ExecutingTask, MachineLifecycle, MachineState, WarmContainer};
use crate::mapper::Mapper;
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError, SnapshotRng, Wire};
use crate::{wire_enum, wire_struct};
use hcsim_model::{
    CostTracker, MachineId, SystemSpec, Task, TaskId, TaskOutcome, TaskRecord, TaskTypeId, Time,
};
use std::cmp::Reverse;

wire_struct!(Task { id: TaskId, type_id: TaskTypeId, arrival: Time, deadline: Time });

wire_struct!(Event { time: Time, seq: u64, kind: SimEvent });

wire_enum!(SimEvent, "event tag" {
    0 => Arrival(task: Task),
    1 => Completion { machine: MachineId, token: u64, evict: bool },
    2 => MachineJoin(machine: MachineId),
    3 => MachineDrain(machine: MachineId),
    4 => MachineFail(machine: MachineId),
    5 => DeadlineSweep,
    6 => ContainerExpiry { machine: MachineId, type_id: TaskTypeId },
});

wire_enum!(TaskOutcome, "outcome tag" {
    0 => CompletedOnTime,
    1 => CompletedLate,
    2 => CompletedApprox,
    3 => ExpiredUnstarted,
    4 => ExpiredExecuting,
    5 => PrunedDropped,
    6 => Unfinished,
    7 => Shed,
});

wire_enum!(MachineLifecycle, "lifecycle tag" { 0 => Active, 1 => Draining, 2 => Offline });

wire_struct!(TaskRecord {
    task: Task,
    outcome: TaskOutcome,
    machine: Option<MachineId>,
    started_at: Option<Time>,
    finished_at: Time,
    machine_time: Time,
});

wire_struct!(ExecutingTask { task: Task, started_at: Time, total_exec: Time, cold_start: bool });

wire_struct!(WarmContainer { type_id: TaskTypeId, expires_at: Time });

wire_struct!(EpochSlice { start: Time, active_machines: usize, on_time: usize, finished: usize });

wire_struct!(ChurnStats {
    joins: u64,
    drains: u64,
    fails: u64,
    requeued: u64,
    dropped_after_retry: u64,
});

wire_struct!(FaasStats { cold_starts: u64, warm_hits: u64 });

impl<'a, M: Mapper, R: SnapshotRng> Engine<'a, M, R> {
    /// Serializes the complete engine state at an inter-event boundary.
    /// Everything a resumed run consumes is captured — event heap, batch
    /// queue, machine queues with sampled ground truths, terminal records,
    /// cost ledger, RNG state, and the mapper's own blob — so restore is
    /// bit-identical, not merely statistically equivalent.
    pub(super) fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_header();
        // System shape, validated on restore before anything is rebuilt.
        let shape = [
            self.machines.len(),
            self.spec.queue_capacity,
            self.spec.num_task_types(),
            self.records.len(),
        ];
        shape.put(&mut w);
        // Engine scalars and counters.
        [self.now, self.seq, self.membership_epoch, self.mapping_events].put(&mut w);
        self.missed_since_last.put(&mut w);
        self.churn.put(&mut w);
        self.faas.put(&mut w);
        self.epochs.put(&mut w);
        // Event heap in (time, seq) order — BinaryHeap iteration order is
        // unspecified, so the heap is canonicalized before encoding.
        let mut events: Vec<Event> = self.events.iter().map(|Reverse(e)| *e).collect();
        events.sort_unstable_by_key(|e| (e.time, e.seq));
        events.put(&mut w);
        // Batch queue (order is part of the FCFS contract).
        self.batch.put(&mut w);
        // Fixed counts from the shape: machine queues in index order
        // (warm containers in pin/refresh order, part of determinism),
        // then per task slot its record and failure-requeue count.
        MachineState::put_all(&self.machines, &mut w);
        Option::put_all(&self.records, &mut w);
        u32::put_all(&self.requeue_counts, &mut w);
        // Busy time per machine; the tracker is rebuilt via `record_busy`.
        for m in 0..self.machines.len() {
            self.cost.busy_time(MachineId::from(m)).put(&mut w);
        }
        // RNG state and the mapper's own snapshot blob.
        self.rng.capture_state().put(&mut w);
        w.bytes(&self.mapper.snapshot_state());
        w.into_bytes()
    }

    /// Rebuilds an engine from [`Engine::snapshot`] bytes. `rng` is
    /// overwritten with the captured generator state and `mapper` receives
    /// the captured mapper blob, so any pre-existing state in either is
    /// irrelevant. Fails (never panics) on foreign, corrupt, or
    /// wrong-system snapshots.
    pub(super) fn from_snapshot(
        spec: &'a SystemSpec,
        config: SimConfig,
        bytes: &[u8],
        mapper: &'a mut M,
        rng: &'a mut R,
    ) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::with_header(bytes)?;
        let [num_machines, queue_capacity, num_task_types, num_task_slots]: [usize; 4] =
            Wire::get(&mut r)?;
        if num_machines != spec.num_machines() {
            return Err(SnapshotError::SpecMismatch(format!(
                "snapshot has {num_machines} machines, spec has {}",
                spec.num_machines()
            )));
        }
        if queue_capacity != spec.queue_capacity {
            return Err(SnapshotError::SpecMismatch(format!(
                "snapshot queue capacity {queue_capacity}, spec has {}",
                spec.queue_capacity
            )));
        }
        if num_task_types != spec.num_task_types() {
            return Err(SnapshotError::SpecMismatch(format!(
                "snapshot has {num_task_types} task types, spec has {}",
                spec.num_task_types()
            )));
        }
        r.bound_ids(num_machines, num_task_types);
        let [now, seq, membership_epoch, mapping_events]: [u64; 4] = Wire::get(&mut r)?;
        let missed_since_last = Wire::get(&mut r)?;
        let churn = Wire::get(&mut r)?;
        let faas = Wire::get(&mut r)?;
        let epochs: Vec<EpochSlice> = Wire::get(&mut r)?;
        if epochs.is_empty() {
            return Err(SnapshotError::Corrupt("no epochs"));
        }
        // Cross-field checks: the heap must be one `push_event` could have
        // built — nothing scheduled in the past, every seq issued before
        // the stored next seq, no seq issued twice — or the resumed run
        // would move its clock backwards or reorder same-time events.
        let events: Vec<Event> = Wire::get(&mut r)?;
        if events.iter().any(|e| e.time < now) {
            return Err(SnapshotError::Corrupt("event earlier than now"));
        }
        if events.iter().any(|e| e.seq >= seq) {
            return Err(SnapshotError::Corrupt("event seq not below the next seq"));
        }
        let mut event_seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        event_seqs.sort_unstable();
        if event_seqs.windows(2).any(|w| w[0] == w[1]) {
            return Err(SnapshotError::Corrupt("duplicate event seq"));
        }
        let mut batch: Vec<Task> = Wire::get(&mut r)?;
        let mut machines = MachineState::get_n(&mut r, num_machines)?;
        for (i, m) in machines.iter_mut().enumerate() {
            if 1 + m.pending().len() > queue_capacity {
                return Err(SnapshotError::Corrupt("pending queue exceeds capacity"));
            }
            let warm = m.warm_containers();
            if warm.len() > num_task_types {
                return Err(SnapshotError::Corrupt("warm set exceeds task types"));
            }
            if warm
                .iter()
                .enumerate()
                .any(|(k, c)| warm[..k].iter().any(|d| d.type_id == c.type_id))
            {
                return Err(SnapshotError::Corrupt("duplicate warm container"));
            }
            m.seat(MachineId::from(i), queue_capacity);
        }
        let records = Option::<TaskRecord>::get_n(&mut r, num_task_slots)?;
        if records
            .iter()
            .enumerate()
            .any(|(slot, rec)| matches!(rec, Some(rec) if rec.task.id.index() != slot))
        {
            return Err(SnapshotError::Corrupt("record task id is not its slot"));
        }
        // The batch never outgrows the task slots; reserve them once.
        batch.reserve_exact(num_task_slots.saturating_sub(batch.len()));
        let requeue_counts = u32::get_n(&mut r, num_task_slots)?;
        let mut cost = CostTracker::new(num_machines);
        for (m, busy) in u64::get_n(&mut r, num_machines)?.into_iter().enumerate() {
            if busy > 0 {
                cost.record_busy(MachineId::from(m), busy);
            }
        }
        let rng_state = Wire::get(&mut r)?;
        let mapper_blob = r.bytes()?;
        r.end("trailing bytes")?;
        rng.reseat_state(rng_state);
        mapper.restore_state(mapper_blob);
        let queue_slots = spec.num_machines() * spec.queue_capacity;
        Ok(Self {
            spec,
            config,
            mapper,
            rng,
            events: events.into_iter().map(Reverse).collect(),
            seq,
            batch,
            machines,
            records,
            cost,
            missed_since_last,
            mapping_events,
            now,
            membership_epoch,
            churn,
            faas,
            epochs,
            requeue_counts,
            expired_buf: Vec::with_capacity(queue_slots),
            pruned_buf: Vec::with_capacity(queue_slots),
            requeue_buf: Vec::with_capacity(spec.queue_capacity),
            #[cfg(test)]
            checker: super::StepChecker::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapperInstrumentation;
    use std::collections::VecDeque;

    /// `T::MIN_BYTES` must be the encoded length of `smallest` — the
    /// guard every sequence of `T` is checked against. A guard above it
    /// rejects valid snapshots; one below lets corrupt counts allocate.
    fn assert_min<T: Wire>(smallest: T) {
        let mut w = ByteWriter::default();
        smallest.put(&mut w);
        assert_eq!(w.into_bytes().len(), T::MIN_BYTES, "{}", std::any::type_name::<T>());
    }

    #[test]
    fn min_bytes_is_the_smallest_encoding() {
        assert_min(0u8);
        assert_min(0u32);
        assert_min(0u64);
        assert_min(0usize);
        assert_min(0.0f64);
        assert_min(false);
        assert_min(None::<Task>);
        assert_min(Vec::<Task>::new());
        assert_min(VecDeque::<Task>::new());
        assert_min([0u64; 4]);
        assert_min(TaskId(0));
        assert_min(MachineId(0));
        assert_min(TaskTypeId(0));
        let task = Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 0 };
        assert_min(task);
        assert_min(SimEvent::DeadlineSweep);
        assert_min(Event { time: 0, seq: 0, kind: SimEvent::DeadlineSweep });
        assert_min(TaskOutcome::CompletedOnTime);
        assert_min(MachineLifecycle::Active);
        assert_min(TaskRecord {
            task,
            outcome: TaskOutcome::CompletedOnTime,
            machine: None,
            started_at: None,
            finished_at: 0,
            machine_time: 0,
        });
        assert_min(ExecutingTask { task, started_at: 0, total_exec: 0, cold_start: false });
        assert_min(WarmContainer { type_id: TaskTypeId(0), expires_at: 0 });
        assert_min(EpochSlice { start: 0, active_machines: 0, on_time: 0, finished: 0 });
        assert_min(ChurnStats::default());
        assert_min(FaasStats::default());
        assert_min(MachineState::new(MachineId(0), 1));
        assert_min(MapperInstrumentation::default());
    }
}
