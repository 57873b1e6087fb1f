//! The engine snapshot's wire layout: [`Engine::snapshot`] and
//! [`Engine::from_snapshot`] plus their per-type helpers.
//!
//! The engine owns the field layout; `snapshot.rs` owns the primitives.
//! Ids travel as u32 (wider than their u16 reprs) so the layout survives a
//! future repr widening without a format change.

use super::{ChurnStats, Engine, EpochSlice, Event, FaasStats, SimEvent};
use crate::config::SimConfig;
use crate::machine::{ExecutingTask, MachineLifecycle, MachineState, PendingEntry};
use crate::mapper::Mapper;
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError, SnapshotRng};
use hcsim_model::{
    CostTracker, MachineId, SystemSpec, Task, TaskId, TaskOutcome, TaskRecord, TaskTypeId,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

pub(super) fn write_task(w: &mut ByteWriter, t: &Task) {
    w.u32(t.id.0);
    w.u32(u32::from(t.type_id.0));
    w.u64(t.arrival);
    w.u64(t.deadline);
}

fn read_task(r: &mut ByteReader<'_>, num_task_types: usize) -> Result<Task, SnapshotError> {
    let id = TaskId(r.u32()?);
    let type_id =
        u16::try_from(r.u32()?).map_err(|_| SnapshotError::Corrupt("task type id overflow"))?;
    if usize::from(type_id) >= num_task_types {
        return Err(SnapshotError::Corrupt("task type id out of range"));
    }
    let arrival = r.u64()?;
    let deadline = r.u64()?;
    Ok(Task { id, type_id: TaskTypeId(type_id), arrival, deadline })
}

fn write_machine_id(w: &mut ByteWriter, m: MachineId) {
    w.u32(u32::from(m.0));
}

fn read_machine_id(
    r: &mut ByteReader<'_>,
    num_machines: usize,
) -> Result<MachineId, SnapshotError> {
    let id = u16::try_from(r.u32()?).map_err(|_| SnapshotError::Corrupt("machine id overflow"))?;
    if usize::from(id) >= num_machines {
        return Err(SnapshotError::Corrupt("machine id out of range"));
    }
    Ok(MachineId(id))
}

pub(super) fn write_event(w: &mut ByteWriter, e: &Event) {
    w.u64(e.time);
    w.u64(e.seq);
    match e.kind {
        SimEvent::Arrival(task) => {
            w.u8(0);
            write_task(w, &task);
        }
        SimEvent::Completion { machine, token, evict } => {
            w.u8(1);
            write_machine_id(w, machine);
            w.u64(token);
            w.u8(u8::from(evict));
        }
        SimEvent::MachineJoin(m) => {
            w.u8(2);
            write_machine_id(w, m);
        }
        SimEvent::MachineDrain(m) => {
            w.u8(3);
            write_machine_id(w, m);
        }
        SimEvent::MachineFail(m) => {
            w.u8(4);
            write_machine_id(w, m);
        }
        SimEvent::DeadlineSweep => w.u8(5),
        SimEvent::MachineNotice { machine, departs_at } => {
            w.u8(6);
            write_machine_id(w, machine);
            w.u64(departs_at);
        }
        SimEvent::ContainerExpiry { machine, type_id } => {
            w.u8(7);
            write_machine_id(w, machine);
            w.u32(u32::from(type_id.0));
        }
    }
}

fn read_task_type_id(
    r: &mut ByteReader<'_>,
    num_task_types: usize,
) -> Result<TaskTypeId, SnapshotError> {
    let id =
        u16::try_from(r.u32()?).map_err(|_| SnapshotError::Corrupt("task type id overflow"))?;
    if usize::from(id) >= num_task_types {
        return Err(SnapshotError::Corrupt("task type id out of range"));
    }
    Ok(TaskTypeId(id))
}

fn read_event(
    r: &mut ByteReader<'_>,
    num_machines: usize,
    num_task_types: usize,
) -> Result<Event, SnapshotError> {
    let time = r.u64()?;
    let seq = r.u64()?;
    let kind = match r.u8()? {
        0 => SimEvent::Arrival(read_task(r, num_task_types)?),
        1 => SimEvent::Completion {
            machine: read_machine_id(r, num_machines)?,
            token: r.u64()?,
            evict: r.bool()?,
        },
        2 => SimEvent::MachineJoin(read_machine_id(r, num_machines)?),
        3 => SimEvent::MachineDrain(read_machine_id(r, num_machines)?),
        4 => SimEvent::MachineFail(read_machine_id(r, num_machines)?),
        5 => SimEvent::DeadlineSweep,
        6 => SimEvent::MachineNotice {
            machine: read_machine_id(r, num_machines)?,
            departs_at: r.u64()?,
        },
        7 => SimEvent::ContainerExpiry {
            machine: read_machine_id(r, num_machines)?,
            type_id: read_task_type_id(r, num_task_types)?,
        },
        _ => return Err(SnapshotError::Corrupt("event tag")),
    };
    Ok(Event { time, seq, kind })
}

fn outcome_tag(o: TaskOutcome) -> u8 {
    match o {
        TaskOutcome::CompletedOnTime => 0,
        TaskOutcome::CompletedLate => 1,
        TaskOutcome::CompletedApprox => 2,
        TaskOutcome::ExpiredUnstarted => 3,
        TaskOutcome::ExpiredExecuting => 4,
        TaskOutcome::PrunedDropped => 5,
        TaskOutcome::Unfinished => 6,
        TaskOutcome::Shed => 7,
    }
}

fn outcome_from_tag(tag: u8) -> Result<TaskOutcome, SnapshotError> {
    Ok(match tag {
        0 => TaskOutcome::CompletedOnTime,
        1 => TaskOutcome::CompletedLate,
        2 => TaskOutcome::CompletedApprox,
        3 => TaskOutcome::ExpiredUnstarted,
        4 => TaskOutcome::ExpiredExecuting,
        5 => TaskOutcome::PrunedDropped,
        6 => TaskOutcome::Unfinished,
        7 => TaskOutcome::Shed,
        _ => return Err(SnapshotError::Corrupt("outcome tag")),
    })
}

fn lifecycle_tag(l: MachineLifecycle) -> u8 {
    match l {
        MachineLifecycle::Active => 0,
        MachineLifecycle::Draining => 1,
        MachineLifecycle::Offline => 2,
    }
}

fn lifecycle_from_tag(tag: u8) -> Result<MachineLifecycle, SnapshotError> {
    Ok(match tag {
        0 => MachineLifecycle::Active,
        1 => MachineLifecycle::Draining,
        2 => MachineLifecycle::Offline,
        _ => return Err(SnapshotError::Corrupt("lifecycle tag")),
    })
}

impl<'a, M: Mapper, R: SnapshotRng> Engine<'a, M, R> {
    /// Serializes the complete engine state at an inter-event boundary.
    /// Everything a resumed run consumes is captured — event heap, batch
    /// queue, machine queues with sampled ground truths, terminal records,
    /// cost ledger, RNG state, and the mapper's own blob — so restore is
    /// bit-identical, not merely statistically equivalent.
    pub(super) fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_header();
        // System shape, validated on restore before anything is rebuilt.
        w.usize(self.machines.len());
        w.usize(self.spec.queue_capacity);
        w.usize(self.spec.num_task_types());
        w.usize(self.records.len());
        // Engine scalars.
        w.u64(self.now);
        w.u64(self.seq);
        w.u64(self.membership_epoch);
        w.u64(self.mapping_events);
        w.usize(self.missed_since_last);
        // Churn counters.
        w.u64(self.churn.joins);
        w.u64(self.churn.drains);
        w.u64(self.churn.fails);
        w.u64(self.churn.requeued);
        w.u64(self.churn.dropped_after_retry);
        // Cold-start counters.
        w.u64(self.faas.cold_starts);
        w.u64(self.faas.warm_hits);
        // Capacity epochs.
        w.usize(self.epochs.len());
        for e in &self.epochs {
            w.u64(e.start);
            w.usize(e.active_machines);
            w.usize(e.on_time);
            w.usize(e.finished);
        }
        // Event heap in (time, seq) order — BinaryHeap iteration order is
        // unspecified, so the heap is canonicalized before encoding.
        let mut events: Vec<Event> = self.events.iter().map(|Reverse(e)| *e).collect();
        events.sort_unstable_by_key(|e| (e.time, e.seq));
        w.usize(events.len());
        for e in &events {
            write_event(&mut w, e);
        }
        // Batch queue (order is part of the FCFS contract).
        w.usize(self.batch.len());
        for t in &self.batch {
            write_task(&mut w, t);
        }
        // Machine queues, index order.
        for m in &self.machines {
            w.u8(lifecycle_tag(m.lifecycle()));
            w.u64(m.version());
            w.u64(m.run_token);
            w.opt_u64(m.announced_departure());
            match m.executing() {
                Some(e) => {
                    w.u8(1);
                    write_task(&mut w, &e.task);
                    w.u64(e.started_at);
                    w.u64(e.progress_before);
                    w.u64(e.total_exec);
                    w.u8(u8::from(e.cold_start));
                }
                None => w.u8(0),
            }
            w.usize(m.pending_entries().len());
            for p in m.pending_entries() {
                write_task(&mut w, &p.task);
                w.u64(p.progress);
                w.opt_u64(p.sampled_total);
                w.u8(u8::from(p.cold_start));
            }
            // Warm containers, pin/refresh order (part of determinism).
            w.usize(m.warm_containers().len());
            for c in m.warm_containers() {
                w.u32(u32::from(c.type_id.0));
                w.u64(c.expires_at);
            }
            w.u64(m.warm_rev());
        }
        // Terminal records (count pinned by the header's slot count).
        for rec in &self.records {
            match rec {
                Some(r) => {
                    w.u8(1);
                    write_task(&mut w, &r.task);
                    w.u8(outcome_tag(r.outcome));
                    match r.machine {
                        Some(m) => {
                            w.u8(1);
                            write_machine_id(&mut w, m);
                        }
                        None => w.u8(0),
                    }
                    w.opt_u64(r.started_at);
                    w.u64(r.finished_at);
                    w.u64(r.machine_time);
                }
                None => w.u8(0),
            }
        }
        // Failure-requeue counts (slot count from the header).
        for &c in &self.requeue_counts {
            w.u32(c);
        }
        // Carried migration progress (slot count from the header).
        for &p in &self.carried {
            w.u64(p);
        }
        // Busy time per machine; the tracker is rebuilt via `record_busy`.
        for m in 0..self.machines.len() {
            w.u64(self.cost.busy_time(MachineId::from(m)));
        }
        // RNG state and the mapper's own snapshot blob.
        for s in self.rng.capture_state() {
            w.u64(s);
        }
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
        let num_machines = r.usize()?;
        if num_machines != spec.num_machines() {
            return Err(SnapshotError::SpecMismatch(format!(
                "snapshot has {num_machines} machines, spec has {}",
                spec.num_machines()
            )));
        }
        let queue_capacity = r.usize()?;
        if queue_capacity != spec.queue_capacity {
            return Err(SnapshotError::SpecMismatch(format!(
                "snapshot queue capacity {queue_capacity}, spec has {}",
                spec.queue_capacity
            )));
        }
        let num_task_types = r.usize()?;
        if num_task_types != spec.num_task_types() {
            return Err(SnapshotError::SpecMismatch(format!(
                "snapshot has {num_task_types} task types, spec has {}",
                spec.num_task_types()
            )));
        }
        let num_task_slots = r.usize()?;
        // Each slot costs at least 5 bytes downstream (record flag +
        // requeue count); reject absurd counts before allocating.
        if num_task_slots.saturating_mul(5) > bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let now = r.u64()?;
        let seq = r.u64()?;
        let membership_epoch = r.u64()?;
        let mapping_events = r.u64()?;
        let missed_since_last = r.usize()?;
        let churn = ChurnStats {
            joins: r.u64()?,
            drains: r.u64()?,
            fails: r.u64()?,
            requeued: r.u64()?,
            dropped_after_retry: r.u64()?,
        };
        let faas = FaasStats { cold_starts: r.u64()?, warm_hits: r.u64()? };
        let n_epochs = r.seq_len(32)?;
        if n_epochs == 0 {
            return Err(SnapshotError::Corrupt("no epochs"));
        }
        let mut epochs = Vec::with_capacity(n_epochs);
        for _ in 0..n_epochs {
            epochs.push(EpochSlice {
                start: r.u64()?,
                active_machines: r.usize()?,
                on_time: r.usize()?,
                finished: r.usize()?,
            });
        }
        // Cross-field checks: the heap must be one `push_event` could have
        // built — nothing scheduled in the past, every seq issued before
        // the stored next seq, no seq issued twice — or the resumed run
        // would move its clock backwards or reorder same-time events.
        let n_events = r.seq_len(17)?;
        let mut events = BinaryHeap::with_capacity(n_events);
        let mut event_seqs = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let event = read_event(&mut r, num_machines, num_task_types)?;
            if event.time < now {
                return Err(SnapshotError::Corrupt("event earlier than now"));
            }
            if event.seq >= seq {
                return Err(SnapshotError::Corrupt("event seq not below the next seq"));
            }
            event_seqs.push(event.seq);
            events.push(Reverse(event));
        }
        event_seqs.sort_unstable();
        if event_seqs.windows(2).any(|w| w[0] == w[1]) {
            return Err(SnapshotError::Corrupt("duplicate event seq"));
        }
        let n_batch = r.seq_len(24)?;
        let mut batch = Vec::with_capacity(n_batch.max(num_task_slots));
        for _ in 0..n_batch {
            batch.push(read_task(&mut r, num_task_types)?);
        }
        let mut machines = Vec::with_capacity(num_machines);
        for i in 0..num_machines {
            let lifecycle = lifecycle_from_tag(r.u8()?)?;
            let version = r.u64()?;
            let run_token = r.u64()?;
            let announced_departure = r.opt_u64()?;
            let executing = match r.u8()? {
                0 => None,
                1 => {
                    let task = read_task(&mut r, num_task_types)?;
                    Some(ExecutingTask {
                        task,
                        started_at: r.u64()?,
                        progress_before: r.u64()?,
                        total_exec: r.u64()?,
                        cold_start: r.bool()?,
                    })
                }
                _ => return Err(SnapshotError::Corrupt("executing flag")),
            };
            let n_pending = r.seq_len(24)?;
            if 1 + n_pending > queue_capacity {
                return Err(SnapshotError::Corrupt("pending queue exceeds capacity"));
            }
            let mut pending = VecDeque::with_capacity(n_pending);
            for _ in 0..n_pending {
                let task = read_task(&mut r, num_task_types)?;
                let progress = r.u64()?;
                let sampled_total = r.opt_u64()?;
                let cold_start = r.bool()?;
                pending.push_back(PendingEntry { task, progress, sampled_total, cold_start });
            }
            let n_warm = r.seq_len(13)?;
            if n_warm > num_task_types {
                return Err(SnapshotError::Corrupt("warm set exceeds task types"));
            }
            let mut warm = Vec::with_capacity(n_warm);
            for _ in 0..n_warm {
                let type_id = read_task_type_id(&mut r, num_task_types)?;
                if warm.iter().any(|c: &crate::WarmContainer| c.type_id == type_id) {
                    return Err(SnapshotError::Corrupt("duplicate warm container"));
                }
                warm.push(crate::WarmContainer { type_id, expires_at: r.u64()? });
            }
            let warm_rev = r.u64()?;
            machines.push(MachineState::from_parts(
                MachineId::from(i),
                queue_capacity,
                executing,
                pending,
                lifecycle,
                version,
                run_token,
                announced_departure,
                warm,
                warm_rev,
            ));
        }
        let mut records = Vec::with_capacity(num_task_slots);
        for slot in 0..num_task_slots {
            records.push(match r.u8()? {
                0 => None,
                1 => {
                    let task = read_task(&mut r, num_task_types)?;
                    if task.id.index() != slot {
                        return Err(SnapshotError::Corrupt("record task id is not its slot"));
                    }
                    let outcome = outcome_from_tag(r.u8()?)?;
                    let machine = match r.u8()? {
                        0 => None,
                        1 => Some(read_machine_id(&mut r, num_machines)?),
                        _ => return Err(SnapshotError::Corrupt("record machine flag")),
                    };
                    let started_at = r.opt_u64()?;
                    Some(TaskRecord {
                        task,
                        outcome,
                        machine,
                        started_at,
                        finished_at: r.u64()?,
                        machine_time: r.u64()?,
                    })
                }
                _ => return Err(SnapshotError::Corrupt("record flag")),
            });
        }
        let mut requeue_counts = Vec::with_capacity(num_task_slots);
        for _ in 0..num_task_slots {
            requeue_counts.push(r.u32()?);
        }
        let mut carried = Vec::with_capacity(num_task_slots);
        for _ in 0..num_task_slots {
            carried.push(r.u64()?);
        }
        let mut cost = CostTracker::new(num_machines);
        for m in 0..num_machines {
            let busy = r.u64()?;
            if busy > 0 {
                cost.record_busy(MachineId::from(m), busy);
            }
        }
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let mapper_blob = r.bytes()?;
        if !r.at_end() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        rng.reseat_state(rng_state);
        mapper.restore_state(mapper_blob);
        let queue_slots = spec.num_machines() * spec.queue_capacity;
        Ok(Self {
            spec,
            config,
            mapper,
            rng,
            events,
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
            carried,
            expired_buf: Vec::with_capacity(queue_slots),
            pruned_buf: Vec::with_capacity(queue_slots),
            segment_charges_buf: Vec::with_capacity(spec.num_machines()),
            requeue_buf: Vec::with_capacity(spec.queue_capacity),
        })
    }
}
