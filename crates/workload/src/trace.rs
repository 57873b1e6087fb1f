//! Plain-text (CSV) persistence for task and churn traces.
//!
//! Workload trials are cheap to regenerate from seeds, but a file format
//! makes traces portable: the experiment harness can dump the exact task
//! list behind a figure, and external tools can replay it. The task
//! format is a four-column CSV with a header:
//!
//! ```text
//! id,type,arrival,deadline
//! 0,3,12,265
//! ```
//!
//! Churn traces — first-class inputs alongside task traces — use a
//! three-column CSV where `join`/`drain`/`fail` rows are timeline events
//! and `absent` rows (time 0) declare the initial membership:
//!
//! ```text
//! time,machine,kind
//! 0,12,absent
//! 480,12,join
//! 900,3,fail
//! ```
//!
//! (The approved offline dependency set has `serde` but no serde *format*
//! crate, so the writer/parser is hand-rolled; the formats are
//! deliberately trivial.)

use hcsim_model::{ChurnEvent, ChurnKind, ChurnTrace, MachineId, Task, TaskId, TaskTypeId, Time};
use std::io::{self, BufRead, BufReader, Read, Write};

/// Errors from parsing a task trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and reason.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Writes tasks as CSV (with header) to `out`.
pub fn save_tasks_csv<W: Write>(tasks: &[Task], out: &mut W) -> Result<(), TraceError> {
    writeln!(out, "id,type,arrival,deadline")?;
    for t in tasks {
        writeln!(out, "{},{},{},{}", t.id.0, t.type_id.0, t.arrival, t.deadline)?;
    }
    Ok(())
}

/// Reads tasks from CSV produced by [`save_tasks_csv`].
///
/// Task ids index the engine's per-task record table, so each row's id
/// must be its 0-based data-row index; any other id is a
/// [`TraceError::Parse`] at its line.
pub fn load_tasks_csv<R: Read>(input: R) -> Result<Vec<Task>, TraceError> {
    let reader = BufReader::new(input);
    let mut tasks = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if idx == 0 {
            if trimmed != "id,type,arrival,deadline" {
                return Err(TraceError::Parse {
                    line: lineno,
                    reason: format!("unexpected header {trimmed:?}"),
                });
            }
            continue;
        }
        let mut fields = trimmed.split(',');
        let mut next_field = |name: &str| {
            fields.next().ok_or_else(|| TraceError::Parse {
                line: lineno,
                reason: format!("missing field {name}"),
            })
        };
        let id: u32 = parse_field(next_field("id")?, "id", lineno)?;
        let type_id: u16 = parse_field(next_field("type")?, "type", lineno)?;
        let arrival: Time = parse_field(next_field("arrival")?, "arrival", lineno)?;
        let deadline: Time = parse_field(next_field("deadline")?, "deadline", lineno)?;
        if fields.next().is_some() {
            return Err(TraceError::Parse { line: lineno, reason: "too many fields".into() });
        }
        if id as usize != tasks.len() {
            return Err(TraceError::Parse {
                line: lineno,
                reason: format!("task id {id} is not its row index {}", tasks.len()),
            });
        }
        if deadline < arrival {
            return Err(TraceError::Parse {
                line: lineno,
                reason: format!("deadline {deadline} precedes arrival {arrival}"),
            });
        }
        tasks.push(Task { id: TaskId(id), type_id: TaskTypeId(type_id), arrival, deadline });
    }
    Ok(tasks)
}

/// Writes a churn trace as CSV (with header) to `out`: `absent` rows for
/// the initial membership, then the timeline events in order.
pub fn save_churn_csv<W: Write>(trace: &ChurnTrace, out: &mut W) -> Result<(), TraceError> {
    writeln!(out, "time,machine,kind")?;
    for m in &trace.initially_offline {
        writeln!(out, "0,{},absent", m.0)?;
    }
    for e in &trace.events {
        writeln!(out, "{},{},{}", e.time, e.machine.0, e.kind)?;
    }
    Ok(())
}

/// Reads a churn trace from CSV produced by [`save_churn_csv`].
pub fn load_churn_csv<R: Read>(input: R) -> Result<ChurnTrace, TraceError> {
    let reader = BufReader::new(input);
    let mut trace = ChurnTrace::none();
    let mut last_time: Time = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if idx == 0 {
            if trimmed != "time,machine,kind" {
                return Err(TraceError::Parse {
                    line: lineno,
                    reason: format!("unexpected header {trimmed:?}"),
                });
            }
            continue;
        }
        let mut fields = trimmed.split(',');
        let mut next_field = |name: &str| {
            fields.next().ok_or_else(|| TraceError::Parse {
                line: lineno,
                reason: format!("missing field {name}"),
            })
        };
        let time: Time = parse_field(next_field("time")?, "time", lineno)?;
        let machine: u16 = parse_field(next_field("machine")?, "machine", lineno)?;
        let kind = next_field("kind")?.trim();
        if fields.next().is_some() {
            return Err(TraceError::Parse { line: lineno, reason: "too many fields".into() });
        }
        let machine = MachineId(machine);
        match kind {
            "absent" => {
                if time != 0 {
                    return Err(TraceError::Parse {
                        line: lineno,
                        reason: format!("absent rows must be at time 0, got {time}"),
                    });
                }
                trace.initially_offline.push(machine);
            }
            "join" | "drain" | "fail" => {
                if time < last_time {
                    return Err(TraceError::Parse {
                        line: lineno,
                        reason: format!("events out of order: {time} after {last_time}"),
                    });
                }
                last_time = time;
                let kind = match kind {
                    "join" => ChurnKind::Join,
                    "drain" => ChurnKind::Drain,
                    _ => ChurnKind::Fail,
                };
                trace.events.push(ChurnEvent { time, machine, kind });
            }
            other => {
                return Err(TraceError::Parse {
                    line: lineno,
                    reason: format!("unknown kind {other:?}"),
                });
            }
        }
    }
    Ok(trace)
}

fn parse_field<T: std::str::FromStr>(s: &str, name: &str, line: usize) -> Result<T, TraceError> {
    s.trim()
        .parse()
        .map_err(|_| TraceError::Parse { line, reason: format!("invalid {name}: {s:?}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tasks() -> Vec<Task> {
        vec![
            Task { id: TaskId(0), type_id: TaskTypeId(3), arrival: 12, deadline: 265 },
            Task { id: TaskId(1), type_id: TaskTypeId(0), arrival: 15, deadline: 280 },
            Task { id: TaskId(2), type_id: TaskTypeId(11), arrival: 15, deadline: 222 },
        ]
    }

    #[test]
    fn roundtrip() {
        let tasks = sample_tasks();
        let mut buf = Vec::new();
        save_tasks_csv(&tasks, &mut buf).unwrap();
        let loaded = load_tasks_csv(buf.as_slice()).unwrap();
        assert_eq!(tasks, loaded);
    }

    #[test]
    fn empty_trace_roundtrip() {
        let mut buf = Vec::new();
        save_tasks_csv(&[], &mut buf).unwrap();
        let loaded = load_tasks_csv(buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn header_is_checked() {
        let err = load_tasks_csv("wrong,header\n1,2,3,4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn bad_number_reported_with_line() {
        let input = "id,type,arrival,deadline\n0,1,abc,100\n";
        let err = load_tasks_csv(input.as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("arrival"), "{reason}");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn missing_field_rejected() {
        let input = "id,type,arrival,deadline\n0,1,5\n";
        assert!(load_tasks_csv(input.as_bytes()).is_err());
    }

    #[test]
    fn extra_field_rejected() {
        let input = "id,type,arrival,deadline\n0,1,5,9,extra\n";
        assert!(load_tasks_csv(input.as_bytes()).is_err());
    }

    #[test]
    fn deadline_before_arrival_rejected() {
        let input = "id,type,arrival,deadline\n0,1,100,50\n";
        let err = load_tasks_csv(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("precedes"), "{err}");
    }

    #[test]
    fn ids_must_be_row_indices() {
        let gap = "id,type,arrival,deadline\n0,1,5,9\n2,1,6,12\n";
        let err = load_tasks_csv(gap.as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, reason } => {
                assert_eq!(line, 3);
                assert!(reason.contains("row index 1"), "{reason}");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn blank_lines_skipped() {
        let input = "id,type,arrival,deadline\n\n0,1,5,9\n\n";
        let tasks = load_tasks_csv(input.as_bytes()).unwrap();
        assert_eq!(tasks.len(), 1);
    }

    #[test]
    fn error_display_formats() {
        let err = TraceError::Parse { line: 7, reason: "boom".into() };
        assert_eq!(err.to_string(), "trace parse error at line 7: boom");
    }

    #[test]
    fn churn_roundtrip() {
        let trace = ChurnTrace {
            initially_offline: vec![MachineId(12), MachineId(13)],
            events: vec![
                ChurnEvent { time: 480, machine: MachineId(12), kind: ChurnKind::Join },
                ChurnEvent { time: 900, machine: MachineId(3), kind: ChurnKind::Fail },
                ChurnEvent { time: 900, machine: MachineId(4), kind: ChurnKind::Drain },
            ],
            notices: vec![],
        };
        let mut buf = Vec::new();
        save_churn_csv(&trace, &mut buf).unwrap();
        let loaded = load_churn_csv(buf.as_slice()).unwrap();
        assert_eq!(trace, loaded);
    }

    #[test]
    fn churn_empty_roundtrip() {
        let mut buf = Vec::new();
        save_churn_csv(&ChurnTrace::none(), &mut buf).unwrap();
        let loaded = load_churn_csv(buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn churn_rejects_bad_rows() {
        let unsorted = "time,machine,kind\n90,1,fail\n10,2,join\n";
        assert!(load_churn_csv(unsorted.as_bytes()).unwrap_err().to_string().contains("order"));
        let bad_kind = "time,machine,kind\n10,1,explode\n";
        assert!(load_churn_csv(bad_kind.as_bytes()).unwrap_err().to_string().contains("kind"));
        let late_absent = "time,machine,kind\n10,1,absent\n";
        assert!(load_churn_csv(late_absent.as_bytes()).unwrap_err().to_string().contains("time 0"));
        let bad_header = "t,m,k\n";
        assert!(load_churn_csv(bad_header.as_bytes()).is_err());
    }
}
