//! Write-ahead trial journal: crash-safe JSONL persistence for sweeps.
//!
//! The scheduler appends one [`TrialRecord`] line per terminal trial, as
//! results stream off the collector channel and *before* the in-memory
//! database is assembled — so a killed sweep loses at most the trials
//! that were still in flight. Resuming replays the journal, schedules
//! only the missing trial ids, and (because evaluation is deterministic
//! per trial and attempt) produces a database byte-identical to an
//! uninterrupted run.
//!
//! Crash consistency: a process killed mid-write leaves a torn final
//! line. Only a line ended by its `\n` counts, so [`Journal::resume`]
//! truncates the file back to the last newline and appends from there;
//! a final line without one is torn even when it parses, and its trial
//! re-runs to the same bytes. A corrupt line *before* the last newline
//! means real corruption and is reported as an error instead of
//! silently dropped.

use crate::experiment::TrialOutcome;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// One journal line: the terminal outcome of a trial plus how many
/// attempts it took (attempts beyond the first are retries of transient
/// environment failures).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    pub attempts: usize,
    pub outcome: TrialOutcome,
}

/// Append-only JSONL writer over a sweep journal file.
pub struct Journal {
    writer: BufWriter<File>,
}

impl Journal {
    /// Creates (or truncates) a fresh journal.
    pub fn create(path: &Path) -> io::Result<Journal> {
        Ok(Journal {
            writer: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens `path` for appending, replaying any records already there.
    /// A torn final line (crash mid-write) is truncated away so the next
    /// append starts on a clean line boundary. Returns the journal and
    /// the replayed records in file order.
    pub fn resume(path: &Path) -> io::Result<(Journal, Vec<TrialRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let (records, valid_bytes) = parse_journal(&text)?;
        file.set_len(valid_bytes as u64)?;
        file.seek(SeekFrom::Start(valid_bytes as u64))?;
        Ok((
            Journal {
                writer: BufWriter::new(file),
            },
            records,
        ))
    }

    /// Appends one record and flushes it to the OS — the write-ahead
    /// guarantee the resume path depends on.
    pub fn append(&mut self, record: &TrialRecord) -> io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }
}

/// Reads a journal without opening it for writing (torn final line
/// tolerated, as in [`Journal::resume`]).
pub fn read_journal(path: &Path) -> io::Result<Vec<TrialRecord>> {
    let text = std::fs::read_to_string(path)?;
    parse_journal(&text).map(|(records, _)| records)
}

/// Parses JSONL text into records plus the byte length of the valid
/// prefix (everything up to and including the last `\n`). Whatever
/// follows the last newline is a torn tail from a crash mid-append and
/// is dropped, even when it parses: appending after it would glue the
/// next record onto the same line.
fn parse_journal(text: &str) -> io::Result<(Vec<TrialRecord>, usize)> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let Some(nl) = text[offset..].find('\n') {
        let line = &text[offset..offset + nl];
        if !line.trim().is_empty() {
            let record = serde_json::from_str::<TrialRecord>(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt journal line at byte {offset}: {e}"),
                )
            })?;
            records.push(record);
        }
        offset += nl + 1;
    }
    Ok((records, offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TrialStatus;
    use crate::space::{InputCombo, TrialSpec};
    use hydronas_graph::ArchConfig;

    fn record(id: usize, attempts: usize) -> TrialRecord {
        TrialRecord {
            attempts,
            outcome: TrialOutcome {
                spec: TrialSpec {
                    id,
                    combo: InputCombo {
                        channels: 5,
                        batch_size: 8,
                    },
                    arch: ArchConfig::baseline(5),
                    kernel_size_pool: 3,
                    stride_pool: 2,
                },
                status: TrialStatus::Succeeded,
                accuracy: 90.0 + id as f64,
                fold_accuracies: vec![90.0; 5],
                latency_ms: 8.5,
                latency_std_ms: 1.0,
                per_device_ms: vec![("cortexA76cpu_tflite21".into(), 8.5)],
                memory_mb: 11.2,
                train_seconds: 100.0,
            },
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hydronas_journal_{tag}_{}", std::process::id()))
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = temp_path("roundtrip");
        let mut journal = Journal::create(&path).unwrap();
        for id in 0..3 {
            journal.append(&record(id, 1 + id % 2)).unwrap();
        }
        drop(journal);
        let records = read_journal(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], record(2, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_a_torn_tail() {
        let path = temp_path("torn");
        let mut journal = Journal::create(&path).unwrap();
        journal.append(&record(0, 1)).unwrap();
        journal.append(&record(1, 2)).unwrap();
        drop(journal);
        // Simulate a crash mid-append: half a record, no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"attempts\":3,\"outco").unwrap();
        drop(file);

        let (mut journal, replayed) = Journal::resume(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        journal.append(&record(2, 1)).unwrap();
        drop(journal);
        // The torn bytes are gone; all three records parse cleanly.
        let records = read_journal(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].attempts, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_drops_a_final_record_without_its_newline() {
        let path = temp_path("unterminated");
        let mut journal = Journal::create(&path).unwrap();
        journal.append(&record(0, 1)).unwrap();
        journal.append(&record(1, 2)).unwrap();
        drop(journal);
        // A crash after the second record's bytes, before its newline.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.strip_suffix('\n').unwrap()).unwrap();

        let (mut journal, replayed) = Journal::resume(&path).unwrap();
        assert_eq!(replayed, vec![record(0, 1)]);
        journal.append(&record(1, 2)).unwrap();
        drop(journal);
        // The re-run record starts its own line, so every line parses.
        assert_eq!(
            read_journal(&path).unwrap(),
            vec![record(0, 1), record(1, 2)]
        );
        let (_, replayed) = Journal::resume(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "not json at all\n{\"also\":\"broken\"}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_a_missing_file_starts_empty() {
        let path = temp_path("fresh");
        std::fs::remove_file(&path).ok();
        let (mut journal, replayed) = Journal::resume(&path).unwrap();
        assert!(replayed.is_empty());
        journal.append(&record(7, 1)).unwrap();
        drop(journal);
        assert_eq!(read_journal(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_are_skipped() {
        let path = temp_path("blank");
        let mut journal = Journal::create(&path).unwrap();
        journal.append(&record(0, 1)).unwrap();
        drop(journal);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"\n").unwrap();
        drop(file);
        assert_eq!(read_journal(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
