//! Streaming, resumable campaign execution.
//!
//! A long-running campaign streams every finished run to a **campaign
//! directory** as it completes, making the campaign crash-durable: kill it
//! at any point and [`resume`] picks up where the log ends. A campaign can
//! also be split across machines with [`run_shard`] — each shard executes
//! a fixed strided slice of the run matrix into a **worker directory**
//! (the same kind a scheduler worker, [`crate::sched::work`], fills from
//! its leases) — and reunited by [`crate::merge::merge`]. Re-running a
//! shard or worker on its directory continues it: the torn tail is healed,
//! stored indices are skipped and only the rest is executed.
//!
//! ```text
//! <dir>/manifest.json   campaign name, spec fingerprint, run count, spec,
//!                       and (for worker directories) the worker id
//! <dir>/runs.jsonl      one JSONL record per finished run, appended as
//!                       results complete (index-tagged, any order)
//! <dir>/report.json     the final aggregated report (written last; absent
//!                       in worker directories — merge builds it)
//! ```
//!
//! Workers append each [`RunResult`] the moment it finishes — and nothing
//! retains it afterwards: report building replays the persisted log through
//! a [`ReportAccumulator`] one record at a time ([`CampaignDir::replay`]),
//! so a campaign bigger than memory streams through aggregation instead of
//! materializing its full result set. [`resume`] scans the JSONL into a
//! byte-offset [`LogIndex`], verifies the stored [`spec_fingerprint`],
//! re-executes only the missing run indices and rebuilds the report —
//! byte-identical to an uninterrupted run, because every run's seed derives
//! from the spec alone and records are replayed in matrix order either way.

use crate::executor::{execute_run, Executor, RunResult};
use crate::grid::{self, RunSpec};
use crate::report::{CampaignReport, ReportAccumulator};
use crate::spec::{CampaignSpec, SpecError};
use crate::spill::SampleStore;
use dl2fence_telemetry::schema::MANIFEST_SCHEMA;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// File name of the campaign manifest inside a campaign directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// File name of the streamed per-run JSONL log.
pub const RUNS_FILE: &str = "runs.jsonl";
/// File name of the final aggregated report.
pub const REPORT_FILE: &str = "report.json";
/// Directory name of the spilled eval sample store inside a campaign
/// directory ([`crate::spill`]).
pub const SAMPLES_DIR: &str = "samples";
/// File name of the optional telemetry event log ([`crate::events`]).
pub const EVENTS_FILE: &str = "events.jsonl";

/// Default in-memory eval sample bound of the streaming paths: once an
/// eval-enabled campaign buffers this many labeled samples, they spill to
/// the campaign directory's sample store.
pub const DEFAULT_SPILL_THRESHOLD: usize = 65_536;

/// How a report-building path bounds its eval-phase sample memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Buffer every eval sample in memory, exactly as the in-memory build
    /// does. (A pre-existing sample store — a stripped run log's — is still
    /// read at eval time; it is just never appended to.)
    InMemory,
    /// Spill buffered eval samples to the campaign directory's `samples/`
    /// store whenever the in-memory count reaches the threshold.
    Threshold(usize),
}

impl Default for SpillPolicy {
    /// The streaming paths spill at [`DEFAULT_SPILL_THRESHOLD`] unless told
    /// otherwise — campaign memory stays bounded by default.
    fn default() -> Self {
        SpillPolicy::Threshold(DEFAULT_SPILL_THRESHOLD)
    }
}

/// The fingerprint of a campaign spec: FNV-1a 64 over its canonical JSON
/// serialization, rendered as 16 hex digits.
///
/// Two specs share a fingerprint exactly when they serialize identically, so
/// a stored fingerprint pins the whole run matrix (grid, seeds, sim
/// parameters, report grouping and eval configuration).
pub fn spec_fingerprint(spec: &CampaignSpec) -> String {
    let canonical = serde_json::to_string(spec).expect("spec serialization cannot fail");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The run indices shard `index` of `count` owns out of `total` runs,
/// ascending: those congruent to `index` modulo `count` — a strided slice,
/// so every shard samples the whole grid (meshes, workloads, FIRs) instead
/// of one machine drawing all the expensive 16×16 runs.
///
/// # Errors
///
/// Returns a [`SpecError`] unless `0 <= index < count`.
pub fn shard_plan(index: usize, count: usize, total: usize) -> Result<Vec<usize>, SpecError> {
    if index >= count {
        return Err(SpecError::new(format!(
            "shard {index}/{count} is not a valid slice (need 0 <= index < count)"
        )));
    }
    Ok((index..total).step_by(count).collect())
}

/// The manifest stored at the root of a campaign directory: enough to
/// resume the campaign with no other input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema identifier ([`MANIFEST_SCHEMA`]); empty in manifests written
    /// before the tag existed, which stay loadable.
    #[serde(default)]
    pub schema: String,
    /// Campaign name (duplicated from the spec for quick inspection).
    pub name: String,
    /// [`spec_fingerprint`] of the embedded spec.
    pub fingerprint: String,
    /// Size of the full expanded run matrix (also for worker directories,
    /// which hold only part of it).
    pub total_runs: usize,
    /// The worker id this directory belongs to — a scheduler worker
    /// ([`crate::sched::work`]) or a static shard (`shard-I-of-N`,
    /// [`run_shard`]); `None` for a whole-campaign directory. A worker
    /// directory holds whatever run indices its leases or shard plan
    /// granted, and builds no report.
    #[serde(default)]
    pub worker: Option<String>,
    /// The full campaign spec.
    pub spec: CampaignSpec,
}

impl Default for Manifest {
    /// Deserialization fallback source for the optional `schema` and
    /// `worker` fields only — a default manifest never validates (empty
    /// fingerprint).
    fn default() -> Self {
        Manifest {
            schema: String::new(),
            name: String::new(),
            fingerprint: String::new(),
            total_runs: 0,
            worker: None,
            spec: CampaignSpec::default(),
        }
    }
}

/// The byte location of one stored record inside `runs.jsonl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordEntry {
    /// Byte offset of the record's line start.
    pub offset: u64,
    /// Byte length of the raw line (trailing newline excluded).
    pub len: usize,
}

/// What a streaming scan of `runs.jsonl` found: per-run byte locations
/// instead of materialized records, so indexing a log costs O(records) time
/// but O(1) retained [`RunResult`]s.
#[derive(Debug)]
pub struct LogIndex {
    /// Record locations slotted by run index (`None` where no record
    /// exists).
    pub entries: Vec<Option<RecordEntry>>,
    /// Whether the final line was an unparseable partial record (the
    /// expected shape of a crash mid-append); it is ignored and its run
    /// index re-executed.
    pub truncated_tail: bool,
    /// Byte length of the longest prefix of the log made of whole, valid
    /// records — what [`resume`] truncates the file to before appending, so
    /// a torn tail record can never merge with the next append.
    pub valid_bytes: u64,
    /// Stored records that repeated an already-indexed run index with
    /// identical bytes (what `campaign compact` drops when rewriting).
    pub duplicate_records: usize,
}

impl LogIndex {
    /// Stored run count.
    pub fn completed(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// The run indices with no stored record, in matrix order.
    pub fn missing_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.is_none().then_some(i))
            .collect()
    }
}

/// A campaign directory: the on-disk home of one streaming campaign (or of
/// one worker's part of it).
#[derive(Debug, Clone)]
pub struct CampaignDir {
    root: PathBuf,
}

impl CampaignDir {
    /// Initializes a fresh whole-campaign directory for `spec` (whose run
    /// matrix has `total_runs` entries — the caller already expanded it),
    /// creating `root` (and parents) and writing the manifest.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec fails validation, the directory
    /// already holds a campaign, or the manifest cannot be written.
    pub fn create(
        root: impl Into<PathBuf>,
        spec: &CampaignSpec,
        total_runs: usize,
    ) -> Result<Self, SpecError> {
        Self::create_inner(root, spec, total_runs, None)
    }

    /// [`Self::create`] for a worker directory ([`crate::sched::work`],
    /// [`run_shard`]): the manifest records the worker id. Only the worker
    /// knows what it owns — its leases or shard plan — so [`resume`] only
    /// heals a worker directory and never re-executes anything; re-running
    /// the worker continues it.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec fails validation, the directory
    /// already holds a campaign, or the manifest cannot be written.
    pub fn create_worker(
        root: impl Into<PathBuf>,
        spec: &CampaignSpec,
        total_runs: usize,
        worker: &str,
    ) -> Result<Self, SpecError> {
        Self::create_inner(root, spec, total_runs, Some(worker.to_string()))
    }

    fn create_inner(
        root: impl Into<PathBuf>,
        spec: &CampaignSpec,
        total_runs: usize,
        worker: Option<String>,
    ) -> Result<Self, SpecError> {
        spec.validate()?;
        let root = root.into();
        let manifest_path = root.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(SpecError::new(format!(
                "{} already contains a campaign manifest; use `campaign resume` \
                 or choose a fresh directory",
                root.display()
            )));
        }
        std::fs::create_dir_all(&root)
            .map_err(|e| SpecError::new(format!("cannot create {}: {e}", root.display())))?;
        let manifest = Manifest {
            schema: MANIFEST_SCHEMA.to_string(),
            name: spec.name.clone(),
            fingerprint: spec_fingerprint(spec),
            total_runs,
            worker,
            spec: spec.clone(),
        };
        let text =
            serde_json::to_string_pretty(&manifest).expect("manifest serialization cannot fail");
        std::fs::write(&manifest_path, text).map_err(|e| {
            SpecError::new(format!("cannot write {}: {e}", manifest_path.display()))
        })?;
        Ok(CampaignDir { root })
    }

    /// Opens an existing campaign directory (the manifest must exist).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if `root` holds no campaign manifest.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, SpecError> {
        let root = root.into();
        if !root.join(MANIFEST_FILE).exists() {
            return Err(SpecError::new(format!(
                "{} is not a campaign directory (no {MANIFEST_FILE})",
                root.display()
            )));
        }
        Ok(CampaignDir { root })
    }

    /// The directory's root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path of the streamed JSONL run log.
    pub fn runs_path(&self) -> PathBuf {
        self.root.join(RUNS_FILE)
    }

    /// The path of the final report.
    pub fn report_path(&self) -> PathBuf {
        self.root.join(REPORT_FILE)
    }

    /// The path of the spilled eval sample store ([`crate::spill`]).
    pub fn samples_path(&self) -> PathBuf {
        self.root.join(SAMPLES_DIR)
    }

    /// The path of the optional telemetry event log (only present when the
    /// campaign ran with telemetry enabled; see [`crate::events`]).
    pub fn events_path(&self) -> PathBuf {
        self.root.join(EVENTS_FILE)
    }

    /// Reads and self-checks the manifest (the stored fingerprint must match
    /// the embedded spec — a mismatch means the manifest was edited).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on a missing, malformed or self-inconsistent
    /// manifest, and on a shard directory written before shards became
    /// worker directories (a non-null `shard` field), which would otherwise
    /// load as a whole campaign.
    pub fn manifest(&self) -> Result<Manifest, SpecError> {
        let path = self.root.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
        let malformed = |e: serde_json::Error| {
            SpecError::new(format!("malformed manifest {}: {e}", path.display()))
        };
        let value = serde_json::parse_value(&text).map_err(malformed)?;
        if let Ok(shard) = value.field("shard") {
            if *shard != serde::Value::Null {
                return Err(SpecError::new(format!(
                    "{} records the legacy shard slice {}; shard directories are now worker \
                     directories — re-run `campaign shard` into a fresh directory",
                    path.display(),
                    serde_json::to_string(shard).expect("value serialization cannot fail")
                )));
            }
        }
        let manifest: Manifest = serde_json::from_value(&value).map_err(malformed)?;
        // Pre-tag manifests carry an empty schema and load fine; anything
        // else must match exactly — a future v2 is not silently readable.
        if !manifest.schema.is_empty() && manifest.schema != MANIFEST_SCHEMA {
            return Err(SpecError::new(format!(
                "{} declares schema `{}` but this build reads `{MANIFEST_SCHEMA}`",
                path.display(),
                manifest.schema
            )));
        }
        let expected = spec_fingerprint(&manifest.spec);
        if manifest.fingerprint != expected {
            return Err(SpecError::new(format!(
                "manifest fingerprint {} does not match its own spec (expected {expected}); \
                 the campaign directory is corrupt",
                manifest.fingerprint
            )));
        }
        Ok(manifest)
    }

    /// Appends one finished run to `runs.jsonl`, flushing the line so a
    /// crash after this call cannot lose it.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the record cannot be written.
    pub fn append_result(&self, writer: &mut File, result: &RunResult) -> Result<(), SpecError> {
        let mut line = serde_json::to_string(result).expect("run serialization cannot fail");
        line.push('\n');
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| {
                SpecError::new(format!(
                    "cannot append to {}: {e}",
                    self.runs_path().display()
                ))
            })
    }

    /// Opens `runs.jsonl` for appending (creating it if absent).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be opened.
    pub fn open_runs_for_append(&self) -> Result<File, SpecError> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.runs_path())
            .map_err(|e| SpecError::new(format!("cannot open {}: {e}", self.runs_path().display())))
    }

    /// Scans `runs.jsonl` against the expanded run matrix, recording every
    /// stored record's byte location by run index — each record is parsed
    /// for validation and dropped immediately, so indexing never holds more
    /// than one [`RunResult`].
    ///
    /// A missing file means an empty index (campaign killed before its
    /// first record). An unparseable **final** line is tolerated as a
    /// crash-truncated partial record; anything unparseable earlier, an
    /// out-of-range index, or a stored record whose run spec disagrees with
    /// the matrix is an error. A duplicate index is deduplicated when its
    /// record bytes are identical to the stored one (first wins) and is an
    /// error when they conflict.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first corrupt record.
    pub fn index_log(&self, runs: &[RunSpec]) -> Result<LogIndex, SpecError> {
        self.index_log_pinned(runs).map(|(index, _)| index)
    }

    /// [`Self::index_log`], also returning the open handle the index was
    /// read from (`None` when no log exists). Reads through that handle see
    /// exactly the indexed bytes even if the log is atomically replaced
    /// meanwhile — as a scheduler worker compacting its directory on exit
    /// does while the coordinator assembles from it.
    pub(crate) fn index_log_pinned(
        &self,
        runs: &[RunSpec],
    ) -> Result<(LogIndex, Option<File>), SpecError> {
        let path = self.runs_path();
        let read_error =
            |e: std::io::Error| SpecError::new(format!("cannot read {}: {e}", path.display()));
        let mut reader = match File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let index = LogIndex {
                    entries: (0..runs.len()).map(|_| None).collect(),
                    truncated_tail: false,
                    valid_bytes: 0,
                    duplicate_records: 0,
                };
                return Ok((index, None));
            }
            Err(e) => return Err(read_error(e)),
        };
        let mut entries: Vec<Option<RecordEntry>> = (0..runs.len()).map(|_| None).collect();
        // (line, run index, location) of every record repeating an index.
        let mut repeats: Vec<(usize, usize, RecordEntry)> = Vec::new();
        let scan_file = reader.try_clone().map_err(read_error)?;
        let scan = scan_jsonl(scan_file, &path, "record", |line_no, offset, line| {
            let record: RunResult = match serde_json::from_str(line) {
                Ok(record) => record,
                Err(e) => return Ok(Some(e.to_string())),
            };
            let index = record.spec.index;
            let Some(expected) = runs.get(index) else {
                return Err(SpecError::new(format!(
                    "record on line {line_no} of {} has run index {index}, but the campaign \
                     expands to {} runs",
                    path.display(),
                    runs.len()
                )));
            };
            if record.spec != *expected {
                return Err(SpecError::new(format!(
                    "record on line {line_no} of {} disagrees with the spec's run matrix at \
                     index {index}; the run log belongs to a different campaign",
                    path.display()
                )));
            }
            drop(record);
            let entry = RecordEntry {
                offset,
                len: line.len(),
            };
            match entries[index] {
                Some(_) => repeats.push((line_no, index, entry)),
                None => entries[index] = Some(entry),
            }
            Ok(None)
        })?;
        // First record for an index wins; a repeat must be byte-identical
        // (runs are deterministic) or the log mixes results from different
        // executions.
        for &(line_no, index, entry) in &repeats {
            let first = entries[index].expect("a repeat follows the first record of its index");
            if read_line_at(&mut reader, &first, &path)?
                != read_line_at(&mut reader, &entry, &path)?
            {
                return Err(SpecError::new(format!(
                    "run index {index} appears twice in {} with conflicting payloads \
                     (line {line_no})",
                    path.display()
                )));
            }
        }
        let index = LogIndex {
            entries,
            truncated_tail: scan.truncated_tail,
            valid_bytes: scan.valid_bytes,
            duplicate_records: repeats.len(),
        };
        Ok((index, Some(reader)))
    }

    /// Opens `runs.jsonl` for random-access reads ([`Self::read_record_line_at`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be opened.
    pub fn open_runs_for_read(&self) -> Result<File, SpecError> {
        File::open(self.runs_path())
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", self.runs_path().display())))
    }

    /// Reads one stored record's exact bytes (whitespace-trimmed line) back
    /// from `runs.jsonl` by its [`RecordEntry`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the bytes cannot be read.
    pub fn read_record_line(&self, entry: &RecordEntry) -> Result<String, SpecError> {
        let mut file = self.open_runs_for_read()?;
        self.read_record_line_at(&mut file, entry)
    }

    /// [`Self::read_record_line`] over an already open handle
    /// ([`Self::open_runs_for_read`]) — hot loops like merge replay read
    /// thousands of records without reopening the file each time.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the bytes cannot be read.
    pub fn read_record_line_at(
        &self,
        file: &mut File,
        entry: &RecordEntry,
    ) -> Result<String, SpecError> {
        read_line_at(file, entry, &self.runs_path())
    }

    /// Replays the indexed log in run-index order, handing each parsed
    /// [`RunResult`] to `fold` **one at a time** — the record is dropped the
    /// moment the fold returns, so replay retains O(1) runs regardless of
    /// campaign size. Indices with no stored record are skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a record cannot be re-read or re-parsed
    /// (the log changed underneath the index).
    pub fn replay(
        &self,
        index: &LogIndex,
        mut fold: impl FnMut(RunResult),
    ) -> Result<(), SpecError> {
        self.try_replay(index, |record| {
            fold(record);
            Ok(())
        })
    }

    /// [`Self::replay`] with a fallible fold — the spill-mode aggregation
    /// paths fold through this so a failed spill aborts the replay.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a record cannot be re-read or re-parsed,
    /// or the first error `fold` returns.
    pub fn try_replay(
        &self,
        index: &LogIndex,
        mut fold: impl FnMut(RunResult) -> Result<(), SpecError>,
    ) -> Result<(), SpecError> {
        let path = self.runs_path();
        let mut file = File::open(&path)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
        for entry in index.entries.iter().flatten() {
            let line = read_line_at(&mut file, entry, &path)?;
            let record: RunResult = serde_json::from_str(line.trim()).map_err(|e| {
                SpecError::new(format!(
                    "record at byte {} of {} changed under the index: {e}",
                    entry.offset,
                    path.display()
                ))
            })?;
            fold(record)?;
        }
        Ok(())
    }

    /// Truncates `runs.jsonl` to `valid_bytes` — called by [`resume`] when a
    /// scan found a torn tail record, so the next append starts on a fresh
    /// line instead of merging into the partial one.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be truncated.
    pub fn truncate_runs_to(&self, valid_bytes: u64) -> Result<(), SpecError> {
        let path = self.runs_path();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|file| file.set_len(valid_bytes))
            .map_err(|e| SpecError::new(format!("cannot truncate {}: {e}", path.display())))
    }

    /// Writes the final report atomically (temp file + rename), so a crash
    /// can never leave a partial `report.json` masquerading as complete.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the report cannot be written.
    pub fn write_report(&self, report: &CampaignReport) -> Result<(), SpecError> {
        let tmp = self.root.join(".report.json.tmp");
        std::fs::write(&tmp, report.to_json())
            .map_err(|e| SpecError::new(format!("cannot write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, self.report_path()).map_err(|e| {
            SpecError::new(format!(
                "cannot finalize {}: {e}",
                self.report_path().display()
            ))
        })
    }
}

/// What a torn-tail-tolerant JSONL scan concluded about a whole file.
pub(crate) struct JsonlScan {
    /// Byte length of the longest prefix made of whole, valid records.
    pub valid_bytes: u64,
    /// Whether the file ends in a torn (crash-truncated or partially
    /// appended) record.
    pub truncated_tail: bool,
}

/// The torn-tail-tolerant JSONL scan loop shared by the run-log index
/// ([`CampaignDir::index_log`]) and the sample store
/// ([`crate::spill`]): reads whole lines, skips blanks, treats a final
/// line that fails `on_line` validation *or* lacks its trailing newline (a
/// partially applied append — writers frame record + newline in one write)
/// as torn, and promotes the same failure mid-file to a hard corruption
/// error naming `what`.
///
/// `on_line(line_no, offset_of_line_start, trimmed_line)` returns
/// `Ok(None)` to accept the record, `Ok(Some(reason))` to mark it
/// unparseable (tolerated only as the final line), or `Err` to abort.
pub(crate) fn scan_jsonl(
    file: File,
    path: &Path,
    what: &str,
    mut on_line: impl FnMut(usize, u64, &str) -> Result<Option<String>, SpecError>,
) -> Result<JsonlScan, SpecError> {
    let mut reader = BufReader::new(file);
    let mut valid_bytes = 0u64;
    let mut offset = 0u64;
    let mut line_no = 0usize;
    // A parse failure is only tolerable if nothing follows it; remember it
    // and keep scanning so a later record can prove it mid-file.
    let mut pending_error: Option<(usize, String)> = None;
    let mut segment = String::new();
    loop {
        segment.clear();
        let read = reader
            .read_line(&mut segment)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
        if read == 0 {
            break;
        }
        line_no += 1;
        let line_start = offset;
        offset += read as u64;
        let line = segment.trim();
        if line.is_empty() {
            continue;
        }
        if let Some((bad_line, error)) = pending_error.take() {
            return Err(SpecError::new(format!(
                "corrupt {what} on line {bad_line} of {}: {error}",
                path.display()
            )));
        }
        if !segment.ends_with('\n') {
            pending_error = Some((line_no, "missing trailing newline".to_string()));
            continue;
        }
        let leading = (segment.len() - segment.trim_start().len()) as u64;
        match on_line(line_no, line_start + leading, line)? {
            None => valid_bytes = offset,
            Some(reason) => pending_error = Some((line_no, reason)),
        }
    }
    Ok(JsonlScan {
        valid_bytes,
        truncated_tail: pending_error.is_some(),
    })
}

/// Reads the raw line bytes of `entry` from an open JSONL handle — the
/// seek/read-one-record primitive shared by the run log and the spilled
/// sample store ([`crate::spill`]).
pub(crate) fn read_line_at(
    file: &mut File,
    entry: &RecordEntry,
    path: &Path,
) -> Result<String, SpecError> {
    file.seek(SeekFrom::Start(entry.offset))
        .map_err(|e| SpecError::new(format!("cannot seek in {}: {e}", path.display())))?;
    let mut bytes = vec![0u8; entry.len];
    file.read_exact(&mut bytes)
        .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
    String::from_utf8(bytes).map_err(|e| {
        SpecError::new(format!(
            "record at byte {} of {} is not UTF-8: {e}",
            entry.offset,
            path.display()
        ))
    })
}

/// Executes `spec` streaming into a fresh campaign directory at `root`:
/// every finished run is appended to `runs.jsonl` as it completes (and
/// dropped — no result set is retained), then the report is built by
/// replaying the log through the shared [`ReportAccumulator`] and lands in
/// `report.json`.
///
/// The returned report is byte-identical to [`Executor::execute`] +
/// [`CampaignReport::build`] on the same spec.
///
/// # Errors
///
/// Returns a [`SpecError`] on an invalid spec, an already-initialized
/// directory, or any I/O failure.
pub fn run_streaming(
    executor: &Executor,
    spec: &CampaignSpec,
    root: impl Into<PathBuf>,
) -> Result<CampaignReport, SpecError> {
    let runs = grid::expand(spec)?;
    run_streaming_expanded(executor, spec, &runs, root)
}

/// [`run_streaming`] over an already expanded run matrix (callers that
/// expanded the grid for their own bookkeeping — e.g. the CLI's progress
/// line — avoid paying for expansion twice).
///
/// # Errors
///
/// Returns a [`SpecError`] on an invalid spec, an already-initialized
/// directory, or any I/O failure.
pub fn run_streaming_expanded(
    executor: &Executor,
    spec: &CampaignSpec,
    runs: &[RunSpec],
    root: impl Into<PathBuf>,
) -> Result<CampaignReport, SpecError> {
    run_streaming_expanded_with(executor, spec, runs, root, SpillPolicy::default())
}

/// [`run_streaming_expanded`] with an explicit [`SpillPolicy`] for the
/// report-building phase.
///
/// # Errors
///
/// Returns a [`SpecError`] on an invalid spec, an already-initialized
/// directory, or any I/O failure.
pub fn run_streaming_expanded_with(
    executor: &Executor,
    spec: &CampaignSpec,
    runs: &[RunSpec],
    root: impl Into<PathBuf>,
    spill: SpillPolicy,
) -> Result<CampaignReport, SpecError> {
    let rec = executor.telemetry().recorder();
    let dir = CampaignDir::create(root, spec, runs.len())?;
    let mut writer = dir.open_runs_for_append()?;
    rec.time("campaign.execute", || {
        stream_pending(executor, spec, runs, &dir, &mut writer, |_| Ok(()))
    })?;
    drop(writer);
    let index = dir.index_log(runs)?;
    rec.time("campaign.report", || {
        report_from_log(executor, &dir, spec, runs, &index, spill)
    })
}

/// Executes shard `index` of `count` of `spec` — the strided slice
/// [`shard_plan`] names — into the worker directory `shard-I-of-N` at
/// `root`. No report is built; [`crate::merge::merge`] reunites the shards
/// and builds it.
///
/// A shard is a worker whose plan is fixed up front, so it takes the same
/// path as [`crate::sched::work`] does for a lease: open or create the
/// worker directory, heal a torn tail, skip the indices already stored and
/// stream the rest. Running the same shard again on `root` therefore
/// continues a crashed shard, and is a no-op on a complete one.
///
/// Returns the number of runs executed by this call.
///
/// # Errors
///
/// Returns a [`SpecError`] on an invalid spec or slice, a directory that
/// holds a different campaign or worker, or any I/O failure.
pub fn run_shard(
    executor: &Executor,
    spec: &CampaignSpec,
    index: usize,
    count: usize,
    root: impl Into<PathBuf>,
) -> Result<usize, SpecError> {
    let runs = grid::expand(spec)?;
    let plan = shard_plan(index, count, runs.len())?;
    let worker = format!("shard-{index}-of-{count}");
    let (dir, stored) = open_worker_dir(&root.into(), spec, &runs, &worker)?;
    let pending: Vec<RunSpec> = plan
        .into_iter()
        .filter(|&i| stored.entries[i].is_none())
        .map(|i| runs[i].clone())
        .collect();
    let mut writer = dir.open_runs_for_append()?;
    stream_pending(executor, spec, &pending, &dir, &mut writer, |_| Ok(()))?;
    Ok(pending.len())
}

/// Opens the worker directory `worker` of `spec` at `root` — creating it
/// when `root` holds no campaign yet — heals a torn tail so the next append
/// starts a fresh line, and indexes the records it already stores.
///
/// # Errors
///
/// Returns a [`SpecError`] if `root` holds a different campaign, a whole
/// campaign or another worker, or on a corrupt log or I/O failure.
pub(crate) fn open_worker_dir(
    root: &Path,
    spec: &CampaignSpec,
    runs: &[RunSpec],
    worker: &str,
) -> Result<(CampaignDir, LogIndex), SpecError> {
    let dir = if root.join(MANIFEST_FILE).exists() {
        let dir = CampaignDir::open(root)?;
        let manifest = dir.manifest()?;
        let fingerprint = spec_fingerprint(spec);
        if manifest.fingerprint != fingerprint || manifest.worker.as_deref() != Some(worker) {
            return Err(SpecError::new(format!(
                "{} holds {} of fingerprint {}, not worker `{worker}` of fingerprint \
                 {fingerprint}; refusing to mix campaigns",
                root.display(),
                match &manifest.worker {
                    Some(other) => format!("worker `{other}`"),
                    None => "a whole campaign".to_string(),
                },
                manifest.fingerprint
            )));
        }
        dir
    } else {
        CampaignDir::create_worker(root, spec, runs.len(), worker)?
    };
    let index = dir.index_log(runs)?;
    if index.truncated_tail {
        dir.truncate_runs_to(index.valid_bytes)?;
    }
    Ok((dir, index))
}

/// Executes `pending` runs, appending each result the moment it completes
/// and dropping it — the pool retains no result set. After each append,
/// `persisted` is called with the stored run index (a worker's lease
/// heartbeat); an error from it, or a failed append, aborts the pool
/// (in-flight runs finish and are discarded) and is returned — so a full
/// disk cannot burn the rest of a long campaign on unpersistable work.
pub(crate) fn stream_pending(
    executor: &Executor,
    spec: &CampaignSpec,
    pending: &[RunSpec],
    dir: &CampaignDir,
    writer: &mut File,
    mut persisted: impl FnMut(usize) -> Result<(), SpecError>,
) -> Result<(), SpecError> {
    let telemetry = executor.telemetry();
    let obs_rec = telemetry.recorder();
    let mut abort: Option<SpecError> = None;
    let done = executor.try_run_jobs_foreach(
        pending,
        |run| {
            let rec = telemetry.recorder();
            let _span = rec.span_indexed("run", run.index as u64);
            execute_run(&spec.sim, run)
        },
        |_, result| {
            let stored = obs_rec
                .time("log.append", || dir.append_result(writer, &result))
                .and_then(|()| persisted(result.spec.index));
            match stored {
                Ok(()) => true,
                Err(e) => {
                    abort = Some(e);
                    false
                }
            }
        },
    );
    match (done, abort) {
        (Err(panic), _) => Err(SpecError::new(format!(
            "run {} panicked mid-campaign: {}; every run completed before the \
             panic is already persisted in {} — fix the cause and resume the \
             campaign (or re-run the shard or worker) to execute only the \
             missing runs",
            pending[panic.job_index].index,
            panic.message,
            dir.root().display()
        ))),
        (Ok(Some(())), None) => Ok(()),
        (_, Some(e)) => Err(e),
        (Ok(None), None) => unreachable!("pool aborts only after an error"),
    }
}

/// Resumes the campaign stored at `root`: verifies the manifest fingerprint
/// (against `expected_spec` too, when given), heals a torn tail record,
/// re-executes only the run indices with no stored JSONL record, and
/// rebuilds the report by replaying the completed log through the shared
/// [`ReportAccumulator`] — byte-identical to an uninterrupted run.
///
/// A worker directory (a shard's or a scheduler worker's) is only healed
/// and `Ok(None)` is returned: only the worker knows what it owns, so
/// re-running the same `campaign shard` or `campaign work` command is what
/// continues it, and merge builds the report.
///
/// # Errors
///
/// Returns a [`SpecError`] if the directory is missing or corrupt, or if
/// `expected_spec` fingerprints differently from the stored spec (no silent
/// partial reuse across spec changes).
pub fn resume(
    executor: &Executor,
    root: impl Into<PathBuf>,
    expected_spec: Option<&CampaignSpec>,
) -> Result<Option<CampaignReport>, SpecError> {
    resume_with(executor, root, expected_spec, SpillPolicy::default())
}

/// [`resume`] with an explicit [`SpillPolicy`] for the report-building
/// phase.
///
/// # Errors
///
/// Returns a [`SpecError`] under the same conditions as [`resume`].
pub fn resume_with(
    executor: &Executor,
    root: impl Into<PathBuf>,
    expected_spec: Option<&CampaignSpec>,
    spill: SpillPolicy,
) -> Result<Option<CampaignReport>, SpecError> {
    let dir = CampaignDir::open(root)?;
    let manifest = dir.manifest()?;
    if let Some(expected) = expected_spec {
        let given = spec_fingerprint(expected);
        if given != manifest.fingerprint {
            return Err(SpecError::new(format!(
                "spec fingerprint mismatch: the campaign directory was created from \
                 fingerprint {}, but the given spec fingerprints as {given}; refusing \
                 to mix results from different campaigns",
                manifest.fingerprint
            )));
        }
    }
    let spec = manifest.spec;
    let runs = grid::expand(&spec)?;
    if runs.len() != manifest.total_runs {
        return Err(SpecError::new(format!(
            "manifest records {} runs but the spec expands to {}; the campaign \
             directory is corrupt",
            manifest.total_runs,
            runs.len()
        )));
    }
    let index = dir.index_log(&runs)?;
    if index.truncated_tail {
        // Heal the log: drop the torn record so the next append starts a
        // fresh line — otherwise the first re-executed record merges into
        // the partial one and corrupts the log for every later resume.
        dir.truncate_runs_to(index.valid_bytes)?;
    }
    if manifest.worker.is_some() {
        return Ok(None);
    }
    let missing = index.missing_indices();
    if missing.is_empty() {
        // A clean resume of a completed campaign replays the index it
        // already has instead of parsing the whole log a second time.
        // (Healing the torn tail never invalidates the index — every
        // indexed record ends at or before `valid_bytes`.)
        return report_from_log(executor, &dir, &spec, &runs, &index, spill).map(Some);
    }
    let pending: Vec<RunSpec> = missing.iter().map(|&i| runs[i].clone()).collect();
    let mut writer = dir.open_runs_for_append()?;
    stream_pending(executor, &spec, &pending, &dir, &mut writer, |_| Ok(()))?;
    let index = dir.index_log(&runs)?;
    report_from_log(executor, &dir, &spec, &runs, &index, spill).map(Some)
}

/// Builds and persists the report of a campaign directory whose `index` is
/// complete, by replaying the run log through the shared
/// [`ReportAccumulator`] — one record at a time, in run-index order, never
/// materializing the result set.
///
/// When the eval phase is enabled, `spill` bounds the sample pools: a
/// [`SpillPolicy::Threshold`] attaches the directory's sample store and
/// spills at the threshold, while [`SpillPolicy::InMemory`] buffers
/// everything — unless the directory already holds a sample store (a
/// stripped run log's), which is then attached read-mostly so the eval
/// phase can find the stripped records' samples.
pub(crate) fn report_from_log(
    executor: &Executor,
    dir: &CampaignDir,
    spec: &CampaignSpec,
    runs: &[RunSpec],
    index: &LogIndex,
    spill: SpillPolicy,
) -> Result<CampaignReport, SpecError> {
    let missing = index.missing_indices();
    if !missing.is_empty() {
        return Err(SpecError::new(format!(
            "run log {} is missing {} of {} records; resume the campaign first",
            dir.runs_path().display(),
            missing.len(),
            runs.len()
        )));
    }
    let mut acc =
        ReportAccumulator::for_spec(spec)?.with_telemetry(executor.telemetry().recorder());
    if spec.eval.enabled {
        let fingerprint = spec_fingerprint(spec);
        match spill {
            SpillPolicy::Threshold(threshold) => {
                let store = SampleStore::attach(dir.samples_path(), &fingerprint)?;
                acc = acc.with_spill(store, threshold);
            }
            SpillPolicy::InMemory => {
                // A stripped run log keeps its samples in the store; attach
                // it for reading but never spill fresh folds into it.
                if let Some(store) =
                    SampleStore::open_existing(dir.samples_path(), Some(&fingerprint))?
                {
                    acc = acc.with_spill(store, usize::MAX);
                }
            }
        }
    }
    dir.try_replay(index, |result| acc.try_fold(&result))?;
    let report = acc.finish(executor)?;
    dir.write_report(&report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::quick("stream-tiny");
        spec.grid.mesh = vec![4];
        spec.grid.fir = vec![0.8];
        spec.grid.workloads = vec!["uniform".into()];
        spec.grid.attack_placements = 2;
        spec.grid.benign_runs = 1;
        spec.grid.seeds = vec![11];
        spec.sim.warmup_cycles = 50;
        spec.sim.sample_period = 150;
        spec.sim.samples_per_run = 1;
        spec
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dl2fence-stream-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let spec = tiny_spec();
        assert_eq!(spec_fingerprint(&spec), spec_fingerprint(&spec));
        let mut other = spec.clone();
        other.grid.seeds = vec![12];
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&other));
    }

    #[test]
    fn shard_slices_partition_every_matrix() {
        for total in [0usize, 1, 5, 12, 97] {
            for count in 1usize..=5 {
                let mut seen = vec![false; total];
                for index in 0..count {
                    for i in shard_plan(index, count, total).unwrap() {
                        assert!(!seen[i], "index {i} owned by two slices");
                        assert_eq!(i % count, index);
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total {total} count {count}");
            }
        }
    }

    #[test]
    fn create_refuses_an_initialized_directory() {
        let root = temp_root("create");
        let spec = tiny_spec();
        let total = grid::expand(&spec).unwrap().len();
        CampaignDir::create(&root, &spec, total).unwrap();
        let err = CampaignDir::create(&root, &spec, total).unwrap_err();
        assert!(err.to_string().contains("already contains"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn streaming_run_writes_every_record_and_the_report() {
        let root = temp_root("full");
        let spec = tiny_spec();
        let report = run_streaming(&Executor::new(2), &spec, &root).unwrap();
        assert_eq!(report.total_runs, 3);
        let jsonl = std::fs::read_to_string(root.join(RUNS_FILE)).unwrap();
        assert_eq!(jsonl.lines().count(), 3);
        assert_eq!(
            std::fs::read_to_string(root.join(REPORT_FILE)).unwrap(),
            report.to_json()
        );
        // A completed campaign resumes with nothing to do, byte-identically.
        let resumed = resume(&Executor::new(3), &root, Some(&spec))
            .unwrap()
            .unwrap();
        assert_eq!(resumed.to_json(), report.to_json());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shard_run_streams_only_owned_indices_and_no_report() {
        let root = temp_root("shard");
        let spec = tiny_spec();
        let runs = grid::expand(&spec).unwrap();
        let plan = shard_plan(1, 2, runs.len()).unwrap();
        let executed = run_shard(&Executor::new(2), &spec, 1, 2, &root).unwrap();
        assert_eq!(executed, plan.len());
        assert!(!root.join(REPORT_FILE).exists(), "shards build no report");

        let dir = CampaignDir::open(&root).unwrap();
        let manifest = dir.manifest().unwrap();
        assert_eq!(manifest.worker.as_deref(), Some("shard-1-of-2"));
        assert_eq!(manifest.total_runs, runs.len());
        let index = dir.index_log(&runs).unwrap();
        assert_eq!(index.completed(), executed);
        for (i, entry) in index.entries.iter().enumerate() {
            assert_eq!(entry.is_some(), plan.contains(&i));
        }
        // Re-running a complete shard executes nothing; resume only heals
        // a worker directory and builds no report.
        let log_before = std::fs::read_to_string(dir.runs_path()).unwrap();
        assert_eq!(run_shard(&Executor::new(2), &spec, 1, 2, &root).unwrap(), 0);
        assert!(resume(&Executor::new(2), &root, Some(&spec))
            .unwrap()
            .is_none());
        assert_eq!(
            std::fs::read_to_string(dir.runs_path()).unwrap(),
            log_before
        );

        // The directory belongs to shard 1 of 2 of this spec: another
        // slice, another spec or a whole campaign is refused.
        let err = run_shard(&Executor::new(1), &spec, 0, 2, &root).unwrap_err();
        assert!(err.to_string().contains("refusing to mix"), "{err}");
        let mut other = spec.clone();
        other.grid.seeds = vec![12];
        let err = run_shard(&Executor::new(1), &other, 1, 2, &root).unwrap_err();
        assert!(err.to_string().contains("refusing to mix"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();

        run_streaming(&Executor::new(1), &spec, &root).unwrap();
        let err = run_shard(&Executor::new(1), &spec, 1, 2, &root).unwrap_err();
        assert!(err.to_string().contains("a whole campaign"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn invalid_shard_slices_are_refused() {
        let spec = tiny_spec();
        let root = temp_root("badshard");
        for (index, count) in [(0, 0), (2, 2), (5, 3)] {
            let err = run_shard(&Executor::new(1), &spec, index, count, &root).unwrap_err();
            assert!(err.to_string().contains("not a valid slice"), "{err}");
            assert!(!root.exists(), "an invalid slice creates no directory");
        }
    }

    /// A shard directory written before shards became worker directories
    /// records its slice in a `shard` field the manifest no longer has;
    /// loading it as a whole campaign would be wrong, so it is refused.
    #[test]
    fn legacy_shard_manifests_are_refused() {
        let root = temp_root("legacy");
        let spec = tiny_spec();
        let total = grid::expand(&spec).unwrap().len();
        let dir = CampaignDir::create(&root, &spec, total).unwrap();
        let path = root.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let with_shard = |shard: &str| {
            text.replacen(
                "\"worker\"",
                &format!("\"shard\": {shard},\n  \"worker\""),
                1,
            )
        };

        std::fs::write(&path, with_shard("null")).unwrap();
        assert_eq!(dir.manifest().unwrap().worker, None);

        std::fs::write(&path, with_shard(r#"{"index": 0, "count": 2}"#)).unwrap();
        let err = dir.manifest().unwrap_err();
        assert!(err.to_string().contains("legacy shard slice"), "{err}");
        let err = resume(&Executor::new(1), &root, None).unwrap_err();
        assert!(err.to_string().contains("legacy shard slice"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn index_tolerates_only_a_truncated_final_line() {
        let root = temp_root("scan");
        let spec = tiny_spec();
        run_streaming(&Executor::new(1), &spec, &root).unwrap();
        let dir = CampaignDir::open(&root).unwrap();
        let runs = grid::expand(&spec).unwrap();
        let full = std::fs::read_to_string(dir.runs_path()).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();

        // Chop the final record mid-line: tolerated, index re-listed, and
        // valid_bytes points at the end of the last whole record.
        let tail = lines.pop().unwrap();
        let whole = format!("{}\n", lines.join("\n"));
        let truncated = format!("{whole}{}", &tail[..tail.len() / 2]);
        std::fs::write(dir.runs_path(), truncated).unwrap();
        let index = dir.index_log(&runs).unwrap();
        assert!(index.truncated_tail);
        assert_eq!(index.missing_indices(), vec![runs.len() - 1]);
        assert_eq!(index.valid_bytes, whole.len() as u64);

        // The same garbage mid-file is corruption, not a crash artifact.
        let garbled = format!("{}\n{}\n{}\n", &tail[..tail.len() / 2], lines[0], tail);
        std::fs::write(dir.runs_path(), garbled).unwrap();
        let err = dir.index_log(&runs).unwrap_err();
        assert!(err.to_string().contains("corrupt record"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_records_dedupe_when_identical_and_fail_when_conflicting() {
        let root = temp_root("dup");
        let spec = tiny_spec();
        run_streaming(&Executor::new(1), &spec, &root).unwrap();
        let dir = CampaignDir::open(&root).unwrap();
        let runs = grid::expand(&spec).unwrap();
        let full = std::fs::read_to_string(dir.runs_path()).unwrap();
        let first = full.lines().next().unwrap();

        // An identical repeat dedupes cleanly (first wins).
        std::fs::write(dir.runs_path(), format!("{full}{first}\n")).unwrap();
        let index = dir.index_log(&runs).unwrap();
        assert_eq!(index.completed(), runs.len());

        // A conflicting repeat (same index, different payload) is an error.
        let tampered = tamper_metric(first);
        std::fs::write(dir.runs_path(), format!("{full}{tampered}\n")).unwrap();
        let err = dir.index_log(&runs).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A merge reads its inputs through the handles their indexes were
    /// read from, so a log replaced meanwhile — a scheduler worker running
    /// `compact --strip-samples` on exit while the coordinator assembles —
    /// still reads back the indexed bytes.
    #[test]
    fn pinned_index_reads_survive_an_atomic_log_replacement() {
        let root = temp_root("pinned");
        let spec = tiny_spec();
        run_streaming(&Executor::new(1), &spec, &root).unwrap();
        let dir = CampaignDir::open(&root).unwrap();
        let runs = grid::expand(&spec).unwrap();
        let original = std::fs::read_to_string(dir.runs_path()).unwrap();
        let (index, reader) = dir.index_log_pinned(&runs).unwrap();
        let mut reader = reader.expect("the log exists");

        let tmp = root.join("replacement.jsonl");
        std::fs::write(&tmp, "{}\n").unwrap();
        std::fs::rename(&tmp, dir.runs_path()).unwrap();

        let reread: Vec<String> = index
            .entries
            .iter()
            .flatten()
            .map(|entry| dir.read_record_line_at(&mut reader, entry).unwrap())
            .collect();
        let mut expected: Vec<&str> = original.lines().collect();
        let mut got: Vec<&str> = reread.iter().map(String::as_str).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Alters a record's `packets_created` count, keeping the JSON valid and
    /// the embedded run spec untouched — a payload conflict, not corruption.
    pub(crate) fn tamper_metric(line: &str) -> String {
        let mut record: RunResult = serde_json::from_str(line).unwrap();
        record.metrics.packets_created += 1;
        serde_json::to_string(&record).unwrap()
    }

    #[test]
    fn replay_hands_records_over_one_at_a_time_in_index_order() {
        let root = temp_root("replay");
        let spec = tiny_spec();
        run_streaming(&Executor::new(2), &spec, &root).unwrap();
        let dir = CampaignDir::open(&root).unwrap();
        let runs = grid::expand(&spec).unwrap();
        let index = dir.index_log(&runs).unwrap();

        let mut seen = Vec::new();
        let mut live = 0usize;
        let mut peak = 0usize;
        dir.replay(&index, |record| {
            live += 1;
            peak = peak.max(live);
            seen.push(record.spec.index);
            // `record` is dropped here — replay retains nothing between
            // calls, so `live` can never exceed one.
            live -= 1;
        })
        .unwrap();
        assert_eq!(seen, (0..runs.len()).collect::<Vec<_>>());
        assert_eq!(peak, 1, "replay must materialize one record at a time");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
