//! Merging sharded campaign directories back into one campaign.
//!
//! [`merge`] reunites any set of campaign directories that share a spec
//! fingerprint — the shard worker directories written by
//! [`crate::stream::run_shard`] on different machines, a whole-campaign
//! directory, or any mix — into a fresh campaign directory whose
//! `report.json` is **byte-identical** to an uninterrupted single-machine
//! `campaign run` of the same spec.
//!
//! The merge is a two-pass stream over the inputs, so it never materializes
//! the combined result set:
//!
//! 1. **Index** — every input log is scanned record-by-record into a byte
//!    offset [`LogIndex`] (each record parsed for validation and dropped).
//!    Records for the same run index must be byte-identical — identical
//!    duplicates dedupe cleanly (first directory in argument order wins),
//!    conflicting ones abort the merge. A torn tail record in an input is
//!    tolerated exactly as [`crate::stream::resume`]'s scan tolerates its
//!    own: ignored, with its run index treated as not stored.
//! 2. **Replay** — the union is walked in run-index order; each record is
//!    re-read from its source, appended to the merged `runs.jsonl`, folded
//!    into the shared [`ReportAccumulator`], and dropped.
//!
//! Before replaying, the union must be gapless: any run index stored by no
//! input aborts the merge with the exact gap list (re-run the shard that
//! owns it, then merge again). With gap re-execution enabled
//! ([`merge_with_opts`], `campaign merge --reexec-gaps`, and the
//! scheduler's final assembly), residual gaps are instead **speculatively
//! re-executed** locally — every run is deterministic from spec + index, so
//! the re-executed records are byte-identical to what a lost shard or
//! crashed worker would have produced, and the merged report still matches
//! a single-machine run exactly.

use crate::executor::Executor;
use crate::grid::{self, RunSpec};
use crate::report::{CampaignReport, ReportAccumulator};
use crate::spec::{CampaignSpec, SpecError};
use crate::spill::SampleStore;
use crate::stream::{spec_fingerprint, CampaignDir, LogIndex, RecordEntry, SpillPolicy};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Scratch directory (inside the merge output) where gap re-execution
/// streams its records; removed once the merged report is written.
const GAPFILL_DIR: &str = ".gapfill";

/// One opened input of a merge: its directory, record index, and the open
/// `runs.jsonl` handle the index was read from — duplicate checks and the
/// replay loop seek within it instead of reopening the file per record, and
/// it keeps reading the indexed bytes even if the input's log is replaced
/// meanwhile (a scheduler worker compacting on exit). `None` until first
/// use for the gap re-execution log, or for an input with no log.
struct MergeSource {
    dir: CampaignDir,
    index: LogIndex,
    reader: Option<File>,
}

impl MergeSource {
    /// Reads one record's exact bytes through the cached handle.
    fn read_record(&mut self, entry: &RecordEntry) -> Result<String, SpecError> {
        if self.reader.is_none() {
            self.reader = Some(self.dir.open_runs_for_read()?);
        }
        let reader = self.reader.as_mut().expect("just opened");
        self.dir.read_record_line_at(reader, entry)
    }
}

/// Merges campaign directories sharing one spec fingerprint into a fresh
/// whole-campaign directory at `out`, returning the rebuilt report.
///
/// The merged directory holds the union of the inputs' run records in
/// run-index order plus a `report.json` byte-identical to an uninterrupted
/// single-machine run (it is itself an ordinary, resumable campaign
/// directory). Inputs are only read, never modified.
///
/// # Errors
///
/// Returns a [`SpecError`] when:
/// - `inputs` is empty, an input is not a campaign directory, or its
///   manifest is corrupt;
/// - two inputs fingerprint differently (no mixing results across specs);
/// - a run index is stored with conflicting payloads (within one input or
///   across two);
/// - the union has gaps — the error lists every missing run index;
/// - the output directory already holds a campaign, or any I/O fails.
pub fn merge(
    executor: &Executor,
    inputs: &[PathBuf],
    out: impl Into<PathBuf>,
) -> Result<CampaignReport, SpecError> {
    merge_with(executor, inputs, out, SpillPolicy::default())
}

/// [`merge`] with an explicit [`SpillPolicy`] for the report-building
/// phase of the merged directory.
///
/// # Errors
///
/// Returns a [`SpecError`] under the same conditions as [`merge`].
pub fn merge_with(
    executor: &Executor,
    inputs: &[PathBuf],
    out: impl Into<PathBuf>,
    spill: SpillPolicy,
) -> Result<CampaignReport, SpecError> {
    merge_with_opts(executor, inputs, out, spill, false)
}

/// [`merge_with`] with optional speculative gap re-execution: when
/// `reexec_gaps` is set, run indices stored by no input are re-executed
/// locally (into a scratch directory removed afterwards) instead of
/// aborting the merge — every run is deterministic from spec + index, so
/// the merged report is still byte-identical to a single-machine run.
///
/// # Errors
///
/// Returns a [`SpecError`] under the same conditions as [`merge`], except
/// that with `reexec_gaps` a gapped union re-executes instead of erroring.
pub fn merge_with_opts(
    executor: &Executor,
    inputs: &[PathBuf],
    out: impl Into<PathBuf>,
    spill: SpillPolicy,
    reexec_gaps: bool,
) -> Result<CampaignReport, SpecError> {
    let (spec, runs, sources) = index_inputs(inputs)?;
    let out_dir = CampaignDir::create(out, &spec, runs.len())?;
    let plan = MergePlan {
        out_dir: &out_dir,
        spec: &spec,
        runs: &runs,
        spill,
        reexec_gaps,
        existing_source: None,
    };
    merge_core(executor, plan, sources)
}

/// Assembles `extra_inputs` (the scheduler's worker directories) **into**
/// the existing campaign directory at `root`, which doubles as merge source
/// 0: records already in its own log are folded but not re-appended, and
/// its sample store is not self-unioned. Residual gaps re-execute when
/// `reexec_gaps` is set. On success `root` is a complete, ordinary campaign
/// directory with a `report.json` byte-identical to a single-machine run.
pub(crate) fn merge_into_existing(
    executor: &Executor,
    root: &Path,
    extra_inputs: &[PathBuf],
    spill: SpillPolicy,
    reexec_gaps: bool,
) -> Result<CampaignReport, SpecError> {
    let mut inputs: Vec<PathBuf> = Vec::with_capacity(extra_inputs.len() + 1);
    inputs.push(root.to_path_buf());
    inputs.extend(extra_inputs.iter().cloned());
    let (spec, runs, sources) = index_inputs(&inputs)?;
    let out_dir = CampaignDir::open(root)?;
    if sources[0].index.truncated_tail {
        // Heal before appending, or the first merged record would fuse into
        // the torn line.
        out_dir.truncate_runs_to(sources[0].index.valid_bytes)?;
    }
    let plan = MergePlan {
        out_dir: &out_dir,
        spec: &spec,
        runs: &runs,
        spill,
        reexec_gaps,
        existing_source: Some(0),
    };
    merge_core(executor, plan, sources)
}

/// How [`merge_core`] should treat one merge: where the union lands, and
/// whether one source *is* the output directory (its records are folded but
/// never re-appended).
struct MergePlan<'a> {
    out_dir: &'a CampaignDir,
    spec: &'a CampaignSpec,
    runs: &'a [RunSpec],
    spill: SpillPolicy,
    reexec_gaps: bool,
    existing_source: Option<usize>,
}

/// The shared merge engine: unite, optionally re-execute gaps, then replay
/// the union in run-index order — copying each record's exact bytes into
/// the merged log and folding the parsed record into the accumulator, one
/// record in memory at a time, one open handle per source.
fn merge_core(
    executor: &Executor,
    plan: MergePlan<'_>,
    mut sources: Vec<MergeSource>,
) -> Result<CampaignReport, SpecError> {
    let MergePlan {
        out_dir,
        spec,
        runs,
        spill,
        reexec_gaps,
        existing_source,
    } = plan;
    let mut slots = unite(runs, &mut sources)?;
    let gaps: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    let mut gapfill_root: Option<PathBuf> = None;
    if !gaps.is_empty() {
        if !reexec_gaps {
            return Err(SpecError::new(format!(
                "merge is missing {} of {} run indices: [{}]; re-run the shard(s) that \
                 own them, then merge again",
                gaps.len(),
                runs.len(),
                render_indices(&gaps)
            )));
        }
        // Speculative gap re-execution: runs are deterministic from
        // spec + index, so executing the residual indices here yields the
        // exact bytes the lost shard or crashed worker would have written.
        executor
            .telemetry()
            .recorder()
            .add("merge.gap_reexec_runs", gaps.len() as u64);
        let scratch = out_dir.root().join(GAPFILL_DIR);
        let _ = std::fs::remove_dir_all(&scratch);
        let gap_dir = CampaignDir::create(&scratch, spec, runs.len())?;
        let pending: Vec<RunSpec> = gaps.iter().map(|&i| runs[i].clone()).collect();
        let mut writer = gap_dir.open_runs_for_append()?;
        crate::stream::stream_pending(executor, spec, &pending, &gap_dir, &mut writer, |_| Ok(()))?;
        writer
            .flush()
            .map_err(|e| SpecError::new(format!("cannot flush gap re-execution log: {e}")))?;
        drop(writer);
        let index = gap_dir.index_log(runs)?;
        let source_id = sources.len();
        sources.push(MergeSource {
            dir: gap_dir,
            index,
            reader: None,
        });
        for &i in &gaps {
            let entry = sources[source_id].index.entries[i].ok_or_else(|| {
                SpecError::new(format!(
                    "gap re-execution produced no record for run index {i}"
                ))
            })?;
            slots[i] = Some((source_id, entry));
        }
        gapfill_root = Some(scratch);
    }
    let union: Vec<(usize, RecordEntry)> = slots
        .into_iter()
        .map(|s| s.expect("gapless after re-execution"))
        .collect();

    let fingerprint = spec_fingerprint(spec);
    let out_store = unite_sample_stores(&sources, out_dir, &fingerprint, existing_source)?;
    let mut writer = out_dir.open_runs_for_append()?;
    let mut acc = ReportAccumulator::for_spec(spec)?;
    if spec.eval.enabled {
        // The merged directory aggregates under the requested spill policy;
        // a store carried over from stripped inputs must be attached even
        // under `InMemory`, or the stripped records' samples stay invisible.
        match (spill, out_store) {
            (SpillPolicy::Threshold(threshold), store) => {
                let store = match store {
                    Some(store) => store,
                    None => SampleStore::attach(out_dir.samples_path(), &fingerprint)?,
                };
                acc = acc.with_spill(store, threshold);
            }
            (SpillPolicy::InMemory, Some(store)) => {
                acc = acc.with_spill(store, usize::MAX);
            }
            (SpillPolicy::InMemory, None) => {}
        }
    }
    for (source_id, entry) in union {
        let source = &mut sources[source_id];
        let line = source.read_record(&entry)?;
        let record = parse_record(&source.dir, &line)?;
        if existing_source != Some(source_id) {
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| {
                    SpecError::new(format!(
                        "cannot append to {}: {e}",
                        out_dir.runs_path().display()
                    ))
                })?;
        }
        acc.try_fold(&record)?;
    }
    writer
        .flush()
        .map_err(|e| SpecError::new(format!("cannot flush merged run log: {e}")))?;
    drop(writer);

    let report = acc.finish(executor)?;
    out_dir.write_report(&report)?;
    if let Some(scratch) = gapfill_root {
        drop(sources);
        std::fs::remove_dir_all(&scratch).map_err(|e| {
            SpecError::new(format!(
                "cannot remove gap re-execution scratch {}: {e}",
                scratch.display()
            ))
        })?;
    }
    Ok(report)
}

/// Unions the inputs' spilled sample stores (if any) into the merged
/// directory's store, batch by batch in input order — identical duplicate
/// batches dedupe (shards re-spilled after a restart overlap), conflicting
/// ones abort. Returns `None` when no input carries a store.
fn unite_sample_stores(
    sources: &[MergeSource],
    out_dir: &CampaignDir,
    fingerprint: &str,
    existing_source: Option<usize>,
) -> Result<Option<SampleStore>, SpecError> {
    let mut out_store: Option<SampleStore> = None;
    for (source_id, source) in sources.iter().enumerate() {
        let Some(in_store) =
            SampleStore::open_existing(source.dir.samples_path(), Some(fingerprint))?
        else {
            continue;
        };
        if existing_source == Some(source_id) {
            // This source *is* the output directory: its store is already
            // the union target, so copying it onto itself is both redundant
            // and unsound (reading a store while appending to it).
            if out_store.is_none() {
                out_store = Some(SampleStore::attach(out_dir.samples_path(), fingerprint)?);
            }
            drop(in_store);
            continue;
        }
        if out_store.is_none() {
            out_store = Some(SampleStore::attach(out_dir.samples_path(), fingerprint)?);
        }
        let out = out_store.as_mut().expect("just attached");
        for mesh in in_store.meshes() {
            in_store.for_each_raw(mesh, |index, line| {
                out.append_line(mesh, index, line).map(|_| ())
            })?;
        }
    }
    Ok(out_store)
}

/// Opens every input, verifies the shared fingerprint and run-matrix size,
/// and indexes each run log.
fn index_inputs(
    inputs: &[PathBuf],
) -> Result<(CampaignSpec, Vec<RunSpec>, Vec<MergeSource>), SpecError> {
    let Some(first) = inputs.first() else {
        return Err(SpecError::new(
            "merge needs at least one campaign directory",
        ));
    };
    let first_dir = CampaignDir::open(first)?;
    let first_manifest = first_dir.manifest()?;
    let spec = first_manifest.spec.clone();
    let runs = grid::expand(&spec)?;
    if runs.len() != first_manifest.total_runs {
        return Err(SpecError::new(format!(
            "manifest of {} records {} runs but its spec expands to {}; the \
             campaign directory is corrupt",
            first_dir.root().display(),
            first_manifest.total_runs,
            runs.len()
        )));
    }

    let mut sources = Vec::with_capacity(inputs.len());
    for input in inputs {
        let dir = CampaignDir::open(input)?;
        let manifest = dir.manifest()?;
        if manifest.fingerprint != first_manifest.fingerprint {
            return Err(SpecError::new(format!(
                "spec fingerprint mismatch: {} was created from fingerprint {}, but {} \
                 holds fingerprint {}; refusing to merge results from different campaigns",
                first_dir.root().display(),
                first_manifest.fingerprint,
                dir.root().display(),
                manifest.fingerprint
            )));
        }
        let (index, reader) = dir.index_log_pinned(&runs)?;
        sources.push(MergeSource { dir, index, reader });
    }
    Ok((spec, runs, sources))
}

/// Unions the sources' record locations by run index: identical duplicates
/// dedupe (first source in argument order wins), conflicting duplicates
/// abort. Gaps stay `None` — the caller decides between erroring with the
/// exact list and re-executing them.
fn unite(
    runs: &[RunSpec],
    sources: &mut [MergeSource],
) -> Result<Vec<Option<(usize, RecordEntry)>>, SpecError> {
    let mut slots: Vec<Option<(usize, RecordEntry)>> = (0..runs.len()).map(|_| None).collect();
    for source_id in 0..sources.len() {
        // Snapshot the (Copy) locations so the reader handles stay free for
        // the duplicate comparisons below.
        let located: Vec<(usize, RecordEntry)> = sources[source_id]
            .index
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .collect();
        for (run_index, entry) in located {
            match slots[run_index] {
                None => slots[run_index] = Some((source_id, entry)),
                Some((kept_id, kept_entry)) => {
                    // Cross-input duplicate: runs are deterministic, so a
                    // true re-execution is byte-identical. Compare the raw
                    // record bytes (one record from each side in memory).
                    let kept = sources[kept_id].read_record(&kept_entry)?;
                    let dup = sources[source_id].read_record(&entry)?;
                    if kept != dup {
                        return Err(SpecError::new(format!(
                            "run index {run_index} appears with conflicting payloads in {} \
                             and {}; the shards were not produced by the same campaign \
                             execution",
                            sources[kept_id].dir.root().display(),
                            sources[source_id].dir.root().display()
                        )));
                    }
                }
            }
        }
    }
    Ok(slots)
}

/// Renders a sorted index list exactly, one decimal per index.
fn render_indices(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses a record line re-read during replay (the log changed underneath
/// the index if this fails).
fn parse_record(dir: &CampaignDir, line: &str) -> Result<crate::executor::RunResult, SpecError> {
    serde_json::from_str(line.trim()).map_err(|e| {
        SpecError::new(format!(
            "record in {} changed under the merge index: {e}",
            dir.runs_path().display()
        ))
    })
}
