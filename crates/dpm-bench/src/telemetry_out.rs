//! Shared `--telemetry <path>` output routine for the harness binaries.
//!
//! The split matters: the **trace** (`<path>`, JSONL of
//! [`dpm_telemetry::TraceLine`]) is deterministic and byte-comparable
//! across runs and `--jobs` settings — CI diffs it. The **profile**
//! (`<path>.profile`, JSONL of [`dpm_telemetry::SpanNodeLine`]) carries
//! the wall-clock span tree and is explicitly non-reproducible; CI gates
//! it with `dpm-analyze profile --check`. The stderr summary renders
//! both, with the wall-clock section clearly labeled.
//!
//! A path of `-` streams the trace to **stdout** instead (the profile is
//! suppressed — there is no `-.profile` to write), so a harness pipes
//! straight into the analyzer: `repro --telemetry - | dpm-analyze audit -`.
//! Binaries that normally print results on stdout must route them to
//! stderr in this mode (see [`to_stdout`]) to keep the stream a clean
//! JSONL document.

use dpm_telemetry::Recorder;

/// True when `path` is the `-` sentinel: the deterministic trace goes to
/// stdout and the wall-clock profile is suppressed. Harness binaries use
/// this to divert their human-readable output to stderr.
pub fn to_stdout(path: &str) -> bool {
    path == "-"
}

/// The loud warning printed when the event ring dropped anything: a
/// truncated trace silently weakens every downstream analysis
/// (`dpm-analyze audit` skips its slot-sum checks), so the condition must
/// be impossible to miss in the run log. Returns `None` when nothing was
/// dropped or the recorder is disabled.
pub fn ring_warning(recorder: &Recorder) -> Option<String> {
    if !recorder.is_enabled() || recorder.dropped() == 0 {
        return None;
    }
    Some(format!(
        "WARNING: telemetry ring dropped {} event(s) ({} retained); the trace is \
         truncated and slot-sum audits are degraded — raise the ring capacity",
        recorder.dropped(),
        recorder.event_count()
    ))
}

/// Write the deterministic trace to `path` and the wall-clock profile to
/// `<path>.profile`, then print the human summary to stderr. Warns loudly
/// when the event ring overflowed. Does nothing for a disabled recorder.
///
/// When `path` is `-` the trace streams to stdout and the profile is
/// suppressed.
///
/// # Errors
/// Propagates [`std::io::Error`] when either file (or stdout) cannot be
/// written.
pub fn write_outputs(recorder: &Recorder, path: &str) -> Result<(), std::io::Error> {
    if !recorder.is_enabled() {
        return Ok(());
    }
    if to_stdout(path) {
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        out.write_all(recorder.to_jsonl().as_bytes())?;
        out.flush()?;
        eprint!("{}", recorder.summary());
        if let Some(warning) = ring_warning(recorder) {
            eprintln!("{warning}");
        }
        eprintln!("telemetry: trace -> stdout (wall-clock profile suppressed)");
        return Ok(());
    }
    std::fs::write(path, recorder.to_jsonl())?;
    std::fs::write(format!("{path}.profile"), recorder.profile_jsonl())?;
    eprint!("{}", recorder.summary());
    if let Some(warning) = ring_warning(recorder) {
        eprintln!("{warning}");
    }
    eprintln!("telemetry: trace -> {path}, wall-clock profile -> {path}.profile");
    Ok(())
}
