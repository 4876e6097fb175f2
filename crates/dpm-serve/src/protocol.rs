//! The NDJSON wire protocol: one JSON document per line, request in,
//! response out, in order. Enums use serde's external tagging, so an
//! open request reads
//! `{"Open":{"session":"s0","spec":{...}}}` and a shutdown is the bare
//! string `"Shutdown"`.
//!
//! The telemetry contract mirrors how a live emitter feeds the
//! incremental auditor (see `dpm_trace::AuditState`):
//!
//! - [`Response::Opened`] carries the session's config **gauge** lines
//!   (battery window, safety tunables) — stream these first;
//! - [`Response::Advanced`] carries the fresh **event** tail for the
//!   slots just stepped — the live stream;
//! - [`Response::Closed`] carries the complete **batch document**
//!   (meta line first), byte-identical to what `Recorder::to_jsonl`
//!   writes, so it pipes straight into `dpm-analyze audit -`.

use dpm_sim::prelude::Disturbance;
use serde::{Deserialize, Serialize};

use crate::error::ServeError;

/// Everything needed to open a session: which workload, which governor
/// arm, and the per-board individuality knobs that `dpm-workloads`'
/// fleet sampler produces (charge jitter, rate phase, fault schedule).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Workload scenario name (`"scenario-1"` or `"scenario-2"`).
    pub scenario: String,
    /// Governor arm: `"proposed"`, `"proposed+safe"`, `"static"`, or
    /// `"static+safe"`.
    pub governor: String,
    /// Charging periods the session may run (the horizon).
    pub periods: usize,
    /// Initial battery charge (J); `null` uses the scenario default.
    pub initial_charge_j: Option<f64>,
    /// Event-rate phase offset in whole slots (0 = the base schedule).
    pub phase_slots: usize,
    /// Time-sorted fault schedule: `(sim seconds, disturbance)`.
    pub faults: Vec<(f64, Disturbance)>,
}

impl SessionSpec {
    /// A spec with no individuality: scenario defaults, no faults.
    pub fn plain(scenario: &str, governor: &str, periods: usize) -> Self {
        Self {
            scenario: scenario.to_string(),
            governor: governor.to_string(),
            periods,
            initial_charge_j: None,
            phase_slots: 0,
            faults: Vec::new(),
        }
    }
}

/// What a [`Request::Query`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// The operating point most recently commanded and the live backlog.
    Plan,
    /// Battery level, window, and the per-slot forecast over one
    /// charging period.
    Battery,
    /// Safety-wrapper degradation state (zeros for unwrapped arms).
    Degradation,
}

/// One client request. `session` names the target session; names are
/// chosen by the client and must be unique among open sessions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Open a session and start its run at slot 0.
    Open {
        /// Session name (client-chosen, unique while open).
        session: String,
        /// Workload, governor arm, and individuality knobs.
        spec: SessionSpec,
    },
    /// Step the session forward up to `slots` slots (stops early at the
    /// horizon).
    Advance {
        /// Session name.
        session: String,
        /// Maximum slots to step.
        slots: u64,
    },
    /// Replace the session's event-rate schedule from the next slot on
    /// (an online telemetry update from the field).
    SetRates {
        /// Session name.
        session: String,
        /// Per-slot event rates (events/s), cycled over the horizon.
        rates: Vec<f64>,
    },
    /// Schedule a disturbance at an absolute sim time.
    Disturb {
        /// Session name.
        session: String,
        /// Absolute sim time (s) the disturbance fires.
        at_s: f64,
        /// The disturbance to inject.
        disturbance: Disturbance,
    },
    /// Query live state without advancing the clock.
    Query {
        /// Session name.
        session: String,
        /// Which view of the session to return.
        what: QueryKind,
    },
    /// Feed one raw schema-v1 JSONL line to the session's online auditor
    /// **only** — the session's own recorder is untouched. This is the
    /// fault-injection port for exercising the audit path; an illegal
    /// line gets the session killed when auditing is on.
    InjectLine {
        /// Session name.
        session: String,
        /// One schema-v1 JSONL trace line.
        line: String,
    },
    /// Close the session: finish the run, audit the complete stream,
    /// and return the batch trace document.
    Close {
        /// Session name.
        session: String,
    },
    /// Snapshot the server-wide metrics plane as Prometheus-style text
    /// exposition (a scrape). Not tied to any session; sessions keep
    /// running. Encodes as the bare string `"Metrics"`.
    Metrics,
    /// Stop accepting connections and exit once in-flight requests
    /// drain.
    Shutdown,
}

/// One server response; always exactly one line per request, in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// The session is open and its run is at slot 0.
    Opened {
        /// Session name.
        session: String,
        /// Horizon in slots.
        total_slots: u64,
        /// Slot width (s).
        tau_s: f64,
        /// Config gauge lines (schema-v1 JSONL) — the head of the
        /// session's live stream.
        telemetry: Vec<String>,
    },
    /// The session stepped forward.
    Advanced {
        /// Session name.
        session: String,
        /// Next slot to run (== slots completed so far).
        slot: u64,
        /// Whether the horizon is exhausted.
        done: bool,
        /// Fresh event lines (schema-v1 JSONL) for the stepped slots.
        telemetry: Vec<String>,
        /// Violations the online auditor flagged during this advance
        /// (empty when auditing is off or the stream is clean).
        violations: Vec<String>,
    },
    /// The rate schedule was replaced.
    RatesSet {
        /// Session name.
        session: String,
    },
    /// The disturbance was queued.
    Disturbed {
        /// Session name.
        session: String,
    },
    /// Answer to [`QueryKind::Plan`].
    Plan {
        /// Session name.
        session: String,
        /// Next slot to run.
        slot: u64,
        /// Workers commanded in the last completed slot.
        workers: u64,
        /// Frequency commanded in the last completed slot (MHz).
        freq_mhz: f64,
        /// Jobs waiting at the end of the last completed slot.
        backlog: u64,
    },
    /// Answer to [`QueryKind::Battery`].
    Battery {
        /// Session name.
        session: String,
        /// Battery level now (J).
        level_j: f64,
        /// Lower capacity bound C_min (J).
        c_min_j: f64,
        /// Upper capacity bound C_max (J).
        c_max_j: f64,
        /// Projected per-slot battery levels over one charging period,
        /// assuming the nominal source and the last slot's draw.
        forecast_j: Vec<f64>,
    },
    /// Answer to [`QueryKind::Degradation`].
    Degradation {
        /// Session name.
        session: String,
        /// Degradation transitions recorded by the safety wrapper.
        degradations: u64,
        /// Current shed level (0 = nominal).
        shed_level: u64,
        /// Whether the static fallback is engaged.
        fallback_engaged: bool,
    },
    /// The injected line was fed to the auditor (and survived).
    Injected {
        /// Session name.
        session: String,
    },
    /// The session closed cleanly.
    Closed {
        /// Session name.
        session: String,
        /// Whether the canonical end-of-stream audit found no
        /// violations (vacuously `true` when auditing is off).
        audit_ok: bool,
        /// Rendered violations from the canonical audit.
        violations: Vec<String>,
        /// Audit checks performed (0 when auditing is off).
        checks: u64,
        /// Jobs the session completed.
        jobs_done: u64,
        /// Energy demanded but unavailable (J).
        undersupplied_j: f64,
        /// The complete batch trace document, one schema-v1 JSONL line
        /// per entry, meta first.
        trace: Vec<String>,
    },
    /// The online auditor flagged the stream illegal; the session is
    /// gone and its run discarded.
    Killed {
        /// Session name.
        session: String,
        /// Rendered violations, first offender first.
        violations: Vec<String>,
    },
    /// Answer to [`Request::Metrics`]: the metrics snapshot.
    Metrics {
        /// Prometheus-style text exposition (`# TYPE` lines plus
        /// `name{labels} value` samples, newline-terminated).
        text: String,
    },
    /// The request failed; the session (if any) is unchanged.
    Error {
        /// Rendered [`ServeError`].
        message: String,
    },
    /// Shutdown acknowledged; the server exits once connections drain.
    ShuttingDown,
}

impl Response {
    /// Wrap a failure as a wire response.
    pub fn error(e: &ServeError) -> Self {
        Self::Error {
            message: e.to_string(),
        }
    }
}

/// Parse one request line.
///
/// # Errors
/// [`ServeError::BadRequest`] with the parser's message on malformed
/// input.
pub fn decode_request(line: &str) -> Result<Request, ServeError> {
    serde_json::from_str(line).map_err(|e| ServeError::BadRequest(e.to_string()))
}

/// Serialize a response to one NDJSON line (no trailing newline).
/// Serialization of these value types cannot fail; on the impossible
/// path this degrades to a rendered error response.
pub fn encode_response(resp: &Response) -> String {
    serde_json::to_string(resp)
        .unwrap_or_else(|e| format!("{{\"Error\":{{\"message\":\"encode failed: {e}\"}}}}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::units::seconds;

    #[test]
    fn requests_round_trip_through_ndjson() {
        let reqs = vec![
            Request::Open {
                session: "s0".into(),
                spec: SessionSpec {
                    scenario: "scenario-1".into(),
                    governor: "proposed+safe".into(),
                    periods: 2,
                    initial_charge_j: Some(7.5),
                    phase_slots: 3,
                    faults: vec![(
                        10.0,
                        Disturbance::SupplyScale {
                            factor: 0.5,
                            duration: seconds(30.0),
                        },
                    )],
                },
            },
            Request::Advance {
                session: "s0".into(),
                slots: 12,
            },
            Request::SetRates {
                session: "s0".into(),
                rates: vec![0.1, 0.2],
            },
            Request::Query {
                session: "s0".into(),
                what: QueryKind::Battery,
            },
            Request::Close {
                session: "s0".into(),
            },
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).expect("encode");
            let back = decode_request(&line).expect("decode");
            let again = serde_json::to_string(&back).expect("re-encode");
            assert_eq!(line, again, "round trip changed {line}");
        }
    }

    #[test]
    fn metrics_is_a_bare_string_on_the_wire() {
        let line = serde_json::to_string(&Request::Metrics).expect("encode");
        assert_eq!(line, "\"Metrics\"");
        assert!(matches!(
            decode_request("\"Metrics\"").expect("decode"),
            Request::Metrics
        ));
        let resp = encode_response(&Response::Metrics {
            text: "# TYPE dpm_serve_requests_total counter\n".into(),
        });
        assert!(resp.contains("Metrics"));
        assert!(!resp.contains('\n'), "exposition newlines must be escaped");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let err = decode_request("{\"Advnce\":{}}").expect_err("must fail");
        assert!(matches!(err, ServeError::BadRequest(_)));
        let err = decode_request("not json").expect_err("must fail");
        assert!(matches!(err, ServeError::BadRequest(_)));
    }

    #[test]
    fn out_of_range_integers_are_typed_errors() {
        let spec = |periods: &str, faults: &str| {
            format!(
                "{{\"Open\":{{\"session\":\"a\",\"spec\":{{\"scenario\":\"scenario-1\",\
                 \"governor\":\"proposed\",\"periods\":{periods},\"initial_charge_j\":null,\
                 \"phase_slots\":0,\"faults\":{faults}}}}}}}"
            )
        };
        for line in [
            "{\"Advance\":{\"session\":\"a\",\"slots\":-1}}".to_string(),
            "{\"Advance\":{\"session\":\"a\",\"slots\":18446744073709551616}}".to_string(),
            "{\"Advance\":{\"session\":\"a\",\"slots\":1.5}}".to_string(),
            "{\"Advance\":{\"session\":\"a\",\"slots\":1e3}}".to_string(),
            spec("-1", "[]"),
            spec("1", "[[1,{\"EventBurst\":{\"count\":-3}}]]"),
        ] {
            let err = decode_request(&line).expect_err(&line);
            assert!(matches!(err, ServeError::BadRequest(_)), "{line}: {err}");
        }
        // The extremes of the range still decode.
        match decode_request("{\"Advance\":{\"session\":\"a\",\"slots\":18446744073709551615}}") {
            Ok(Request::Advance { slots, .. }) => assert_eq!(slots, u64::MAX),
            other => panic!("u64::MAX must decode, got {other:?}"),
        }
        match decode_request(&spec("0", "[]")) {
            Ok(Request::Open { spec, .. }) => assert_eq!(spec.periods, 0),
            other => panic!("0 must decode, got {other:?}"),
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_even_in_skipped_keys() {
        let deep = "[".repeat(100_000);
        for line in [
            deep.clone(),
            format!("{{\"Open\":{{\"session\":\"a\",\"x\":{deep}}}}}"),
            format!(
                "{{\"Close\":{{\"session\":\"a\",\"x\":{deep}1{}}}}}",
                "]".repeat(100_000)
            ),
        ] {
            let err = decode_request(&line).expect_err("must fail");
            assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        }
        // Unknown keys at legal depth are skipped.
        let nested = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        let line = format!("{{\"Close\":{{\"x\":{nested},\"session\":\"a\"}}}}");
        assert!(matches!(
            decode_request(&line),
            Ok(Request::Close { session }) if session == "a"
        ));
    }

    #[test]
    fn responses_encode_to_single_lines() {
        let resp = Response::Advanced {
            session: "s0".into(),
            slot: 3,
            done: false,
            telemetry: vec!["{\"Event\":{}}".into()],
            violations: vec![],
        };
        let line = encode_response(&resp);
        assert!(!line.contains('\n'));
        assert!(line.contains("Advanced"));
    }
}
