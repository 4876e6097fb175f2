//! Golden wire corpus for the JSON codec. It holds every trace line kind,
//! every request and reply variant, and a session spec carrying each
//! disturbance, plus awkward floats and strings that exercise the escape
//! set. The committed files under `tests/data/` pin the exact bytes, in
//! compact and pretty form. Decoding the compact lines must give back
//! values equal to the ones that were encoded.

use dpm_core::units::seconds;
use dpm_serve::{QueryKind, Request, Response, SessionSpec};
use dpm_sim::prelude::Disturbance;
use dpm_telemetry::{
    CounterLine, Event, GaugeLine, HistogramLine, SpanLine, SpanNodeLine, TraceLine, TraceMeta,
};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

const GOLDEN: &str = include_str!("data/codec_golden.jsonl");
const GOLDEN_PRETTY: &str = include_str!("data/codec_golden_pretty.json");

/// Text that needs every escape the writer knows, plus raw non-ASCII.
const AWKWARD: &str = "q\"b\\n\nr\rt\tc\u{1}\u{1f}/µ→✓😀\u{7f}";

/// Finite floats whose text form is easy to get wrong.
const FLOATS: [f64; 9] = [
    0.0,
    1.0,
    0.1 + 0.2,
    -1.5e-7,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    9_007_199_254_740_993.0,
    -123_456.789,
];

fn trace_lines() -> Vec<TraceLine> {
    vec![
        TraceLine::Meta(TraceMeta {
            schema: 1,
            source: "campaign".into(),
            events: 3,
            dropped: 0,
        }),
        TraceLine::Event(Event {
            seq: 0,
            scope: String::new(),
            name: "sim.slot".into(),
            slot: Some(7),
            time: 33.6,
            fields: vec![("battery".into(), 2.36), ("draw".into(), 0.0)],
            detail: None,
        }),
        TraceLine::Event(Event {
            seq: u64::MAX,
            scope: "campaign/3/proposed+safe".into(),
            name: "fault.inject".into(),
            slot: None,
            time: 1e-3,
            fields: FLOATS.iter().map(|&v| (format!("f{v:e}"), v)).collect(),
            detail: Some(AWKWARD.into()),
        }),
        TraceLine::Counter(CounterLine {
            name: "sim.jobs_done".into(),
            value: 12_345,
        }),
        TraceLine::Gauge(GaugeLine {
            name: "battery.c_min_j".into(),
            value: -0.25,
        }),
        TraceLine::Histogram(HistogramLine {
            name: "core.replan_horizon".into(),
            bounds: vec![1.0, 2.5, 10.0],
            counts: vec![0, 4, 1, 2],
            count: 7,
            sum: 31.75,
            min: 2.0,
            max: 12.25,
        }),
        TraceLine::Histogram(HistogramLine {
            name: "empty".into(),
            bounds: Vec::new(),
            counts: vec![0],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }),
        TraceLine::Span(SpanLine {
            name: "sim.run".into(),
            count: 4,
        }),
    ]
}

fn spec() -> SessionSpec {
    SessionSpec {
        scenario: "scenario-2".into(),
        governor: "static+safe".into(),
        periods: 3,
        initial_charge_j: Some(7.5),
        phase_slots: 5,
        faults: vec![
            (
                10.0,
                Disturbance::SupplyScale {
                    factor: 0.5,
                    duration: seconds(30.0),
                },
            ),
            (12.5, Disturbance::EventBurst { count: 40 }),
            (
                20.0,
                Disturbance::ChargingDropout {
                    duration: seconds(9.6),
                },
            ),
            (21.0, Disturbance::ProcessorFault { index: 2 }),
            (48.0, Disturbance::ProcessorRecover { index: 2 }),
            (50.0, Disturbance::BatteryFade { factor: 0.875 }),
            (
                60.0,
                Disturbance::SensorNoise {
                    amplitude: 0.2,
                    duration: seconds(14.4),
                    seed: 0xdead_beef,
                },
            ),
            (
                70.0,
                Disturbance::SensorStuck {
                    duration: seconds(4.8),
                },
            ),
        ],
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Open {
            session: "s0".into(),
            spec: spec(),
        },
        Request::Open {
            session: "plain".into(),
            spec: SessionSpec::plain("scenario-1", "proposed", 1),
        },
        Request::Advance {
            session: "s0".into(),
            slots: 12,
        },
        Request::SetRates {
            session: "s0".into(),
            rates: vec![0.1, 0.2, 0.0],
        },
        Request::Disturb {
            session: "s0".into(),
            at_s: 96.0,
            disturbance: Disturbance::BatteryFade { factor: 0.5 },
        },
        Request::Query {
            session: "s0".into(),
            what: QueryKind::Plan,
        },
        Request::Query {
            session: "s0".into(),
            what: QueryKind::Battery,
        },
        Request::Query {
            session: "s0".into(),
            what: QueryKind::Degradation,
        },
        Request::InjectLine {
            session: "s0".into(),
            line: "{\"Counter\":{\"name\":\"x\",\"value\":1}}".into(),
        },
        Request::Close {
            session: AWKWARD.into(),
        },
        Request::Metrics,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    let tail = vec![
        "{\"Gauge\":{\"name\":\"battery.c_min_j\",\"value\":1.5}}".to_string(),
        AWKWARD.to_string(),
    ];
    vec![
        Response::Opened {
            session: "s0".into(),
            total_slots: 24,
            tau_s: 4.8,
            telemetry: tail.clone(),
        },
        Response::Advanced {
            session: "s0".into(),
            slot: 12,
            done: false,
            telemetry: Vec::new(),
            violations: vec!["battery below C_min".into()],
        },
        Response::RatesSet {
            session: "s0".into(),
        },
        Response::Disturbed {
            session: "s0".into(),
        },
        Response::Plan {
            session: "s0".into(),
            slot: 12,
            workers: 3,
            freq_mhz: 40.0,
            backlog: 0,
        },
        Response::Battery {
            session: "s0".into(),
            level_j: 3.3,
            c_min_j: 0.5,
            c_max_j: 12.0,
            forecast_j: FLOATS.to_vec(),
        },
        Response::Degradation {
            session: "s0".into(),
            degradations: 2,
            shed_level: 1,
            fallback_engaged: true,
        },
        Response::Injected {
            session: "s0".into(),
        },
        Response::Closed {
            session: "s0".into(),
            audit_ok: true,
            violations: Vec::new(),
            checks: 1_024,
            jobs_done: 77,
            undersupplied_j: 0.0,
            trace: tail,
        },
        Response::Killed {
            session: "s1".into(),
            violations: vec!["a".into(), "b".into()],
        },
        Response::Metrics {
            text: "# TYPE dpm_serve_requests_total counter\ndpm_serve_requests_total 3\n".into(),
        },
        Response::Error {
            message: AWKWARD.into(),
        },
        Response::ShuttingDown,
    ]
}

fn span_node() -> SpanNodeLine {
    SpanNodeLine {
        path: "sim.run;core.decide".into(),
        count: 9,
        total_s: 0.003,
        max_s: 0.0009,
    }
}

/// The corpus in compact form, one line per value, in a fixed order.
fn compact_lines() -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    out.extend(trace_lines().iter().map(encode));
    out.extend(requests().iter().map(encode));
    out.extend(responses().iter().map(encode));
    out.push(encode(&spec()));
    out.push(encode(&span_node()));
    out
}

fn encode<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("encode")
}

/// Decode `line` as `T` and check it equals `want`. `Request` and
/// `Response` have no `PartialEq`, so equality is by `Debug` text, which
/// prints every float exactly.
fn check_decodes<T: Deserialize + Debug>(line: &str, want: &T) {
    let got: T = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "decoding {line}");
}

#[test]
fn compact_encoding_matches_golden_corpus() {
    let lines = compact_lines();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), golden.len(), "corpus size");
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, want);
    }
}

#[test]
fn pretty_encoding_matches_golden_corpus() {
    let mut doc = serde_json::to_string_pretty(&requests()).expect("encode");
    doc.push('\n');
    doc.push_str(&serde_json::to_string_pretty(&trace_lines()).expect("encode"));
    doc.push('\n');
    assert_eq!(doc, GOLDEN_PRETTY);
}

#[test]
fn golden_corpus_decodes_to_equal_values() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let mut at = 0;
    let mut next = || {
        at += 1;
        golden[at - 1]
    };
    for want in trace_lines() {
        let line = next();
        check_decodes(line, &want);
        let got: TraceLine = serde_json::from_str(line).expect("decode");
        assert_eq!(got, want);
    }
    for want in requests() {
        check_decodes(next(), &want);
    }
    for want in responses() {
        check_decodes(next(), &want);
    }
    check_decodes(next(), &spec());
    check_decodes(next(), &span_node());
}
