//! Serialization round-trips: schedules, scenarios, reports and traces are
//! part of the public interchange surface (the repro harness exports JSON
//! for plotting), so they must survive serde exactly.

use dpm_bench::experiments;
use dpm_core::platform::Platform;
use dpm_core::series::PowerSeries;
use dpm_core::units::seconds;
use dpm_workloads::{scenarios, Scenario};

#[test]
fn power_series_roundtrip() {
    let s = PowerSeries::new(seconds(4.8), vec![2.36, 0.0, 1.18, 3.54]).unwrap();
    let json = serde_json::to_string(&s).unwrap();
    let back: PowerSeries = serde_json::from_str(&json).unwrap();
    assert_eq!(s, back);
}

#[test]
fn scenario_roundtrip() {
    for s in scenarios::all() {
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}

#[test]
fn platform_roundtrip() {
    let p = Platform::pama();
    let json = serde_json::to_string(&p).unwrap();
    let back: Platform = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
    assert!(back.validate().is_ok());
}

#[test]
fn sim_report_roundtrip() {
    let platform = Platform::pama();
    let s = scenarios::scenario_one();
    let mut g = experiments::proposed_controller(&platform, &s).unwrap();
    let report = experiments::run_governor(&platform, &s, &mut g, 2).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: dpm_sim::stats::SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn controller_trace_roundtrip() {
    let platform = Platform::pama();
    let s = scenarios::scenario_one();
    let (trace, _) = experiments::table3_5(&platform, &s, 1).unwrap();
    let json = serde_json::to_string(&trace).unwrap();
    let back: Vec<dpm_core::runtime::ControllerRecord> = serde_json::from_str(&json).unwrap();
    assert_eq!(trace, back);
}

#[test]
fn table1_rows_roundtrip() {
    let platform = Platform::pama();
    let rows = experiments::table1(&platform, &scenarios::all(), 1).unwrap();
    let json = serde_json::to_string(&rows).unwrap();
    let back: Vec<experiments::Table1Row> = serde_json::from_str(&json).unwrap();
    assert_eq!(rows, back);
}

#[test]
fn disturbance_roundtrip() {
    use dpm_sim::sim::Disturbance;
    let all = vec![
        Disturbance::SupplyScale {
            factor: 0.5,
            duration: seconds(20.0),
        },
        Disturbance::EventBurst { count: 40 },
        Disturbance::ChargingDropout {
            duration: seconds(60.0),
        },
        Disturbance::ProcessorFault { index: 3 },
        Disturbance::ProcessorRecover { index: 3 },
        Disturbance::BatteryFade { factor: 0.75 },
        Disturbance::SensorNoise {
            amplitude: 0.2,
            duration: seconds(30.0),
            seed: 7,
        },
        Disturbance::SensorStuck {
            duration: seconds(15.0),
        },
    ];
    let json = serde_json::to_string(&all).unwrap();
    let back: Vec<Disturbance> = serde_json::from_str(&json).unwrap();
    assert_eq!(all, back);
}

#[test]
fn fault_plan_roundtrip() {
    use dpm_workloads::{faults, FaultPlan, FaultPlanConfig};
    let plan = faults::generate(42, &FaultPlanConfig::standard(seconds(230.4)));
    assert!(!plan.is_empty());
    let json = serde_json::to_string(&plan).unwrap();
    let back: FaultPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(plan, back);
    // The config itself is part of the interchange surface too (campaign
    // manifests record what was injected).
    let config = FaultPlanConfig::standard(seconds(230.4));
    let json = serde_json::to_string(&config).unwrap();
    let back: FaultPlanConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);
}

#[test]
fn survival_report_roundtrip() {
    use dpm_sim::stats::SurvivalReport;
    let platform = Platform::pama();
    let s = scenarios::scenario_one();
    let mut g = experiments::proposed_controller(&platform, &s).unwrap();
    let report = experiments::run_governor(&platform, &s, &mut g, 2).unwrap();
    let survival = SurvivalReport::from_report(&report, 0.5, 2.0, 3);
    let json = serde_json::to_string(&survival).unwrap();
    let back: SurvivalReport = serde_json::from_str(&json).unwrap();
    assert_eq!(survival, back);
}

#[test]
fn degradation_trace_roundtrip() {
    use dpm_core::governor::{Governor, SlotObservation};
    use dpm_core::runtime::{DegradationRecord, SafetyGovernor};
    use dpm_core::units::joules;
    let platform = Platform::pama();
    let inner = dpm_baselines::StaticGovernor::full_power(&platform).unwrap();
    let mut safe = SafetyGovernor::with_defaults(inner, &platform).unwrap();
    // Drive the wrapper into the guard band so the trace is non-trivial.
    for slot in 0..4u64 {
        let obs = SlotObservation {
            slot,
            time: seconds(slot as f64 * 4.8),
            battery: joules(if slot < 2 { 1.0 } else { 8.0 }),
            used_last: joules(0.0),
            supplied_last: joules(0.0),
            backlog: 0,
        };
        safe.decide(&obs).unwrap();
    }
    let trace = safe.take_trace();
    assert!(!trace.is_empty());
    let json = serde_json::to_string(&trace).unwrap();
    let back: Vec<DegradationRecord> = serde_json::from_str(&json).unwrap();
    assert_eq!(trace, back);
}

// ---- The JSON codec contract (DESIGN.md §5) ----

#[test]
fn sim_report_without_broker_parses_with_the_default() {
    let platform = Platform::pama();
    let s = scenarios::scenario_one();
    let mut g = experiments::proposed_controller(&platform, &s).unwrap();
    let report = experiments::run_governor(&platform, &s, &mut g, 1).unwrap();
    assert!(report.broker.is_none());
    let json = serde_json::to_string(&report).unwrap();
    let older = json.replace(",\"broker\":null", "");
    assert_ne!(older, json, "the broker key must be present to remove");
    let back: dpm_sim::stats::SimReport = serde_json::from_str(&older).unwrap();
    assert_eq!(report, back);
}

#[test]
fn f64_round_trips_bit_for_bit() {
    let values = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        9_007_199_254_740_993.0,
        0.1 + 0.2,
        -1.0,
        1e-7,
        123_456_789.0,
    ];
    let json = serde_json::to_string(&values.to_vec()).unwrap();
    let back: Vec<f64> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), values.len());
    for (v, b) in values.iter().zip(&back) {
        assert_eq!(
            v.to_bits(),
            b.to_bits(),
            "{v:e} came back as {b:e} via {json}"
        );
    }
    // Through a struct field and an `Option` as well.
    for v in values {
        let line = dpm_telemetry::GaugeLine {
            name: "g".into(),
            value: v,
        };
        let back: dpm_telemetry::GaugeLine =
            serde_json::from_str(&serde_json::to_string(&line).unwrap()).unwrap();
        assert_eq!(back.value.to_bits(), v.to_bits());
        let opt: Option<f64> =
            serde_json::from_str(&serde_json::to_string(&Some(v)).unwrap()).unwrap();
        assert_eq!(opt.map(f64::to_bits), Some(v.to_bits()));
    }
    // Integer text for a float field reads as the nearest float.
    assert_eq!(
        serde_json::from_str::<f64>("-0").unwrap().to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(
        serde_json::from_str::<f64>("18446744073709551616").unwrap(),
        2f64.powi(64)
    );
}

#[test]
fn integers_are_range_checked() {
    use dpm_telemetry::TraceMeta;
    let meta = |schema: &str| {
        format!("{{\"schema\":{schema},\"source\":\"s\",\"events\":0,\"dropped\":0}}")
    };
    assert_eq!(
        serde_json::from_str::<TraceMeta>(&meta("4294967295"))
            .unwrap()
            .schema,
        u32::MAX
    );
    for bad in ["4294967296", "-1", "1.0", "1e2", "-"] {
        assert!(
            serde_json::from_str::<TraceMeta>(&meta(bad)).is_err(),
            "{bad}"
        );
    }
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808").unwrap(),
        i64::MIN
    );
    assert!(serde_json::from_str::<i64>("9223372036854775808").is_err());
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<usize>("-0").is_ok());
}

#[test]
fn object_keys_may_be_reordered_unknown_or_repeated() {
    use dpm_telemetry::{CounterLine, TraceLine};
    let counter = |line: &str| match serde_json::from_str::<TraceLine>(line) {
        Ok(TraceLine::Counter(CounterLine { name, value })) => Ok((name, value)),
        Ok(other) => panic!("{line} decoded to {other:?}"),
        Err(e) => Err(e.to_string()),
    };
    let want = Ok(("a".to_string(), 1));
    assert_eq!(counter(r#"{"Counter":{"value":1,"name":"a"}}"#), want);
    assert_eq!(
        counter(
            r#" { "Counter" : { "name" : "a" , "x" : {"y":[1,-2.5e3,"é",null,true,{}]}, "value" : 1 } } "#
        ),
        want
    );
    // The first of two duplicate keys wins; the second must still parse.
    assert_eq!(
        counter(r#"{"Counter":{"name":"a","value":1,"name":"b"}}"#),
        want
    );
    assert_eq!(
        counter(r#"{"Counter":{"name":"a","value":1,"value":[2]}}"#),
        want
    );
    // Escaped keys and tags match too.
    assert_eq!(
        counter(r#"{"C\u006funter":{"n\u0061me":"a","value":1}}"#),
        want
    );
    for bad in [
        r#"{"Counter":{"name":"a","value":1,"x":[1,,2]}}"#,
        r#"{"Counter":{"name":"a","value":1,"x":nul}}"#,
        r#"{"Counter":{"name":"a","value":1,"x":"unterminated}}"#,
        r#"{"Counter":{"name":"a","value":1,"x":1.2.3}}"#,
        r#"{"Counter":{"name":"a","value":1}} trailing"#,
        r#"{"Counter":{"name":"a","value":1},"Gauge":{"name":"a","value":1}}"#,
    ] {
        assert!(counter(bad).is_err(), "{bad}");
    }
    let missing = counter(r#"{"Counter":{"name":"a"}}"#).unwrap_err();
    assert!(missing.contains("missing field `value`"), "{missing}");
}

#[test]
fn nesting_is_limited_to_a_fixed_depth() {
    // Two levels of object around the skipped value: 126 arrays reach
    // the limit of 128, one more exceeds it.
    let line = |n: usize| {
        format!(
            r#"{{"Counter":{{"name":"a","value":1,"x":{}{}}}}}"#,
            "[".repeat(n),
            "]".repeat(n)
        )
    };
    assert!(serde_json::from_str::<dpm_telemetry::TraceLine>(&line(126)).is_ok());
    let err = serde_json::from_str::<dpm_telemetry::TraceLine>(&line(127)).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    assert!(serde_json::from_str::<Vec<u64>>(&"[".repeat(100_000)).is_err());
}

#[test]
fn committed_bench_baselines_rewrite_byte_identically() {
    use dpm_trace::BenchBaseline;
    for (name, text) in [
        ("BENCH_repro.json", include_str!("../BENCH_repro.json")),
        (
            "BENCH_campaign.json",
            include_str!("../BENCH_campaign.json"),
        ),
    ] {
        let parsed = BenchBaseline::parse(text).unwrap();
        assert_eq!(
            parsed.to_json(),
            text,
            "{name} must re-serialize to its own bytes"
        );
    }
}
