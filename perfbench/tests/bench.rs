//! The benchmark's own behaviour: every named metric is printed with its
//! unit, the gate rejects a tampered result, and the epoch probe sees
//! exactly one active shard on a one-shard fleet.

use pdagent_vm::Value;
use perfbench::bench::{run, run_round, Report};
use perfbench::gate::{check_journey, digest};
use perfbench::inputs::{generate, Workload, WORKLOADS};
use perfbench::world::EpochProbe;

/// `name` shrunk to two cells of two devices, so a run takes moments.
fn tiny(name: &str) -> Workload {
    let mut w = Workload::named(name).expect("known workload");
    w.cells = 2;
    w.devices_per_cell = 2;
    w
}

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `[...]` list of one section of BENCHMARK.json.
fn section(spec: &str, name: &str) -> String {
    let start = spec.find(&format!("\"{name}\"")).expect("section present");
    let body = &spec[start..];
    body[..body.find(']').expect("section closes")].to_owned()
}

/// Every `"<key>": "<value>"` string of a section, in order.
fn strings(section: &str, key: &str) -> Vec<String> {
    section
        .split(&format!("\"{key}\": \""))
        .skip(1)
        .map(|e| e[..e.find('"').expect("string closes")].to_owned())
        .collect()
}

/// The metrics of one section of BENCHMARK.json, as `(name, unit)`.
fn declared(name: &str) -> Vec<(String, String)> {
    let body = section(&spec(), name);
    strings(&body, "name").into_iter().zip(strings(&body, "unit")).collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect()
}

#[test]
fn every_workload_is_declared() {
    assert_eq!(strings(&section(&spec(), "workloads"), "name"), WORKLOADS);
}

#[test]
fn tiny_runs_print_every_named_metric_with_its_unit() {
    for name in WORKLOADS {
        let w = tiny(name);
        let plain = run(&w, 3, 0.0, false);
        assert!(plain.correct, "{name}: {:?}", plain.notes);
        assert_eq!(printed(&plain), declared("end_to_end"), "{name} untraced");
        let traced = run(&w, 3, 0.0, true);
        assert!(traced.correct, "{name} traced: {:?}", traced.notes);
        assert_eq!(printed(&traced), declared("per_layer"), "{name} traced");
        let json = traced.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        assert!(traced.spans.as_deref().is_some_and(|s| s.lines().count() > 10));
    }
}

#[test]
fn gate_rejects_a_tampered_result() {
    let w = tiny("fleet_small_pi");
    let inputs = generate(&w, 5);
    let round = run_round(&w, 5, false, None);
    let (input, honest) = (&inputs[0], &round.harvest.journeys[0]);
    check_journey(input, honest).expect("honest journey passes");

    let mut tampered = honest.clone();
    let receipt = tampered
        .result
        .as_mut()
        .and_then(|r| r.entries.iter_mut().find(|e| e.key == "receipt"))
        .expect("a receipt");
    let Value::Str(text) = &receipt.value else { panic!("receipt is a string") };
    receipt.value = Value::Str(format!("{text}0"));
    assert!(check_journey(input, &tampered).is_err(), "amount changed");
    assert_ne!(digest(&tampered), digest(honest));

    let mut dropped = honest.clone();
    dropped.result.as_mut().expect("result").entries.pop();
    assert!(check_journey(input, &dropped).is_err(), "settlement dropped");

    let mut lost = honest.clone();
    lost.result = None;
    assert!(check_journey(input, &lost).is_err(), "no result");
}

#[test]
fn one_shard_run_has_exactly_one_active_shard_per_epoch() {
    let w = tiny("pi48k_text");
    assert_eq!(w.shards, 1);
    let mut probe = EpochProbe::default();
    run_round(&w, 9, true, Some(&mut probe));
    assert!(!probe.active.is_empty());
    assert!(probe.active.iter().all(|&a| a == 1), "{:?}", probe.active);
    let traced = run(&w, 9, 0.0, true);
    let active = traced.metrics.iter().find(|m| m.name == "shard.active_per_epoch");
    assert_eq!(active.map(|m| m.value), Some(1.0));
}
