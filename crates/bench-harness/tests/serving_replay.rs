//! Replays the committed `results/BENCH_serving.json` against a fresh
//! virtual-clock run: every deterministic serving row — the two warm
//! policy rows, every `shard_rows` entry, both `hedge_rows` and every
//! `load_rows` entry — must reproduce bit-identically (the JSON float encoding is
//! shortest-round-trip, so comparing the rendered rows compares the
//! f64 bits). The cold policy rows charge measured host planning time
//! and the fusion rows are host-timed, so neither is replayed.
//!
//! A mismatch means the committed baseline no longer describes this
//! checkout's serving model; regenerate it with
//! `JIGSAW_SUITE=full cargo run --release -p bench-harness --bin serving`
//! and review the diff as a model change.

use bench_harness::experiments::serving::{
    policy_schedule, run_hedge_sweep, run_load_sweep, run_policy, run_shard_sweep, ShardSweepSpec,
    POLICY_SEED,
};
use bench_harness::obs_export::to_obs_json;
use gpu_sim::GpuSpec;
use jigsaw_obs::Json;

fn committed_data() -> Json {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_serving.json"
    );
    let text = std::fs::read_to_string(path).expect("committed BENCH_serving.json");
    let doc = jigsaw_obs::parse(&text).expect("committed doc parses");
    doc.get("data").cloned().expect("data section")
}

fn field_u64(data: &Json, key: &str) -> u64 {
    data.get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("data.{key}"))
}

fn section<'a>(data: &'a Json, key: &str) -> &'a [Json] {
    data.get(key)
        .map(|r| r.items())
        .unwrap_or_else(|| panic!("data.{key}"))
}

/// Asserts `row` renders exactly as `committed`, naming every drifted
/// key. The row takes the same render → parse trip as the committed
/// document did, so whole-valued floats compare as the integers they
/// were written as.
fn assert_replays<T: serde::Serialize>(what: &str, row: &T, committed: &Json) {
    let rebuilt = jigsaw_obs::parse(&to_obs_json(row).to_string()).expect("row re-parses");
    if &rebuilt == committed {
        return;
    }
    let drifted: Vec<String> = committed
        .keys()
        .into_iter()
        .filter(|k| rebuilt.get(k) != committed.get(k))
        .map(|k| {
            format!(
                "{k}: committed {} vs replayed {}",
                committed.get(k).map(|v| v.to_string()).unwrap_or_default(),
                rebuilt.get(k).map(|v| v.to_string()).unwrap_or_default()
            )
        })
        .collect();
    panic!(
        "{what}: virtual-clock serving rows drifted; regenerate and review as a model \
         change:\n  {}",
        drifted.join("\n  ")
    );
}

#[test]
fn committed_warm_policy_rows_replay_bit_identically() {
    let data = committed_data();
    assert_eq!(
        field_u64(&data, "seed"),
        POLICY_SEED,
        "policy schedule seed"
    );
    let schedule = policy_schedule(field_u64(&data, "requests") as usize);
    let spec = GpuSpec::a100();
    let mut checked = 0;
    for row in section(&data, "rows") {
        let policy = row.get("policy").and_then(|p| p.as_str()).expect("policy");
        let batched = match policy {
            "batched+warm" => true,
            "unbatched+warm" => false,
            // Cold rows charge measured host planning time.
            _ => continue,
        };
        let rebuilt = run_policy(policy, batched, true, &schedule, &spec);
        assert_replays(policy, &rebuilt, row);
        checked += 1;
    }
    assert_eq!(checked, 2, "committed doc lost a warm policy row");
}

#[test]
fn committed_shard_rows_replay_bit_identically() {
    let data = committed_data();
    let committed = section(&data, "shard_rows");
    assert!(!committed.is_empty(), "committed doc lost its shard rows");
    let sweep = ShardSweepSpec {
        requests: field_u64(&data, "shard_requests") as usize,
        users: field_u64(&data, "users") as usize,
        seed: field_u64(&data, "zipf_seed"),
        shard_counts: committed
            .iter()
            .map(|r| field_u64(r, "shards") as usize)
            .collect(),
        ..ShardSweepSpec::default()
    };
    let rebuilt = run_shard_sweep(&GpuSpec::a100(), &sweep);
    assert_eq!(rebuilt.len(), committed.len());
    for (row, want) in rebuilt.iter().zip(committed) {
        assert_replays(&format!("shard_rows[shards={}]", row.shards), row, want);
    }
}

#[test]
fn committed_hedge_rows_replay_bit_identically() {
    let data = committed_data();
    let committed = section(&data, "hedge_rows");
    let rebuilt = run_hedge_sweep(&GpuSpec::a100());
    assert_eq!(rebuilt.len(), committed.len(), "unhedged + hedged pair");
    for (row, want) in rebuilt.iter().zip(committed) {
        assert_replays(&format!("hedge_rows[{}]", row.policy), row, want);
    }
}

#[test]
fn committed_load_rows_replay_bit_identically() {
    let data = committed_data();
    let committed = section(&data, "load_rows");
    let rebuilt = run_load_sweep(&GpuSpec::a100());
    assert_eq!(rebuilt.len(), committed.len(), "one row per offered load");
    for (row, want) in rebuilt.iter().zip(committed) {
        assert_replays(
            &format!("load_rows[gap={}]", row.mean_gap_cycles),
            row,
            want,
        );
    }
}
