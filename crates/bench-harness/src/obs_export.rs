//! Structured benchmark export: every experiment binary can emit a
//! `results/BENCH_<experiment>.json` document that bundles the
//! experiment's own result data with a snapshot of the observability
//! registry (counters, gauges, traces) taken through the
//! [`jigsaw_obs::JsonSink`].
//!
//! The document schema is versioned and its top-level keys are stable
//! (`schema`, `experiment`, `data`, `observability`, in that order),
//! so downstream tooling — and the `check_bench` CI binary — can parse
//! any emitted file with [`jigsaw_obs::parse`] alone.

use std::io;
use std::path::{Path, PathBuf};

use jigsaw_obs::{Json, JsonSink, Sink};
use serde::Serialize;

/// Schema tag written into every exported document.
pub const BENCH_SCHEMA: &str = "jigsaw-bench/v1";

/// The four stable top-level keys of a bench document, in order.
pub const BENCH_KEYS: [&str; 4] = ["schema", "experiment", "data", "observability"];

/// Converts any serializable experiment result into the zero-dep
/// [`Json`] model by rendering it with the workspace serializer and
/// re-parsing. Falls back to an empty object if the value does not
/// render (the shim serializer is infallible in practice).
pub fn to_obs_json<T: Serialize>(value: &T) -> Json {
    serde_json::to_string(value)
        .ok()
        .and_then(|text| jigsaw_obs::parse(&text).ok())
        .unwrap_or_else(Json::obj)
}

/// Builds the versioned bench document for `experiment`: the
/// experiment's result under `data`, plus the current global
/// observability snapshot under `observability`, exported through the
/// JSON sink.
pub fn bench_doc<T: Serialize>(experiment: &str, value: &T) -> Json {
    bench_doc_of(experiment, to_obs_json(value))
}

/// [`bench_doc`] over a `data` section that is already [`Json`].
fn bench_doc_of(experiment: &str, data: Json) -> Json {
    let observability = JsonSink
        .emit(&jigsaw_obs::global().snapshot())
        .and_then(|text| jigsaw_obs::parse(&text).ok())
        .unwrap_or_else(Json::obj);
    Json::obj()
        .with("schema", BENCH_SCHEMA)
        .with("experiment", experiment)
        .with("data", data)
        .with("observability", observability)
}

/// Writes `BENCH_<experiment>.json` under `dir`, returning the path.
pub fn write_bench_json_to<T: Serialize>(
    dir: &Path,
    experiment: &str,
    value: &T,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, bench_doc(experiment, value).to_string())?;
    Ok(path)
}

/// Writes `results/BENCH_<experiment>.json` (the standard location the
/// experiment binaries and CI agree on).
pub fn write_bench_json<T: Serialize>(experiment: &str, value: &T) -> io::Result<PathBuf> {
    write_bench_json_to(Path::new("results"), experiment, value)
}

/// Required keys per `(experiment, section)`: every listed
/// `data.<section>` must be a non-empty array whose rows all carry
/// every key. Columns: experiment, section, the error prefix naming a
/// missing key, the keys.
#[rustfmt::skip]
const SCHEMA: &[(&str, &str, &str, &[&str])] = &[
    // One row per (shape, N, microkernel variant, fusion).
    ("exec", "shapes", "exec shape row missing key",
     &["m", "k", "n", "variant", "fusion", "speedup"]),
    // The resilience columns (DESIGN.md §12) on every policy row.
    ("serving", "rows", "serving row missing resilience key",
     &["failed", "shed_expired", "queue_depth", "breakers_open"]),
    // One row per shard count with the per-shard columns (§14).
    ("serving", "shard_rows", "serving shard row missing key",
     &["shards", "completed", "forwarded", "breaker_rejects", "shed_expired", "failed",
       "promotions", "demotions", "p50_latency_cycles", "p95_latency_cycles",
       "p99_latency_cycles", "per_shard_submitted", "per_shard_completed"]),
    // One fusion row per batch size, gated by `--perf` (§16).
    ("serving", "fusion_rows", "serving fusion row missing key",
     &["batch", "k", "total_n", "fused_assemble_ns", "unfused_assemble_ns", "speedup"]),
    // The unhedged/hedged straggler pair, gated by `--perf` (§17).
    ("serving", "hedge_rows", "serving hedge row missing key",
     &["policy", "shards", "straggler_factor", "completed", "hedges", "health_ejections",
       "p50_latency_cycles", "p95_latency_cycles", "p99_latency_cycles", "busy_cycles",
       "work_amplification", "budget_fraction"]),
    // One row per offered load, gated by `--perf` (§9).
    ("serving", "load_rows", "serving load row missing key",
     &["mean_gap_cycles", "completed", "batches", "avg_occupancy", "requests_per_gcycle",
       "p50_latency_cycles", "p99_latency_cycles"]),
    // One row per (strategy, N, cache mode) (§18).
    ("cache_ablation", "rows", "cache_ablation row missing key",
     &["strategy", "n", "cache", "duration_cycles", "l1_hit_rate", "l2_hit_rate",
       "l1_sector_reads", "l2_sector_reads", "mshr_merges"]),
];

/// `data.<section>` as a non-empty row slice.
fn data_rows<'a>(doc: &'a Json, section: &str) -> Option<&'a [Json]> {
    doc.get("data")
        .and_then(|d| d.get(section))
        .map(|r| r.items())
        .filter(|r| !r.is_empty())
}

/// Exec rows (the schema check guarantees `variant` and `fusion`):
/// every `variant` must name a registry variant, every `fusion` must be
/// `on` or `off`, and the doc must include the `scalar` floor — it has
/// no ISA gate, so its absence means the bench sweep silently shrank.
fn check_exec_variants(rows: &[Json]) -> Result<(), String> {
    let mut saw_scalar = false;
    for row in rows {
        let name = row
            .get("variant")
            .and_then(|v| v.as_str())
            .ok_or_else(|| "exec: variant must be a string".to_string())?;
        if jigsaw_core::KernelKind::parse(name).is_none() {
            return Err(format!("exec: unknown microkernel variant {name:?}"));
        }
        saw_scalar |= name == "scalar";
        let mode = row
            .get("fusion")
            .and_then(|f| f.as_str())
            .ok_or_else(|| "exec: fusion must be a string".to_string())?;
        if mode != "on" && mode != "off" {
            return Err(format!(
                "exec: unknown fusion mode {mode:?}, expected \"on\" or \"off\""
            ));
        }
    }
    if !saw_scalar {
        return Err(
            "exec: doc has no scalar rows — the scalar floor is portable and \
             must be benched"
                .to_string(),
        );
    }
    Ok(())
}

/// Cache-ablation rows (DESIGN.md §18): both cache modes must be
/// present — the off rows are the bit-replay fixture, the on rows are
/// the ablation — and the cache-on L2 hit rates must actually spread:
/// a flat column means the hierarchy model degenerated.
fn check_cache_modes(rows: &[Json]) -> Result<(), String> {
    let mut on_hit_rates = Vec::new();
    let mut saw_off = false;
    for row in rows {
        match row.get("cache").and_then(|c| c.as_str()) {
            Some("off") => saw_off = true,
            Some("on") => {
                let hit = row
                    .get("l2_hit_rate")
                    .and_then(|h| h.as_f64())
                    .ok_or_else(|| "cache_ablation: l2_hit_rate not a number".to_string())?;
                on_hit_rates.push(hit);
            }
            other => {
                return Err(format!(
                    "cache_ablation: cache mode {other:?}, expected \"on\" or \"off\""
                ))
            }
        }
    }
    if !saw_off || on_hit_rates.is_empty() {
        return Err("cache_ablation: rows must cover both cache modes".to_string());
    }
    let max = on_hit_rates.iter().copied().fold(0.0, f64::max);
    let min = on_hit_rates.iter().copied().fold(1.0, f64::min);
    if max - min < 0.05 {
        return Err(format!(
            "cache_ablation: L2 hit rates span only {min:.3}..{max:.3} — the \
             cache-on sweep no longer differentiates plans"
        ));
    }
    Ok(())
}

/// Validates one emitted bench document: parses it with the zero-dep
/// parser and checks the stable schema. Returns the experiment name,
/// or a human-readable problem description on failure.
pub fn check_bench_text(text: &str) -> Result<String, String> {
    check_bench_doc(text).map(|(experiment, _)| experiment)
}

/// [`check_bench_text`], also returning the parsed document.
fn check_bench_doc(text: &str) -> Result<(String, Json), String> {
    let doc = jigsaw_obs::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if doc.keys() != BENCH_KEYS {
        return Err(format!(
            "unstable top-level keys {:?}, expected {:?}",
            doc.keys(),
            BENCH_KEYS
        ));
    }
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == BENCH_SCHEMA => {}
        other => return Err(format!("schema {other:?}, expected {BENCH_SCHEMA:?}")),
    }
    let experiment = doc
        .get("experiment")
        .and_then(|e| e.as_str())
        .ok_or_else(|| "missing experiment name".to_string())?
        .to_string();
    let obs = doc
        .get("observability")
        .ok_or_else(|| "missing observability section".to_string())?;
    if obs.keys() != ["counters", "gauges", "traces"] {
        return Err(format!(
            "observability keys {:?}, expected [counters, gauges, traces]",
            obs.keys()
        ));
    }
    for &(exp, section, missing, keys) in SCHEMA.iter().filter(|s| s.0 == experiment) {
        let rows = data_rows(&doc, section)
            .ok_or_else(|| format!("{exp}: data.{section} missing or empty"))?;
        for row in rows {
            if let Some(key) = keys.iter().find(|k| row.get(k).is_none()) {
                return Err(format!("{missing} {key:?}"));
            }
        }
    }
    let rows = |section| data_rows(&doc, section).unwrap_or_default();
    match experiment.as_str() {
        "exec" => check_exec_variants(rows("shapes"))?,
        "serving" => {
            // Both halves of the straggler pair `check_bench --perf`
            // gates hedging on.
            let hedge_rows = rows("hedge_rows");
            for policy in ["unhedged", "hedged"] {
                if !hedge_rows
                    .iter()
                    .any(|r| r.get("policy").and_then(|p| p.as_str()) == Some(policy))
                {
                    return Err(format!("serving: hedge_rows missing {policy:?} row"));
                }
            }
        }
        "cache_ablation" => check_cache_modes(rows("rows"))?,
        _ => {}
    }
    Ok((experiment, doc))
}

/// `row[key]` as a number; `role` names the document in the error.
fn num(row: &Json, key: &str, role: &str) -> Result<f64, String> {
    row.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("{role}: row {key:?} is not a number"))
}

/// Perf-regression gate over two bench documents of the same
/// experiment: the committed `baseline` and a freshly measured
/// `candidate`.
///
/// For **exec** documents, the gated quantity is the *speedup ratio*
/// (`data.shapes[].speedup`: compiled over `execute_fast`, both timed
/// in the same process), which is stable across host speeds — absolute
/// wall times are deliberately not compared. Every baseline row gates
/// against its matching candidate row:
///
/// * rows match on `(m, k, n, variant, fusion)`,
/// * a baseline row whose variant's ISA the gating host lacks (e.g. an
///   `avx512f` row from an exotic baseline host) is skipped with a
///   note, never an error — baselines regenerated on wide hosts do
///   not move the bar for narrow ones,
/// * each matched candidate speedup must be at least `(1 - tolerance)`
///   × its baseline row's, and the unfused `avx2_fma` rows must
///   additionally clear the baseline's committed
///   `data.required_speedup` absolute floor (the one ISA every gating
///   host has; the portable variants have no absolute floor because
///   their ratios legitimately sit below it).
///
/// For **serving** documents, the gate runs over `data.fusion_rows`:
/// each batch size's fused-over-two-touch assembly speedup must stay
/// within `(1 - tolerance)` of its baseline row, and at batch ≥ 4 it
/// must additionally clear an absolute 1.0× floor — fused assembly
/// slower than concat + panelize at real batch widths is a regression
/// in the one copy the fusion exists to remove.
pub fn check_perf_text(baseline: &str, candidate: &str, tolerance: f64) -> Result<String, String> {
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} outside [0, 1)"));
    }
    let (base_exp, base_doc) =
        check_bench_doc(baseline).map_err(|e| format!("baseline is not a valid bench doc: {e}"))?;
    let (cand_exp, cand_doc) = check_bench_doc(candidate)
        .map_err(|e| format!("candidate is not a valid bench doc: {e}"))?;
    if base_exp != cand_exp {
        return Err(format!(
            "experiment mismatch: baseline is {base_exp:?}, candidate is {cand_exp:?}"
        ));
    }
    if base_exp == "serving" {
        return check_perf_serving(&base_doc, &cand_doc, tolerance);
    }
    // `(m, k, n, variant, fusion)` identity of one row.
    type RowKey = (u64, u64, u64, String, String);
    let key = |row: &Json| -> Option<RowKey> {
        Some((
            row.get("m")?.as_u64()?,
            row.get("k")?.as_u64()?,
            row.get("n")?.as_u64()?,
            row.get("variant")?.as_str()?.to_string(),
            row.get("fusion")?.as_str()?.to_string(),
        ))
    };
    // Both docs passed the schema check: their shapes are non-empty
    // and every row carries m/k/n/variant/fusion/speedup.
    let base_shapes = data_rows(&base_doc, "shapes").unwrap_or_default();
    let cand_shapes = data_rows(&cand_doc, "shapes").unwrap_or_default();
    let floor = base_doc
        .get("data")
        .and_then(|d| d.get("required_speedup"))
        .and_then(|f| f.as_f64())
        .ok_or_else(|| "baseline: missing data.required_speedup".to_string())?;

    let mut report = Vec::new();
    let mut gated_any = false;
    for base in base_shapes {
        let (m, k, n, variant, fusion) = key(base).ok_or("baseline: malformed shape key")?;
        let base_speedup = num(base, "speedup", "baseline")?;
        let kind = jigsaw_core::KernelKind::parse(&variant)
            .ok_or_else(|| format!("baseline: unknown variant {variant:?}"))?;
        if !kind.available() {
            report.push(format!("{variant} N={n}: SKIP (ISA not on this host)"));
            continue;
        }
        let cand = cand_shapes
            .iter()
            .find(|c| key(c).as_ref() == Some(&(m, k, n, variant.clone(), fusion.clone())))
            .ok_or_else(|| {
                format!("candidate: {variant} (fusion {fusion}) row at {m}x{k} N={n} missing")
            })?;
        let cand_speedup = num(cand, "speedup", "candidate")?;
        let floored = variant == "avx2_fma" && fusion == "off";
        let mut min_ok = base_speedup * (1.0 - tolerance);
        if floored {
            min_ok = min_ok.max(floor);
        }
        gated_any = true;
        let label = if fusion == "on" {
            format!("{variant} (fused)")
        } else {
            variant.clone()
        };
        if cand_speedup < min_ok {
            return Err(format!(
                "regression in {label} at {m}x{k} N={n}: speedup \
                 {cand_speedup:.2}x < {min_ok:.2}x (baseline {base_speedup:.2}x, \
                 tolerance {:.0}%{})",
                tolerance * 100.0,
                if floored {
                    format!(", floor {floor:.1}x")
                } else {
                    String::new()
                }
            ));
        }
        report.push(format!(
            "{label} N={n}: {cand_speedup:.2}x (baseline {base_speedup:.2}x)"
        ));
    }
    if !gated_any {
        return Err(
            "baseline: every row was skipped as ISA-gated — regenerate the baseline \
             on a host this gate runs on"
                .to_string(),
        );
    }
    Ok(report.join("; "))
}

/// The serving arm of [`check_perf_text`]: gates the committed
/// fused-assembly speedups (`data.fusion_rows[].speedup`,
/// two-touch-over-fused wall time) row-for-row per batch size. At
/// batch ≥ 4 the candidate must also clear an absolute 1.0× floor:
/// fused assembly slower than concat + panelize at real batch widths
/// regresses the copy the fusion exists to remove. (Batch 1 and 2 rows
/// gate only relatively — at trivial widths the two paths are within
/// noise of each other.)
///
/// The candidate's `data.hedge_rows` are additionally floored on their
/// own virtual-clock invariants (host-speed independent, so no
/// relative band is needed): the hedged p99 must not exceed the
/// unhedged p99 under the same injected straggler, and the hedged
/// run's executed-work amplification must stay within
/// `1 + budget_fraction` — a hedging layer that amplifies the tail or
/// blows its retry budget is a regression in the property it exists
/// to enforce (DESIGN.md §17). Its `data.load_rows` are floored the
/// same way: as the offered load rises, `requests_per_gcycle` may not
/// fall more than 1% below the best any lighter load reached — a
/// batching rule that loses throughput under load idles the device it
/// exists to keep busy (DESIGN.md §9).
fn check_perf_serving(base_doc: &Json, cand_doc: &Json, tolerance: f64) -> Result<String, String> {
    // Both docs passed the schema check: every section below is a
    // non-empty row list carrying its schema keys.
    let cand_rows = data_rows(cand_doc, "fusion_rows").unwrap_or_default();
    let mut report = Vec::new();
    for base in data_rows(base_doc, "fusion_rows").unwrap_or_default() {
        let batch = base
            .get("batch")
            .and_then(|b| b.as_u64())
            .ok_or("baseline: fusion row batch is not an integer")?;
        let base_speedup = num(base, "speedup", "baseline")?;
        let cand = cand_rows
            .iter()
            .find(|c| c.get("batch").and_then(|b| b.as_u64()) == Some(batch))
            .ok_or_else(|| format!("candidate: fusion row at batch {batch} missing"))?;
        let cand_speedup = num(cand, "speedup", "candidate")?;
        let floored = batch >= 4;
        let mut min_ok = base_speedup * (1.0 - tolerance);
        if floored {
            min_ok = min_ok.max(1.0);
        }
        if cand_speedup < min_ok {
            return Err(format!(
                "regression in fused assembly at batch {batch}: speedup \
                 {cand_speedup:.2}x < {min_ok:.2}x (baseline {base_speedup:.2}x, \
                 tolerance {:.0}%{})",
                tolerance * 100.0,
                if floored {
                    ", floor 1.0x".to_string()
                } else {
                    String::new()
                }
            ));
        }
        report.push(format!(
            "fused assembly batch={batch}: {cand_speedup:.2}x (baseline {base_speedup:.2}x)"
        ));
    }
    // Hedging floors run on the candidate alone: the virtual-clock sim
    // is bit-deterministic per seed, so these are absolute invariants,
    // not host-relative measurements.
    let hedge = |policy: &str| {
        data_rows(cand_doc, "hedge_rows")
            .unwrap_or_default()
            .iter()
            .find(|r| r.get("policy").and_then(|p| p.as_str()) == Some(policy))
            .expect("the schema check requires both hedge policies")
    };
    let (unhedged, hedged) = (hedge("unhedged"), hedge("hedged"));
    let up99 = num(unhedged, "p99_latency_cycles", "candidate")?;
    let hp99 = num(hedged, "p99_latency_cycles", "candidate")?;
    if hp99 > up99 {
        return Err(format!(
            "regression in tail tolerance: hedged p99 {hp99:.0} cycles exceeds \
             unhedged p99 {up99:.0} under the injected straggler (floor 1.0x)"
        ));
    }
    let amp = num(hedged, "work_amplification", "candidate")?;
    let budget = num(hedged, "budget_fraction", "candidate")?;
    if amp > 1.0 + budget {
        return Err(format!(
            "regression in tail tolerance: work amplification {amp:.3}x exceeds \
             the retry budget's 1 + {budget:.2} bound"
        ));
    }
    report.push(format!(
        "hedging: p99 {hp99:.0} vs unhedged {up99:.0} cycles, work amplification \
         {amp:.3}x (budget {:.2}x)",
        1.0 + budget
    ));
    let mut loads = data_rows(cand_doc, "load_rows")
        .unwrap_or_default()
        .iter()
        .map(|r| {
            Ok((
                num(r, "mean_gap_cycles", "candidate")?,
                num(r, "requests_per_gcycle", "candidate")?,
            ))
        })
        .collect::<Result<Vec<(f64, f64)>, String>>()?;
    // Lightest load (longest gap) first.
    loads.sort_by(|a, b| b.0.total_cmp(&a.0));
    let (mut best_gap, mut best) = (f64::INFINITY, 0.0f64);
    for &(gap, throughput) in &loads {
        if throughput < LOAD_FLOOR * best {
            return Err(format!(
                "regression in batching: {throughput:.0} req/Gcycle at mean gap {gap:.0} \
                 cycles is below {:.0}% of the {best:.0} reached at the lighter gap \
                 {best_gap:.0}",
                LOAD_FLOOR * 100.0
            ));
        }
        if throughput > best {
            (best_gap, best) = (gap, throughput);
        }
    }
    report.push(format!(
        "load sweep: throughput never falls as load rises over {} gaps (peak {best:.0} \
         req/Gcycle at gap {best_gap:.0})",
        loads.len()
    ));
    Ok(report.join("; "))
}

/// The share of the best lighter-load throughput every heavier load in
/// `data.load_rows` must keep.
const LOAD_FLOOR: f64 = 0.99;

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Toy {
        speedup: f64,
        shapes: Vec<u32>,
        label: String,
    }

    fn toy() -> Toy {
        Toy {
            speedup: 1.5,
            shapes: vec![64, 128],
            label: "t\"est".to_string(),
        }
    }

    #[test]
    fn bench_doc_has_stable_keys_and_round_trips() {
        jigsaw_obs::global().counter("bench.unit").inc();
        let text = bench_doc("unit", &toy()).to_string();
        let doc = jigsaw_obs::parse(&text).expect("emitted JSON parses");
        assert_eq!(doc.keys(), BENCH_KEYS);
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(BENCH_SCHEMA),
            "versioned schema tag"
        );
        let data = doc.get("data").unwrap();
        assert_eq!(data.get("speedup").unwrap().as_f64(), Some(1.5));
        assert_eq!(data.get("label").unwrap().as_str(), Some("t\"est"));
        let counters = doc.get("observability").unwrap().get("counters").unwrap();
        assert!(counters.get("bench.unit").unwrap().as_u64() >= Some(1));
    }

    #[test]
    fn check_bench_accepts_real_docs_and_rejects_garbage() {
        let good = bench_doc("unit", &toy()).to_string();
        assert_eq!(check_bench_text(&good), Ok("unit".to_string()));
        assert!(check_bench_text("{not json").is_err());
        assert!(
            check_bench_text("{\"schema\": \"jigsaw-bench/v1\"}").is_err(),
            "missing keys rejected"
        );
        let wrong_schema = good.replace("jigsaw-bench/v1", "jigsaw-bench/v0");
        assert!(check_bench_text(&wrong_schema).is_err());
    }

    #[derive(Serialize, Clone)]
    struct ToyServingRow {
        policy: String,
        failed: u64,
        shed_expired: u64,
        queue_depth: usize,
        breakers_open: u64,
    }

    #[derive(Serialize, Clone)]
    struct ToyShardRow {
        shards: usize,
        completed: u64,
        forwarded: u64,
        breaker_rejects: u64,
        shed_expired: u64,
        failed: u64,
        promotions: u64,
        demotions: u64,
        p50_latency_cycles: f64,
        p95_latency_cycles: f64,
        p99_latency_cycles: f64,
        per_shard_submitted: Vec<u64>,
        per_shard_completed: Vec<u64>,
    }

    fn toy_shard_row(shards: usize) -> ToyShardRow {
        ToyShardRow {
            shards,
            completed: 100,
            forwarded: 3,
            breaker_rejects: 0,
            shed_expired: 0,
            failed: 0,
            promotions: 1,
            demotions: 0,
            p50_latency_cycles: 1_000.0,
            p95_latency_cycles: 5_000.0,
            p99_latency_cycles: 9_000.0,
            per_shard_submitted: vec![100 / shards as u64; shards],
            per_shard_completed: vec![100 / shards as u64; shards],
        }
    }

    #[derive(Serialize, Clone)]
    struct ToyFusionRow {
        batch: usize,
        k: usize,
        total_n: usize,
        fused_assemble_ns: f64,
        unfused_assemble_ns: f64,
        speedup: f64,
    }

    fn toy_fusion_row(batch: usize, speedup: f64) -> ToyFusionRow {
        ToyFusionRow {
            batch,
            k: 2048,
            total_n: batch * 8,
            fused_assemble_ns: 10_000.0,
            unfused_assemble_ns: 10_000.0 * speedup,
            speedup,
        }
    }

    #[derive(Serialize, Clone)]
    struct ToyHedgeRow {
        policy: String,
        shards: usize,
        straggler_factor: f64,
        completed: u64,
        hedges: u64,
        health_ejections: u64,
        p50_latency_cycles: f64,
        p95_latency_cycles: f64,
        p99_latency_cycles: f64,
        busy_cycles: f64,
        work_amplification: f64,
        budget_fraction: f64,
    }

    fn toy_hedge_row(policy: &str, p99: f64, amplification: f64) -> ToyHedgeRow {
        ToyHedgeRow {
            policy: policy.to_string(),
            shards: 4,
            straggler_factor: 10.0,
            completed: 100,
            hedges: if policy == "hedged" { 12 } else { 0 },
            health_ejections: 0,
            p50_latency_cycles: 1_000.0,
            p95_latency_cycles: p99 * 0.6,
            p99_latency_cycles: p99,
            busy_cycles: 1e9 * amplification,
            work_amplification: amplification,
            budget_fraction: 0.1,
        }
    }

    #[derive(Serialize, Clone)]
    struct ToyLoadRow {
        mean_gap_cycles: f64,
        completed: u64,
        batches: u64,
        avg_occupancy: f64,
        requests_per_gcycle: f64,
        p50_latency_cycles: f64,
        p99_latency_cycles: f64,
    }

    /// Load rows at the given `(mean gap, throughput)` points.
    fn toy_load_rows(points: &[(f64, f64)]) -> Vec<ToyLoadRow> {
        points
            .iter()
            .map(|&(gap, throughput)| ToyLoadRow {
                mean_gap_cycles: gap,
                completed: 100,
                batches: 50,
                avg_occupancy: 2.0,
                requests_per_gcycle: throughput,
                p50_latency_cycles: 1_000.0,
                p99_latency_cycles: 9_000.0,
            })
            .collect()
    }

    #[derive(Serialize)]
    struct ToyServing {
        rows: Vec<ToyServingRow>,
        shard_rows: Vec<ToyShardRow>,
        fusion_rows: Vec<ToyFusionRow>,
        hedge_rows: Vec<ToyHedgeRow>,
        load_rows: Vec<ToyLoadRow>,
    }

    fn toy_serving() -> ToyServing {
        ToyServing {
            rows: vec![ToyServingRow {
                policy: "batched+warm".to_string(),
                failed: 0,
                shed_expired: 2,
                queue_depth: 0,
                breakers_open: 0,
            }],
            shard_rows: vec![toy_shard_row(1), toy_shard_row(4)],
            fusion_rows: vec![toy_fusion_row(1, 1.1), toy_fusion_row(4, 1.6)],
            hedge_rows: vec![
                toy_hedge_row("unhedged", 90_000.0, 1.0),
                toy_hedge_row("hedged", 30_000.0, 1.05),
            ],
            load_rows: toy_load_rows(&[(2_000.0, 5e5), (500.0, 2e6), (100.0, 2.9e6)]),
        }
    }

    #[test]
    fn serving_docs_must_carry_resilience_columns() {
        let full = bench_doc("serving", &toy_serving()).to_string();
        assert_eq!(check_bench_text(&full), Ok("serving".to_string()));
        // A row that lost a resilience column is rejected…
        #[derive(Serialize)]
        struct BareRow {
            policy: String,
            failed: u64,
        }
        #[derive(Serialize)]
        struct BareServing {
            rows: Vec<BareRow>,
        }
        let bare = BareServing {
            rows: vec![BareRow {
                policy: "batched+warm".to_string(),
                failed: 0,
            }],
        };
        let err = check_bench_text(&bench_doc("serving", &bare).to_string()).unwrap_err();
        assert!(err.contains("shed_expired"), "{err}");
        // …and so is a serving doc with no rows at all. The same shape
        // under another experiment name is not row-checked.
        assert!(check_bench_text(&bench_doc("serving", &toy()).to_string()).is_err());
        assert!(check_bench_text(&bench_doc("other", &bare).to_string()).is_ok());
    }

    #[test]
    fn serving_docs_must_carry_shard_sweep() {
        // Policy rows alone no longer pass: the sweep is part of the
        // serving schema.
        #[derive(Serialize)]
        struct NoSweep {
            rows: Vec<ToyServingRow>,
        }
        let no_sweep = NoSweep {
            rows: vec![ToyServingRow {
                policy: "batched+warm".to_string(),
                failed: 0,
                shed_expired: 0,
                queue_depth: 0,
                breakers_open: 0,
            }],
        };
        let err = check_bench_text(&bench_doc("serving", &no_sweep).to_string()).unwrap_err();
        assert!(err.contains("shard_rows"), "{err}");
        // A shard row that lost a per-shard column is rejected.
        #[derive(Serialize)]
        struct BareShardRow {
            shards: usize,
            completed: u64,
        }
        #[derive(Serialize)]
        struct BareSweep {
            rows: Vec<ToyServingRow>,
            shard_rows: Vec<BareShardRow>,
        }
        let bare = BareSweep {
            rows: no_sweep.rows,
            shard_rows: vec![BareShardRow {
                shards: 1,
                completed: 100,
            }],
        };
        let err = check_bench_text(&bench_doc("serving", &bare).to_string()).unwrap_err();
        assert!(err.contains("forwarded"), "{err}");
        // The full shape passes.
        let ok = bench_doc("serving", &toy_serving()).to_string();
        assert_eq!(check_bench_text(&ok), Ok("serving".to_string()));
    }

    #[test]
    fn serving_docs_must_carry_fusion_rows() {
        // Policy + shard rows alone no longer pass: the fused-assembly
        // sweep is part of the serving schema.
        #[derive(Serialize)]
        struct NoFusion {
            rows: Vec<ToyServingRow>,
            shard_rows: Vec<ToyShardRow>,
        }
        let full = toy_serving();
        let no_fusion = NoFusion {
            rows: full.rows.clone(),
            shard_rows: full.shard_rows.clone(),
        };
        let err = check_bench_text(&bench_doc("serving", &no_fusion).to_string()).unwrap_err();
        assert!(err.contains("fusion_rows"), "{err}");
        // A fusion row that lost a timing column is rejected.
        #[derive(Serialize)]
        struct BareFusionRow {
            batch: usize,
            speedup: f64,
        }
        #[derive(Serialize)]
        struct BareFusion {
            rows: Vec<ToyServingRow>,
            shard_rows: Vec<ToyShardRow>,
            fusion_rows: Vec<BareFusionRow>,
        }
        let bare = BareFusion {
            rows: full.rows,
            shard_rows: full.shard_rows,
            fusion_rows: vec![BareFusionRow {
                batch: 4,
                speedup: 1.5,
            }],
        };
        let err = check_bench_text(&bench_doc("serving", &bare).to_string()).unwrap_err();
        assert!(err.contains("fusion row missing key"), "{err}");
    }

    #[test]
    fn serving_docs_must_carry_hedge_rows() {
        // Policy + shard + fusion rows alone no longer pass: the
        // straggler pair is part of the serving schema.
        #[derive(Serialize)]
        struct NoHedge {
            rows: Vec<ToyServingRow>,
            shard_rows: Vec<ToyShardRow>,
            fusion_rows: Vec<ToyFusionRow>,
        }
        let full = toy_serving();
        let no_hedge = NoHedge {
            rows: full.rows.clone(),
            shard_rows: full.shard_rows.clone(),
            fusion_rows: full.fusion_rows.clone(),
        };
        let err = check_bench_text(&bench_doc("serving", &no_hedge).to_string()).unwrap_err();
        assert!(err.contains("hedge_rows"), "{err}");
        // A hedge row that lost a column is rejected…
        #[derive(Serialize)]
        struct BareHedgeRow {
            policy: String,
            p99_latency_cycles: f64,
        }
        #[derive(Serialize)]
        struct BareHedge {
            rows: Vec<ToyServingRow>,
            shard_rows: Vec<ToyShardRow>,
            fusion_rows: Vec<ToyFusionRow>,
            hedge_rows: Vec<BareHedgeRow>,
        }
        let bare = BareHedge {
            rows: full.rows.clone(),
            shard_rows: full.shard_rows.clone(),
            fusion_rows: full.fusion_rows.clone(),
            hedge_rows: vec![BareHedgeRow {
                policy: "hedged".to_string(),
                p99_latency_cycles: 1.0,
            }],
        };
        let err = check_bench_text(&bench_doc("serving", &bare).to_string()).unwrap_err();
        assert!(err.contains("hedge row missing key"), "{err}");
        // …and so is a pair missing one of the two policies.
        let mut lopsided = toy_serving();
        lopsided.hedge_rows.retain(|r| r.policy == "hedged");
        let err = check_bench_text(&bench_doc("serving", &lopsided).to_string()).unwrap_err();
        assert!(err.contains("unhedged"), "{err}");
    }

    fn serving_doc(speedups: &[(usize, f64)]) -> String {
        let mut doc = toy_serving();
        doc.fusion_rows = speedups
            .iter()
            .map(|&(batch, speedup)| toy_fusion_row(batch, speedup))
            .collect();
        bench_doc("serving", &doc).to_string()
    }

    /// The hedging floors are absolute invariants of the candidate:
    /// hedged p99 at most the unhedged p99, work amplification within
    /// the retry budget — independent of the baseline's numbers.
    #[test]
    fn serving_perf_gate_floors_hedging_invariants() {
        let base = serving_doc(&[(1, 1.1), (4, 1.6)]);
        let report = check_perf_text(&base, &base, 0.25).unwrap();
        assert!(report.contains("hedging:"), "{report}");
        // A hedged p99 above the unhedged p99 fails even though every
        // fusion row is untouched.
        let mut worse_tail = toy_serving();
        worse_tail.hedge_rows = vec![
            toy_hedge_row("unhedged", 90_000.0, 1.0),
            toy_hedge_row("hedged", 95_000.0, 1.05),
        ];
        let cand = bench_doc("serving", &worse_tail).to_string();
        let err = check_perf_text(&base, &cand, 0.25).unwrap_err();
        assert!(err.contains("hedged p99"), "{err}");
        // Work amplification past 1 + budget_fraction fails.
        let mut over_budget = toy_serving();
        over_budget.hedge_rows = vec![
            toy_hedge_row("unhedged", 90_000.0, 1.0),
            toy_hedge_row("hedged", 30_000.0, 1.2),
        ];
        let cand = bench_doc("serving", &over_budget).to_string();
        let err = check_perf_text(&base, &cand, 0.25).unwrap_err();
        assert!(err.contains("work amplification"), "{err}");
    }

    /// A serving doc must carry the offered-load sweep, and `--perf`
    /// floors its throughput as the load rises: a heavier load may not
    /// fall more than 1% below the best lighter one, in any row order.
    #[test]
    fn serving_load_sweep_is_required_and_floored() {
        let mut no_load = toy_serving();
        no_load.load_rows.clear();
        let err = check_bench_text(&bench_doc("serving", &no_load).to_string()).unwrap_err();
        assert!(err.contains("load_rows"), "{err}");

        let base = serving_doc(&[(1, 1.1), (4, 1.6)]);
        let report = check_perf_text(&base, &base, 0.25).unwrap();
        assert!(report.contains("load sweep"), "{report}");
        let with_loads = |points: &[(f64, f64)]| {
            let mut doc = toy_serving();
            doc.load_rows = toy_load_rows(points);
            bench_doc("serving", &doc).to_string()
        };
        // A saturated plateau within 1% passes, listed heaviest first.
        let plateau = with_loads(&[(30.0, 2.98e6), (250.0, 3e6), (2_000.0, 5e5)]);
        assert!(check_perf_text(&base, &plateau, 0.25).is_ok());
        // Throughput that drops past saturation fails.
        let collapse = with_loads(&[(2_000.0, 5e5), (250.0, 3e6), (30.0, 2.9e6)]);
        let err = check_perf_text(&base, &collapse, 0.25).unwrap_err();
        assert!(err.contains("mean gap 30"), "{err}");
    }

    #[test]
    fn serving_perf_gate_floors_fused_assembly_at_batch_4() {
        let base = serving_doc(&[(1, 1.1), (4, 1.6), (16, 2.0)]);
        // Identical run passes; drift inside tolerance passes.
        let report = check_perf_text(&base, &base, 0.25).unwrap();
        assert!(report.contains("fused assembly batch=4"), "{report}");
        let drift = serving_doc(&[(1, 0.9), (4, 1.3), (16, 1.7)]);
        assert!(check_perf_text(&base, &drift, 0.25).is_ok());
        // A fused path slower than two-touch at batch ≥ 4 fails on the
        // absolute floor even when inside the relative band.
        let below_floor = serving_doc(&[(1, 1.1), (4, 0.95), (16, 2.0)]);
        let err = check_perf_text(&base, &below_floor, 0.25).unwrap_err();
        assert!(
            err.contains("batch 4") && err.contains("floor 1.0x"),
            "{err}"
        );
        // Batch 1 has no absolute floor: 0.9x passes inside the band…
        let slow_small = serving_doc(&[(1, 0.9), (4, 1.6), (16, 2.0)]);
        assert!(check_perf_text(&base, &slow_small, 0.25).is_ok());
        // …but a collapse beyond the band fails relatively.
        let collapsed = serving_doc(&[(1, 0.5), (4, 1.6), (16, 2.0)]);
        assert!(check_perf_text(&base, &collapsed, 0.25).is_err());
        // A candidate missing a baseline batch size is an error.
        let missing = serving_doc(&[(1, 1.1), (4, 1.6)]);
        assert!(check_perf_text(&base, &missing, 0.25).is_err());
        // Experiments must match: serving baseline vs exec candidate.
        let exec = exec_doc(&[(64, 3.0)]);
        let err = check_perf_text(&base, &exec, 0.25).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[derive(Serialize, Clone)]
    struct ToyCacheRow {
        strategy: String,
        n: usize,
        cache: String,
        duration_cycles: f64,
        l1_hit_rate: f64,
        l2_hit_rate: f64,
        l1_sector_reads: u64,
        l2_sector_reads: u64,
        mshr_merges: u64,
    }

    fn toy_cache_row(cache: &str, l2_hit_rate: f64) -> ToyCacheRow {
        ToyCacheRow {
            strategy: "v0".to_string(),
            n: 64,
            cache: cache.to_string(),
            duration_cycles: 10_000.0,
            l1_hit_rate: 0.0,
            l2_hit_rate,
            l1_sector_reads: if cache == "on" { 4_000 } else { 0 },
            l2_sector_reads: if cache == "on" { 3_000 } else { 0 },
            mshr_merges: 0,
        }
    }

    #[derive(Serialize)]
    struct ToyCacheAblation {
        rows: Vec<ToyCacheRow>,
    }

    #[test]
    fn cache_ablation_docs_validate_modes_and_hit_rate_spread() {
        // Both modes with a real spread pass.
        let good = ToyCacheAblation {
            rows: vec![
                toy_cache_row("off", 0.0),
                toy_cache_row("on", 0.25),
                toy_cache_row("on", 0.55),
            ],
        };
        assert_eq!(
            check_bench_text(&bench_doc("cache_ablation", &good).to_string()),
            Ok("cache_ablation".to_string())
        );
        // Cache-on rows alone are rejected: the off rows are the
        // bit-replay fixture.
        let only_on = ToyCacheAblation {
            rows: vec![toy_cache_row("on", 0.25), toy_cache_row("on", 0.55)],
        };
        let err = check_bench_text(&bench_doc("cache_ablation", &only_on).to_string()).unwrap_err();
        assert!(err.contains("both cache modes"), "{err}");
        // A flat cache-on hit-rate column is rejected.
        let flat = ToyCacheAblation {
            rows: vec![
                toy_cache_row("off", 0.0),
                toy_cache_row("on", 0.30),
                toy_cache_row("on", 0.31),
            ],
        };
        let err = check_bench_text(&bench_doc("cache_ablation", &flat).to_string()).unwrap_err();
        assert!(err.contains("hit rates span"), "{err}");
        // An unknown cache mode and a missing column are schema errors.
        let bad_mode = ToyCacheAblation {
            rows: vec![toy_cache_row("maybe", 0.3)],
        };
        let err =
            check_bench_text(&bench_doc("cache_ablation", &bad_mode).to_string()).unwrap_err();
        assert!(err.contains("maybe"), "{err}");
        #[derive(Serialize)]
        struct BareCacheRow {
            strategy: String,
            cache: String,
        }
        #[derive(Serialize)]
        struct BareAblation {
            rows: Vec<BareCacheRow>,
        }
        let bare = BareAblation {
            rows: vec![BareCacheRow {
                strategy: "v0".to_string(),
                cache: "off".to_string(),
            }],
        };
        let err = check_bench_text(&bench_doc("cache_ablation", &bare).to_string()).unwrap_err();
        assert!(err.contains("missing key"), "{err}");
    }

    /// A 64×64 exec row carrying `columns`, e.g. `[("n", 64.into())]`.
    fn shape_row(columns: Vec<(&str, Json)>) -> Json {
        let row = Json::obj().with("m", 64usize).with("k", 64usize);
        columns
            .into_iter()
            .fold(row, |row, (key, value)| row.with(key, value))
    }

    /// An exec doc over `shapes` with a 2.0× `required_speedup` floor.
    fn exec_json(shapes: Vec<Json>) -> String {
        let data = Json::obj()
            .with("shapes", shapes)
            .with("required_speedup", 2.0);
        bench_doc_of("exec", data).to_string()
    }

    /// Unfused rows of one `(N, variant, speedup)` each.
    fn exec_doc_variants(rows: &[(usize, &str, f64)]) -> String {
        exec_json(
            rows.iter()
                .map(|&(n, variant, speedup)| {
                    shape_row(vec![
                        ("n", n.into()),
                        ("variant", variant.into()),
                        ("fusion", "off".into()),
                        ("speedup", speedup.into()),
                    ])
                })
                .collect(),
        )
    }

    /// One floored `avx2_fma` row per `(N, speedup)`, each beside a
    /// 1.5× scalar row.
    fn exec_doc(speedups: &[(usize, f64)]) -> String {
        let rows: Vec<(usize, &str, f64)> = speedups
            .iter()
            .flat_map(|&(n, speedup)| [(n, "avx2_fma", speedup), (n, "scalar", 1.5)])
            .collect();
        exec_doc_variants(&rows)
    }

    /// A doc from before the dispatch layer: rows with no `variant`
    /// and no `fusion` column.
    fn variantless_exec_doc() -> String {
        exec_json(vec![shape_row(vec![
            ("n", 64usize.into()),
            ("speedup", 3.0.into()),
        ])])
    }

    #[test]
    fn perf_gate_passes_within_tolerance_and_catches_regressions() {
        let base = exec_doc(&[(64, 3.0), (256, 4.0)]);
        // Identical run passes; a run 5% slower passes at 10% tolerance.
        assert!(check_perf_text(&base, &base, 0.10).is_ok());
        let slower = exec_doc(&[(64, 2.85), (256, 3.8)]);
        assert!(check_perf_text(&base, &slower, 0.10).is_ok());
        // A 20% regression fails.
        let regressed = exec_doc(&[(64, 2.4), (256, 4.0)]);
        let err = check_perf_text(&base, &regressed, 0.10).unwrap_err();
        assert!(err.contains("at 64x64 N=64"), "{err}");
        // The absolute floor binds even inside tolerance: baseline 2.1x
        // with 10% slack would allow 1.89x, but the committed 2.0x
        // floor does not.
        let base_low = exec_doc(&[(64, 2.1)]);
        let below_floor = exec_doc(&[(64, 1.95)]);
        assert!(check_perf_text(&base_low, &below_floor, 0.10).is_err());
        // Missing shapes and malformed docs are errors, not passes.
        let missing = exec_doc(&[(64, 3.0)]);
        assert!(check_perf_text(&base, &missing, 0.10).is_err());
        assert!(check_perf_text(&base, "{not json", 0.10).is_err());
        assert!(check_perf_text(&base, &base, 1.5).is_err());
    }

    #[test]
    fn exec_docs_validate_per_variant_rows() {
        // Per-variant rows with registry names pass…
        let good = exec_doc_variants(&[
            (64, "scalar", 1.5),
            (64, "avx2_fma", 3.0),
            (64, "avx512f", 3.5),
        ]);
        assert_eq!(check_bench_text(&good), Ok("exec".to_string()));
        // …rows without a variant or fusion column are rejected…
        let err = check_bench_text(&variantless_exec_doc()).unwrap_err();
        assert!(err.contains("\"variant\""), "{err}");
        let no_fusion = exec_json(vec![shape_row(vec![
            ("n", 64usize.into()),
            ("variant", "scalar".into()),
            ("speedup", 1.5.into()),
        ])]);
        let err = check_bench_text(&no_fusion).unwrap_err();
        assert!(err.contains("\"fusion\""), "{err}");
        // …an unknown variant name is a schema error…
        let unknown = exec_doc_variants(&[(64, "warp_specialized", 3.0), (64, "scalar", 1.5)]);
        let err = check_bench_text(&unknown).unwrap_err();
        assert!(err.contains("warp_specialized"), "{err}");
        // …a doc that lost its scalar rows is a schema error (the
        // floor is portable — absence means the sweep shrank)…
        let no_scalar = exec_doc_variants(&[(64, "avx2_fma", 3.0), (64, "avx512f", 3.5)]);
        let err = check_bench_text(&no_scalar).unwrap_err();
        assert!(err.contains("scalar"), "{err}");
        // …and so is a row missing a perf-gate key or an empty table.
        let bad = exec_json(vec![shape_row(vec![
            ("n", 8usize.into()),
            ("variant", "scalar".into()),
            ("fusion", "off".into()),
        ])]);
        assert!(check_bench_text(&bad).unwrap_err().contains("speedup"));
        assert!(check_bench_text(&exec_json(vec![])).is_err());
    }

    #[test]
    fn perf_gate_matches_rows_per_variant() {
        // A variant-less doc is rejected as either side of the gate.
        let base = exec_doc_variants(&[(64, "scalar", 2.1), (64, "avx2_fma", 3.0)]);
        let legacy = variantless_exec_doc();
        let err = check_perf_text(&legacy, &base, 0.10).unwrap_err();
        assert!(err.contains("baseline is not a valid bench doc"), "{err}");
        let err = check_perf_text(&base, &legacy, 0.10).unwrap_err();
        assert!(err.contains("candidate is not a valid bench doc"), "{err}");
        // Rows gate row-for-row; the candidate's extra variants ride
        // along.
        let cand = exec_doc_variants(&[
            (64, "scalar", 2.1),
            (64, "avx2_fma", 2.9),
            (64, "avx512f", 3.5),
        ]);
        assert!(check_perf_text(&base, &cand, 0.10).is_ok());
        // A regressed avx2 row fails even when another variant is fast.
        let regressed = exec_doc_variants(&[(64, "avx2_fma", 2.0), (64, "scalar", 9.0)]);
        assert!(check_perf_text(&base, &regressed, 0.10).is_err());
        // A scalar collapse is caught even with the floored avx2 row
        // healthy.
        let scalar_collapse = exec_doc_variants(&[(64, "scalar", 1.0), (64, "avx2_fma", 3.0)]);
        let err = check_perf_text(&base, &scalar_collapse, 0.10).unwrap_err();
        assert!(err.contains("scalar"), "{err}");
        // The absolute floor binds only the avx2 rows: scalar drifting
        // from 2.1x to 1.95x stays inside tolerance even though 1.95x
        // is under the 2.0x floor.
        let scalar_drift = exec_doc_variants(&[(64, "scalar", 1.95), (64, "avx2_fma", 3.0)]);
        assert!(check_perf_text(&base, &scalar_drift, 0.10).is_ok());
        // A baseline row for an ISA this host lacks (x86-64 has no
        // NEON, aarch64 no AVX-512F) is skipped with a note, not
        // demanded of the candidate.
        let absent = if jigsaw_core::KernelKind::Neon.available() {
            "avx512f"
        } else {
            "neon"
        };
        let wide_base = exec_doc_variants(&[
            (64, "scalar", 2.1),
            (64, "avx2_fma", 3.0),
            (64, absent, 9.0),
        ]);
        let report = check_perf_text(&wide_base, &cand, 0.10).unwrap();
        assert!(report.contains("SKIP"), "{report}");
        // A candidate missing the gated row is an error, not a pass.
        let no_avx2 = exec_doc_variants(&[(64, "neon", 3.0), (64, "scalar", 2.5)]);
        let err = check_perf_text(&base, &no_avx2, 0.10).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn write_bench_json_emits_parseable_file() {
        let dir = std::env::temp_dir().join("jigsaw-bench-obs-test");
        let path = write_bench_json_to(&dir, "unit_write", &toy()).expect("written");
        assert!(path.ends_with("BENCH_unit_write.json"));
        let text = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(check_bench_text(&text), Ok("unit_write".to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
