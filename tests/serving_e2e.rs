//! End-to-end serving tests through the facade: a mixed model zoo, the
//! threaded batching server under concurrent submitters, the registry's
//! byte-budget eviction, and artifact corruption — all driven the way a
//! deployment would, via `jigsaw::serve`.

use std::sync::Arc;

use jigsaw::data::{dense_rhs, ValueDist};
use jigsaw::serve::{
    default_zoo, generate_schedule, generate_zipf_schedule, scaled_zoo, simulate_sharded,
    ForwardConfig, LoadSpec, ModelRegistry, RegistryConfig, RegistryError, ReplicationConfig,
    ServeConfig, Server, ShardConfig, ShardSimConfig, SimConfig, SimRequest, ZipfLoadSpec,
};
use jigsaw::sim::GpuSpec;

fn zoo_registry(seed: u64) -> Arc<ModelRegistry> {
    let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
    for m in default_zoo(seed) {
        reg.register(&m.name, m.weights(), m.config);
    }
    Arc::new(reg)
}

/// Concurrent submitters across the whole zoo: every batched response
/// must be bit-identical to running the same request alone against the
/// planned model — batching may never change the math.
#[test]
fn concurrent_batched_serving_matches_solo_reference() {
    let zoo = default_zoo(21);
    let registry = zoo_registry(21);
    registry.warm_all().unwrap();
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            max_batch_n: 128,
            queue_cap: 64,
            workers: 3,
            ..ServeConfig::default()
        },
    );

    // 4 clients × 8 requests, models and widths striped deterministically.
    let outcomes: Vec<(String, jigsaw::data::Matrix, Vec<f32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client: usize| {
                let zoo = &zoo;
                let server = &server;
                scope.spawn(move || {
                    (0..8)
                        .map(|i| {
                            let model = &zoo[(client + i) % zoo.len()];
                            let n = [4, 8, 16][(client * 3 + i) % 3];
                            let b = dense_rhs(
                                model.k(),
                                n,
                                ValueDist::SmallInt,
                                (client * 100 + i) as u64,
                            );
                            let resp = server
                                .submit(&model.name, b.clone())
                                .expect("admitted")
                                .wait()
                                .expect("served");
                            assert_eq!((resp.rows, resp.cols), (model.m(), n));
                            (model.name.clone(), b, resp.c)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 32);
    assert_eq!(metrics.rejected, 0);
    for (model, b, served) in &outcomes {
        let planned = registry.get(model).unwrap();
        assert_eq!(&planned.execute(b), served, "solo reference for {model}");
    }
}

/// The registry honors its byte budget: with room for only one planned
/// model, alternating fetches evict, and the counters say so.
#[test]
fn registry_eviction_respects_byte_budget() {
    let probe = zoo_registry(33);
    let a = probe.get("attention-small").unwrap().artifact_bytes;
    let b = probe.get("embedding-proj").unwrap().artifact_bytes;
    let budget = a.max(b);

    let reg = ModelRegistry::new(RegistryConfig {
        budget_bytes: budget,
        artifact_dir: None,
        exec_options: Default::default(),
    })
    .unwrap();
    for m in default_zoo(33).into_iter().take(2) {
        reg.register(&m.name, m.weights(), m.config);
    }
    for _ in 0..3 {
        reg.get("attention-small").unwrap();
        reg.get("embedding-proj").unwrap();
        assert!(reg.stats().resident_bytes <= budget, "budget respected");
    }
    let s = reg.stats();
    assert_eq!(s.resident_models, 1, "only one model fits");
    assert!(s.evictions >= 5, "alternating fetches keep evicting");
    assert_eq!(s.misses, 6, "every fetch re-plans after eviction");
    assert_eq!(s.hits, 0);
    assert_eq!(s.hit_rate(), 0.0);

    // The same traffic with an unbounded budget is all hits after warm-up.
    let roomy = zoo_registry(33);
    for _ in 0..3 {
        roomy.get("attention-small").unwrap();
        roomy.get("embedding-proj").unwrap();
    }
    let s = roomy.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (4, 2, 0));
}

/// A corrupt on-disk artifact surfaces as a typed error on fetch —
/// never a panic, never a bad plan.
#[test]
fn corrupt_artifact_is_rejected_end_to_end() {
    let dir = std::env::temp_dir().join("jigsaw-serving-e2e-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let reg = ModelRegistry::new(RegistryConfig {
        budget_bytes: usize::MAX,
        artifact_dir: Some(dir.clone()),
        exec_options: Default::default(),
    })
    .unwrap();
    for m in default_zoo(44).into_iter().take(1) {
        reg.register(&m.name, m.weights(), m.config);
    }
    reg.warm_all().unwrap();
    reg.drop_resident();

    let path = dir.join("attention-small.jgsw");
    let mut bytes = std::fs::read(&path).unwrap();
    for b in bytes.iter_mut().skip(40).take(64) {
        *b ^= 0xA5;
    }
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        reg.fetch("attention-small"),
        Err(RegistryError::Io(_))
    ));

    // Removing the bad artifact recovers by re-planning.
    std::fs::remove_file(&path).unwrap();
    assert!(reg.fetch("attention-small").is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The virtual-clock serving simulator reproduces the experiment's
/// headline: batching strictly beats one-kernel-per-request on the
/// same open-loop schedule.
#[test]
fn simulated_batching_beats_unbatched_on_mixed_traffic() {
    let spec = GpuSpec::a100();
    let schedule = generate_schedule(
        &default_zoo(55),
        &LoadSpec {
            requests: 48,
            seed: 0xE2E,
            n_choices: vec![8, 16],
            mean_gap_cycles: 1_500.0,
        },
    );

    let one_shard = |sim| ShardSimConfig::new(ShardConfig::new(1), sim);
    let warm = zoo_registry(55);
    warm.warm_all().unwrap();
    let batched = simulate_sharded(
        &warm,
        &schedule,
        &one_shard(SimConfig::batched(spec.clone(), 256)),
    );

    let warm2 = zoo_registry(55);
    warm2.warm_all().unwrap();
    let unbatched = simulate_sharded(&warm2, &schedule, &one_shard(SimConfig::unbatched(spec)));

    assert_eq!(batched.completions.len(), 48);
    assert_eq!(unbatched.completions.len(), 48);
    assert!(batched.totals.conserves() && unbatched.totals.conserves());
    assert!(batched.totals.batches < unbatched.totals.batches);
    assert!(
        batched.requests_per_gcycle() > unbatched.requests_per_gcycle(),
        "batched {:.0} vs unbatched {:.0} req/Gcycle",
        batched.requests_per_gcycle(),
        unbatched.requests_per_gcycle()
    );
}

/// Sharded serving end to end (DESIGN.md §14): the zipf load generator
/// and the multi-shard simulator are deterministic per `(seed, shard
/// count)` — same seed ⇒ bit-identical schedule and bit-identical
/// percentiles — and adding shards at the same offered load strictly
/// improves the tail.
#[test]
fn sharded_zipf_serving_is_deterministic_and_scales() {
    let zoo = scaled_zoo(8, 66);
    let registry = ModelRegistry::new(RegistryConfig {
        budget_bytes: 1 << 30,
        ..RegistryConfig::default()
    })
    .unwrap();
    for m in &zoo {
        registry.register(&m.name, m.weights(), m.config);
    }
    registry.warm_all().unwrap();

    let load = ZipfLoadSpec {
        requests: 600,
        users: 100_000,
        seed: 0xE2E5,
        mean_gap_cycles: 300.0,
        ..ZipfLoadSpec::default()
    };
    // Identical schedule from an identical seed, down to user ids.
    let a = generate_zipf_schedule(&zoo, &load);
    let b = generate_zipf_schedule(&zoo, &load);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.user, y.user);
        assert_eq!(x.req.model, y.req.model);
        assert_eq!(
            x.req.arrival_cycle.to_bits(),
            y.req.arrival_cycle.to_bits(),
            "arrivals replay bit-exactly"
        );
    }
    let schedule: Vec<SimRequest> = a.into_iter().map(|z| z.req).collect();

    let cfg = |shards: usize| {
        ShardSimConfig::new(
            ShardConfig::new(shards)
                .with_replication(ReplicationConfig::cycles(32, 2, 1_000_000.0))
                .with_forwarding(ForwardConfig::threshold(8)),
            SimConfig::batched(GpuSpec::a100(), 128),
        )
    };
    // Same seed + shard count ⇒ identical sim percentiles, bit for bit.
    let one = simulate_sharded(&registry, &schedule, &cfg(1));
    let one_again = simulate_sharded(&registry, &schedule, &cfg(1));
    for p in [50.0, 95.0, 99.0] {
        assert_eq!(
            one.latency_cycles.percentile(p).to_bits(),
            one_again.latency_cycles.percentile(p).to_bits(),
            "p{p} replays bit-exactly"
        );
    }
    assert_eq!(
        one.makespan_cycles.to_bits(),
        one_again.makespan_cycles.to_bits()
    );

    // More shards at the same offered load: strictly better tail.
    let four = simulate_sharded(&registry, &schedule, &cfg(4));
    assert!(one.totals.conserves() && four.totals.conserves());
    assert_eq!(four.totals.completed, one.totals.completed, "same load");
    assert!(
        four.latency_cycles.percentile(99.0) < one.latency_cycles.percentile(99.0),
        "4-shard p99 {:.0} vs 1-shard p99 {:.0}",
        four.latency_cycles.percentile(99.0),
        one.latency_cycles.percentile(99.0)
    );
}
