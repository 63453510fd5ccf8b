//! Serving demo: stand up the batching, cache-backed inference service
//! over a small model zoo, drive it with concurrent closed-loop
//! clients, and read the serving report.
//!
//! ```text
//! cargo run --release --example serving_demo
//! ```

use std::sync::Arc;

use jigsaw::serve::{
    default_zoo, run_closed_loop, ModelRegistry, RegistryConfig, ServeConfig, Server,
};

fn main() {
    // A zoo of vector-sparse weight matrices — the stationary operands
    // the paper's one-time reorder amortizes over (§3.1).
    let zoo = default_zoo(7);
    let registry = Arc::new(
        ModelRegistry::new(RegistryConfig::default()).expect("no artifact dir configured"),
    );
    for m in &zoo {
        registry.register(&m.name, m.weights(), m.config);
        println!("registered {:<16} {}x{}", m.name, m.m(), m.k());
    }

    // Warm the plan cache up front so serving never pays the reorder.
    let cold = registry.warm_all().expect("zoo models plan");
    println!(
        "warmed {cold} plans in {:.1} ms",
        registry.stats().cold_host_ns as f64 / 1e6
    );

    // The serving engine: bounded admission queues, two workers, and
    // work-conserving batching — a free worker dispatches at once and
    // coalesces every request queued behind the head along N.
    let server = Server::start(
        registry,
        ServeConfig {
            max_batch_n: 256,
            queue_cap: 64,
            workers: 2,
            ..ServeConfig::default()
        },
    );

    // Eight closed-loop clients, twelve requests each, mixed models and
    // widths — all seeded, so the traffic is reproducible.
    let results = run_closed_loop(&server, &zoo, 8, 12, &[8, 16, 32], 0xFEED);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!("served {ok}/{} requests", results.len());
    if let Some(Ok(resp)) = results.iter().find(|r| r.is_ok()) {
        println!(
            "sample response: {}x{} C, batch of {} requests ({} cols), {:.0} cycles charged",
            resp.rows,
            resp.cols,
            resp.stats.batch_requests,
            resp.stats.batch_n,
            resp.stats.device_cycles,
        );
    }

    let cache = server.registry().stats();
    let metrics = server.shutdown();
    println!("\n{}", metrics.report("serving_demo", &cache));
}
