//! Serving-layer experiment: batched vs unbatched × warm vs cold on
//! one virtual-clock shard (`jigsaw_serve::simulate_sharded`), plus
//! the sharded zipf sweep over {1, 2, 4, 8} consistent-hash shards.
use bench_harness::experiments::serving::{self, ShardSweepSpec};
use bench_harness::obs_export::write_bench_json;
use bench_harness::runner::write_json;
use bench_harness::suite;
use gpu_sim::GpuSpec;

fn main() {
    // Record plan/simulator counters and traces for the BENCH export.
    jigsaw_obs::set_enabled(true);
    let full = suite::full_suite();
    let requests = if full { 256 } else { 64 };
    let sweep = if full {
        ShardSweepSpec::default()
    } else {
        ShardSweepSpec {
            requests: 2_000,
            ..ShardSweepSpec::default()
        }
    };
    let result = serving::run(&GpuSpec::a100(), requests, &sweep);
    println!("{}", result.to_text());
    write_json("serving", &result);
    match write_bench_json("serving", &result) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("BENCH export failed: {e}"),
    }
}
