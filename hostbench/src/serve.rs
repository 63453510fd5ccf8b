//! `serve_zipf` and `serve_churn`: open-loop Poisson traffic from the
//! seeded zipf generator through a threaded `ShardRouter` (2 shards x 1
//! worker, every policy at its default). Latency runs from each
//! request's due time to its own completion.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use dlmc::Matrix;
use gpu_sim::GpuSpec;
use jigsaw_core::{ExecOptions, JigsawSpmm, WorkspacePool};
use jigsaw_obs::SpanRecord;
use jigsaw_serve::{
    assemble_panels, generate_zipf_schedule, rhs_for, scaled_zoo, split_columns, ModelRegistry,
    PlannedModel, RegistryConfig, RequestStats, ServeConfig, ServeError, ShardConfig, ShardRouter,
    SimRequest, SpmmResponse, Ticket, ZipfLoadSpec, ZooModel,
};

use crate::metrics::{Outcome, Report};
use crate::stats::{
    goodput_per_s, mean, median, ms, percentile, ratio, repeated_setup, report_tail, timed, us,
};
use crate::Ctx;

/// One serving workload.
pub struct ServeSpec {
    /// Models in `scaled_zoo`.
    models: usize,
    /// Zipf exponent of model popularity.
    exponent: f64,
    /// Fixed offered rate, requests per second (Poisson arrivals).
    rate_per_s: f64,
    /// Share of all models' artifact bytes one shard's registry budget
    /// holds per shard; `None` sizes the budget so every model fits.
    budget_share: Option<f64>,
    /// Latency limit for goodput, ms from the due time.
    limit_ms: f64,
}

pub const ZIPF: ServeSpec = ServeSpec {
    models: 16,
    exponent: 1.0,
    rate_per_s: 200.0,
    budget_share: None,
    limit_ms: 50.0,
};

pub const CHURN: ServeSpec = ServeSpec {
    models: 64,
    exponent: 0.5,
    rate_per_s: 200.0,
    budget_share: Some(0.25),
    limit_ms: 50.0,
};

const SHARDS: usize = 2;
const WIDTHS: [usize; 3] = [8, 16, 32];
/// Distinct B operands per (model, width): bounds input memory and
/// lets every response be checked against a precomputed solo product.
const VARIANTS: usize = 4;
/// Mean schedule gap in the generator's cycle unit; rescaled to host
/// time by the offered rate.
const GAP_CYCLES: f64 = 1_000.0;
/// How long the collector blocks on its oldest ticket before sweeping
/// the rest: the resolution of an out-of-order completion time.
const POLL: Duration = Duration::from_micros(200);
/// A run whose generator, at p99, took longer than this to submit a due
/// request once it was free to (time blocked inside an earlier submit
/// is the server's and not counted) did not offer the scheduled load
/// and is reported as not correct.
const GEN_LATE_LIMIT_MS: f64 = 10.0;

/// Seeded inputs shared by every phase of one run.
struct Inputs {
    zoo: Vec<ZooModel>,
    weights: Vec<Matrix>,
    /// `rhs[model][width][variant]`.
    rhs: Vec<Vec<Vec<Matrix>>>,
    /// Solo `PlannedModel::execute` products, same indexing.
    reference: Vec<Vec<Vec<Vec<f32>>>>,
    /// Every model planned on a registry this benchmark owns.
    planned: Vec<std::sync::Arc<PlannedModel>>,
    budget_bytes: usize,
}

/// One scheduled request, host-timed.
#[derive(Debug, PartialEq)]
struct Due {
    model: usize,
    width: usize,
    variant: usize,
    at: Duration,
}

/// A submitted request awaiting its response.
struct Pending {
    due: usize,
    due_at: Instant,
    /// Due time to submit.
    late: Duration,
    /// The part of `late` the client itself caused: time blocked in
    /// its previous submit is the server's and not counted.
    own_late: Duration,
    route: Duration,
}

/// One finished request.
struct Done {
    due: usize,
    /// Due time to observed completion, ms; +inf when rejected, failed
    /// or wrong.
    latency_ms: f64,
    late: Duration,
    own_late: Duration,
    route: Duration,
    wrong: bool,
    stats: Option<RequestStats>,
    trace: Option<SpanRecord>,
}

fn width_index(n: usize) -> usize {
    WIDTHS
        .iter()
        .position(|&w| w == n)
        .expect("schedule draws from WIDTHS")
}

/// The seeded inputs of one run, before anything is planned.
struct Generated {
    zoo: Vec<ZooModel>,
    weights: Vec<Matrix>,
    rhs: Vec<Vec<Vec<Matrix>>>,
    dues: Vec<Due>,
}

/// Everything the run feeds the server, from the seed alone.
fn generate(ctx: &Ctx, spec: &ServeSpec) -> Generated {
    let zoo = scaled_zoo(spec.models, ctx.seed_for(0));
    let weights: Vec<Matrix> = zoo.iter().map(ZooModel::weights).collect();
    let index: HashMap<String, usize> = zoo
        .iter()
        .enumerate()
        .map(|(i, m)| (m.name.clone(), i))
        .collect();
    let rhs_seed = ctx.seed_for(2);
    let rhs: Vec<Vec<Vec<Matrix>>> = zoo
        .iter()
        .map(|m| {
            WIDTHS
                .iter()
                .map(|&n| {
                    (0..VARIANTS)
                        .map(|variant| {
                            let req = SimRequest {
                                id: variant,
                                model: m.name.clone(),
                                arrival_cycle: 0.0,
                                n,
                                deadline_cycles: None,
                            };
                            rhs_for(&zoo, &req, rhs_seed)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    // The schedule is stitched from one-second segments, each drawn
    // with its own seed, so the hot model rotates: a run then averages
    // over many popularity rankings instead of resting on one draw.
    let ns_per_cycle = 1e9 / (spec.rate_per_s * GAP_CYCLES);
    let segments = ctx.seconds.ceil() as usize;
    let mut dues = Vec::new();
    for segment in 0..segments {
        let schedule = generate_zipf_schedule(
            &zoo,
            &ZipfLoadSpec {
                requests: (spec.rate_per_s * 1.5) as usize + 16,
                users: 1_000_000,
                seed: ctx.seed_for(1_000 + segment as u64),
                exponent: spec.exponent,
                n_choices: WIDTHS.to_vec(),
                mean_gap_cycles: GAP_CYCLES,
                deadline_cycles: None,
            },
        );
        let offset = Duration::from_secs(segment as u64);
        dues.extend(
            schedule
                .iter()
                .map(|z| {
                    (
                        z,
                        Duration::from_nanos((z.req.arrival_cycle * ns_per_cycle) as u64),
                    )
                })
                .take_while(|(_, at)| *at < Duration::from_secs(1))
                .map(|(z, at)| Due {
                    model: index[&z.req.model],
                    width: width_index(z.req.n),
                    variant: z.req.id % VARIANTS,
                    at: offset + at,
                }),
        );
    }
    Generated {
        zoo,
        weights,
        rhs,
        dues,
    }
}

/// Plans every model on a registry this benchmark owns, computes the
/// solo reference product of every B operand, and sizes the shard
/// budget from the models' artifact bytes.
fn prepare(ctx: &Ctx, spec: &ServeSpec) -> (Inputs, Vec<Due>) {
    let Generated {
        zoo,
        weights,
        rhs,
        dues,
    } = generate(ctx, spec);
    let own = ModelRegistry::new(RegistryConfig {
        budget_bytes: usize::MAX,
        artifact_dir: None,
        exec_options: ExecOptions::default(),
    })
    .expect("no artifact dir to create");
    for (m, w) in zoo.iter().zip(&weights) {
        own.register(&m.name, w.clone(), m.config);
    }
    let planned: Vec<_> = zoo
        .iter()
        .map(|m| own.get(&m.name).expect("zoo models plan"))
        .collect();
    let reference = planned
        .iter()
        .zip(&rhs)
        .map(|(p, per_width)| {
            per_width
                .iter()
                .map(|bs| bs.iter().map(|b| p.execute(b)).collect())
                .collect()
        })
        .collect();
    let total_bytes: usize = planned.iter().map(|p| p.artifact_bytes).sum();
    let budget_bytes = match spec.budget_share {
        Some(share) => (total_bytes as f64 * share / SHARDS as f64) as usize,
        None => 2 * total_bytes,
    };

    let inputs = Inputs {
        zoo,
        weights,
        rhs,
        reference,
        planned,
        budget_bytes,
    };
    (inputs, dues)
}

/// Starts the router under test, registers the zoo, and warms it.
fn start_router(inputs: &Inputs, artifact_dir: std::path::PathBuf) -> ShardRouter {
    let router = ShardRouter::start(
        ShardConfig::new(SHARDS),
        RegistryConfig {
            budget_bytes: inputs.budget_bytes,
            artifact_dir: Some(artifact_dir),
            exec_options: ExecOptions::default(),
        },
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    for (m, w) in inputs.zoo.iter().zip(&inputs.weights) {
        router.register(&m.name, w.clone(), m.config);
    }
    // Warm-up: every model planned (and persisted) once on its home
    // shard; under a small budget the LRU then holds the last quarter.
    for (i, m) in inputs.zoo.iter().enumerate() {
        let b = inputs.rhs[i][0][0].clone();
        let ticket = router.submit(&m.name, b).expect("warm-up admitted");
        ticket.wait().expect("warm-up served");
    }
    router
}

/// Drives `dues` open-loop against `router`. Each shard gets one client
/// thread that submits that shard's requests on schedule and, while it
/// waits for the next due time, records each of its tickets at its own
/// completion. Client threads total `SHARDS` (this thread included), and
/// a submit blocked behind one shard's cold fetch never delays another
/// shard's traffic. Returns every request's outcome in schedule order and
/// the window's end, in seconds after the first due time.
fn drive(router: &ShardRouter, inputs: &Inputs, dues: &[Due]) -> (Vec<Done>, f64) {
    let t0 = Instant::now() + Duration::from_millis(5);
    let lanes: Vec<Vec<usize>> = (0..SHARDS)
        .map(|shard| {
            (0..dues.len())
                .filter(|&i| router.home_shard(&inputs.zoo[dues[i].model].name) == shard)
                .collect()
        })
        .collect();
    let mut done = std::thread::scope(|s| {
        let others: Vec<_> = lanes[1..]
            .iter()
            .map(|lane| s.spawn(move || client(router, inputs, dues, lane, t0)))
            .collect();
        let mut done = client(router, inputs, dues, &lanes[0], t0);
        for h in others {
            done.extend(h.join().expect("client thread"));
        }
        done
    });
    done.sort_by_key(|d| d.due);
    let last = done
        .iter()
        .filter(|d| d.latency_ms.is_finite())
        .map(|d| dues[d.due].at.as_secs_f64() + d.latency_ms / 1e3)
        .fold(0.0, f64::max);
    (done, last)
}

/// One client connection: the requests of `lane`, submitted at their
/// due times, with completions collected in between. It blocks on its
/// oldest ticket for at most `POLL` (never past the next due time),
/// then polls the rest.
fn client(
    router: &ShardRouter,
    inputs: &Inputs,
    dues: &[Due],
    lane: &[usize],
    t0: Instant,
) -> Vec<Done> {
    let mut out = Vec::with_capacity(lane.len());
    let mut pending: Vec<(Pending, Ticket)> = Vec::new();
    let mut next = lane.iter().copied().peekable();
    let mut free_at = t0;
    loop {
        let due_at = next.peek().map(|&i| t0 + dues[i].at);
        if let Some(due_at) = due_at.filter(|&d| Instant::now() >= d) {
            let i = next.next().expect("peeked");
            let d = &dues[i];
            let b = inputs.rhs[d.model][d.width][d.variant].clone();
            let sent_at = Instant::now();
            let ticket = router.submit(&inputs.zoo[d.model].name, b);
            let route = sent_at.elapsed();
            let sent = Pending {
                due: i,
                due_at,
                late: sent_at.saturating_duration_since(due_at),
                own_late: sent_at.saturating_duration_since(due_at.max(free_at)),
                route,
            };
            free_at = Instant::now();
            match ticket {
                Ok(t) => pending.push((sent, t)),
                Err(_) => out.push(finish(
                    inputs,
                    dues,
                    &sent,
                    Err(ServeError::Canceled),
                    free_at,
                )),
            }
            continue;
        }
        let Some((_, oldest)) = pending.first() else {
            match due_at {
                Some(d) => std::thread::sleep(d.saturating_duration_since(Instant::now())),
                None => break,
            }
            continue;
        };
        let wait = due_at.map_or(POLL, |d| {
            d.saturating_duration_since(Instant::now()).min(POLL)
        });
        if let Some(r) = oldest.wait_timeout(wait) {
            let at = Instant::now();
            let (sent, _) = pending.remove(0);
            out.push(finish(inputs, dues, &sent, r, at));
        }
        let mut i = 0;
        while i < pending.len() {
            match pending[i].1.wait_timeout(Duration::ZERO) {
                Some(r) => {
                    let at = Instant::now();
                    let (sent, _) = pending.remove(i);
                    out.push(finish(inputs, dues, &sent, r, at));
                }
                None => i += 1,
            }
        }
    }
    out
}

/// Records one request's outcome, observed complete at `at`; a response
/// that differs from the solo reference product counts as failed.
fn finish(
    inputs: &Inputs,
    dues: &[Due],
    sent: &Pending,
    result: Result<SpmmResponse, ServeError>,
    at: Instant,
) -> Done {
    let d = &dues[sent.due];
    let (latency_ms, wrong, stats, trace) = match result {
        Ok(r) => {
            let wrong = r.c != inputs.reference[d.model][d.width][d.variant];
            let latency = if wrong {
                f64::INFINITY
            } else {
                ms(at.saturating_duration_since(sent.due_at))
            };
            (latency, wrong, Some(r.stats), r.trace)
        }
        Err(_) => (f64::INFINITY, false, None, None),
    };
    Done {
        due: sent.due,
        latency_ms,
        late: sent.late,
        own_late: sent.own_late,
        route: sent.route,
        wrong,
        stats,
        trace,
    }
}

/// Host-timed replay of one observed batch shape on plans this
/// benchmark owns.
struct BatchCost {
    exec_us: f64,
    sim_us: f64,
    assemble_us: f64,
    split_us: f64,
    instructions: f64,
}

/// One served batch, reassembled from the per-request traces.
struct Batch {
    start_ns: u64,
    model: usize,
    widths: Vec<usize>,
    fetch: String,
    assemble_ms: f64,
    kernel_ms: f64,
    split_ms: f64,
}

fn batches_of(done: &[Done], dues: &[Due]) -> Vec<Batch> {
    let mut by_start: BTreeMap<(u64, usize), Batch> = BTreeMap::new();
    for d in done {
        let Some(batch) = d.trace.as_ref().and_then(|t| t.find("batch")) else {
            continue;
        };
        let due = &dues[d.due];
        let wall = |name: &str| batch.find(name).map_or(0.0, |s| s.wall_ns as f64 / 1e6);
        let entry = by_start
            .entry((batch.start_ns, due.model))
            .or_insert_with(|| Batch {
                start_ns: batch.start_ns,
                model: due.model,
                widths: Vec::new(),
                fetch: batch
                    .find("assemble")
                    .and_then(|a| a.attr("fetch"))
                    .map(|v| format!("{v:?}"))
                    .unwrap_or_default(),
                assemble_ms: wall("assemble"),
                kernel_ms: wall("kernel"),
                split_ms: wall("split"),
            });
        entry.widths.push(WIDTHS[due.width]);
    }
    by_start.into_values().collect()
}

fn replay_cost(planned: &PlannedModel, parts: &[&Matrix], spec: &GpuSpec) -> BatchCost {
    let pool = WorkspacePool::new();
    let widths: Vec<usize> = parts.iter().map(|p| p.cols).collect();
    let total: usize = widths.iter().sum();
    drop(planned.execute_batch_pooled(parts, &pool));
    let (out, exec) = timed(|| planned.execute_batch_pooled(parts, &pool));
    let (c, _) = out.expect("observed batch shapes are valid");
    let (split, split_t) = timed(|| split_columns(&c, planned.m(), &widths));
    split.expect("widths sum to the batch");
    let mut scratch = vec![0.0f32; planned.k() * total];
    let (assembled, assemble_t) = timed(|| assemble_panels(parts, &mut scratch));
    assembled.expect("parts share K");
    let (stats, sim) = timed(|| planned.simulate(total, spec));
    BatchCost {
        exec_us: us(exec),
        sim_us: us(sim),
        assemble_us: us(assemble_t),
        split_us: us(split_t),
        instructions: stats.totals.instructions as f64,
    }
}

/// Replays each shard's observed fetch sequence on a registry this
/// benchmark owns, configured like the shard's (same budget, a fresh
/// shared artifact dir, the same warm-up), timing every fetch.
fn replay_registry(
    inputs: &Inputs,
    router: &ShardRouter,
    batches: &[Batch],
    dir: std::path::PathBuf,
) -> (jigsaw_serve::CacheStats, Vec<f64>) {
    let mut totals = jigsaw_serve::CacheStats::default();
    let mut cold_ms = Vec::new();
    for shard in 0..SHARDS {
        let reg = ModelRegistry::new(RegistryConfig {
            budget_bytes: inputs.budget_bytes,
            artifact_dir: Some(dir.clone()),
            exec_options: ExecOptions::default(),
        })
        .expect("replay artifact dir");
        let owned: Vec<usize> = (0..inputs.zoo.len())
            .filter(|&i| router.home_shard(&inputs.zoo[i].name) == shard)
            .collect();
        for &i in &owned {
            reg.register(
                &inputs.zoo[i].name,
                inputs.weights[i].clone(),
                inputs.zoo[i].config,
            );
        }
        for &i in &owned {
            reg.fetch(&inputs.zoo[i].name).expect("warm-up fetch");
        }
        let before = reg.stats();
        for b in batches.iter().filter(|b| owned.contains(&b.model)) {
            let (fetched, t) = timed(|| reg.fetch(&inputs.zoo[b.model].name));
            let (_, kind) = fetched.expect("registered model fetches");
            if kind.is_cold() {
                cold_ms.push(ms(t));
            }
        }
        let after = reg.stats();
        totals.hits += after.hits - before.hits;
        totals.misses += after.misses - before.misses;
        totals.plans += after.plans - before.plans;
        totals.disk_loads += after.disk_loads - before.disk_loads;
        totals.evictions += after.evictions - before.evictions;
    }
    (totals, cold_ms)
}

/// Useful flops of the correctly served requests.
fn served_flops(done: &[Done], dues: &[Due], inputs: &Inputs) -> f64 {
    done.iter()
        .filter(|d| d.latency_ms.is_finite())
        .map(|d| {
            let due = &dues[d.due];
            2.0 * inputs.weights[due.model].nnz() as f64 * WIDTHS[due.width] as f64
        })
        .sum()
}

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| d.latency_ms).collect()
}

pub fn run(ctx: &Ctx, spec: &ServeSpec) -> Outcome {
    let (inputs, all_dues) = prepare(ctx, spec);
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let dues: Vec<Due> = all_dues
        .into_iter()
        .take_while(|d| d.at.as_secs_f64() < seconds)
        .collect();

    let mut rep = 0;
    let (router, setup_s) = repeated_setup(|| {
        rep += 1;
        start_router(&inputs, ctx.run_dir.join(format!("artifacts-{rep}")))
    });
    let (plain, plain_last) = drive(&router, &inputs, &dues);
    let plain_ms = latencies(&plain);
    let late_p99 =
        |done: &[Done]| percentile(&done.iter().map(|d| ms(d.late)).collect::<Vec<_>>(), 99.0);
    let own_late_p99 = |done: &[Done]| {
        percentile(
            &done.iter().map(|d| ms(d.own_late)).collect::<Vec<_>>(),
            99.0,
        )
    };
    let mut report = Report::default();
    let mut wrong = plain.iter().filter(|d| d.wrong).count() as u64;
    let mut failed = plain.iter().filter(|d| !d.latency_ms.is_finite()).count() as u64;
    let mut attempted = plain.len() as u64;
    let mut behind = own_late_p99(&plain) > GEN_LATE_LIMIT_MS;
    println!(
        "# generator lateness p99: {:.3} ms from due, {:.3} ms its own",
        late_p99(&plain),
        own_late_p99(&plain)
    );
    if !ctx.trace {
        drop(router);
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        report.set(
            "kernel_gflops",
            served_flops(&plain, &dues, &inputs) / plain_last / 1e9,
        );
        // Requests differ (model, width, queue), so the fast path of an
        // open loop is a low percentile, not the single fastest request.
        report.set("op_ms_best", percentile(&plain_ms, 10.0));
        if behind {
            println!(
                "# generator fell behind: own lateness p99 {:.3} ms",
                own_late_p99(&plain)
            );
        }
        return Outcome {
            correct: wrong == 0 && !behind,
            attempted,
            failed,
            report,
        };
    }

    // The traced window gets a router of its own, set up exactly like
    // the untraced one, so both windows and the registry replay below
    // start from the same state.
    drop(router);
    let router = start_router(&inputs, ctx.run_dir.join("artifacts-traced"));
    jigsaw_obs::set_enabled(true);
    let (traced, traced_last) = drive(&router, &inputs, &dues);
    jigsaw_obs::set_enabled(false);
    let router_metrics = router.metrics();
    wrong += traced.iter().filter(|d| d.wrong).count() as u64;
    failed += traced.iter().filter(|d| !d.latency_ms.is_finite()).count() as u64;
    attempted += traced.len() as u64;
    behind |= own_late_p99(&traced) > GEN_LATE_LIMIT_MS;
    let traced_ms = latencies(&traced);

    // Planning layer on one model per distinct zoo shape.
    let (mut plan_ms, mut compile_ms) = (Vec::new(), Vec::new());
    for (m, w) in inputs.zoo.iter().zip(&inputs.weights).take(4) {
        let (spmm, t) = timed(|| JigsawSpmm::plan(w, m.config).expect("zoo models plan"));
        plan_ms.push(ms(t));
        let (_, t) = timed(|| spmm.compiled().clone());
        compile_ms.push(ms(t));
    }
    report.set("plan.ms", mean(&plan_ms));
    report.set("compile.ms", mean(&compile_ms));

    // Split every batch's kernel span into host execution and simulate
    // by replaying each distinct (model, total width) once.
    let spec_gpu = GpuSpec::a100();
    let batches = batches_of(&traced, &dues);
    let mut costs: HashMap<(usize, usize), BatchCost> = HashMap::new();
    for b in &batches {
        let total: usize = b.widths.iter().sum();
        costs.entry((b.model, total)).or_insert_with(|| {
            let parts: Vec<&Matrix> = b
                .widths
                .iter()
                .map(|&n| &inputs.rhs[b.model][width_index(n)][0])
                .collect();
            replay_cost(&inputs.planned[b.model], &parts, &spec_gpu)
        });
    }
    let cost_of = |b: &Batch| &costs[&(b.model, b.widths.iter().sum::<usize>())];
    let nb = batches.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Batch) -> f64| batches.iter().map(f).sum::<f64>();
    let exec_us = sum(&|b| cost_of(b).exec_us);
    let sim_us = sum(&|b| cost_of(b).sim_us);
    let batch_flops = sum(&|b| {
        2.0 * inputs.weights[b.model].nnz() as f64 * b.widths.iter().sum::<usize>() as f64
    });
    report.set("core.exec_us", exec_us / nb);
    report.set("core.gflops", ratio(batch_flops, exec_us * 1e3));
    report.set("sim.us_per_call", sim_us / nb);
    report.set("sim.calls", batches.len() as f64);
    report.set(
        "sim.instr_per_s",
        ratio(sum(&|b| cost_of(b).instructions), sim_us * 1e-6),
    );
    report.set("batch.assemble_us", sum(&|b| cost_of(b).assemble_us) / nb);
    report.set("batch.split_us", sum(&|b| cost_of(b).split_us) / nb);

    // Per-request attribution: route + queue + the batch's assemble,
    // kernel (split into exec and sim by the replay ratio) and split.
    let by_start: HashMap<u64, &Batch> = batches.iter().map(|b| (b.start_ns, b)).collect();
    let (mut latency_sum, mut attributed, mut sim_attr) = (0.0, 0.0, 0.0);
    for d in traced.iter().filter(|d| d.latency_ms.is_finite()) {
        let (Some(stats), Some(batch)) = (
            &d.stats,
            d.trace
                .as_ref()
                .and_then(|t| t.find("batch"))
                .and_then(|b| by_start.get(&b.start_ns)),
        ) else {
            continue;
        };
        let c = cost_of(batch);
        let sim_part = batch.kernel_ms * ratio(c.sim_us, c.sim_us + c.exec_us);
        latency_sum += d.latency_ms;
        sim_attr += sim_part;
        attributed += ms(d.route)
            + stats.queue_host_ns as f64 / 1e6
            + batch.assemble_ms
            + batch.kernel_ms
            + batch.split_ms;
    }
    report.set("sim.host_share", ratio(sim_attr, latency_sum));
    report.set(
        "serve.unattributed_frac",
        1.0 - ratio(attributed, latency_sum),
    );
    let stats: Vec<&RequestStats> = traced.iter().filter_map(|d| d.stats.as_ref()).collect();
    report.set(
        "sim.cycles_per_op",
        mean(&stats.iter().map(|s| s.device_cycles).collect::<Vec<_>>()),
    );
    let n_batches: f64 = stats.iter().map(|s| 1.0 / s.batch_requests as f64).sum();
    report.set("batch.requests_mean", ratio(stats.len() as f64, n_batches));
    report.set(
        "batch.n_mean",
        ratio(
            stats
                .iter()
                .map(|s| s.batch_n as f64 / s.batch_requests as f64)
                .sum(),
            n_batches,
        ),
    );
    let queue_ms: Vec<f64> = stats.iter().map(|s| s.queue_host_ns as f64 / 1e6).collect();
    report.set("server.queue_ms_p50", median(&queue_ms));
    report.set("server.queue_ms_p99", percentile(&queue_ms, 99.0));

    let (cache, cold_ms) = replay_registry(
        &inputs,
        &router,
        &batches,
        ctx.run_dir.join("artifacts-replay"),
    );
    let live = |kind: &str| batches.iter().filter(|b| b.fetch.contains(kind)).count();
    println!(
        "# live fetches: hit={} disk_load={} planned={}; replayed: hits={} disk_loads={} plans={} evictions={}",
        live("hit"),
        live("disk_load"),
        live("planned"),
        cache.hits,
        cache.disk_loads,
        cache.plans,
        cache.evictions
    );
    report.set("registry.hit_rate", cache.hit_rate());
    report.set("registry.cold_fetch_ms_p50", median(&cold_ms));
    report.set("registry.cold_fetch_ms_p99", percentile(&cold_ms, 99.0));
    report.set("registry.plans", cache.plans as f64);
    report.set("registry.disk_loads", cache.disk_loads as f64);
    report.set("registry.evictions", cache.evictions as f64);

    let completed: Vec<f64> = router_metrics
        .per_shard
        .iter()
        .map(|m| m.completed as f64)
        .collect();
    report.set(
        "shard.imbalance",
        ratio(
            completed.iter().copied().fold(0.0, f64::max),
            mean(&completed),
        ),
    );
    report.set("shard.forwarded", router_metrics.forwarded as f64);
    report.set(
        "shard.route_us",
        mean(&traced.iter().map(|d| us(d.route)).collect::<Vec<_>>()),
    );
    drop(router);
    report.set("gen.late_ms_p99", late_p99(&traced));
    report_tail(&mut report, &traced_ms);
    report.set(
        "serve.goodput_per_s",
        goodput_per_s(&traced_ms, spec.limit_ms, traced_last),
    );
    report.set(
        "serve.fail_frac",
        ratio(
            traced.iter().filter(|d| !d.latency_ms.is_finite()).count() as f64,
            traced.len() as f64,
        ),
    );
    report.set(
        "obs.overhead_frac",
        ratio(median(&traced_ms), median(&plain_ms)) - 1.0,
    );
    Outcome {
        correct: wrong == 0 && !behind,
        attempted,
        failed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> Ctx {
        Ctx {
            seed,
            seconds: 3.0,
            trace: false,
            run_dir: std::path::PathBuf::new(),
        }
    }

    #[test]
    fn schedules_and_operands_are_bit_deterministic_in_the_seed() {
        for spec in [&ZIPF, &CHURN] {
            let a = generate(&ctx(5), spec);
            let b = generate(&ctx(5), spec);
            assert_eq!(a.dues, b.dues);
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.rhs, b.rhs);
            let c = generate(&ctx(6), spec);
            assert_ne!(a.dues, c.dues);
            assert_ne!(a.weights, c.weights);
            assert_ne!(a.rhs, c.rhs);
        }
    }

    #[test]
    fn schedule_offers_the_fixed_rate_over_the_window() {
        let g = generate(&ctx(5), &ZIPF);
        assert!(g.dues.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(g.dues.last().expect("requests").at < Duration::from_secs(3));
        // Poisson count over 3 s at 200/s: mean 600, sd ~24.
        let n = g.dues.len() as f64;
        assert!((n - 600.0).abs() < 120.0, "{n} requests");
        let models: std::collections::BTreeSet<usize> = g.dues.iter().map(|d| d.model).collect();
        assert!(models.len() > 8, "zipf traffic reaches most of the zoo");
    }
}
